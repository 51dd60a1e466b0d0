import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spacerank
from spacerank import baselines, cli, spaces
from spacerank.cli import main


class TestSplitCommand:
    def test_writes_file_and_manifest(self, pipeline):
        split = pipeline["split"]
        assert split.exists()
        manifest = json.loads((split.parent / "split.tsv.manifest.json").read_text())
        assert manifest["command"] == "split"
        assert manifest["parameters"]["every"] == 25
        assert len(manifest["inputs"]) == 1

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        out2 = tmp_path / "again"
        main(["split", "--ratings", str(pipeline["ratings"]), "--out", str(out2)])
        assert (out2 / "split.tsv").read_bytes() == pipeline["split"].read_bytes()

    def test_oversized_interval_warns(self, pipeline, tmp_path, capsys):
        code = main([
            "split", "--ratings", str(pipeline["ratings"]),
            "--every", "1000000", "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "exceeds" in err
        assert (tmp_path / "o" / "split.tsv").read_text() == ""

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["split", "--ratings", str(tmp_path / "no.dat"), "--out", str(tmp_path)]) == 2


class TestTrainSpaceCommand:
    def test_cf_deterministic_rerun(self, pipeline, tmp_path):
        again = tmp_path / "cf2.space"
        main([
            "train-space", "--mode", "cf", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--dims", "16", "--iters", "4",
            "--seed", "5", "--out", str(again),
        ])
        assert again.read_bytes() == pipeline["space"].read_bytes()

    def test_manifest_records_resolved_iterations(self, pipeline):
        manifest = json.loads((pipeline["out"] / "cf.space.manifest.json").read_text())
        assert manifest["parameters"]["iters"] == 4
        assert manifest["parameters"]["holdout"] == "test"
        assert manifest["seed"] == 5

    def test_cb_requires_reviews(self, pipeline, tmp_path):
        code = main([
            "train-space", "--mode", "cb", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--dims", "8", "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_cb_trains_from_reviews(self, pipeline, tmp_path):
        out = tmp_path / "cb.space"
        code = main([
            "train-space", "--mode", "cb", "--ratings", str(pipeline["ratings"]),
            "--reviews", str(pipeline["reviews"]), "--split", str(pipeline["split"]),
            "--dims", "8", "--iters", "2", "--out", str(out),
        ])
        assert code == 0
        space = cli.load_space(out)
        assert (len(space), space.dimensions, space.provenance) == (300, 8, "cb")
        assert space.matrix.dtype == np.float32

    def test_vsm_ignores_dims_with_warning(self, pipeline, tmp_path, capsys):
        out = tmp_path / "vsm.space"
        code = main([
            "train-space", "--mode", "vsm", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--dims", "3", "--out", str(out),
        ])
        assert code == 0
        assert "ignored" in capsys.readouterr().err
        space = cli.load_space(out)
        assert (len(space), space.dimensions, space.provenance) == (300, 200, "vsm")
        assert space.matrix.dtype == np.float64

    def test_missing_dims_is_error(self, pipeline, tmp_path):
        code = main([
            "train-space", "--mode", "cf", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_diverged_training_writes_no_space(self, pipeline, tmp_path):
        out = tmp_path / "nan.space"
        with np.errstate(all="ignore"):
            code = main([
                "train-space", "--mode", "cf", "--ratings", str(pipeline["ratings"]),
                "--split", str(pipeline["split"]), "--dims", "8", "--iters", "2",
                "--alpha", "1e4", "--out", str(out),
            ])
        assert code == 2
        assert not out.exists()


class TestRecommendCommand:
    def test_prints_k_scored_lines(self, pipeline, capsys):
        code = main([
            "recommend", "--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--user", "1", "--k", "7",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        scores = [float(line.split("\t")[1]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_user_cannot_rank(self, pipeline):
        code = main([
            "recommend", "--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--user", "99999",
        ])
        assert code == 3

    def test_same_top_k_as_a_user_ranked_in_an_evaluate_block(self, pipeline, capsys):
        common = [
            "--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--phi-t", "all", "--phi-d", "5", "--seed", "3",
        ]
        assert main(["recommend", *common, "--user", "2"]) == 0
        recommended = [int(line.split("\t")[0]) for line in capsys.readouterr().out.splitlines()]

        args = cli.build_parser().parse_args(["evaluate", "--system", "ds", *common, "--out", "unused"])
        _, training = cli._training_events(cli.load_ratings(args.ratings), args.split, args.holdout)
        events_by_user, rated_by_user = {}, {}
        for e in training:
            events_by_user.setdefault(e.user_id, []).append(e)
            rated_by_user.setdefault(e.user_id, set()).add(e.item_id)
        top = cli._user_ranker_topk(cli.load_space(args.space), 2, events_by_user, rated_by_user, args)
        assert len(recommended) == 10
        assert top == recommended

    def test_phi_t_all_accepted(self, pipeline, capsys):
        code = main([
            "recommend", "--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--user", "2", "--phi-t", "all",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 10


class TestEvaluateCommand:
    def test_pop_results_file(self, pipeline, tmp_path, capsys):
        out = tmp_path / "pop.results"
        code = main([
            "evaluate", "--system", "pop", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("recall@10\t")
        assert all(line.split("\t")[2] in ("0", "1") for line in lines[:-1])
        assert (tmp_path / "pop.results.manifest.json").exists()

    def test_holdout_regimes_disjoint_targets(self, pipeline, tmp_path):
        test_out = tmp_path / "t.results"
        val_out = tmp_path / "v.results"
        main([
            "evaluate", "--system", "pop", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--holdout", "test", "--out", str(test_out),
        ])
        main([
            "evaluate", "--system", "pop", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--holdout", "validation", "--out", str(val_out),
        ])
        read = lambda p: {tuple(l.split("\t")[:2]) for l in p.read_text().splitlines()[:-1]}
        assert not read(test_out) & read(val_out)

    def test_ds_provenance_mismatch_refused(self, pipeline, tmp_path):
        code = main([
            "evaluate", "--system", "ds", "--space", str(pipeline["space"]),
            "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
            "--holdout", "validation", "--out", str(tmp_path / "x.results"),
        ])
        assert code == 2

    def test_knn_evaluates(self, pipeline, tmp_path):
        out = tmp_path / "knn.results"
        code = main([
            "evaluate", "--system", "knn", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--k-neighbors", "15", "--out", str(out),
        ])
        assert code == 0

    def test_space_from_another_split_refused(self, pipeline, tmp_path):
        # Under another split some of the space's training pairs are test pairs.
        main(["split", "--ratings", str(pipeline["ratings"]), "--every", "7", "--out", str(tmp_path)])
        common = [
            "--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
            "--split", str(tmp_path / "split.tsv"),
        ]
        out = tmp_path / "x.results"
        assert main(["evaluate", "--system", "ds", *common, "--out", str(out)]) == 2
        assert not out.exists()
        assert main(["recommend", *common, "--user", "1"]) == 2

    @pytest.mark.parametrize("system", ["pop", "knn", "ds"])
    def test_worker_count_does_not_change_results(self, pipeline, tmp_path, system):
        # per-user seeds make the parallel path order-independent
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"{system}{workers}.results"
            code = main([
                "evaluate", "--system", system, "--space", str(pipeline["space"]),
                "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
                "--workers", workers, "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_ds_skips_users_whose_pairs_are_all_downsampled_away(self, pipeline, tmp_path, capsys):
        # --phi-t 2 keeps two rated items per user. When both share a level, only
        # rated-unrated pairs remain, and --phi-d 1e9 drops every one of them.
        common = ["--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
                  "--split", str(pipeline["split"]), "--phi-t", "2", "--phi-d", "1e9"]
        out = tmp_path / "ds.results"
        assert main(["evaluate", "--system", "ds", *common, "--out", str(out)]) == 0
        summary = capsys.readouterr().out

        events = cli.load_ratings(pipeline["ratings"])
        split, training = cli._training_events(events, pipeline["split"], "test")
        space = cli.load_space(pipeline["space"])
        events_by_user = {}
        for e in training:
            events_by_user.setdefault(e.user_id, []).append(e)

        def rated_levels(user_id):
            try:
                triples = cli.build_preferences(events_by_user.get(user_id, ()), space, 2)
            except cli.CannotRankError:
                return set()
            return {t.level for t in triples if t.level}

        targets = cli.test_targets(split, events, which="test")
        skipped = [t for t in targets if len(rated_levels(t[0])) < 2]
        assert 0 < len(skipped) < len(targets)
        assert f"over {len(targets) - len(skipped)} targets ({len(skipped)} skipped)" in summary
        assert len(out.read_text().splitlines()) == len(targets) - len(skipped) + 1

    @pytest.mark.parametrize("system", ["pop", "knn", "ds"])
    def test_user_with_every_rating_held_out_is_skipped(self, pipeline, tmp_path, capsys, system):
        # a new user whose two liked ratings are both test targets has no training ratings
        events = cli.load_ratings(pipeline["ratings"])
        user, items = max(e.user_id for e in events) + 1, [events[0].item_id, events[1].item_id]
        ratings, split = tmp_path / "ratings.dat", tmp_path / "split.tsv"
        ratings.write_text(pipeline["ratings"].read_text()
                           + "".join(f"{user}::{item}::5::{t}\n" for t, item in enumerate(items)))
        split.write_text(pipeline["split"].read_text()
                         + "".join(f"{user}\t{item}\ttest\n" for item in items))
        common = ["--ratings", str(ratings), "--split", str(split)]
        space = tmp_path / "cf.space"
        assert main(["train-space", "--mode", "cf", *common, "--dims", "8", "--iters", "2",
                     "--out", str(space)]) == 0
        capsys.readouterr()
        out = tmp_path / f"{system}.results"
        code = main(["evaluate", "--system", system, "--space", str(space), *common,
                     "--out", str(out)])
        assert code == 0
        targets = cli.test_targets(cli.load_split(split, cli.load_ratings(ratings)),
                                   cli.load_ratings(ratings))
        assert [(user, item) for item in sorted(items)] == [t for t in targets if t[0] == user]
        lines = out.read_text().splitlines()[:-1]
        assert lines and not any(line.startswith(f"{user}\t") for line in lines)
        skipped = len(targets) - len(lines)
        assert skipped >= 2
        assert f"over {len(lines)} targets ({skipped} skipped)" in capsys.readouterr().out

    def assert_refused_by_ds_and_recommend(self, pipeline, space, capsys):
        """Both readers of a space exit 2 on `space` and name it on stderr; returns that stderr."""
        manifest = pipeline["out"] / "cf.space.manifest.json"
        Path(f"{space}.manifest.json").write_bytes(manifest.read_bytes())
        common = ["--space", str(space), "--ratings", str(pipeline["ratings"]),
                  "--split", str(pipeline["split"])]
        results = space.parent / "x.results"
        capsys.readouterr()
        assert main(["evaluate", "--system", "ds", *common, "--out", str(results)]) == 2
        evaluate_err = capsys.readouterr().err
        assert main(["recommend", *common, "--user", "1"]) == 2
        recommend_err = capsys.readouterr().err
        assert str(space) in evaluate_err and str(space) in recommend_err
        assert not results.exists()
        return evaluate_err + recommend_err

    def test_space_with_repeated_item_is_data_error(self, pipeline, tmp_path, capsys):
        with np.load(pipeline["space"], allow_pickle=False) as npz:
            entries = dict(npz)
        entries["item_ids"] = np.append(entries["item_ids"], entries["item_ids"][0])
        entries["matrix"] = np.concatenate([entries["matrix"], entries["matrix"][:1]])
        with open(tmp_path / "dup.space", "wb") as fh:
            np.savez(fh, **entries)
        self.assert_refused_by_ds_and_recommend(pipeline, tmp_path / "dup.space", capsys)

    def test_truncated_space_is_data_error(self, pipeline, tmp_path, capsys):
        data = pipeline["space"].read_bytes()
        (tmp_path / "cut.space").write_bytes(data[: len(data) // 2])
        self.assert_refused_by_ds_and_recommend(pipeline, tmp_path / "cut.space", capsys)

    def test_text_space_of_an_earlier_version_is_data_error(self, pipeline, tmp_path, capsys):
        # the text format spaces had before the container: header, then one row per item
        space = cli.load_space(pipeline["space"])
        rows = [f"{len(space)} {space.dimensions} cf"] + [
            f"{item_id} " + " ".join(map(repr, vec.tolist()))
            for item_id, vec in zip(space.item_ids.tolist(), space.matrix)
        ]
        (tmp_path / "old.space").write_text("\n".join(rows) + "\n")
        err = self.assert_refused_by_ds_and_recommend(pipeline, tmp_path / "old.space", capsys)
        assert err.count("must be retrained") == 2

    def test_ds_missing_space_is_usage_independent_error(self, pipeline, tmp_path):
        code = main([
            "evaluate", "--system", "ds", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_data_error(self, pipeline, tmp_path, capsys, workers):
        common = ["--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
                  "--workers", workers]
        space, results = tmp_path / "cf.space", tmp_path / "pop.results"
        assert main(["train-space", "--mode", "cf", "--dims", "4", *common, "--out", str(space)]) == 2
        assert main(["evaluate", "--system", "pop", *common, "--out", str(results)]) == 2
        assert capsys.readouterr().err.count(f"workers must be >= 1, got {workers}") == 2
        assert not space.exists() and not results.exists()


class TestMcnemarCommand:
    def make_results(self, pipeline, tmp_path):
        a = tmp_path / "a.results"
        b = tmp_path / "b.results"
        for path, kn in ((a, 15), (b, 40)):
            main([
                "evaluate", "--system", "knn", "--ratings", str(pipeline["ratings"]),
                "--split", str(pipeline["split"]), "--k-neighbors", str(kn), "--out", str(path),
            ])
        return a, b

    def test_two_directions_swap(self, pipeline, tmp_path, capsys):
        a, b = self.make_results(pipeline, tmp_path)
        assert main(["mcnemar", str(a), str(b)]) == 0
        first = capsys.readouterr().out
        assert main(["mcnemar", str(b), str(a)]) == 0
        second = capsys.readouterr().out
        p_ab = [l for l in first.splitlines() if l.startswith("p(A beats B)")]
        p_ba = [l for l in second.splitlines() if l.startswith("p(B beats A)")]
        assert p_ab[0].split("=")[1] == p_ba[0].split("=")[1]

    def test_file_against_itself_undefined(self, pipeline, tmp_path):
        a, _ = self.make_results(pipeline, tmp_path)
        assert main(["mcnemar", str(a), str(a)]) == 2

    def test_target_mismatch_refused(self, pipeline, tmp_path):
        a, _ = self.make_results(pipeline, tmp_path)
        other = tmp_path / "other.results"
        other.write_text("1\t1\t1\nrecall@10\t1.0\n")
        assert main(["mcnemar", str(a), str(other)]) == 2


class TestUsage:
    def test_unknown_flag_exit_one(self):
        assert main(["split", "--nope"]) == 1

    def test_missing_subcommand_exit_one(self):
        assert main([]) == 1


# The package's public names, by defining module.
EXPORTS = {
    "baselines": ["KnnModel", "PopularityModel", "build_popularity", "knn_scores", "knn_topk",
                  "popularity_topk"],
    "corpus": ["Observation", "RatingEvent", "ReviewDocument", "UserProfile", "binarize",
               "build_profiles", "load_ratings", "load_reviews", "rating_levels",
               "ratings_to_observations", "reviews_to_observations"],
    "errors": ["CannotRankError", "FormatError", "NoSuchTokenError", "NoSuchUserError",
               "ParseError", "SpaceRankError", "UndefinedTestError", "ValidationError"],
    "evaluate": ["ContingencyTable", "EvalResult", "HitRecord", "contingency", "evaluate_system",
                 "load_results", "mcnemar_one_tailed", "recall_at_k", "save_results"],
    "hsoftmax": ["HuffmanTree", "Vocabulary", "build_huffman", "build_vocabulary", "hs_probability",
                 "hs_train_step", "new_node_matrix", "sigmoid"],
    "ranker": ["HyperplaneModel", "RankerConfig", "build_preferences", "derive_seed", "pair_stream",
               "recommend_topk", "score_items", "top_k", "train_hyperplane"],
    "spaces": ["EmbeddingSpace", "SpaceTrainConfig", "build_vsm_space", "export_vectors",
               "load_space", "save_space", "train_space"],
    "splits": ["EvalSplit", "build_split", "load_split", "mark_counts", "save_split", "test_targets"],
}


def run_fresh(script: str) -> list:
    """Run a script in a new interpreter; returns the JSON on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(Path(spacerank.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


class TestStartUp:
    def test_package_exports_each_name_from_its_module(self):
        assert sorted(spacerank.__all__) == sorted(n for names in EXPORTS.values() for n in names)
        assert set(spacerank.__all__) <= set(dir(spacerank))
        for module, names in EXPORTS.items():
            for name in names:
                assert getattr(spacerank, name) is getattr(importlib.import_module(f"spacerank.{module}"), name)
        with pytest.raises(AttributeError):
            spacerank.no_such_name

    def test_import_spacerank_loads_no_numpy(self):
        assert run_fresh("import sys, json, spacerank\nprint(json.dumps('numpy' in sys.modules))") is False

    def test_split_and_mcnemar_run_with_numpy_blocked(self, pipeline, tmp_path):
        ratings, common = str(pipeline["ratings"]), ["--ratings", str(pipeline["ratings"]),
                                                     "--split", str(pipeline["split"])]
        assert main(["split", "--ratings", ratings, "--out", str(tmp_path / "normal")]) == 0
        for system in ("pop", "knn"):
            assert main(["evaluate", "--system", system, *common, "--out", str(tmp_path / system)]) == 0
        split = ["split", "--ratings", ratings, "--out", str(tmp_path / "blocked")]
        mcnemar = ["mcnemar", str(tmp_path / "knn"), str(tmp_path / "pop")]
        script = (
            "import json, sys\n"
            "sys.modules['numpy'] = None  # every import of numpy now fails\n"
            "from spacerank.cli import main\n"
            f"codes = [main({split!r}), main({mcnemar!r})]\n"
            "heavy = ('numpy', 'dataclasses', 'concurrent.futures', 'ctypes')\n"
            "print(json.dumps([codes, [m for m in heavy if sys.modules.get(m) is not None]]))\n"
        )
        assert run_fresh(script) == [[0, 0], []]
        for name in ("split.tsv", "split.tsv.manifest.json"):
            assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()

    @pytest.mark.parametrize("module, name, system", [
        (spaces, "load_space", "ds"), (baselines, "build_popularity", "pop"),
    ])
    def test_wrapper_set_before_main_is_called(self, pipeline, tmp_path, monkeypatch, module, name, system):
        for unbound in cli._NUMPY_LAYERS:  # as in a fresh process: no layer bound yet
            monkeypatch.delitem(vars(cli), unbound, raising=False)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(name)
            return getattr(module, name)(*args, **kwargs)

        monkeypatch.setitem(vars(cli), name, wrapper)  # setattr(cli, name, wrapper), undone afterwards
        assert main(["evaluate", "--system", system, "--space", str(pipeline["space"]),
                     "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
                     "--out", str(tmp_path / "results")]) == 0
        assert calls == [name] and getattr(cli, name) is wrapper
