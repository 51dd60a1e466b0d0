import hashlib
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
from spacerank.minicorpus import generate_minicorpus


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
        _, training = cli._training_ratings(cli.load_rating_columns(args.ratings), args.split, args.holdout)
        top = cli._user_ranker_topk(cli.load_space(args.space), training.select(training.user == 2), args)
        assert len(recommended) == 10
        assert top == recommended

    @pytest.mark.parametrize("options", [[], ["--phi-t", "all", "--phi-d", "5", "--k", "15"]])
    def test_prints_the_scores_of_score_items_bit_for_bit(self, pipeline, capsys, options):
        argv = ["recommend", "--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
                "--split", str(pipeline["split"]), "--user", "2", *options]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()

        # retrain the user as recommend does, on a float64 copy of the space
        args = cli.build_parser().parse_args(argv)
        space = spacerank.load_space(args.space)
        space.matrix = space.matrix.astype(np.float64)
        events = spacerank.load_ratings(args.ratings)
        held = spacerank.load_split(args.split, events).test
        user_events = [e for e in events if e.user_id == 2 and (2, e.item_id) not in held]
        config = spacerank.RankerConfig(phi_i=args.phi_i, phi_t=args.phi_t, phi_d=args.phi_d,
                                        alpha0=args.alpha, seed=spacerank.derive_seed(args.seed, 2))
        preferences = spacerank.build_preferences(user_events, space, config.phi_t)
        stream = spacerank.pair_stream(preferences, config.phi_i, config.phi_d, config.seed)
        model = spacerank.train_hyperplane(stream, space, config, 2)
        scores = spacerank.score_items(model, space)
        top = spacerank.recommend_topk(model, space, {e.item_id for e in user_events}, args.k)
        assert lines == [f"{item}\t{scores[item]!r}" for item in top]

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
        split = cli.load_split(pipeline["split"], events)
        training = [e for e in events if (e.user_id, e.item_id) not in split.test]
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

    def test_value_outside_int64_is_data_error(self, tmp_path, capsys):
        # split reads any integer; the commands that hold int64 columns refuse it by name
        ratings = tmp_path / "ratings.dat"
        ratings.write_text("".join(f"{u}::{i}::{1 + (u + i) % 5}::{10**20 if i == 1 else i}\n"
                                   for u in (1, 2) for i in range(1, 5)))
        assert main(["split", "--ratings", str(ratings), "--every", "2", "--out", str(tmp_path)]) == 0
        common = ["--ratings", str(ratings), "--split", str(tmp_path / "split.tsv")]
        capsys.readouterr()
        assert main(["evaluate", "--system", "pop", *common, "--out", str(tmp_path / "pop.results")]) == 2
        assert main(["train-space", "--mode", "vsm", *common, "--out", str(tmp_path / "vsm.space")]) == 2
        assert capsys.readouterr().err.count(f"{ratings}: a field is outside the 64-bit integer range") == 2
        assert not (tmp_path / "pop.results").exists() and not (tmp_path / "vsm.space").exists()

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


class TestNonFiniteParameters:
    """A NaN or infinite rate, a NaN phi_d, or a hyperplane that overflows is a data
    error (exit 2) that writes no results file and no score line."""

    def ranker_argv(self, pipeline, space, *options):
        return ["--space", str(space), "--ratings", str(pipeline["ratings"]),
                "--split", str(pipeline["split"]), *options]

    @pytest.mark.parametrize("option, value, message", [
        ("--alpha", "nan", "alpha0 must be finite and > 0, got nan"),
        ("--alpha", "inf", "alpha0 must be finite and > 0, got inf"),
        ("--phi-d", "nan", "phi_d must be >= 1, got nan"),
    ])
    def test_evaluate_ds_refuses(self, pipeline, tmp_path, capsys, option, value, message):
        out = tmp_path / "ds.results"
        argv = self.ranker_argv(pipeline, pipeline["space"], option, value)
        assert main(["evaluate", "--system", "ds", *argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_recommend_refuses_infinite_alpha(self, pipeline, capsys):
        argv = self.ranker_argv(pipeline, pipeline["space"], "--alpha", "inf")
        assert main(["recommend", *argv, "--user", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "alpha0 must be finite and > 0, got inf" in captured.err

    def test_overflowing_hyperplane_refused(self, pipeline, tmp_path, capsys):
        vsm, out = tmp_path / "vsm.space", tmp_path / "ds.results"
        assert main(["train-space", "--mode", "vsm", "--ratings", str(pipeline["ratings"]),
                     "--split", str(pipeline["split"]), "--out", str(vsm)]) == 0
        capsys.readouterr()
        argv = self.ranker_argv(pipeline, vsm, "--alpha", "1e308", "--phi-t", "all", "--phi-d", "1")
        with np.errstate(all="ignore"):  # the numpy loop overflows on its way to NaN
            assert main(["evaluate", "--system", "ds", *argv, "--out", str(out)]) == 2
            assert main(["recommend", *argv, "--user", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("diverged to a non-finite w") == 2
        assert not out.exists()

    def test_train_space_refuses_nan_alpha_before_any_pass(self, pipeline, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(vars(cli), "train_space", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "nan.space"
        assert main(["train-space", "--mode", "cf", "--ratings", str(pipeline["ratings"]),
                     "--split", str(pipeline["split"]), "--dims", "8", "--alpha", "nan",
                     "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        assert "alpha0 must be finite and > 0, got nan" in capsys.readouterr().err


def refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("command, recorded", [
    (["evaluate", "--system", "pop", "--alpha", "nan", "--phi-d", "inf"], {"alpha": "nan", "phi_d": "inf"}),
    (["train-space", "--mode", "vsm", "--alpha", "nan"], {"alpha": "nan"}),
    (["evaluate", "--system", "ds", "--phi-d", "inf"], {"alpha": 0.025, "phi_d": "inf"}),
], ids=["pop", "vsm", "ds"])
def test_manifest_records_a_non_finite_option_as_strict_json(pipeline, tmp_path, command, recorded):
    out = tmp_path / "out"
    argv = [*command, "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]), "--out", str(out)]
    if "ds" in command:
        argv += ["--space", str(pipeline["space"])]
    assert main(argv) == 0
    text = Path(f"{out}.manifest.json").read_text(encoding="utf-8")
    parameters = json.loads(text, parse_constant=refuse_constant)["parameters"]
    assert {name: parameters[name] for name in recorded} == recorded


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

    def test_target_mismatch_refused(self, pipeline, tmp_path, capsys):
        a, _ = self.make_results(pipeline, tmp_path)
        other = tmp_path / "other.results"
        other.write_text("1\t1\t1\nrecall@10\t1.0\n")
        capsys.readouterr()
        assert main(["mcnemar", str(a), str(other)]) == 2
        assert capsys.readouterr() == ("", "error: systems were evaluated on different target sequences\n")


class TestUsage:
    def test_unknown_flag_exit_one(self):
        assert main(["split", "--nope"]) == 1

    def test_missing_subcommand_exit_one(self):
        assert main([]) == 1


# The package's public names, by defining module.
EXPORTS = {
    "baselines": ["KnnModel", "PopularityModel", "build_popularity", "knn_scores", "knn_topk",
                  "popularity_topk", "top_k"],
    "corpus": ["Observation", "RatingEvent", "Ratings", "ReviewDocument", "UserProfile", "binarize",
               "build_profiles", "load_rating_columns", "load_ratings", "load_reviews", "rating_levels",
               "ratings_to_observations", "reviews_to_observations"],
    "errors": ["CannotRankError", "FormatError", "NoSuchTokenError", "NoSuchUserError",
               "ParseError", "SpaceRankError", "UndefinedTestError", "ValidationError"],
    "evaluate": ["ContingencyTable", "EvalResult", "HitRecord", "contingency", "evaluate_system",
                 "load_results", "mcnemar_one_tailed", "recall_at_k", "save_results"],
    "hsoftmax": ["HuffmanTree", "Vocabulary", "build_huffman", "build_vocabulary", "hs_probability",
                 "hs_train_step", "new_node_matrix", "sigmoid"],
    "ranker": ["HyperplaneModel", "RankerConfig", "build_preferences", "derive_seed", "pair_stream",
               "recommend_topk", "score_items", "train_hyperplane"],
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

    @pytest.mark.parametrize("command, unloaded", [
        (["evaluate", "--system", "pop"], ["ranker", "spaces", "hsoftmax", "native"]),
        (["evaluate", "--system", "knn"], ["ranker", "spaces", "hsoftmax", "native"]),
        (["train-space", "--mode", "vsm"], ["baselines", "ranker"]),
        (["evaluate", "--system", "ds", "--workers", "1"], []),
        (["train-space", "--mode", "cf", "--dims", "4", "--iters", "1", "--workers", "1"], ["baselines", "ranker"]),
        (["train-space", "--mode", "cb", "--dims", "4", "--iters", "1", "--workers", "1"], ["baselines", "ranker"]),
    ], ids=["pop", "knn", "vsm", "ds", "cf", "cb"])
    def test_command_loads_only_the_layers_it_runs(self, pipeline, tmp_path, command, unloaded):
        argv = [*command, "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
                "--out", str(tmp_path / "out")]
        if command[0] == "evaluate":  # pop and knn ignore the space
            argv += ["--space", str(pipeline["space"])]
        if "cb" in command:
            argv += ["--reviews", str(pipeline["reviews"])]
        # and none of these commands starts a thread pool
        modules = ["concurrent.futures", *(f"spacerank.{m}" for m in unloaded)]
        script = (
            "import json, sys\n"
            "from spacerank.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(json.dumps([code, [m for m in {modules!r} if m in sys.modules]]))\n"
        )
        assert run_fresh(script) == [0, []]

    @pytest.mark.parametrize("module, name, system", [
        (spaces, "load_space", "ds"), (baselines, "build_popularity", "pop"),
    ])
    def test_wrapper_set_before_main_is_called(self, pipeline, tmp_path, monkeypatch, module, name, system):
        for unbound in (n for layer in cli._LAYERS for n in EXPORTS[layer]):  # as in a fresh process
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


class TestGoldenBytes:
    # sha256 of the deterministic mini-corpus artifacts, none of which goes
    # through a BLAS product (knn and ds results may differ between BLAS builds)
    DIGESTS = {
        "data/ratings.dat": "bc29a6bbe5df6f8d397be62e666d697ce8a15f432de1a6b7a88fc39b7f9f9782",
        "data/reviews.tsv": "2807cbde7eef7194b0ccb0d438a194434858b7eea607e1e5fe9db6dee4bbe437",
        "split.tsv": "11d3b8b639d57a446c9600818fbe14336a7f2b97ad8329f7f8023cdf22554498",
        "vsm.space": "497a6c36680e7df5b1abdf0ad2cfe7d75049aa9ea616d71cf5c814d4db971e61",
        "pop.results": "afca3551cee0d14daa335b658003cd2e8f072cab0cd96d0c395eec60dbc2ece4",
    }

    def test_mini_corpus_pipeline_bytes(self, tmp_path):
        ratings, _ = generate_minicorpus(tmp_path / "data")
        common = ["--ratings", str(ratings), "--split", str(tmp_path / "split.tsv")]
        assert main(["split", "--ratings", str(ratings), "--out", str(tmp_path)]) == 0
        assert main(["train-space", "--mode", "vsm", *common, "--out", str(tmp_path / "vsm.space")]) == 0
        assert main(["evaluate", "--system", "pop", *common, "--out", str(tmp_path / "pop.results")]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.DIGESTS}
        assert digests == self.DIGESTS

    # the same for a corpus written by formula, recorded with the per-line loader
    FORMULA_DIGESTS = {
        "split.tsv": "44d7c5cf931b24ffa467dfc97a9978b56c624f7096d9bc44125201709fbb4ced",
        "vsm.space": "9fcc2d23d33e85f2e53bcf17aa8a823555f2b52af6a5b1723dbd476a77aac75e",
        "pop.results": "261767736695a4d7bd83ca5134cbdcc2eb2a60be36cbcb6b8c50eb094f2624e4",
    }

    @staticmethod
    def formula_corpus(path, plus_line):
        """Ratings with heavy users, timestamp ties and items rated once, CRLF line ends.

        With `plus_line`, one rating of 5 is written ``+5``, which only the
        per-line parser reads.
        """
        lines = []
        for user in range(1, 41):
            count = 150 if user % 10 == 0 else 12 + user * user % 37
            for j in range(count):
                item = (user * 7 + j * 13) % 151 + 1  # distinct for j < 151
                rating = 1 + (user * 3 + j * 5 + j * j % 7) % 5
                lines.append(f"{user}::{item}::{rating}::{1000 + j // 3 * 60 + user % 4}")
            lines.append(f"{user}::{1000 + user}::{1 + user % 5}::{5000 + user % 3}")  # rated once
        if plus_line:
            at = next(i for i, line in enumerate(lines) if "::5::" in line)
            lines[at] = lines[at].replace("::5::", "::+5::")
        path.write_bytes("".join(f"{line}\r\n" for line in lines).encode())
        return path

    @pytest.mark.parametrize("plus_line", [False, True], ids=["bulk", "per-line"])
    def test_formula_corpus_pipeline_bytes(self, tmp_path, plus_line):
        ratings = self.formula_corpus(tmp_path / "ratings.dat", plus_line)
        common = ["--ratings", str(ratings), "--split", str(tmp_path / "split.tsv")]
        assert main(["split", "--ratings", str(ratings), "--out", str(tmp_path)]) == 0
        assert main(["train-space", "--mode", "vsm", *common, "--out", str(tmp_path / "vsm.space")]) == 0
        assert main(["evaluate", "--system", "pop", *common, "--out", str(tmp_path / "pop.results")]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.FORMULA_DIGESTS}
        assert digests == self.FORMULA_DIGESTS
