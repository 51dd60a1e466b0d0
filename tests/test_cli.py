import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spacerank
from spacerank import baselines, cli, native, ranker, spaces
from spacerank.cli import main
from spacerank.minicorpus import generate_minicorpus
from spacerank.splits import EvalSplit
from test_bench_hooks import _import
from test_spaces import OTHER_LAYOUTS, write_forged_container, write_other_layout



@pytest.fixture(scope="module")
def vsm_space(pipeline, tmp_path_factory):
    """A vsm space over the shared split, with its manifest."""
    out = tmp_path_factory.mktemp("vsm") / "vsm.space"
    assert main(["train-space", "--mode", "vsm", "--ratings", str(pipeline["ratings"]),
                 "--split", str(pipeline["split"]), "--out", str(out)]) == 0
    return out


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
            "--split", str(pipeline["split"]), "--dims", "3", "--iters", "5", "--out", str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: --dims is ignored for vsm spaces: dimensionality is the user count\n" in err
        assert "warning: --iters is ignored for vsm spaces: nothing is trained iteratively\n" in err
        space = cli.load_space(out)
        assert (len(space), space.dimensions, space.provenance) == (300, 200, "vsm")
        assert space.matrix.dtype == np.int8

    def test_missing_dims_is_error(self, pipeline, tmp_path):
        code = main([
            "train-space", "--mode", "cf", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    @pytest.mark.parametrize("mode, layer", [("vsm", "build_vsm_space"), ("cf", "train_space")])
    def test_holds_no_split_while_it_builds(self, pipeline, tmp_path, monkeypatch, mode, layer):
        def live_splits():
            gc.collect()
            return sum(isinstance(obj, EvalSplit) for obj in gc.get_objects())

        build, during = getattr(cli, layer), []

        def counted(*args, **kwargs):
            during.append(live_splits())
            return build(*args, **kwargs)

        monkeypatch.setitem(vars(cli), layer, counted)
        before = live_splits()
        assert main([
            "train-space", "--mode", mode, "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--dims", "4", "--iters", "1", "--out", str(tmp_path / "x"),
        ]) == 0
        assert during == [before]  # the split goes once the training rows are selected

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
        ratings = cli.load_rating_columns(args.ratings)
        held = cli.held_mask(ratings, cli.load_split(args.split, ratings).held_out(args.holdout))
        top = cli._user_ranker_topk(cli.load_space(args.space), ratings.select((ratings.user == 2) & ~held), args)
        assert len(recommended) == 10
        assert top == recommended

    @pytest.mark.parametrize("options", [[], ["--phi-t", "all", "--phi-d", "5", "--k", "15"]])
    def test_prints_the_scores_of_score_items_bit_for_bit(self, pipeline, vsm_space, capsys, options):
        for layout, space_path in (("float32", pipeline["space"]), ("int8", vsm_space)):
            argv = ["recommend", "--space", str(space_path), "--ratings", str(pipeline["ratings"]),
                    "--split", str(pipeline["split"]), "--user", "2", *options]
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()

            # retrain the user as recommend does, through the library's own calls
            args = cli.build_parser().parse_args(argv)
            space = spacerank.load_space(args.space)
            assert space.matrix.dtype == layout
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

    @pytest.mark.parametrize("options", [[], ["--phi-t", "all", "--phi-d", "5", "--k", "15"]])
    def test_numpy_scores_print_the_scores_of_score_items_bit_for_bit(self, pipeline, vsm_space, capsys, options,
                                                                      monkeypatch):
        monkeypatch.setattr(native, "kernels", lambda: (None, "numpy"))  # np.einsum, even where cc is found
        self.test_prints_the_scores_of_score_items_bit_for_bit(pipeline, vsm_space, capsys, options)

    def test_scores_the_space_once(self, pipeline, capsys, monkeypatch):
        calls = []
        scores = ranker._scores
        monkeypatch.setattr(ranker, "_scores", lambda *args: calls.append(args) or scores(*args))
        assert main(["recommend", "--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
                     "--split", str(pipeline["split"]), "--user", "1"]) == 0
        assert len(calls) == 1 and len(capsys.readouterr().out.splitlines()) == 10

    def test_unknown_user_exits_before_the_space_loads(self, pipeline, capsys, monkeypatch):
        def load_space(*args):
            raise AssertionError("the space of a user who cannot be ranked was loaded")

        monkeypatch.setattr(cli, "load_space", load_space)
        assert main(["recommend", "--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
                     "--split", str(pipeline["split"]), "--user", "99999"]) == 3
        assert "user 99999 has no training ratings" in capsys.readouterr().err

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

    def test_ds_provenance_mismatch_refused(self, pipeline, tmp_path, capsys):
        code = main([
            "evaluate", "--system", "ds", "--space", str(pipeline["space"]),
            "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
            "--holdout", "validation", "--out", str(tmp_path / "x.results"),
        ])
        assert code == 2
        assert "was trained with holdout 'test' but this run has 'validation'" in capsys.readouterr().err

    def test_space_without_manifest_warns(self, pipeline, tmp_path, capsys):
        space = tmp_path / "cf.space"
        space.write_bytes(pipeline["space"].read_bytes())
        code = main(["recommend", "--space", str(space), "--ratings", str(pipeline["ratings"]),
                     "--split", str(pipeline["split"]), "--user", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert f"warning: no manifest next to {space}; cannot verify what it was trained on\n" in captured.err
        assert len(captured.out.splitlines()) == 10

    def test_split_without_liked_targets_is_data_error(self, tmp_path, capsys):
        ratings, split = tmp_path / "ratings.dat", tmp_path / "split.tsv"
        ratings.write_text("1::10::2::0\n1::11::5::1\n2::10::3::0\n2::11::4::1\n")
        split.write_text("1\t10\ttest\n2\t11\tvalidation\n")  # the one test pair is rated 2
        out = tmp_path / "pop.results"
        code = main(["evaluate", "--system", "pop", "--ratings", str(ratings), "--split", str(split),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: no rated-4-or-5 targets in the test set\n"
        assert not out.exists()

    def test_knn_evaluates(self, pipeline, tmp_path):
        out = tmp_path / "knn.results"
        code = main([
            "evaluate", "--system", "knn", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--k-neighbors", "15", "--out", str(out),
        ])
        assert code == 0

    def test_knn_neighbourhood_below_one_is_named(self, pipeline, tmp_path, capsys):
        out = tmp_path / "knn.results"
        code = main([
            "evaluate", "--system", "knn", "--ratings", str(pipeline["ratings"]),
            "--split", str(pipeline["split"]), "--k-neighbors", "0", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: neighbourhood size k must be >= 1, got 0\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("system", ["pop", "knn"])
    def test_one_ratings_table_is_held_after_parsing(self, tmp_path, monkeypatch, system):
        # 49,500 ratings, so a table (32 bytes a rating, 1.5 MB) outweighs _digest's 64 KB read buffer
        ratings = _import("ml1m_corpus", monkeypatch).generate_ml1m_corpus(tmp_path, 300, 1)
        assert main(["split", "--ratings", str(ratings), "--out", str(tmp_path)]) == 0
        parse, tables, models = cli.load_rating_columns, [], []

        def parsed(path):
            table = parse(path)
            tables.append(sum(column.nbytes for column in table))
            tracemalloc.reset_peak()
            return table

        def knn_model(*args):
            models.append(baselines.KnnModel(*args))
            return models[-1]

        monkeypatch.setattr(cli, "load_rating_columns", parsed)
        monkeypatch.setitem(vars(cli), "KnnModel", knn_model)
        tracemalloc.start()
        try:
            assert main(["evaluate", "--system", system, "--ratings", str(ratings),
                         "--split", str(tmp_path / "split.tsv"), "--out", str(tmp_path / "results")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The table and its grouped training rows meet once, while the rows are selected (2.4
        # tables for pop). Two more copies beside the table (the file-order training rows and
        # a grouped copy of them) reached 4.6 tables for pop. knn adds its own index arrays.
        held = sum(value.nbytes for model in models for value in vars(model).values() if isinstance(value, np.ndarray))
        assert peak <= 3.5 * tables[0] + held

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

    def test_space_without_dimensions_is_data_error(self, pipeline, tmp_path, capsys):
        with np.load(pipeline["space"], allow_pickle=False) as npz:
            entries = dict(npz)
        entries["matrix"] = entries["matrix"][:, :0]
        with open(tmp_path / "flat.space", "wb") as fh:
            np.savez(fh, **entries)
        err = self.assert_refused_by_ds_and_recommend(pipeline, tmp_path / "flat.space", capsys)
        assert err.count("at least one dimension, got 0") == 2

    @pytest.mark.parametrize("body", ["[]", '{"parameters": []}', '{"parameters": {"ratings": [1]}}',
                                      "{not json"])
    def test_malformed_space_manifest_is_data_error(self, pipeline, tmp_path, capsys, body):
        space = tmp_path / "cf.space"
        space.write_bytes(pipeline["space"].read_bytes())
        manifest = Path(f"{space}.manifest.json")
        manifest.write_text(body)
        common = ["--space", str(space), "--ratings", str(pipeline["ratings"]),
                  "--split", str(pipeline["split"])]
        results = tmp_path / "x.results"
        capsys.readouterr()
        assert main(["evaluate", "--system", "ds", *common, "--out", str(results)]) == 2
        assert main(["recommend", *common, "--user", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count(f"error: {manifest}: unreadable space manifest") == 2
        assert len(err.splitlines()) == 2 and not results.exists()

    def test_truncated_space_is_data_error(self, pipeline, tmp_path, capsys):
        data = pipeline["space"].read_bytes()
        (tmp_path / "cut.space").write_bytes(data[: len(data) // 2])
        self.assert_refused_by_ds_and_recommend(pipeline, tmp_path / "cut.space", capsys)

    def test_space_header_claiming_terabytes_is_data_error(self, pipeline, tmp_path, capsys):
        # a matrix header of 10^7 x 10^6 float32 values over 48 bytes: refused before allocating
        write_forged_container(tmp_path / "forged.space", (10**7, 10**6), bytes(48))
        err = self.assert_refused_by_ds_and_recommend(pipeline, tmp_path / "forged.space", capsys)
        assert err.count("cannot fill its 48-byte entry") == 2

    @pytest.mark.parametrize("layout", OTHER_LAYOUTS)
    def test_space_matrix_layout_no_writer_makes_is_data_error(self, pipeline, tmp_path, capsys, layout):
        write_other_layout(tmp_path / "other.space", layout)
        err = self.assert_refused_by_ds_and_recommend(pipeline, tmp_path / "other.space", capsys)
        assert err.splitlines() == [f"error: {tmp_path / 'other.space'}: entries must be 1-D int64 item_ids, "
                                    "a 2-D C-ordered float32 or int8 matrix in npy 1.0 and a 0-d string "
                                    "provenance"] * 2

    def test_float64_vsm_space_of_an_earlier_version_is_data_error(self, pipeline, vsm_space, tmp_path, capsys):
        # the container vsm spaces had before int8 levels: the levels over their norms, in float64
        space = cli.load_space(vsm_space)
        old = tmp_path / "old.space"
        with open(old, "wb") as fh:
            np.savez(fh, item_ids=space.item_ids, matrix=space.row_values(slice(None)), provenance=np.array("vsm"))
        err = self.assert_refused_by_ds_and_recommend(pipeline, old, capsys)
        assert err.splitlines() == [f"error: {old}: a float64 matrix, as vsm spaces from earlier versions held; "
                                    "rebuild it with train-space --mode vsm"] * 2

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


@pytest.fixture(scope="module")
def negative_user(pipeline, tmp_path_factory):
    """The mini corpus with user 1 renamed -1, its split and a small cf space."""
    work = tmp_path_factory.mktemp("negative")
    ratings = work / "ratings.dat"
    ratings.write_text("".join("-" + line if line.startswith("1::") else line
                               for line in pipeline["ratings"].read_text().splitlines(keepends=True)))
    assert main(["split", "--ratings", str(ratings), "--out", str(work)]) == 0
    common = ["--ratings", str(ratings), "--split", str(work / "split.tsv")]
    assert main(["train-space", "--mode", "cf", *common, "--dims", "8", "--iters", "2", "--out", str(work / "cf.space")]) == 0
    return [*common, "--space", str(work / "cf.space")]


class TestNegativeIds:
    """A user id may be negative; a seed may not, and its refusal names it."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_evaluate_ds_ranks_a_negative_user(self, negative_user, tmp_path, workers):
        out = tmp_path / "ds.results"
        assert main(["evaluate", "--system", "ds", *negative_user, "--workers", workers, "--out", str(out)]) == 0
        assert any(line.startswith("-1\t") for line in out.read_text().splitlines())

    def test_recommend_ranks_a_negative_user(self, negative_user, capsys):
        assert main(["recommend", *negative_user, "--user", "-1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10

    def test_a_negative_seed_is_refused_by_name(self, pipeline, tmp_path, capsys):
        out, space = tmp_path / "out", ["--space", str(pipeline["space"])]
        common = ["--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]), "--seed", "-3"]
        for argv in (["train-space", "--mode", "cf", "--dims", "8", "--out", str(out)],
                     ["evaluate", "--system", "ds", *space, "--out", str(out)],
                     ["recommend", *space, "--user", "2"]):
            assert main([*argv, *common]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "seed must be non-negative, got -3" in captured.err
        assert not out.exists()


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


def test_digest_reads_through_one_reused_buffer(tmp_path):
    # 2.5 MB, so a new 1 MB chunk per read, with the last one still held, peaks at 2 MB
    data = np.random.default_rng(0).bytes(5 << 19)
    path = tmp_path / "blob"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = cli._digest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < 1.5 * (1 << 20)


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


def run_fresh(script: str, env=None) -> list:
    """Run a script in a new interpreter; returns the JSON on its last stdout line."""
    env = env or dict(os.environ, PYTHONPATH=str(Path(spacerank.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_library_warnings_print_as_cli_warnings(pipeline, tmp_path):
    # No cc on PATH: the kernel's RuntimeWarning reads as the CLI's own
    # warnings do, with no source path or line, so stderr is the same in any
    # checkout. Callers of `main` still catch the RuntimeWarning itself (see
    # test_native's pytest.warns around `main`).
    (tmp_path / "empty").mkdir()
    env = dict(os.environ, PATH=str(tmp_path / "empty"), PYTHONPATH=str(Path(spacerank.__file__).parent.parent))
    common = ["--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"])]
    warning = "warning: the compiled kernels are unavailable (no cc on PATH); the numpy passes run\n"
    for argv in (["train-space", "--mode", "cf", "--dims", "4", "--iters", "1", "--out", str(tmp_path / "s")],
                 ["evaluate", "--system", "ds", "--space", str(pipeline["space"]), "--out", str(tmp_path / "r")]):
        done = subprocess.run([sys.executable, "-m", "spacerank.cli", *argv, *common], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, warning)


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

    def test_import_cli_binds_every_layer_export_and_loads_no_layer(self):
        # every export of the numpy layers is a callable global on cli from import on,
        # so a wrapper can replace it before main runs; none of those layers is loaded yet
        heavy = ["numpy", *(f"spacerank.{m}" for m in ("baselines", "ranker", "spaces", "hsoftmax", "native"))]
        script = (
            "import json, sys\n"
            "import spacerank.cli as cli\n"
            "from spacerank import _EXPORTS\n"
            "names = [n for m in ('baselines', 'ranker', 'spaces') for n in _EXPORTS[m]]\n"
            "unbound = [n for n in names if not callable(vars(cli).get(n))]\n"
            f"print(json.dumps([len(names), unbound, [m for m in {heavy!r} if m in sys.modules]]))\n"
        )
        layer_exports = sum(len(EXPORTS[m]) for m in ("baselines", "ranker", "spaces"))
        assert run_fresh(script) == [layer_exports, [], []]

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

    def test_mcnemar_loads_neither_hashlib_nor_json(self, pipeline, tmp_path):
        # it writes no manifest and digests no file; OpenSSL alone costs 3.5 MB of RSS
        common = ["--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"])]
        for system in ("pop", "knn"):
            assert main(["evaluate", "--system", system, *common, "--out", str(tmp_path / system)]) == 0
        mcnemar = ["mcnemar", str(tmp_path / "knn"), str(tmp_path / "pop")]
        script = (
            "import sys\n"
            "from spacerank.cli import main\n"
            f"code = main({mcnemar!r})\n"
            "loaded = [m for m in ('hashlib', '_hashlib', 'json') if m in sys.modules]\n"
            "import json  # only to report\n"
            "print(json.dumps([code, loaded]))\n"
        )
        assert run_fresh(script) == [0, []]

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
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(name)
            return getattr(module, name)(*args, **kwargs)

        monkeypatch.setitem(vars(cli), name, wrapper)  # setattr(cli, name, wrapper), undone afterwards
        assert main(["evaluate", "--system", system, "--space", str(pipeline["space"]),
                     "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"]),
                     "--out", str(tmp_path / "results")]) == 0
        assert calls == [name] and getattr(cli, name) is wrapper


class TestBlasThreads:
    """At `--workers` above 1, `main` sets OMP_NUM_THREADS=1 before numpy
    loads, so the BLAS starts no thread pool beside the N workers. Each case
    runs in a fresh interpreter: in this one numpy is loaded already."""

    @staticmethod
    def env(**blas):
        unset = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in unset}
        return dict(env, PYTHONPATH=str(Path(spacerank.__file__).parent.parent), **blas)

    def main_fresh(self, pipeline, tmp_path, workers, blas, count_threads=False) -> list:
        """[exit code, OMP_NUM_THREADS after main, the process's threads or None].

        Threads are counted once the count falls to 1 or after 10 s: a joined
        worker's thread leaves /proc a moment after the join, a BLAS thread never.
        """
        argv = ["evaluate", "--system", "pop", "--ratings", str(pipeline["ratings"]),
                "--split", str(pipeline["split"]), "--workers", workers, "--out", str(tmp_path / "pop")]
        script = (
            "import json, os, time\n"
            "from spacerank.cli import main\n"
            f"code, threads = main({argv!r}), None\n"
            f"if {count_threads!r}:\n"
            "    deadline = time.monotonic() + 10\n"
            "    while (threads := len(os.listdir('/proc/self/task'))) > 1 and time.monotonic() < deadline:\n"
            "        time.sleep(0.01)\n"
            "print(json.dumps([code, os.environ.get('OMP_NUM_THREADS'), threads]))\n"
        )
        return run_fresh(script, self.env(**blas))

    def test_workers_above_one_run_one_blas_thread(self, pipeline, tmp_path):
        count = sys.platform == "linux" and os.cpu_count() >= 2
        code, omp, threads = self.main_fresh(pipeline, tmp_path, "2", {}, count_threads=count)
        assert (code, omp) == (0, "1")
        if count:
            assert threads == 1

    @pytest.mark.parametrize("workers, blas, omp", [
        ("1", {}, None), ("2", {"OMP_NUM_THREADS": "3"}, "3"),
    ], ids=["workers-1", "user-count"])
    def test_workers_one_and_a_user_count_are_left_alone(self, pipeline, tmp_path, workers, blas, omp):
        assert self.main_fresh(pipeline, tmp_path, workers, blas) == [0, omp, None]

    @pytest.mark.parametrize("system", ["ds", "knn"])
    def test_results_identical_at_one_and_two_workers(self, pipeline, tmp_path, system):
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"{workers}.results"
            subprocess.run([sys.executable, "-m", "spacerank.cli", "evaluate", "--system", system,
                            "--space", str(pipeline["space"]), "--ratings", str(pipeline["ratings"]),
                            "--split", str(pipeline["split"]), "--workers", workers, "--out", str(out)],
                           env=self.env(), capture_output=True, check=True, timeout=120)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.skipif(os.cpu_count() < 2, reason="one CPU: the BLAS runs one thread")
    def test_knn_scores_do_not_depend_on_the_blas_thread_count(self, tmp_path, monkeypatch):
        # Every user's scores on the 300-user ML1M-shaped corpus, whose 90,000 user-user
        # similarities a float32 BLAS product gave other bits at `OMP_NUM_THREADS=2` than at 1.
        ratings = _import("ml1m_corpus", monkeypatch).generate_ml1m_corpus(tmp_path, 300, 1)
        script = (
            "import hashlib, sys\n"
            "from spacerank.baselines import KnnModel, knn_scores\n"
            "from spacerank.corpus import build_profiles, load_rating_columns\n"
            "table = load_rating_columns(sys.argv[1])\n"
            "model = KnnModel(table, build_profiles(table), 60)\n"
            "digest = hashlib.sha256()\n"
            "for user_id in model.user_ids.tolist():\n"
            "    digest.update(knn_scores(model, user_id).tobytes())\n"
            "print(len(model.user_ids), digest.hexdigest())\n"
        )
        outs = [subprocess.run([sys.executable, "-c", script, str(ratings)], capture_output=True, text=True,
                               env=self.env(OMP_NUM_THREADS=threads), check=True, timeout=120).stdout
                for threads in ("1", "2")]
        assert outs[0].startswith("300 ")
        assert outs[0] == outs[1]

    @pytest.mark.skipif(os.cpu_count() < 2, reason="one CPU: the BLAS runs one thread")
    def test_ds_does_not_depend_on_the_blas_thread_count(self, pipeline, tmp_path):
        # The corpus's items and 3,000 unrated ones at d=600, the size of an
        # ML1M space: at `OMP_NUM_THREADS=2` OpenBLAS splits a product of that
        # size across its threads, and a BLAS `space.matrix @ w` gives other
        # bits on a few rows than at 1. `recommend --k` at every item prints
        # every score.
        item_ids = np.concatenate([spaces.load_space(pipeline["space"]).item_ids, np.arange(3000) + 10**6])
        rng = np.random.default_rng(8)
        matrix = (rng.uniform(-1, 1, size=(len(item_ids), 600)) / np.sqrt(600)).astype(np.float32)
        wide = tmp_path / "wide.space"
        spaces.save_space(spaces.EmbeddingSpace(600, item_ids, matrix, "cf"), wide)
        Path(f"{wide}.manifest.json").write_bytes(Path(f"{pipeline['space']}.manifest.json").read_bytes())
        common = ["--space", str(wide), "--ratings", str(pipeline["ratings"]), "--split", str(pipeline["split"])]
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.results"
            for argv in (["evaluate", "--system", "ds", "--out", str(out)],
                         ["recommend", "--user", "2", "--k", "99999"]):
                done = subprocess.run([sys.executable, "-m", "spacerank.cli", *argv, *common], capture_output=True,
                                      env=self.env(OMP_NUM_THREADS=threads), check=True, timeout=120)
            outs.append((out.read_bytes(), done.stdout))
        assert outs[0] == outs[1]
        assert len(outs[0][1].splitlines()) > 3000


class TestGoldenBytes:
    # sha256 of the deterministic mini-corpus artifacts, none of which goes
    # through a BLAS product (knn and ds results may differ between BLAS builds)
    DIGESTS = {
        "data/ratings.dat": "bc29a6bbe5df6f8d397be62e666d697ce8a15f432de1a6b7a88fc39b7f9f9782",
        "data/reviews.tsv": "2807cbde7eef7194b0ccb0d438a194434858b7eea607e1e5fe9db6dee4bbe437",
        "split.tsv": "11d3b8b639d57a446c9600818fbe14336a7f2b97ad8329f7f8023cdf22554498",
        "vsm.space": "83b0921c18eb50d940059ae0b29fedf30cb15b23055ec8974ff7137c824a296e",
        "pop.results": "afca3551cee0d14daa335b658003cd2e8f072cab0cd96d0c395eec60dbc2ece4",
    }
    # sha256 of vsm.space's rows widened to float64: the bytes of the float64 matrix vsm files held
    # before int8 levels, whose file was pinned at 497a6c36680e7df5b1abdf0ad2cfe7d75049aa9ea616d71cf5c814d4db971e61
    VSM_VALUES = "97b84035b861c464e07d55f3deae3b774bf815cf2514b98549d5e3af87792b5e"

    @staticmethod
    def values_digest(path):
        space = spaces.load_space(path)
        return hashlib.sha256(space.row_values(slice(None)).tobytes()).hexdigest()

    def test_mini_corpus_pipeline_bytes(self, tmp_path):
        ratings, _ = generate_minicorpus(tmp_path / "data")
        common = ["--ratings", str(ratings), "--split", str(tmp_path / "split.tsv")]
        assert main(["split", "--ratings", str(ratings), "--out", str(tmp_path)]) == 0
        assert main(["train-space", "--mode", "vsm", *common, "--out", str(tmp_path / "vsm.space")]) == 0
        assert main(["evaluate", "--system", "pop", *common, "--out", str(tmp_path / "pop.results")]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.DIGESTS}
        assert digests == self.DIGESTS
        assert self.values_digest(tmp_path / "vsm.space") == self.VSM_VALUES

    # the same for a corpus written by formula, recorded with the per-line loader
    FORMULA_DIGESTS = {
        "split.tsv": "44d7c5cf931b24ffa467dfc97a9978b56c624f7096d9bc44125201709fbb4ced",
        "vsm.space": "acaeea114ff9ea4592e07bd6cf5f67bcd6eefab319b84881e5e9928afa2906e5",
        "pop.results": "261767736695a4d7bd83ca5134cbdcc2eb2a60be36cbcb6b8c50eb094f2624e4",
    }
    # as VSM_VALUES; the float64 file was pinned at 9fcc2d23d33e85f2e53bcf17aa8a823555f2b52af6a5b1723dbd476a77aac75e
    FORMULA_VSM_VALUES = "446f1186a398300daa8bf8d1ad96b92f851002a0c28c862c94d6a8969550bd9c"

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
        assert self.values_digest(tmp_path / "vsm.space") == self.FORMULA_VSM_VALUES
