"""Benchmark of the spacerank pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload mini-protocol --seed 1 --seconds 20 --trace 0

One closed-loop client drives the real ``spacerank`` CLI: every command is
its own subprocess and the next starts only after the previous one has
exited. The only parallelism is the program's own ``--workers 2`` on the
ml1m-d1000 ranker. The loop repeats the workload's whole pipeline as long
as the next repetition should end within ``--seconds`` (always at least
once) and reports medians over the repetitions.

Workloads (sizes are set only by user count, ``--iters`` and ``--every``;
the item count and ``d`` fix the cost per SGD step and per ranker pair):

- ``mini-protocol``: the bundled 200-user mini corpus through the
  acceptance-smoke protocol (cf d=32, cb d=32, vsm; ds at phi_t=all,
  phi_d=5; pop; knn; McNemar). Most of its time is in the ranker's long
  per-user pair streams at small d. The corpus is the bundled one for
  every seed, because the number of users with a test target moves by
  about 15% between corpus seeds at this size; the workload seed seeds
  training and the ranker instead.
- ``ml1m-d1000``: an ML1M-shaped corpus with the user count cut to fit,
  through the paper's tuned configuration: cf at d=1000 (HS steps at large
  d, an 80 MB text space written and read back), ds at phi_t=5, phi_d=20,
  phi_i=10 through the ``--workers 2`` fork pool (short streams, large d),
  pop, knn and two McNemar tests. ``--every 5`` gives nearly every user a
  liked test item, so the ranker's work hardly moves with the seed.
- ``ml1m-baselines``: the ML1M-shaped corpus through vsm, pop and knn: no
  SGD at all, so HS and ranker changes must read as no change here;
  parsing, the vsm writer and knn dominate. The user count is cut so that
  a run holds several repetitions: at 800 users (two or three per run)
  the run-to-run spread of ``pipeline_s`` was 20% on a 2-vCPU VM.

Set-up generates the workload's corpus several times, spread over the
run (the median is ``setup_s``; the copies must be byte-identical). The
CLI only ever receives the generated files.

``pipeline_s`` is the wall time of all CLI commands of one repetition.
``pipeline_rel`` is the same time in units of ``reference.py``, a fixed
workload that shares no code with spacerank and runs between the
commands: each command's wall time is divided by the mean of the
reference times just before and after it. On a shared machine whose speed
drifts by 20-30% within and between sets of runs, raw seconds move with
the machine, while the ratio moves only with the program.

Output checks, each counted in ``attempted``/``failed``: every command
exits 0; every results file covers exactly the split's test targets
(rated 4 or 5), in order; McNemar output parses; workers=1 artifacts
(split, spaces, results) have the same sha256 in every repetition; on
mini-protocol ds beats pop at one-tailed McNemar p < 0.05. A traced run
adds: its artifacts equal the untraced ones, and on ml1m-d1000 the
workers=2 ds results equal the traced workers=1 ds results. Any failure
makes the exit code 1.

``--trace 1`` runs the pipeline once more with every command under
``traced_cli.py`` (spans around each layer call, everything at workers=1
so no span is lost in a forked worker), then the fixed-shape layer probes
of ``probes.py``. End-to-end numbers always come from the untraced
repetitions; traced minus untraced is reported as the tracing overhead.

Every metric is printed as ``metric <name> <unit> median q1 q3 n``, then
the environment record, then one JSON line with the metrics that
BENCHMARK.json lists. A full record (environment, every sample, checks,
spans) goes to ``.bench_results/``; scratch files live in ``.bench_work/``
and are removed. This process imports nothing heavy and loads no corpus:
a command it starts inherits its peak RSS, which would skew every
command's wait4 figure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 170.0
SIGNIFICANCE = 0.05

# Sizes per workload; "tiny" is only for the self-check.
SIZES = {
    "mini-protocol": {
        "full": {"every": 30, "cf_iters": 20, "cb_iters": 10},
        "tiny": {"every": 30, "cf_iters": 20, "cb_iters": 1},
    },
    "ml1m-d1000": {
        "full": {"users": 40, "every": 5, "cf_iters": 5},
        "tiny": {"users": 20, "every": 5, "cf_iters": 1},
    },
    "ml1m-baselines": {
        "full": {"users": 300, "every": 25},
        "tiny": {"users": 100, "every": 25},
    },
}


# -- workloads ----------------------------------------------------------------


def pipeline(workload: str, size: dict, seed: int, corpus: dict, out: Path, ds_workers: int) -> list[tuple]:
    """The workload's CLI commands as (stage, args, artifact or None, deterministic)."""
    ratings, split = corpus["ratings"], str(out / "split.tsv")
    common = ["--ratings", ratings, "--split", split]
    seeded = ["--seed", str(seed)]

    def space(mode, *extra):
        path = out / f"{mode}.space"
        return (f"train_{mode}", ["train-space", "--mode", mode, *common, *extra, "--out", str(path)], path, True)

    def evaluate(system, *extra, deterministic=True):
        path = out / f"{system}.results"
        return (f"eval_{system}", ["evaluate", "--system", system, *common, *extra, "--out", str(path)],
                path, deterministic)

    def mcnemar(a, b):
        return (f"mcnemar_{a}_{b}", ["mcnemar", str(out / f"{a}.results"), str(out / f"{b}.results")], None, True)

    stages = [("split", ["split", "--ratings", ratings, "--every", str(size["every"]), "--out", str(out)],
               out / "split.tsv", True)]
    if workload == "mini-protocol":
        stages += [
            space("cf", "--dims", "32", "--iters", str(size["cf_iters"]), *seeded),
            space("cb", "--reviews", corpus["reviews"], "--dims", "32", "--iters", str(size["cb_iters"]), *seeded),
            space("vsm"),
            evaluate("ds", "--space", str(out / "cf.space"), "--phi-t", "all", "--phi-d", "5", *seeded),
            evaluate("pop"),
            evaluate("knn"),
            mcnemar("ds", "pop"),
        ]
    elif workload == "ml1m-d1000":
        stages += [
            space("cf", "--dims", "1000", "--iters", str(size["cf_iters"])),
            evaluate("ds", "--space", str(out / "cf.space"), "--phi-t", "5", "--phi-d", "20", "--phi-i", "10",
                     "--workers", str(ds_workers), deterministic=ds_workers == 1),
            evaluate("pop"),
            evaluate("knn"),
            mcnemar("ds", "pop"),
            mcnemar("ds", "knn"),
        ]
    else:
        stages += [space("vsm"), evaluate("pop"), evaluate("knn"), mcnemar("knn", "pop")]
    return stages


# -- running commands ---------------------------------------------------------


class Checks:
    """Output checks, counted against those attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_command(argv: list[str], log: Path) -> tuple[float, float, int, str]:
    """Run one command to completion: wall seconds, peak RSS MB, exit code, stdout.

    Peak RSS comes from the child's own ``wait4`` rusage, which covers the
    child and every descendant it reaped (the evaluation pool's workers).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, log.with_suffix(".out").read_text(encoding="utf-8")


def run_task(args: list[str], log: Path) -> tuple[float, dict]:
    """Run one tasks.py step: its wall seconds and its JSON result."""
    wall, _, code, text = run_command([sys.executable, str(BENCH_DIR / "tasks.py"), *args], log)
    if code != 0:
        raise RuntimeError(f"tasks.py {args[0]} exited {code}: {log.with_suffix('.err').read_text()}")
    return wall, json.loads(text.splitlines()[-1])


def run_reference(work: Path) -> float:
    """Wall seconds of one run of the fixed reference workload."""
    wall, _, code, _ = run_command([sys.executable, str(BENCH_DIR / "reference.py")], work / "reference")
    if code != 0:
        raise RuntimeError(f"reference.py exited {code}")
    return wall


def run_pipeline(stages, out: Path, checks: Checks, spans_dir: Path | None = None, after_stage=None) -> dict | None:
    """Run the stages in order: stage walls, peak RSS and stdout, or None on a failure.

    Untraced, the reference workload runs before the first stage and after
    every stage; ``pipeline_rel`` divides each stage's wall time by the mean
    of the two reference times around it. ``after_stage`` is called after
    each stage.
    """
    out.mkdir(parents=True, exist_ok=True)
    walls, stdout, peak = {}, {}, 0.0
    references = [] if spans_dir else [run_reference(out)]
    relative = 0.0
    for stage, args, _, _ in stages:
        if spans_dir is None:
            argv = [sys.executable, "-m", "spacerank.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_dir / f"{stage}.json"), *args]
        wall, rss, code, text = run_command(argv, out / stage)
        if not checks.check(code == 0, f"{stage} exited {code}: {(out / stage).with_suffix('.err').read_text()}"):
            return None
        walls[stage], stdout[stage], peak = wall, text, max(peak, rss)
        if references:
            references.append(run_reference(out))
            relative += wall / ((references[-2] + references[-1]) / 2)
        if after_stage is not None:
            after_stage()
    return {"walls": walls, "stdout": stdout, "peak_rss_mb": peak, "pipeline_rel": relative,
            "reference_s": statistics.median(references) if references else None}


# -- output checks ------------------------------------------------------------


def expected_targets(ratings: str, split: Path) -> list[tuple[int, int]]:
    """Test pairs rated 4 or 5, sorted: an independent reading of the two files."""
    test = set()
    with open(split, encoding="utf-8") as fh:
        for line in fh:
            user, item, kind = line.split()
            if kind == "test":
                test.add((int(user), int(item)))
    targets = []
    with open(ratings, encoding="utf-8") as fh:
        for line in fh:
            user, item, rating, _ = line.split("::")
            pair = (int(user), int(item))
            if pair in test and int(rating) >= 4:
                targets.append(pair)
    return sorted(targets)


def read_results(path: Path) -> tuple[list[tuple[int, int]], float]:
    """Targets in file order and recall@10 recomputed from the hit column."""
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[:-1]]
    targets = [(int(u), int(i)) for u, i, _ in rows]
    return targets, sum(int(hit) for _, _, hit in rows) / max(len(rows), 1)


_MCNEMAR = re.compile(r"targets: (\d+)\n.*p\(A beats B\) = (\S+)\np\(B beats A\) = (\S+)", re.S)


def check_outputs(workload, stages, run, targets, checks: Checks) -> dict:
    """Checks on one pipeline's outputs; returns recall@10 by system."""
    recalls = {}
    for stage, _, artifact, _ in stages:
        if stage.startswith("eval_"):
            covered, recall = read_results(artifact)
            checks.check(covered == targets, f"{stage}: results do not cover exactly the {len(targets)} test targets")
            recalls[stage[len("eval_"):]] = recall
        elif stage.startswith("mcnemar_"):
            match = _MCNEMAR.search(run["stdout"][stage])
            if checks.check(match is not None and int(match[1]) == len(targets), f"{stage}: output does not parse"):
                if workload == "mini-protocol" and stage == "mcnemar_ds_pop":
                    p = float(match[2])
                    checks.check(p < SIGNIFICANCE, f"ds does not beat pop at p<{SIGNIFICANCE} (p={p:.4g})")
    return recalls


def check_digests(stages, reference: dict, checks: Checks, label: str) -> None:
    for stage, _, artifact, deterministic in stages:
        if deterministic and artifact is not None:
            checks.check(sha256(artifact) == reference[stage], f"{label}: {artifact.name} differs")


# -- metrics ------------------------------------------------------------------


def stage_metrics(run: dict) -> dict:
    """End-to-end metrics of one complete untraced pipeline run."""
    walls = run["walls"]

    def total(prefix):
        return sum(v for k, v in walls.items() if k.startswith(prefix))

    metrics = {
        "pipeline_s": sum(walls.values()),
        "pipeline_rel": run["pipeline_rel"],
        "reference_s": run["reference_s"],
        "split_s": walls["split"],
        "train_s": total("train_"),
        "eval_s": total("eval_"),
        "mcnemar_s": total("mcnemar_"),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics.update({f"{k}_s": v for k, v in walls.items() if k.startswith(("train_", "eval_"))})
    return metrics


def _durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def layer_metrics(spans_by_stage: dict) -> dict:
    """Per-layer metrics from the spans of the traced pipeline."""
    spans = [s for stage_spans in spans_by_stage.values() for s in stage_spans]
    self_s = 0.0
    for stage_spans in spans_by_stage.values():
        root = stage_spans[0]
        children = sum(s["end"] - s["start"] for s in stage_spans if s["parent"] == 0)
        self_s += (root["end"] - root["start"]) - children
    evals = [s["attrs"] for s in spans if s["name"] == "evaluate.evaluate_system"]
    return {
        "corpus.load_ratings_s": statistics.median(_durations(spans, "corpus.load_ratings")),
        "splits.build_s": sum(_durations(spans, "splits.mark_counts") + _durations(spans, "splits.build_split")),
        "splits.load_split_s": statistics.median(_durations(spans, "splits.load_split")),
        "cli.digest_s": sum(_durations(spans, "cli.digest")),
        "cli.self_s": self_s,
        "baselines.pop_topk_ms": statistics.median(_durations(spans, "baselines.pop_topk")) * 1e3,
        "baselines.knn_build_s": sum(_durations(spans, "baselines.knn_build")),
        "baselines.knn_topk_ms": statistics.median(_durations(spans, "baselines.knn_topk")) * 1e3,
        "evaluate.users_ranked": sum(a["users_ranked"] for a in evals),
        "evaluate.targets_skipped": sum(a["targets_skipped"] for a in evals),
        "evaluate.results_io_s": sum(_durations(spans, "evaluate.save_results")
                                     + _durations(spans, "evaluate.load_results")),
        "evaluate.mcnemar_s": sum(_durations(spans, "cli.mcnemar")),
    }


def workload_layer_rows(spans_by_stage: dict) -> list[tuple]:
    """Report rows for layers that only some workloads' pipelines run."""
    spans = [s for stage_spans in spans_by_stage.values() for s in stage_spans]
    rows = []
    pairs = [s["attrs"] for s in spans if s["name"] == "ranker.pair_stream"]
    if pairs:
        emitted = sum(a["emitted"] for a in pairs)
        rows += [
            ("pipeline.ranker.user_ms", "ms", [d * 1e3 for d in _durations(spans, "ranker.user")]),
            ("pipeline.ranker.pair_stream_ms", "ms", [d * 1e3 for d in _durations(spans, "ranker.pair_stream")]),
            ("pipeline.ranker.hyperplane_us_per_pair", "us",
             [sum(_durations(spans, "ranker.train_hyperplane")) / emitted * 1e6]),
            ("pipeline.ranker.topk_ms", "ms", [d * 1e3 for d in _durations(spans, "ranker.topk")]),
            ("pipeline.ranker.pairs_per_user", "count", [a["emitted"] for a in pairs]),
            ("pipeline.ranker.pairs_kept_ratio", "ratio", [a["emitted"] / a["materialized"] for a in pairs]),
        ]
    for name in ("spaces.train_space", "hsoftmax.build_vocabulary", "hsoftmax.build_huffman",
                 "spaces.save_space", "spaces.load_space", "spaces.build_vsm", "corpus.observations"):
        durations = _durations(spans, name)
        if durations:
            rows.append((f"pipeline.{name}_s", "s", durations))
    return rows


# -- one workload -------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str, work: Path) -> dict:
    size = SIZES[workload][scale]
    checks = Checks()
    samples: dict[str, list[float]] = {}

    # Set-up: the corpus, generated several times; every copy must be
    # identical. The first copy feeds the pipeline; the others are spread
    # over the run between commands, so that setup_s does not read the
    # machine's speed at a single moment.
    setup_digests = []

    def set_up():
        index = len(setup_digests)
        wall, corpus = run_task(["corpus", workload, str(size.get("users", 0)), str(seed),
                                 str(work / f"corpus{index}")], work / f"setup{index}")
        samples.setdefault("setup_s", []).append(wall)
        setup_digests.append(sorted(sha256(p) for p in corpus.values()))
        return corpus

    corpus = set_up()
    start, last_wall = time.perf_counter(), 0.0

    def spread_set_up():
        due = len(setup_digests) * seconds / SETUP_REPEATS
        if len(setup_digests) < SETUP_REPEATS and time.perf_counter() - start >= due:
            set_up()

    # Closed loop over the untraced pipeline.
    out = work / "run"
    stages = pipeline(workload, size, seed, corpus, out, ds_workers=2)
    expected_digests, targets, recalls, runs = {}, None, {}, []
    # Start another repetition only if it should end within --seconds.
    while not runs or time.perf_counter() - start + last_wall <= seconds:
        begin = time.perf_counter()
        run = run_pipeline(stages, out, checks, after_stage=spread_set_up)
        if run is None:
            break
        runs.append(run)
        last_wall = time.perf_counter() - begin
        if targets is None:
            targets = expected_targets(corpus["ratings"], out / "split.tsv")
            expected_digests = {stage: sha256(artifact) for stage, _, artifact, _ in stages if artifact is not None}
        else:
            check_digests(stages, expected_digests, checks, f"repetition {len(runs)}")
        recalls = check_outputs(workload, stages, run, targets, checks)
        for name, value in stage_metrics(run).items():
            samples.setdefault(name, []).append(value)
    for system, recall in recalls.items():
        samples[f"recall_{system}"] = [recall]
    while len(setup_digests) < SETUP_REPEATS:
        set_up()
    checks.check(all(d == setup_digests[0] for d in setup_digests), "corpus generation is not byte-identical per seed")

    report = {"samples": samples, "layers": {}, "rows": [], "spans": None, "runs": len(runs)}
    if trace and runs:
        traced_out, spans_dir = work / "traced", work / "spans"
        spans_dir.mkdir()
        traced_stages = pipeline(workload, size, seed, corpus, traced_out, ds_workers=1)
        traced = run_pipeline(traced_stages, traced_out, checks, spans_dir=spans_dir)
        if traced is not None:
            check_outputs(workload, traced_stages, traced, targets, checks)
            check_digests(traced_stages, expected_digests, checks, "traced run")
            spans = {stage: json.loads((spans_dir / f"{stage}.json").read_text()) for stage, *_ in traced_stages}
            layers = layer_metrics(spans)
            rows = workload_layer_rows(spans)
            overhead = 0.0
            for stage, wall in traced["walls"].items():
                delta = wall - statistics.median(r["walls"][stage] for r in runs)
                rows.append((f"trace.overhead.{stage}_s", "s", [delta]))
                # ds runs at workers=2 untraced but at workers=1 traced on ml1m-d1000.
                if not (stage == "eval_ds" and workload == "ml1m-d1000"):
                    overhead += delta
            layers["trace.overhead_s"] = overhead
            if workload == "ml1m-d1000":
                rows.append(("cli.ds_pool_speedup", "x",
                             [traced["walls"]["eval_ds"] / statistics.median(samples["eval_ds_s"])]))
            _, probed = run_task(["probes", str(seed), str(work), corpus["ratings"], str(out / "split.tsv")],
                                 work / "probes")
            layers.update(probed)
            report.update(layers=layers, rows=rows, spans=spans)
    report["checks"] = {"attempted": checks.attempted, "failed": len(checks.failures), "failures": checks.failures}
    return report


# -- reporting ----------------------------------------------------------------


def summary(values: list[float]) -> str:
    """Median, quartiles, sample count and the highest percentile with ten samples beyond it."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    text = f"median={median:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)}"
    for p in (99.9, 99, 90, 50):
        if len(values) * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return text + f" p{p:g}={cut:.6g}"
    return text


def environment(workload: str, seed: int, size: dict, scale: str, work: Path) -> dict:
    _, libs = run_task(["env"], work / "env")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    nproc = len(os.sched_getaffinity(0))
    # Thread counts are not pinned. Unset, OpenBLAS starts one thread per
    # core in every process, so a --workers 2 pool can oversubscribe.
    blas_threads = int(threads["OPENBLAS_NUM_THREADS"] or threads["OMP_NUM_THREADS"] or nproc)
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

        commit, dirty = git("rev-parse", "HEAD") or None, bool(git("status", "--porcelain"))
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        **libs,
        "thread_env": threads,
        "blas_threads_per_process": blas_threads,
        "oversubscribed_at_workers_2": 2 * blas_threads > nproc,
        "git_commit": commit,
        "git_dirty": dirty,
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "size": size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spacerank pipeline benchmark")
    parser.add_argument("--workload", action="append", choices=sorted(SIZES),
                        help="workload to run; repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "spacerank" / "cli.py").is_file():
        print(f"error: no spacerank sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]

    workloads = args.workload or sorted(SIZES)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        work = ROOT / ".bench_work" / f"{workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.scale, work)
            env = environment(workload, args.seed, SIZES[workload][args.scale], args.scale, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

        print(f"== {workload} seed={args.seed} repetitions={report['runs']} trace={args.trace}")
        rows = [(name, units.get(name, "ratio" if name.startswith("recall") else "s"), values)
                for name, values in sorted(report["samples"].items())]
        rows += [(name, units.get(name, "?"), [value]) for name, value in sorted(report["layers"].items())]
        for name, unit, values in rows + report["rows"]:
            print(f"metric {name} {unit} {summary(values)}")
        checks = report["checks"]
        print(f"failed_ops_frac {checks['failed']}/{checks['attempted']} = "
              f"{checks['failed'] / max(checks['attempted'], 1):.4g}")
        print("env " + json.dumps(env, sort_keys=True))

        values = {name: statistics.median(v) for name, v in report["samples"].items()}
        values.update(report["layers"])
        prefix = f"{workload}." if len(workloads) > 1 else ""
        missing = [name for name in wanted if name not in values]
        for name in wanted:
            if name in values:
                result["metrics"][prefix + name] = {"value": values[name], "unit": units[name]}
        # Emitting every listed metric counts as one more check.
        result["attempted"] += checks["attempted"] + 1
        result["failed"] += checks["failed"] + bool(missing)
        if missing:
            print(f"missing metrics: {missing}", file=sys.stderr)

        results_dir = ROOT / ".bench_results"
        results_dir.mkdir(exist_ok=True)
        record = {"env": env, "checks": checks, "samples": report["samples"], "layers": report["layers"],
                  "rows": report["rows"], "spans": report["spans"]}
        (results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, sort_keys=True), encoding="utf-8")

    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
