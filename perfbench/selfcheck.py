"""Self-check of the benchmark itself, at a tiny size.

    python3 perfbench/selfcheck.py

For every workload, untraced and traced, runs ``run.py --scale tiny`` and
asserts that the run passes its output checks, that the last line is the
result object with exactly the metrics BENCHMARK.json lists (each with its
unit), and that the report prints every end-to-end metric with its unit,
median, quartiles and sample count. Then checks that the benchmark refuses
to run, without printing a result, in a copy that holds only
BENCHMARK.json and the benchmark's own files. Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 600


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(workload: str, trace: int) -> None:
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny"], ROOT)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected, f"{workload} trace={trace}: metrics differ: {set(emitted) ^ set(expected)}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    for m in SPEC["end_to_end"]:
        pattern = rf"^metric {re.escape(m['name'])} {re.escape(m['unit'])} median=\S+ q1=\S+ q3=\S+ n=\d+"
        assert any(re.match(pattern, line) for line in lines), f"{workload}: no report line for {m['name']}"
    print(f"ok {workload} trace={trace}: {len(emitted)} metrics")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([*SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "the benchmark ran without the program's sources"
    assert not proc.stdout.strip(), f"a result was printed without sources: {proc.stdout!r}"
    print("ok refuses to run without the program's sources")


def main() -> int:
    try:
        check_refuses_without_sources()
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                check_workload(workload, trace)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
