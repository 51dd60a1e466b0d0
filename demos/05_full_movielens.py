"""Reproduce the full MovieLens 1M protocol (long-running).

Needs the MovieLens 1M ratings file, which cannot be redistributed here:
download ml-1m.zip from the GroupLens site and unpack it so that
data/ml-1m/ratings.dat exists (or set SPACERANK_ML1M).

Budget a few minutes. On the 6,040-user ML1M-shaped stand-in
(perfbench/ml1m_corpus.py --users 6040, 996,600 ratings; 2 vCPUs, not
MovieLens 1M itself) the collaborative space (d=1000, 20 passes) trained
in 110 s at --workers 2, and ds ranked the ~10k test targets in 61 s at
--workers 2. This script runs --workers at the machine's CPU count.
"""

import os
import sys
from pathlib import Path

from spacerank.cli import main

ratings = Path(os.environ.get("SPACERANK_ML1M", "data/ml-1m/ratings.dat"))
if not ratings.exists():
    sys.exit(f"MovieLens 1M not found at {ratings}; see this script's docstring")

out = Path("demo_out/ml1m")
workers = str(os.cpu_count() or 1)
run = lambda *args: main([str(a) for a in args]) == 0 or sys.exit(1)

run("split", "--ratings", ratings, "--out", out)
split = out / "split.tsv"

# The tuned configuration: 1000 dimensions, 20 passes, and the ranker
# with phi_d=20, phi_t=5, phi_i=10.
run("train-space", "--mode", "cf", "--ratings", ratings, "--split", split,
    "--holdout", "test", "--dims", 1000, "--iters", 20, "--seed", 1,
    "--workers", workers, "--out", out / "cf1k.space")

run("evaluate", "--system", "pop", "--ratings", ratings, "--split", split,
    "--out", out / "pop.results")
run("evaluate", "--system", "knn", "--ratings", ratings, "--split", split,
    "--k-neighbors", 60, "--out", out / "knn.results")
run("evaluate", "--system", "ds", "--space", out / "cf1k.space", "--ratings", ratings,
    "--split", split, "--phi-t", 5, "--phi-d", 20, "--phi-i", 10,
    "--workers", workers, "--out", out / "ds_cf1k.results")

print("\npaired significance, collaborative space vs the baselines:")
run("mcnemar", out / "ds_cf1k.results", out / "pop.results")
run("mcnemar", out / "ds_cf1k.results", out / "knn.results")
