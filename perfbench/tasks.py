"""Set-up and probe steps of the benchmark, each run in its own process.

    python3 perfbench/tasks.py corpus WORKLOAD USERS SEED OUT_DIR
    python3 perfbench/tasks.py probes SEED WORK_DIR RATINGS SPLIT
    python3 perfbench/tasks.py env

Each prints one JSON object on stdout. They run apart from run.py so that
the benchmark's own process stays small: a command started by fork and
exec inherits its parent's peak RSS, which would otherwise show up in the
wait4 figure of every command timed after it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def corpus(workload: str, users: str, seed: str, out_dir: str) -> dict:
    if workload == "mini-protocol":
        from spacerank.minicorpus import generate_minicorpus

        # The bundled corpus (the generator's default seed), as in the
        # acceptance smoke test; the workload seed goes to the CLI instead.
        ratings, reviews = generate_minicorpus(out_dir)
        return {"ratings": str(ratings), "reviews": str(reviews)}
    from ml1m_corpus import generate_ml1m_corpus

    return {"ratings": str(generate_ml1m_corpus(out_dir, int(users), int(seed)))}


def probes(seed: str, work_dir: str, ratings: str, split: str) -> dict:
    from probes import run_probes
    from spacerank.corpus import load_ratings
    from spacerank.splits import load_split

    events = load_ratings(ratings)
    held = load_split(split, events).test
    training = [e for e in events if (e.user_id, e.item_id) not in held]
    return run_probes(int(seed), Path(work_dir), training)


def env() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": {"name": blas.get("name"), "version": blas.get("version"),
                                              "config": blas.get("openblas configuration")}}


if __name__ == "__main__":
    task = {"corpus": corpus, "probes": probes, "env": env}[sys.argv[1]]
    print(json.dumps(task(*sys.argv[2:])))
