import os
from pathlib import Path

import pytest

from spacerank.cli import main
from spacerank.minicorpus import generate_minicorpus

# Full-protocol tests need the MovieLens 1M ratings file, which is not
# redistributable with this package. Point SPACERANK_ML1M at ratings.dat
# (default: data/ml-1m/ratings.dat under the repo root).
ML1M_RATINGS = Path(
    os.environ.get("SPACERANK_ML1M", Path(__file__).resolve().parent.parent / "data/ml-1m/ratings.dat")
)

requires_ml1m = pytest.mark.skipif(
    not ML1M_RATINGS.exists(),
    reason=f"MovieLens 1M ratings not found at {ML1M_RATINGS} (set SPACERANK_ML1M)",
)

# The multi-minute end-to-end reproductions additionally want an explicit
# opt-in so a plain `pytest` run stays fast.
requires_full_run = pytest.mark.skipif(
    os.environ.get("SPACERANK_RUN_FULL") != "1",
    reason="long-running reproduction; set SPACERANK_RUN_FULL=1 to enable",
)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the HS kernel into a temporary cache, not the user's ~/.cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(autouse=True)
def blas_threads():
    """Restore OMP_NUM_THREADS after each test: an in-process `main` at
    `--workers` above 1 sets it, and later subprocesses would inherit it."""
    saved = os.environ.get("OMP_NUM_THREADS")
    yield
    if saved is None:
        os.environ.pop("OMP_NUM_THREADS", None)
    else:
        os.environ["OMP_NUM_THREADS"] = saved


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """Paths of the deterministic bundled mini corpus (ratings, reviews)."""
    out = tmp_path_factory.mktemp("minicorpus")
    return generate_minicorpus(out)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One shared split + small cf space over the mini corpus."""
    work = tmp_path_factory.mktemp("cli")
    ratings, reviews = generate_minicorpus(work / "data")
    out = work / "out"
    assert main(["split", "--ratings", str(ratings), "--out", str(out)]) == 0
    split = out / "split.tsv"
    space = out / "cf.space"
    code = main([
        "train-space", "--mode", "cf", "--ratings", str(ratings), "--split", str(split),
        "--dims", "16", "--iters", "4", "--seed", "5", "--out", str(space),
    ])
    assert code == 0
    return {"ratings": ratings, "reviews": reviews, "out": out, "split": split, "space": space}
