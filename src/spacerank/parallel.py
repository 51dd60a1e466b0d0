"""The one fork fan-out behind every ``--workers`` setting.

Workers are forked, so they inherit the task (closures included) and all
it reads; only items and results are pickled. A worker's writes stay
private to it unless they land in an array made by `shared_copy`.
"""

import mmap
import warnings

import numpy as np

_task = None  # a forked worker's task, installed by its pool initializer


def _install(task) -> None:
    global _task
    _task = task


def _call(item):
    return _task(item)


def fork_map(task, items, workers: int) -> list:
    """``[task(x) for x in items]``, in item order, on up to `workers` forked processes.

    One worker or one item runs in this process. Chunks are sized from the
    item count, so two items on two workers land one on each. Where fork
    is unavailable this warns and runs in this process.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers > 1:  # imported here so that single-worker runs never load the pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            chunksize = max(1, len(items) // (4 * workers))
            with ProcessPoolExecutor(workers, context, _install, (task,)) as pool:
                return list(pool.map(_call, items, chunksize=chunksize))
        warnings.warn("fork is unavailable; running on a single worker", RuntimeWarning)
    return [task(x) for x in items]


def shared_copy(array: np.ndarray) -> np.ndarray:
    """A copy of `array` in anonymous shared memory, freed with its last view."""
    buffer = mmap.mmap(-1, max(array.nbytes, 1))  # mmap refuses length 0
    shared = np.frombuffer(buffer, array.dtype, array.size).reshape(array.shape)
    shared[...] = array
    return shared
