"""A fixed reference workload: the benchmark's yardstick for machine speed.

    python3 perfbench/reference.py

It imports nothing from spacerank, so no change to the program moves it.
It mixes the kinds of work the pipeline does, each for a few hundredths of
a second, after the interpreter and numpy start-up every command pays:
parsing ``::``-separated lines into tuples and a set, an SGD-like
loop of small numpy vector steps, float32 matrix-vector products, and
formatting floats as text. run.py times it between the pipeline's
commands and reports the pipeline's wall time in multiples of it
(``pipeline_rel``), which cancels the drift of a shared machine's speed
that raw seconds carry within and between sets of runs.
"""

import numpy as np

rng = np.random.default_rng(0)

lines = [f"{u}::{u % 3700}::{u % 5 + 1}::{956703932 + u}" for u in range(20000)]
events = [tuple(int(p) for p in line.split("::")) for line in lines]
pairs = {(e[0], e[1]) for e in events}

vectors = rng.random((300, 32))
w = np.zeros(32)
for k in range(8000):
    a, b = vectors[k % 300], vectors[(k * 7) % 300]
    w += 0.001 * (b - a) * float(w @ a - w @ b - 0.5)

matrix = rng.random((400, 3700), dtype=np.float32)
for k in range(200):
    matrix @ matrix[k]

text = "\n".join(" ".join(repr(float(x)) for x in row) for row in matrix[:15])
