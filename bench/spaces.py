"""Per-operation timings and page faults of sisbox's space operations, one commit against another.

    python bench/spaces.py OUT.json LABEL=SRC [LABEL=SRC ...] [--rounds R]

Each SRC is a ``src`` directory (this checkout's, or another commit's).  A worker
process per (round, label) imports sisbox from SRC and, on the shannon space at
(32, 1024) and at (64, 4096), runs the operations that compare signals over their
fold rows: ``decompose`` into the halves [0, 1/2) and [1/2, 1); ``check_determining_set``
of the family [-1/2, 0), [0, 1/2); ``induced_subspace`` of a seeded member (17
coefficients); ``verify_direct_sum`` of that member over the halves.  Each operation
records its wall time and the minor page faults (``ru_minflt``) the worker took during
it; a worker interleaves its repeats over every operation, in a seeded order new for
each repeat.  ``harness`` runs the workers and writes the medians and spreads (ms,
faults).
"""

import sys
from pathlib import Path

from harness import main, timed

REPEATS = 6  # per worker, after one warm-up pass
GRIDS = [(32, 1024), (64, 4096)]


def worker(src: str, order) -> dict:
    """{"op KxN": [[seconds, minor faults] per repeat]} for the sisbox under src."""
    sys.path.insert(0, str(Path(src).resolve()))
    import numpy as np
    import sisbox

    rng = np.random.default_rng(2501)
    coeffs = sisbox.TimeSamples(np.arange(-8, 9), rng.standard_normal(17) + 1j * rng.standard_normal(17), 8)
    family = [sisbox.PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)]), sisbox.PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)])]
    ops = {}
    for k, n in GRIDS:
        grid = sisbox.FrequencyGrid(k, n)
        space = sisbox.build_space(sisbox.build_signal("shannon", grid), grid)
        halves = sisbox.PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        member, components = sisbox.synthesize(space, coeffs), sisbox.decompose(space, halves)
        ops[f"decompose {k}x{n}"] = lambda s=space, p=halves: sisbox.decompose(s, p)
        ops[f"check_determining_set {k}x{n}"] = lambda s=space: sisbox.check_determining_set(s, family)
        ops[f"induced_subspace {k}x{n}"] = lambda s=space, f=member: sisbox.induced_subspace(s, f)
        ops[f"verify_direct_sum {k}x{n}"] = lambda s=space, c=components, f=member: sisbox.verify_direct_sum(s, c, f)
    out = {key: [] for key in ops}  # keys in the order of ops, whatever order they run in
    for repeat in range(REPEATS + 1):
        for key in order.sample(list(ops), len(ops)):
            took = timed(ops[key])
            if repeat:
                out[key].append(took)
    return out


if __name__ == "__main__":
    main(__file__, worker, REPEATS)
