"""Per-operation timings and page faults of sisbox's certificate path, one commit against another.

    python bench/certify.py OUT.json LABEL=SRC [LABEL=SRC ...] [--rounds R]

Each SRC is a ``src`` directory (this checkout's, or another commit's).  A worker
process per (round, label) imports sisbox from SRC and runs the 11 operations of
perfbench's certify_fine workload at grid (64, 4096), each on a signal built fresh
from the catalog: ``build_space`` shannon, ex2; ``check_sz99`` blhat;
``check_theorem2`` shannon, blhat, ex2; ``check_theorem5`` shannon, blhat, ex2, hat;
``check_sz04`` ex2.  Each operation records its wall time and the minor page faults
(``ru_minflt``) the worker took during it; a worker interleaves its repeats over every
operation, in a seeded order new for each repeat.  ``harness`` runs the workers and
writes the medians and spreads (ms, faults).
"""

import sys
from pathlib import Path

from harness import main, timed

REPEATS = 6  # per worker, after one warm-up pass
SEED = 5101  # probe grid of the shift-square sum and of theorem 5
OPS = [("build_space", "shannon"), ("build_space", "ex2"), ("check_sz99", "blhat"),
       *[("check_theorem2", n) for n in ("shannon", "blhat", "ex2")],
       *[("check_theorem5", n) for n in ("shannon", "blhat", "ex2", "hat")], ("check_sz04", "ex2")]


def worker(src: str, order) -> dict:
    """{"fn name": [[seconds, minor faults] per repeat]} for the sisbox under src."""
    sys.path.insert(0, str(Path(src).resolve()))
    import sisbox

    grid, out = sisbox.FrequencyGrid(64, 4096), {f"{fn} {name}": [] for fn, name in OPS}
    for repeat in range(REPEATS + 1):
        for fn, name in order.sample(OPS, len(OPS)):
            sig = sisbox.build_signal(name, grid)
            kwargs = {} if fn == "check_sz04" else {"seed": SEED}
            took = timed(lambda: getattr(sisbox, fn)(sig, grid, **kwargs))
            if repeat:
                out[f"{fn} {name}"].append(took)
    return out


if __name__ == "__main__":
    main(__file__, worker, REPEATS)
