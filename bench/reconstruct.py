"""Per-stage timings of sisbox's reconstruct path, one commit against another.

    python bench/reconstruct.py OUT.json LABEL=SRC [LABEL=SRC ...] [--rounds R]

Each SRC is a ``src`` directory (this checkout's, or another commit's).  A worker
process per (round, label) imports sisbox from SRC and times each stage of one
member's trip through the path, at 1,000 points in [-8, 8], on the four spaces of
perfbench's reconstruct workload (shannon, ex3, hat at (32, 1024), ex2 at (64, 1024)):
``synthesize``, ``integer_samples``, the time route (kernels in closed form), the
spectral route (every kernel: the synthesis' grid spectrum, evaluated in time) and
the member's exact ``time_values``.  A worker interleaves its repeats over every
(space, stage), the spaces in a seeded order new for each repeat (a space's stages
run in turn: each reads the one before); ``harness`` runs the workers and writes the
medians and spreads in ms.
"""

import sys
import time
from pathlib import Path

from harness import main

REPEATS = 8  # per worker, after one warm-up pass
SPACES = {"shannon": (32, 1024), "ex3": (32, 1024), "hat": (32, 1024), "ex2": (64, 1024)}


def worker(src: str, order) -> dict:
    """{space: {stage: [seconds per repeat]}} for the sisbox under src."""
    sys.path.insert(0, str(Path(src).resolve()))
    import numpy as np
    import sisbox

    xs, rng = np.linspace(-8.0, 8.0, 1000), np.random.default_rng(2101)
    coeffs = sisbox.TimeSamples(np.arange(-8, 9), rng.standard_normal(17) + 1j * rng.standard_normal(17), 8)
    grids = {name: sisbox.FrequencyGrid(*kn) for name, kn in SPACES.items()}
    spaces = {name: sisbox.build_space(sisbox.build_signal(name, grid), grid) for name, grid in grids.items()}
    times = {name: {} for name in spaces}
    for repeat in range(REPEATS + 1):
        for name in order.sample(list(spaces), len(spaces)):
            space = spaces[name]
            kern, grid, out = space.sampling_spectrum, space.grid, {}
            stages = {"synthesize": lambda: sisbox.synthesize(space, coeffs),
                      "integer_samples": lambda: sisbox.integer_samples(out["synthesize"], grid, space.k_max),
                      "time_route": lambda: sisbox.ShiftCombination(kern, out["integer_samples"]).time_values(xs),
                      "spectral_route": lambda: sisbox.GridSpectrum(sisbox.ShiftCombination(
                          kern, out["integer_samples"]).grid_values(grid), grid).time_values(xs),
                      "exact_time_values": lambda: out["synthesize"].time_values(xs)}
            for stage, call in stages.items():
                if stage == "time_route" and isinstance(kern, sisbox.GridSpectrum):
                    continue  # a grid kernel has no closed form: reconstruct takes the spectral route
                start = time.perf_counter()
                out[stage] = call()
                if repeat:
                    times[name].setdefault(stage, []).append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    main(__file__, worker, REPEATS)
