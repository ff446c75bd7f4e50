"""Per-operation timings and page faults of sisbox's certificate path, one commit against another.

    python bench/certify.py OUT.json LABEL=SRC [LABEL=SRC ...] [--rounds R]

Each SRC is a ``src`` directory (this checkout's, or another commit's).  A worker
process per (round, label) imports sisbox from SRC and runs the 11 operations of
perfbench's certify_fine workload at grid (64, 4096), each on a signal built fresh
from the catalog: ``build_space`` shannon, ex2; ``check_sz99`` blhat;
``check_theorem2`` shannon, blhat, ex2; ``check_theorem5`` shannon, blhat, ex2, hat;
``check_sz04`` ex2.  Each operation records its wall time and the minor page faults
(``ru_minflt``) the worker took during it.  BLAS runs on one thread; labels alternate
from round to round, and a worker interleaves its repeats over every operation.
Medians (ms, faults) go to OUT.json and to a table on stdout (ratios to the first label).
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 6  # per worker, after one warm-up pass
SEED = 5101  # probe grid of the shift-square sum and of theorem 5
OPS = [("build_space", "shannon"), ("build_space", "ex2"), ("check_sz99", "blhat"),
       *[("check_theorem2", n) for n in ("shannon", "blhat", "ex2")],
       *[("check_theorem5", n) for n in ("shannon", "blhat", "ex2", "hat")], ("check_sz04", "ex2")]


def worker(src: str) -> dict:
    """{"fn name": [[seconds, minor faults] per repeat]} for the sisbox under src."""
    sys.path.insert(0, str(Path(src).resolve()))
    import sisbox

    grid, out = sisbox.FrequencyGrid(64, 4096), {}
    for repeat in range(REPEATS + 1):
        for fn, name in OPS:
            sig = sisbox.build_signal(name, grid)
            kwargs = {} if fn == "check_sz04" else {"seed": SEED}
            faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
            getattr(sisbox, fn)(sig, grid, **kwargs)
            took = [time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults]
            if repeat:
                out.setdefault(f"{fn} {name}", []).append(took)
    return out


if __name__ == "__main__" and sys.argv[1] == "--worker":
    print(json.dumps(worker(sys.argv[2])))
elif __name__ == "__main__":
    out, rounds = Path(sys.argv[1]), int(sys.argv[sys.argv.index("--rounds") + 1]) if "--rounds" in sys.argv else 5
    sources = dict(arg.split("=", 1) for arg in sys.argv[2:] if "=" in arg)
    env = {**os.environ, **{v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    runs = {label: [] for label in sources}
    for r in range(rounds):
        for label in list(sources)[::1 if r % 2 == 0 else -1]:
            done = subprocess.run([sys.executable, __file__, "--worker", sources[label]], env=env,
                                  capture_output=True, text=True, check=True)
            runs[label].append(json.loads(done.stdout))
    medians = {label: {op: {"ms": round(1e3 * statistics.median(t for w in ws for t, _ in w[op]), 4),
                            "minflt": statistics.median(f for w in ws for _, f in w[op])} for op in ws[0]}
               for label, ws in runs.items()}
    out.write_text(json.dumps({"repeats": rounds * REPEATS, "medians": medians}, indent=1) + "\n")
    labels = list(medians)
    print(f"{'operation':22}" + "".join(f"{lab:>10}{'flt':>7}" for lab in labels) + "   ratios to " + labels[0])
    for op, base in medians[labels[0]].items():
        got = [medians[lab][op] for lab in labels]
        print(f"{op:22}" + "".join(f"{g['ms']:10.3f}{g['minflt']:7.0f}" for g in got)
              + "".join(f"{g['ms'] / base['ms']:8.2f}" for g in got[1:]))
    for lab in labels:
        print(f"{lab}: {sum(m['ms'] for m in medians[lab].values()):.1f} ms, "
              f"{sum(m['minflt'] for m in medians[lab].values()):.0f} minor faults per pass of medians")
