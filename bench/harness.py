"""The driver the per-layer benches share: one commit's sisbox against another's.

    python bench/<bench>.py OUT.json LABEL=SRC [LABEL=SRC ...] [--rounds R]

Each SRC is a ``src`` directory (this checkout's, or another commit's).  A bench
module passes ``main`` its ``worker(src)``, which imports sisbox from SRC and returns
its repeats by key (dicts may nest): seconds, or [seconds, minor faults] from
``timed``.  A worker process runs per (round, label) with BLAS on one thread; labels
alternate from round to round.  The medians of each key over every worker's repeats
(ms, and faults where taken) go to OUT.json and to a table on stdout, with ratios to
the first label.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def timed(call) -> list:
    """[seconds, minor page faults (``ru_minflt``)] this process took during call()."""
    faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    call()
    return [time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults]


def _pool(trees: list):
    """One tree of the same keys whose leaves hold every tree's repeats."""
    if isinstance(trees[0], dict):
        return {key: _pool([tree[key] for tree in trees]) for key in trees[0]}
    return [repeat for tree in trees for repeat in tree]


def _median(tree):
    if isinstance(tree, dict):
        return {key: _median(sub) for key, sub in tree.items()}
    if isinstance(tree[0], list):
        return {"ms": round(1e3 * statistics.median(t for t, _ in tree), 4),
                "minflt": statistics.median(f for _, f in tree)}
    return round(1e3 * statistics.median(tree), 4)


def _rows(tree, prefix: str = "") -> dict:
    """{"key subkey": median} down to the medians."""
    if isinstance(tree, dict) and "ms" not in tree:
        return {k: v for key, sub in tree.items() for k, v in _rows(sub, f"{prefix}{key} ").items()}
    return {prefix.strip(): tree}


def _print_table(medians: dict) -> None:
    labels = list(medians)
    rows = {label: _rows(medians[label]) for label in labels}
    faults = isinstance(next(iter(rows[labels[0]].values())), dict)
    width = max(map(len, rows[labels[0]])) + 2
    print(f"{'operation':{width}}" + "".join(f"{lab:>10}" + (f"{'flt':>7}" if faults else "") for lab in labels)
          + "   ratios to " + labels[0])
    for key in rows[labels[0]]:
        got = [rows[lab][key] for lab in labels]
        ms = [g["ms"] if faults else g for g in got]
        cells = (f"{m:10.3f}" + (f"{g['minflt']:7.0f}" if faults else "") for m, g in zip(ms, got))
        print(f"{key:{width}}" + "".join(cells) + "".join(f"{m / ms[0]:8.2f}" for m in ms[1:]))
    if faults:
        for lab in labels:
            print(f"{lab}: {sum(m['ms'] for m in rows[lab].values()):.1f} ms, "
                  f"{sum(m['minflt'] for m in rows[lab].values()):.0f} minor faults per pass of medians")


def main(script: str, worker, repeats: int, medians_key: str = "medians") -> None:
    """Run the bench whose file is script: as a worker, or as the driver of its workers."""
    if sys.argv[1] == "--worker":
        print(json.dumps(worker(sys.argv[2])))
        return
    out = Path(sys.argv[1])
    rounds = int(sys.argv[sys.argv.index("--rounds") + 1]) if "--rounds" in sys.argv else 5
    sources = dict(arg.split("=", 1) for arg in sys.argv[2:] if "=" in arg)
    env = {**os.environ, **BLAS_PINS}
    runs = {label: [] for label in sources}
    for r in range(rounds):
        for label in list(sources)[::1 if r % 2 == 0 else -1]:
            done = subprocess.run([sys.executable, script, "--worker", sources[label]], env=env,
                                  capture_output=True, text=True, check=True)
            runs[label].append(json.loads(done.stdout))
    medians = {label: _median(_pool(ws)) for label, ws in runs.items()}
    out.write_text(json.dumps({"repeats": rounds * repeats, medians_key: medians}, indent=1) + "\n")
    _print_table(medians)
