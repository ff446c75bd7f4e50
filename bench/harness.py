"""The driver the per-layer benches share: one commit's sisbox against another's.

    python bench/<bench>.py OUT.json LABEL=SRC [LABEL=SRC ...] [--rounds R]

Each SRC is a ``src`` directory (this checkout's, or another commit's); a label may
name the same SRC as another (an A/A run, whose spread is the noise floor a
per-operation claim must clear).  A bench module passes ``main`` its
``worker(src, order)``, which imports sisbox from SRC and returns its repeats by key
(dicts may nest): seconds, or [seconds, minor faults] from ``timed``.  The worker
runs its operations in an order it draws from ``order`` (a ``random.Random``) anew
for each repeat, so that no operation always runs after the same one: what ran
before moves the heap, and with it an operation's time and faults.  ``order`` is
seeded with the round, so the labels of one round see the same orders.  A worker
process runs per (round, label) with BLAS on one thread; the label order rotates
(round r starts at label r mod L), so that each of L labels runs first in one round
of every L, and last in another.  The median and the spread (interquartile range)
of each key over every worker's repeats, in ms, and the median faults where taken,
go to OUT.json and to a table on stdout, with ratios of the medians to the first label.
"""

import json
import os
import random
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


def _summary(tree):
    """{"ms": median, "iqr_ms": spread} of each key's repeats, and "minflt", the median
    faults, where taken."""
    if isinstance(tree, dict):
        return {key: _summary(sub) for key, sub in tree.items()}
    seconds = [t for t, _ in tree] if isinstance(tree[0], list) else tree
    q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    out = {"ms": round(1e3 * statistics.median(seconds), 4), "iqr_ms": round(1e3 * (q3 - q1), 4)}
    if isinstance(tree[0], list):
        out["minflt"] = statistics.median(f for _, f in tree)
    return out


def _rows(tree, prefix: str = "") -> dict:
    """{"key subkey": median} down to the medians."""
    if isinstance(tree, dict) and "ms" not in tree:
        return {k: v for key, sub in tree.items() for k, v in _rows(sub, f"{prefix}{key} ").items()}
    return {prefix.strip(): tree}


def _print_table(summaries: dict) -> None:
    labels = list(summaries)
    rows = {label: _rows(summaries[label]) for label in labels}
    faults = "minflt" in next(iter(rows[labels[0]].values()))
    width = max(map(len, rows[labels[0]])) + 2
    print(f"{'operation':{width}}" + "".join(f" {lab:>10}{'iqr':>8}" + (f"{'flt':>7}" if faults else "")
                                             for lab in labels) + "   ratios to " + labels[0])
    for key in rows[labels[0]]:
        got = [rows[lab][key] for lab in labels]
        cells = (f" {g['ms']:10.3f}{g['iqr_ms']:8.3f}" + (f"{g['minflt']:7.0f}" if faults else "") for g in got)
        print(f"{key:{width}}" + "".join(cells) + "".join(f"{g['ms'] / got[0]['ms']:8.2f}" for g in got[1:]))
    if faults:
        for lab in labels:
            print(f"{lab}: {sum(m['ms'] for m in rows[lab].values()):.1f} ms, "
                  f"{sum(m['minflt'] for m in rows[lab].values()):.0f} minor faults per pass of medians")


def main(script: str, worker, repeats: int) -> None:
    """Run the bench whose file is script: as a worker, or as the driver of its workers."""
    if sys.argv[1] == "--worker":
        print(json.dumps(worker(sys.argv[2], random.Random(int(sys.argv[3])))))
        return
    out = Path(sys.argv[1])
    rounds = int(sys.argv[sys.argv.index("--rounds") + 1]) if "--rounds" in sys.argv else 5
    sources = dict(arg.split("=", 1) for arg in sys.argv[2:] if "=" in arg)
    env = {**os.environ, **BLAS_PINS}
    runs, labels = {label: [] for label in sources}, list(sources)
    for r in range(rounds):
        for label in labels[r % len(labels):] + labels[:r % len(labels)]:
            done = subprocess.run([sys.executable, script, "--worker", sources[label], str(r)], env=env,
                                  capture_output=True, text=True, check=True)
            runs[label].append(json.loads(done.stdout))
    summaries = {label: _summary(_pool(ws)) for label, ws in runs.items()}
    out.write_text(json.dumps({"repeats": rounds * repeats, "medians": summaries}, indent=1) + "\n")
    _print_table(summaries)
