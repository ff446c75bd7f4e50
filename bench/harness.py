"""What the benches share (per layer, and end to end): one commit's sisbox against another's.

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
process runs per (round, label) with BLAS on one thread, in a temporary directory
that a bench's ``setup(directory, src)`` (given the first label's SRC) fills once
before the first worker; the label order rotates (round r starts at label r mod L),
so that each of L labels runs first in one round of every L, and last in another.
A repeat may also carry a child process's CPU seconds and ``ru_maxrss`` (kB):
[seconds, minor faults, CPU seconds, max RSS].  The median and the spread
(interquartile range) of each key over every worker's repeats, in ms (of wall time,
and of CPU time where taken), the median faults and the largest max RSS where taken,
go to OUT.json with their totals over the keys, and to a table on stdout with ratios
of the medians to the first label.
"""

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
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


def _spread(seconds, key: str) -> dict:
    q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {key: round(1e3 * statistics.median(seconds), 4), f"iqr_{key}": round(1e3 * (q3 - q1), 4)}


def _summary(tree):
    """{"ms": median, "iqr_ms": spread} of each key's repeats; "minflt", the median
    faults, and "cpu_ms", "iqr_cpu_ms" and "maxrss_kb", the largest, where taken."""
    if isinstance(tree, dict):
        return {key: _summary(sub) for key, sub in tree.items()}
    columns = list(zip(*tree)) if isinstance(tree[0], list) else [tree]
    out = _spread(columns[0], "ms")
    if len(columns) > 1:
        out["minflt"] = statistics.median(columns[1])
    if len(columns) > 2:
        out |= {**_spread(columns[2], "cpu_ms"), "maxrss_kb": max(columns[3])}
    return out


def _rows(tree, prefix: str = "") -> dict:
    """{"key subkey": median} down to the medians."""
    if isinstance(tree, dict) and "ms" not in tree:
        return {k: v for key, sub in tree.items() for k, v in _rows(sub, f"{prefix}{key} ").items()}
    return {prefix.strip(): tree}


# (summary key, column title or None for the label, width, decimals)
COLUMNS = [("ms", None, 11, 3), ("iqr_ms", "iqr", 8, 3), ("minflt", "flt", 7, 0),
           ("cpu_ms", "cpu", 9, 3), ("iqr_cpu_ms", "iqr", 8, 3), ("maxrss_kb", "rss kB", 8, 0)]


def _totals(rows: dict) -> dict:
    """A pass of medians: the sums over the keys of ms, faults and CPU ms, and the largest
    max RSS, where taken."""
    first = next(iter(rows.values()))
    out = {key: round(sum(m[key] for m in rows.values()), 4) for key in ("ms", "minflt", "cpu_ms") if key in first}
    if "maxrss_kb" in first:
        out["maxrss_kb"] = max(m["maxrss_kb"] for m in rows.values())
    return out


def _print_table(summaries: dict) -> None:
    labels = list(summaries)
    rows = {label: _rows(summaries[label]) for label in labels}
    first = next(iter(rows[labels[0]].values()))
    columns = [c for c in COLUMNS if c[0] in first]
    width = max(map(len, rows[labels[0]])) + 2
    print(f"{'operation':{width}}" + "".join(f"{title or lab:>{w}}" for lab in labels for _, title, w, _ in columns)
          + "   ratios to " + labels[0])
    for key in rows[labels[0]]:
        got = [rows[lab][key] for lab in labels]
        cells = (f"{g[name]:{w}.{d}f}" for g in got for name, _, w, d in columns)
        print(f"{key:{width}}" + "".join(cells) + "".join(f"{g['ms'] / got[0]['ms']:8.2f}" for g in got[1:]))
    if "minflt" in first:
        for lab in labels:
            total = _totals(rows[lab])
            print(f"{lab}: {total['ms']:.1f} ms" + (f", {total['cpu_ms']:.1f} ms CPU" if "cpu_ms" in total else "")
                  + f", {total['minflt']:.0f} minor faults per pass of medians"
                  + (f"; largest max RSS {total['maxrss_kb']:.0f} kB" if "maxrss_kb" in total else ""))


def main(script: str, worker, repeats: int, setup=None) -> None:
    """Run the bench whose file is script: as a worker, or as the driver of its workers."""
    if sys.argv[1] == "--worker":
        print(json.dumps(worker(sys.argv[2], random.Random(int(sys.argv[3])))))
        return
    out = Path(sys.argv[1])
    rounds = int(sys.argv[sys.argv.index("--rounds") + 1]) if "--rounds" in sys.argv else 5
    sources = {label: str(Path(src).resolve()) for label, src in (arg.split("=", 1) for arg in sys.argv[2:] if "=" in arg)}
    env = {**os.environ, **BLAS_PINS}
    runs, labels = {label: [] for label in sources}, list(sources)
    with tempfile.TemporaryDirectory(prefix="sisbox-bench-") as workdir:
        if setup is not None:
            setup(Path(workdir), sources[labels[0]])
        for r in range(rounds):
            for label in labels[r % len(labels):] + labels[:r % len(labels)]:
                done = subprocess.run([sys.executable, str(Path(script).resolve()), "--worker", sources[label], str(r)],
                                      env=env, cwd=workdir, stdout=subprocess.PIPE, text=True, check=True)
                runs[label].append(json.loads(done.stdout))
    summaries = {label: _summary(_pool(ws)) for label, ws in runs.items()}
    totals = {label: _totals(_rows(summary)) for label, summary in summaries.items()}
    out.write_text(json.dumps({"repeats": rounds * repeats, "medians": summaries, "totals": totals}, indent=1) + "\n")
    _print_table(summaries)
