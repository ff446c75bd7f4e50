"""sisbox benchmark: one workload per run, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload {cli_mix,certify_fine,reconstruct} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace T]

Every workload is a closed loop with one caller.  A run sets up several
times in fresh interpreters (setup_s is their median wall time), warms
up, then runs whole passes of the workload's operation matrix until at
least ``--seconds`` have passed and at least its minimum number of passes
is done.  Every operation's output is checked against the golden table
(golden.json); an exception, a traceback on stderr or a mismatch counts
the operation as failed, and a run with any failure exits with code 1.
The last line of stdout is the JSON result.  See README.md for the
metrics.
"""

from __future__ import annotations

import os

# Thread pins come first: they only take effect if set before numpy loads,
# here and (through the environment) in every child interpreter.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1  # the probe loops are single-threaded numpy; a BLAS rewrite gets the same core count
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_mix", "certify_fine", "reconstruct")
SETUPS = 3              # set-ups per run; setup_s is their median
START_PROBES = 5        # bare interpreter starts per traced run
OP_TIMEOUT_S = 30.0     # a CLI command or set-up child is killed past this
HARD_LIMIT_S = 140.0    # no new operation starts this long after launch (runs end within 180 s)
TAIL_BEYOND = 10        # samples the tail percentile leaves above it
# whole passes a run makes at least; fixes the tail percentile per workload.
# A reconstruct pass takes under a second: 40 of them average over the
# host's slower and faster stretches, which last seconds.
MIN_PASSES = {"cli_mix": 1, "certify_fine": 2, "reconstruct": 40}


# ------------------------------------------------------------------ processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.pop("SISBOX_GRID", None)
    return env


def spawn(argv: list[str], cwd: Path, tag: str = "child") -> tuple[int, float, int, str]:
    """Run one child to completion: (exit code, wall s, max RSS kB, stderr)."""
    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    return proc.returncode, wall, usage.ru_maxrss, err_path.read_text(errors="replace")


def run_setups(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """SETUPS fresh-interpreter set-ups: (wall times, import times)."""
    walls, imports = [], []
    for i in range(SETUPS):
        rc, wall, _, err = spawn([sys.executable, str(HERE / "child.py"), "setup", workload,
                                  str(seed), str(workdir)], workdir, f"setup{i}")
        if rc != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {rc}):\n{err}")
        walls.append(wall)
        imports.append(json.loads((workdir / f"setup{i}.out").read_text())["import_s"])
    return walls, imports


# ------------------------------------------------------------------ measuring

class Phase:
    """Latencies and failures of one measured stretch of whole passes."""

    def __init__(self, pass_len: int):
        self.pass_len = pass_len
        self.samples = []     # (key, latency s, problems)
        self.pass_walls = []  # wall time of each whole pass
        self.cut = False      # stopped by HARD_LIMIT_S

    @property
    def failed(self) -> int:
        return sum(1 for _, _, problems in self.samples if problems)

    @property
    def ops_per_s(self) -> float:
        """Correct operations per second: pass length over the median pass
        wall time, scaled by the share of operations that passed."""
        ok_share = 1.0 - self.failed / len(self.samples)
        return ok_share * self.pass_len / statistics.median(self.pass_walls or [math.inf])


def measure(ops, seconds: float, min_passes: int, around=None) -> Phase:
    """Run whole passes of ops until both seconds and min_passes are met.

    Each op is (key, fn) with fn() -> (latency s, problems); problems may
    instead be a check to call after the op, outside ``around`` and the
    pass wall time.
    ``around``, if given, is a (before, after) pair called around every op.
    """
    phase = Phase(len(ops))
    start = time.perf_counter()
    while len(phase.pass_walls) < min_passes or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        check_s = 0.0
        for key, fn in ops:
            if time.perf_counter() - START > HARD_LIMIT_S:
                phase.cut = True
                break
            if around:
                around[0]()
            t0 = time.perf_counter()
            try:
                latency, problems = fn()
            except Exception as exc:  # an operation that raises is a failed operation
                latency, problems = time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
            if around:
                around[1]()
            if callable(problems):  # a check kept out of the timed, traced op
                t0 = time.perf_counter()
                try:
                    problems = problems()
                except Exception as exc:
                    problems = [f"{type(exc).__name__}: {exc}"]
                check_s += time.perf_counter() - t0
            phase.samples.append((key, latency, problems))
        if phase.cut:
            break
        phase.pass_walls.append(time.perf_counter() - pass_start - check_s)
    return phase


def tail_share(workload: str, pass_len: int) -> float:
    """Share of samples above the tail percentile: the highest percentile
    with TAIL_BEYOND samples beyond it in the workload's shortest run.
    Longer runs report the same percentile, with more samples beyond it."""
    return TAIL_BEYOND / (MIN_PASSES[workload] * pass_len)


def upper_rank(values: list[float], share: float) -> float:
    """The value with floor(share * n) samples ranked above it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 1 - math.floor(share * len(ordered) + 1e-9)]


# ------------------------------------------------------------------ workloads

class Run:
    """State one workload run shares between its set-up, phases and report."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload, self.seed, self.seconds, self.workdir = workload, seed, seconds, workdir
        self.setup_walls, self.import_times = run_setups(workload, seed, workdir)
        self.peak_rss_kb = 0
        self.pass_len = 0


def cli_command(argv: list[str], summary: Path | None = None) -> list[str]:
    """The interpreter command line of one sisbox command; with a summary
    path, the traced form that writes its span summary there."""
    if summary is None:
        return [sys.executable, "-m", "sisbox.cli", *argv]
    return [sys.executable, str(HERE / "child.py"), "cli", str(summary), *argv]


def cli_ops(run: Run, traced: bool, summaries: list):
    """(key, fn) per command; fn spawns one interpreter and checks its output."""
    import workloads

    ops = []
    for i, (key, argv) in enumerate(workloads.cli_matrix(run.seed)):
        def fn(key=key, argv=argv, i=i):
            summary = run.workdir / f"trace_{i}.json"
            for name in (*workloads.checked_files(key, argv), summary.name):
                (run.workdir / name).unlink(missing_ok=True)
            rc, wall, rss_kb, err = spawn(cli_command(argv, summary if traced else None),
                                          run.workdir, f"cmd{i}")
            run.peak_rss_kb = max(run.peak_rss_kb, rss_kb)
            problems = workloads.check_cli(key, rc, err, run.workdir, argv[-1])
            if traced:
                summaries.append(json.loads(summary.read_text()))
            return wall, problems
        ops.append((key, fn))
    return ops


def certify_ops(run: Run):
    import workloads

    ops = []
    for fn_name, name in workloads.CERTIFY_OPS:
        key = f"{fn_name} {name}"

        def fn(fn_name=fn_name, key=key, name=name):
            start = time.perf_counter()
            result = workloads.certify_call(fn_name, name, run.seed)
            latency = time.perf_counter() - start
            outcome = workloads.certify_outcome(fn_name, result)
            return latency, workloads.compare(outcome, workloads.GOLDEN["certify_fine"][key])
        ops.append((key, fn))
    return ops


def reconstruct_ops(run: Run, spaces: dict):
    import workloads

    counter = iter(range(10 ** 9))
    ops = []
    for name in workloads.RECON_PASS:
        def fn(name=name):
            latency, route, errors, grid_errors = workloads.reconstruct_op(
                spaces[name], run.seed, next(counter))
            return latency, lambda: workloads.check_reconstruct(name, route, errors | grid_errors())
        ops.append((f"reconstruct {name}", fn))
    return ops


def run_workload(run: Run, trace: bool):
    """Warm up, measure untraced and, for a traced run, measure again
    with the tracer on.  Returns (untraced phase, traced phase or None,
    summed span summary)."""
    import tracing

    min_passes = MIN_PASSES[run.workload]
    summaries: list = []
    if run.workload == "cli_mix":
        ops = cli_ops(run, False, summaries)
        ops[0][1]()  # warm-up: first interpreter start and file cache
        run.peak_rss_kb = 0
        run.pass_len = len(ops)
        untraced = measure(ops, run.seconds, min_passes)
        if not trace:
            return untraced, None, None
        traced = measure(cli_ops(run, True, summaries), run.seconds, min_passes)
        total: dict = {}
        for s in summaries:
            tracing.merge(total, s)
            run.import_times.append(s["import_s"])
        return untraced, traced, total

    sys.path.insert(0, str(SRC))
    import sisbox  # noqa: F401
    import workloads

    if run.workload == "certify_fine":
        ops = certify_ops(run)
        ops[-2][1]()  # warm-up: a fine-grid transform (theorem 5 on hat)
    else:
        ops = reconstruct_ops(run, workloads.build_recon_spaces(run.seed))
        for _, fn in ops:  # warm-up: one pass (the first shannon ones run slow)
            fn()
    run.pass_len = len(ops)
    untraced = measure(ops, run.seconds, min_passes)
    if not trace:
        run.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return untraced, None, None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(ops, run.seconds, min_passes, around=(tracer.begin_op, tracer.end_op))
    finally:
        tracer.uninstall()
    return untraced, traced, tracer.summary()


# ------------------------------------------------------------------ metrics

def end_to_end(run: Run, phase: Phase) -> tuple[dict, list[str]]:
    lat = [latency for _, latency, _ in phase.samples]
    share = tail_share(run.workload, run.pass_len)
    tail = upper_rank(lat, share)
    beyond = math.floor(share * len(lat) + 1e-9)
    metrics = {
        "setup_s": (statistics.median(run.setup_walls), "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (run.peak_rss_kb / 1024.0, "MB"),
    }
    notes = [
        f"setup_s         median of {SETUPS} fresh-interpreter set-ups: "
        + ", ".join(f"{w:.3f}" for w in run.setup_walls),
        f"latency_p50_s   over n={len(lat)} operations",
        f"latency_tail_s  p{100 * (1 - share):.2f} over n={len(lat)}, {beyond} samples ranked beyond it",
        f"peak_rss_mb     {'largest CLI child' if run.workload == 'cli_mix' else 'this process'}",
        f"fail_ratio      {phase.failed / len(lat):.6g} ({phase.failed} of {len(lat)} operations failed)",
        f"ops_per_s       pass length over the median of {len(phase.pass_walls)} pass wall times: "
        + ", ".join(f"{w:.3f}" for w in phase.pass_walls) + (" (cut by time limit)" if phase.cut else ""),
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


# layer -> summary keys reported as per-operation means
LAYER_METRICS = {
    "spectral.shift_square_sum": ("calls", "busy_s", "self_s", "probes"),
    "spectral.zak_dual_fiber": ("calls", "busy_s"),
    "spectral.grammian": ("calls", "busy_s"),
    "spectral.zak_time_fiber": ("calls", "busy_s"),
    "spectral.integer_samples": ("calls", "busy_s"),
    "signals.TimeKernel.grid_values": ("calls", "busy_s"),
    "signals.time_values": ("calls", "busy_s", "points"),
    "spaces.build_space": ("calls", "busy_s", "self_s"),
    "spaces.check_sz99": ("busy_s", "self_s"),
    "spaces.reconstruct": ("calls", "busy_s", "self_s"),
    "spaces.project": ("calls", "busy_s"),
    "membership.check_theorem2": ("busy_s", "self_s"),
    "membership.check_theorem5": ("busy_s", "self_s"),
    "membership.check_sz04": ("busy_s", "self_s"),
    "membership.induced_subspace": ("busy_s", "self_s"),
    "decomposition.decompose": ("busy_s", "self_s"),
    "decomposition.check_determining_set": ("busy_s", "self_s"),
    "io.read": ("busy_s",),
    "io.write": ("busy_s",),
    "reports.save": ("busy_s",),
    "cli.main": ("busy_s", "self_s"),
}


def per_layer(run: Run, untraced: Phase, traced: Phase, total: dict) -> dict:
    """Per-operation means of the traced phase, start-up times, overhead."""
    n = len(traced.samples)
    layers = total.get("layers", {})

    def stat(name, key):
        return layers.get(name, {}).get(key, 0) / n

    out = {}
    for name, keys in LAYER_METRICS.items():
        for key in keys:
            out[f"{name}.{key}"] = (stat(name, key), "s/op" if key.endswith("_s") else "count/op")
    sss = layers.get("spectral.shift_square_sum", {})
    for key in ("parseval_calls", "direct_calls"):
        out[f"spectral.shift_square_sum.{key}"] = (sss.get(key, 0) / n, "count/op")
    nodes = sss.get("parseval_probe_nodes", 0)
    out["spectral.shift_square_sum.ns_per_probe_node"] = (
        1e9 * sss.get("parseval_busy_s", 0.0) / nodes if nodes else 0.0, "ns")
    calls = total.get("fiber_calls", 0)
    out["spectral.fiber_reuse_ratio"] = (total.get("distinct_fibers", 0) / calls if calls else 0.0, "ratio")
    rec = layers.get("spaces.reconstruct", {})
    out["spaces.reconstruct.time_route"] = (rec.get("time_calls", 0) / n, "count/op")
    out["spaces.reconstruct.spectral_route"] = (rec.get("spectral_calls", 0) / n, "count/op")
    for kind in ("read", "write"):
        out[f"io.{kind}.bytes"] = (stat(f"io.{kind}", "bytes"), "B/op")
    starts = [spawn([sys.executable, "-c", "pass"], run.workdir, "start")[1] for _ in range(START_PROBES)]
    out["cli.interpreter_start_s"] = (statistics.median(starts), "s")
    out["cli.import_s"] = (statistics.median(run.import_times), "s")
    out["trace.ops_per_s"] = (traced.ops_per_s, "1/s")
    out["trace.overhead_ops_per_s"] = (traced.ops_per_s - untraced.ops_per_s, "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# ------------------------------------------------------------------ reporting

def environment() -> str:
    versions = [f"python {platform.python_version()}"]
    for mod in ("numpy", "scipy"):
        try:
            versions.append(f"{mod} {__import__(mod).__version__}")
        except ImportError:
            versions.append(f"{mod} missing")
    pins = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return f"env      {', '.join(versions)}; nproc {os.cpu_count()}; {pins}"


def grids(workload: str) -> str:
    import workloads

    if workload == "cli_mix":
        return f"grids    CLI default {workloads.CLI_GRID} (ex2 widens to K=64)"
    if workload == "certify_fine":
        return f"grids    {workloads.FINE_GRID}"
    return "grids    " + ", ".join(f"{k} {v}" for k, v in workloads.RECON_GRIDS.items())


def report(run: Run, phase: Phase, metrics: dict, notes: list[str]) -> dict:
    print(f"workload {run.workload}  seed {run.seed}  seconds {run.seconds:g}")
    print(environment())
    print(grids(run.workload))
    by_key: dict = {}
    for key, latency, problems in phase.samples:
        by_key.setdefault(key, []).append(latency)
        for p in problems:
            print(f"FAILED   {key}: {p}")
    for key, lats in by_key.items():
        print(f"op       {key:28s} median {statistics.median(lats):.4f} s  n={len(lats)}")
    for name, m in metrics.items():
        print(f"metric   {name:44s} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"note     {note}")
    return {"correct": phase.failed == 0, "attempted": len(phase.samples),
            "failed": phase.failed, "metrics": metrics}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, seconds, workdir)
        untraced, traced, total = run_workload(run, trace)
        metrics, notes = end_to_end(run, untraced)
        if not trace:
            return report(run, untraced, metrics, notes)
        notes.append(f"traced   {len(traced.pass_walls)} passes, {len(traced.samples)} operations; "
                     "per-layer values are means per operation of the traced phase")
        result = report(run, traced, per_layer(run, untraced, traced, total), notes)
        result["correct"] = result["correct"] and untraced.failed == 0
        result["attempted"] += len(untraced.samples)
        result["failed"] += untraced.failed
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one table of every metric."""
    rows, ok, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            ok = False
            print(f"{workload}: exit {proc.returncode}")
            continue
        ok = ok and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            rows[f"{workload}.{name}"] = m
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": rows}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "sisbox" / "__init__.py").is_file():
        print(f"sisbox sources not found under {SRC}; run from a sisbox checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
