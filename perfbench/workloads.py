"""The three workloads: seeded inputs, the operation matrix of each, and
the checks that decide whether an operation's output is correct.

Everything that touches sisbox goes through module attributes looked up
at call time (``sisbox.build_space``, not a name bound at import), so the
tracer's wrappers are seen by the workload code too.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())

CLI_GRID = (32, 1024)      # the CLI default; ex2 auto-widens to K=64
FINE_GRID = (64, 4096)
RECON_GRIDS = {"shannon": (32, 1024), "ex3": (32, 1024), "hat": (32, 1024), "ex2": (64, 1024)}
SPAN = 8                   # member coefficients sit at k = -SPAN..SPAN
K_MAX = 512
RECON_POINTS = 1000
CLI_POINTS = 200
X_RANGE = (-8.0, 8.0)
CONST_RTOL = 1e-6          # relative tolerance on every golden constant
# the in-process grid-model check uses every 40th point: 25 points are few
# enough for sisbox's direct sum, not the chirp transform the reconstruction
# went through, and cost ~10 ms rather than ~60 ms
GRID_CHECK_STEP = 40


# ---------------------------------------------------------------- seeded inputs

def member_coefficients(seed: int, index: int):
    """Coefficients c_k, |k| <= SPAN, of the index-th seeded member."""
    import numpy as np
    import sisbox

    rng = np.random.default_rng([seed, index])
    ks = np.arange(-SPAN, SPAN + 1)
    vals = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
    return sisbox.TimeSamples(ks, vals, SPAN)


def band_member(seed: int):
    """A piecewise-constant spectrum on [-1/2, 1/2) with seeded dyadic
    breakpoints and nonzero values: a member of the shannon space."""
    import numpy as np
    import sisbox

    rng = np.random.default_rng([seed, 1000])
    inner = np.sort(rng.choice(np.arange(1, 16), size=3, replace=False)) / 16 - 0.5
    cuts = [-0.5, *inner.tolist(), 0.5]
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mag = rng.uniform(0.5, 1.5)
        pieces.append((a, b, mag * np.exp(2j * np.pi * rng.random())))
    return sisbox.PiecewiseConstantSpectrum(pieces)


def xs_cli():
    import numpy as np

    return np.linspace(X_RANGE[0], X_RANGE[1], CLI_POINTS)


def grid_model(member, grid):
    """The member as the spectral route sees it: its spectrum at the grid's
    nodes.  A spectral reconstruction matches it far inside 1e-6; most of
    its distance from the exact values is the grid model's own error."""
    import sisbox

    return sisbox.GridSpectrum(member.grid_values(grid), grid)


def write_cli_inputs(workdir: Path, seed: int) -> None:
    """Write every input file of the cli_mix matrix into workdir, plus the
    values the two reconstructions are checked against: the member's exact
    values and, for ex2 (spectral route), its grid model's."""
    import sisbox
    from sisbox import io as sio

    expected = {}
    for index, name in enumerate(("shannon", "ex2")):
        grid = sisbox.FrequencyGrid(*(CLI_GRID if name == "shannon" else RECON_GRIDS["ex2"]))
        member = sisbox.ShiftCombination(sisbox.build_signal(name, grid),
                                         member_coefficients(seed, index))
        sio.write_samples(sisbox.integer_samples(member, grid, K_MAX), workdir / f"samples_{name}.csv")
        refs = {"exact": member}
        if name == "ex2":
            refs["grid"] = grid_model(member, grid)
        expected[name] = {}
        for ref, signal in refs.items():
            vals = signal.time_values(xs_cli())
            expected[name][ref] = [vals.real.tolist(), vals.imag.tolist()]
    (workdir / "expected.json").write_text(json.dumps(expected))
    sio.write_piecewise_spectrum(band_member(seed), workdir / "member.json")
    sio.write_partition([[[0.0, 0.5]], [[0.5, 1.0]]], workdir / "halves.json")
    sio.write_piecewise_spectrum(sisbox.PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)]), workdir / "low.json")
    sio.write_piecewise_spectrum(sisbox.PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)]), workdir / "high.json")


def build_recon_spaces(seed: int) -> dict:
    """The certified spaces the reconstruct workload reads from."""
    import sisbox

    spaces = {}
    for name, kn in RECON_GRIDS.items():
        grid = sisbox.FrequencyGrid(*kn)
        spaces[name] = sisbox.build_space(sisbox.build_signal(name, grid), grid, seed=seed)
    return spaces


def setup_in_child(workload: str, seed: int, workdir: Path) -> None:
    """The set-up work of one workload after ``import sisbox`` (certify_fine
    has none: each of its operations builds what it needs)."""
    if workload == "cli_mix":
        write_cli_inputs(workdir, seed)
    elif workload == "reconstruct":
        build_recon_spaces(seed)


# ---------------------------------------------------------------- checks

def compare(got: dict, want: dict) -> list[str]:
    """Differences between an outcome and its golden record: exact for
    flags, strings and counts, CONST_RTOL relative for floats."""
    problems = []
    for key, w in want.items():
        g = got.get(key)
        if isinstance(w, float) and isinstance(g, (int, float)):
            if math.isinf(w) or math.isinf(g):
                ok = w == g
            else:
                ok = abs(g - w) <= CONST_RTOL * max(abs(g), abs(w)) + 1e-300
        elif isinstance(w, list) and isinstance(g, list) and len(w) == len(g):
            ok = not compare(dict(enumerate(g)), dict(enumerate(w)))
        else:
            ok = g == w
        if not ok:
            problems.append(f"{key}: got {g!r}, golden {w!r}")
    return problems


def max_rel_error(got_re, got_im, want_re, want_im) -> float:
    err = max(math.hypot(a - c, b - d) for a, b, c, d in zip(got_re, got_im, want_re, want_im))
    scale = max(math.hypot(c, d) for c, d in zip(want_re, want_im))
    return err / scale


def tolerance_problems(errors: dict, tols: dict) -> list[str]:
    """One problem per reference ("exact", "grid") whose error is above its
    golden tolerance or was not measured."""
    return [f"{ref} reconstruction error {errors.get(ref, math.inf):.3g} above {tol:.3g}"
            for ref, tol in tols.items() if not errors.get(ref, math.inf) <= tol]


# ---------------------------------------------------------------- cli_mix

def cli_matrix(seed: int) -> list[tuple[str, list[str]]]:
    """(key, argv) for every command of one cli_mix pass."""
    s = ["--seed", str(seed)]
    cmds = [(f"analyze {n}", ["analyze", n]) for n in ("shannon", "blhat", "ex2", "ex3", "hat")]
    cmds += [(f"membership ex2 {t}", ["membership", "ex2", "--theorem", t]) for t in ("2", "5", "sz04")]
    cmds.append(("membership member 1", ["membership", "member.json", "--theorem", "1", "--space", "shannon"]))
    span = ["--from", str(X_RANGE[0]), "--to", str(X_RANGE[1]), "--points", str(CLI_POINTS)]
    for name in ("shannon", "ex2"):
        cmds.append((f"reconstruct {name}", ["reconstruct", "--space", name, "--samples",
                                             f"samples_{name}.csv", "--out", f"rec_{name}.csv", *span]))
    cmds.append(("decompose shannon", ["decompose", "--space", "shannon", "--partition", "halves.json",
                                       "--out-prefix", "comp"]))
    cmds.append(("determine shannon", ["determine", "--space", "shannon", "--functions",
                                       "low.json,high.json", "--out-prefix", "det"]))
    return [(key, argv + s + ["--json", f"report_{i}.json"]) for i, (key, argv) in enumerate(cmds)]


def _checks(report: dict) -> list:
    return [c["passed"] for c in report["results"]["report"]["checks"]]


def cli_outcome(key: str, rc: int, report: dict | None) -> dict:
    """The golden-comparable part of one command's exit code and report."""
    out = {"exit": rc, "verdict": report["verdict"] if report else None}
    if report is None:
        return out
    res = report["results"]
    kind = key.split()[0]
    if kind == "analyze":
        cert = res["certificate"]
        out.update(grid=[report["grid"]["K"], report["grid"]["N"]], A=res["frame_bounds"]["A"],
                   B=res["frame_bounds"]["B"], support_measure=res["support_measure"],
                   continuity=cert["continuity"]["verdict"], zak_lower=cert["zak_bound"]["lower"],
                   zak_upper=cert["zak_bound"]["upper"], shift_sum_pass=cert["shift_square_sum"]["passed"])
    elif key == "membership member 1":
        out.update(identities=[v["passed"] for v in res["induced"].values() if isinstance(v, dict)])
    elif kind == "membership":
        consts = res["report"]["constants"]
        out.update(checks=_checks(report), A=consts["A"], B=consts["B"])
    elif kind == "reconstruct":
        out.update(route=res["route"])
    elif kind == "decompose":
        out.update(components=res["components"], measures=res["component_measures"],
                   gap_pass=res["kernel_sum_gap"]["passed"])
    elif kind == "determine":
        out.update(union_measure=res["union_measure"], member_measures=res["member_measures"])
    return out


def checked_files(key: str, argv: list[str]) -> list[str]:
    """Files check_cli reads for this command; removed before each run so
    a command that writes nothing cannot be judged on an older copy."""
    files = [argv[-1]]
    if key.startswith("reconstruct"):
        files.append(f"rec_{key.split()[1]}.csv")
    return files


def cli_report_outcome(key: str, rc: int, workdir: Path, report_name: str) -> dict:
    path = workdir / report_name
    return cli_outcome(key, rc, json.loads(path.read_text()) if path.exists() else None)


def cli_reconstruction_errors(workdir: Path, name: str) -> dict:
    """Relative max error of rec_<name>.csv against each reference of
    expected.json."""
    cols = [line.split(",") for line in (workdir / f"rec_{name}.csv").read_text().split()[1:]]
    got = ([float(c[1]) for c in cols], [float(c[2]) for c in cols])
    want = json.loads((workdir / "expected.json").read_text())[name]
    return {ref: max_rel_error(*got, *vals) for ref, vals in want.items()}


def check_cli(key: str, rc: int, stderr: str, workdir: Path, report_name: str) -> list[str]:
    """Every reason the command's output is wrong; empty when correct."""
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    problems += compare(cli_report_outcome(key, rc, workdir, report_name), GOLDEN["cli_mix"][key])
    if key.startswith("reconstruct") and not problems:
        name = key.split()[1]
        problems += tolerance_problems(cli_reconstruction_errors(workdir, name),
                                       GOLDEN["cli_reconstruct_tol"][name])
    return problems


# ---------------------------------------------------------------- certify_fine

CERTIFY_OPS = [("build_space", "shannon"), ("build_space", "ex2"), ("check_sz99", "blhat"),
               *[("check_theorem2", n) for n in ("shannon", "blhat", "ex2")],
               *[("check_theorem5", n) for n in ("shannon", "blhat", "ex2", "hat")],
               ("check_sz04", "ex2")]


def certify_call(fn: str, name: str, seed: int):
    """One certify_fine operation: fresh signal, one library call."""
    import sisbox

    grid = sisbox.FrequencyGrid(*FINE_GRID)
    sig = sisbox.build_signal(name, grid)
    if fn == "check_sz04":
        return sisbox.check_sz04(sig, grid)
    return getattr(sisbox, fn)(sig, grid, seed=seed)


def certify_outcome(fn: str, result) -> dict:
    """Seed-independent verdicts and constants of one result (the probe
    grid moves the shift-square bound and theorem 5's L, so those stay out)."""
    if fn == "build_space":
        r = result.sz99
        return {"certified": result.certified, "A": result.frame_bounds[0], "B": result.frame_bounds[1],
                "zak_lower": r.zak_lower, "zak_upper": r.zak_upper, "support_measure": r.support_measure,
                "continuity": r.continuity_verdict}
    if fn == "check_sz99":
        return {"passed": result.passed, "continuity": result.continuity_verdict,
                "max_jump": result.continuity_max_jump, "shift_sum_pass": result.shift_sum_pass,
                "zak_pass": result.zak_pass, "zak_lower": result.zak_lower, "zak_upper": result.zak_upper,
                "support_measure": result.support_measure}
    out = {"passed": result.passed, "checks": [c.passed for c in result.checks],
           "A": result.constants.get("A"), "B": result.constants.get("B")}
    if fn == "check_theorem5":
        out.update(integral=result.constants["integral"], samples_l2=result.constants["samples_l2"])
    return {k: (float(v) if hasattr(v, "dtype") else v) for k, v in out.items()}


# ---------------------------------------------------------------- reconstruct

# spectral (ex2) and time (shannon, ex3, hat) routes get equal shares of a pass
RECON_PASS = ["shannon", "ex2", "ex3", "ex2", "hat", "ex2"]


def reconstruct_op(space, seed: int, index: int):
    """Synthesize a seeded member, sample it, rebuild it at RECON_POINTS
    points and compare it with the member's exact values.

    Returns (latency s of those steps, route, errors, grid_errors):
    errors is {"exact": relative max error}; grid_errors() is, on the
    spectral route, {"grid": error against the grid model}, else {}.  It
    is a separate call so that the benchmark can keep it out of the
    timed and traced operation.
    """
    import numpy as np
    import sisbox

    def rel_error(got, want):
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    start = time.perf_counter()
    member = sisbox.synthesize(space, member_coefficients(seed, index))
    samples = sisbox.integer_samples(member, space.grid, space.k_max)
    xs = np.linspace(X_RANGE[0], X_RANGE[1], RECON_POINTS)
    result = sisbox.reconstruct(space, samples, xs)
    errors = {"exact": rel_error(result.values, member.time_values(xs))}
    latency = time.perf_counter() - start

    def grid_errors():
        if result.route != "spectral":
            return {}
        sub = slice(None, None, GRID_CHECK_STEP)
        return {"grid": rel_error(result.values[sub], grid_model(member, space.grid).time_values(xs[sub]))}
    return latency, result.route, errors, grid_errors


def check_reconstruct(name: str, route: str, errors: dict) -> list[str]:
    want = GOLDEN["reconstruct"][name]
    return compare({"route": route}, {"route": want["route"]}) + tolerance_problems(errors, want["tol"])
