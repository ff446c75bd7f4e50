"""Command-line front end.

    sisbox analyze SIGNAL [--csv out.csv]
    sisbox membership SIGNAL --theorem {1,2,5,sz04} [--space SIGNAL] [--emit-s out.csv]
    sisbox reconstruct --space SIGNAL --samples in.csv [--lattice a,b] [--out out.csv]
    sisbox decompose --space SIGNAL --partition parts.json [--out-prefix p]
    sisbox determine --space SIGNAL --functions f1,f2,... [--out-prefix p]

SIGNAL is a catalog name, a .json interval-spectrum file, or a .csv grid spectrum
file (fold rows, read onto the command's grid).  SISBOX_GRID="K,N" overrides the
default grid; without --K, K widens to the band a catalog signal or .json spectrum needs.

Exit codes: 0 verdict pass; 2 verdict fail, "refused:" (NotASamplingSpace,
ConstructionRefused) or "failed:" (NotInSpace, Partition, DegenerateSpace
errors); 1 usage errors and every other SisboxError ("error:" bad files,
unknown signals, preconditions, spectra beyond the grid, samples the grid
cannot resolve).  No error ends in a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io as sio
from .catalog import build_signal, catalog_names
from .decomposition import (
    PeriodicPartition,
    check_determining_set,
    decompose,
    kernel_sum_gap,
    lattice_rescale,
)
from .errors import SisboxError
from .grid import FrequencyGrid
from .membership import (
    check_sz04,
    check_theorem2,
    check_theorem5,
    construct_s_from_f,
    induced_subspace,
)
from .reports import ReportDocument
from .spaces import build_space, reconstruct, sz99_report
from .spectral import DEFAULT_EPS, DEFAULT_K_MAX, essential_bounds, fibers


# largest grid (nodes) the spectrum of an input may widen the default to
WIDEN_MAX_NODES = 2 ** 22


class _UsageError(SisboxError):
    kind = "usage error"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _checked(kind, test, rule: str):
    """argparse type: a number of the given kind for which test holds (``rule`` in words)."""
    def parse(text: str):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _default_grid() -> tuple[int, int]:
    env = os.environ.get("SISBOX_GRID")
    if env:
        try:
            k_str, n_str = env.split(",")
            return int(k_str), int(n_str)
        except ValueError as exc:
            raise _UsageError(f"SISBOX_GRID must be 'K,N', got {env!r}") from exc
    return 32, 1024


def _add_common(p: argparse.ArgumentParser) -> None:
    # K/N default to None so SISBOX_GRID is read at run time
    p.add_argument("--K", type=int, default=None, help="half bandwidth (power of two)")
    p.add_argument("--N", type=int, default=None, help="grid points per unit interval")
    p.add_argument("--eps", type=_checked(float, lambda v: 0 < v < 1, "in (0, 1)"),
                   default=DEFAULT_EPS, help="support/guard threshold")
    nonnegative = _checked(int, lambda v: v >= 0, ">= 0")
    p.add_argument("--kmax", type=nonnegative, default=DEFAULT_K_MAX, help="sample truncation")
    p.add_argument("--seed", type=nonnegative, default=0, help="probe-grid seed")
    p.add_argument("--nmax", type=nonnegative, default=60, help="block count for the ex2 signal")
    p.add_argument("--json", type=str, default=None, help="write the report document here")


def _resolve_grid(args, refs: list[str]) -> FrequencyGrid:
    k_env, n_env = _default_grid()
    k = args.K if args.K is not None else k_env
    n = args.N if args.N is not None else n_env
    try:
        grid = FrequencyGrid(k, n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.K is None:
        # widen for catalog signals and interval-spectrum files whose spectrum
        # does not fit the default; past WIDEN_MAX_NODES, --K must ask for it
        for ref in refs:
            if ref in catalog_names() or (ref.endswith(".json") and Path(ref).exists()):
                need = _load_signal(ref, grid, args).required_half_bandwidth() or 0
                if need > grid.half_bandwidth and 2 * need * grid.resolution <= WIDEN_MAX_NODES:
                    grid = FrequencyGrid(need, grid.resolution)
    return grid


def _load_signal(ref: str, grid: FrequencyGrid, args):
    if ref.endswith(".json"):
        return sio.read_piecewise_spectrum(ref)
    if ref.endswith(".csv"):
        return sio.read_grid_spectrum(ref, grid)
    return build_signal(ref, grid, args.nmax)


class _Outcome(NamedTuple):
    """What one command's report holds beyond its timing, seed and verdict."""

    grid: FrequencyGrid
    params: dict
    results: dict
    passed: bool
    tails: dict


def _run(args) -> int:
    """Run one command: time it, build its report with the grid and seed,
    print the verdict, save --json and return the exit code."""
    started = time.monotonic()
    out = args.func(args)
    doc = ReportDocument(command=args.command,
                         grid={"K": out.grid.half_bandwidth, "N": out.grid.resolution},
                         params=out.params, results=out.results, tails=out.tails,
                         timing_s=time.monotonic() - started, seed=args.seed,
                         verdict="pass" if out.passed else "fail")
    if args.json:
        doc.save(args.json)
    print(f"verdict: {doc.verdict}")
    return 0 if out.passed else 2


def _signal_tails(sig, grid: FrequencyGrid) -> dict:
    return {"spectral": sig.spectral_tail_energy(grid), "series": sig.series_tail}


def _space(args, grid: FrequencyGrid):
    """The certified space of the --space generator."""
    gen = _load_signal(args.space, grid, args)
    return build_space(gen, grid, eps=args.eps, k_max=args.kmax, seed=args.seed)


def cmd_analyze(args) -> _Outcome:
    grid = _resolve_grid(args, [args.signal])
    sig = _load_signal(args.signal, grid, args)
    fib = fibers(sig, grid, args.eps, args.kmax)
    g, mask = fib.grammian, fib.mask
    bounds = essential_bounds(g, mask) if not mask.is_empty else (0.0, 0.0)
    report = sz99_report(fib, seed=args.seed)
    g_min, g_max = float(np.min(g.real_values)), float(np.max(g.real_values))

    print(f"[analyze] signal={args.signal} grid K={grid.half_bandwidth} N={grid.resolution}")
    print(f"[analyze] grammian min={g_min:.6g} max={g_max:.6g}")
    print(f"[analyze] support measure={mask.measure:.6g}")
    print(f"[analyze] frame bounds A={bounds[0]:.6g} B={bounds[1]:.6g}")
    print(f"[analyze] certificate: continuity={report.continuity_verdict} "
          f"shift_sum={report.shift_sum_bound:.6g} "
          f"zak=[{report.zak_lower:.6g}, {report.zak_upper:.6g}] "
          f"passed={report.passed}")

    if args.csv:
        sio.write_periodic_csv(grid, {"grammian": g.real_values,
                                      "abs_zak": np.abs(fib.zak.values)}, args.csv)
        print(f"[analyze] wrote {args.csv}")

    results = {"grammian": {"min": g_min, "max": g_max}, "support_measure": mask.measure,
               "frame_bounds": {"A": bounds[0], "B": bounds[1]},
               "certificate": report}
    return _Outcome(grid, {"signal": args.signal, "eps": args.eps, "kmax": args.kmax},
                    results, report.passed, _signal_tails(sig, grid))


# --theorem -> criterion; each lambda looks its check up at call time, so a
# wrapped module attribute (a tracer's, say) is the one called
_CRITERIA = {
    "2": lambda sig, grid, a: check_theorem2(sig, grid, eps=a.eps, k_max=a.kmax, seed=a.seed),
    "5": lambda sig, grid, a: check_theorem5(sig, grid, eps=a.eps, k_max=a.kmax, seed=a.seed),
    "sz04": lambda sig, grid, a: check_sz04(sig, grid, eps=a.eps),
}


def cmd_membership(args) -> _Outcome:
    grid = _resolve_grid(args, [args.signal, args.space])
    sig = _load_signal(args.signal, grid, args)
    if args.theorem == "1":
        sub = induced_subspace(_space(args, grid), sig)
        criterion, checks = "theorem1", sub.checks
        results = {"induced": {**{c.name: c for c in checks},
                               "subspace_measure": sub.space.mask.measure}}
    else:
        report = _CRITERIA[args.theorem](sig, grid, args)
        criterion, checks, results = report.criterion, report.checks, {"report": report}
    for check in checks:
        val = "n/a" if check.value is None else f"{check.value:.6g}"
        print(f"[membership] {criterion} {check.name}: value={val} "
              f"passed={check.passed}" + (f" ({check.detail})" if check.detail else ""))
    if args.theorem == "5" and report.passed and args.emit_s:
        space = construct_s_from_f(sig, grid, eps=args.eps, k_max=args.kmax,
                                   seed=args.seed, report=report)
        sio.write_grid_spectrum(space.sampling_spectrum, args.emit_s)
        print(f"[membership] wrote kernel spectrum to {args.emit_s}")

    params = {"signal": args.signal, "theorem": args.theorem, "space": args.space,
              "eps": args.eps, "kmax": args.kmax}
    return _Outcome(grid, params, results, all(c.passed for c in checks),
                    _signal_tails(sig, grid))


def cmd_reconstruct(args) -> _Outcome:
    grid = _resolve_grid(args, [args.space])
    space = _space(args, grid)
    samples = sio.read_samples(args.samples, k_max=args.kmax)
    xs = np.linspace(args.x_from, args.x_to, args.points)

    if args.lattice:
        try:
            a_str, b_str = args.lattice.split(",")
            a, b = float(a_str), float(b_str)
        except ValueError as exc:
            raise _UsageError(f"--lattice expects 'a,b', got {args.lattice!r}") from exc
        if not (0 < a < math.inf and math.isfinite(b)):
            raise _UsageError(f"--lattice needs finite a > 0 and b, got {args.lattice!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # a x - b may overflow near 1e300
        if args.lattice:
            result = lattice_rescale(space, a, b).reconstruct(samples, xs)
        else:
            result = reconstruct(space, samples, xs)

    out = args.out or "reconstruction.csv"
    sio.write_reconstruction_csv(xs, result.values, out)
    print(f"[reconstruct] route={result.route} points={len(xs)} wrote {out}")

    params = {"space": args.space, "samples": args.samples, "lattice": args.lattice,
              "points": args.points, "range": [args.x_from, args.x_to]}
    results = {"route": result.route, "output": out,
               "max_abs": float(np.max(np.abs(result.values)))}
    return _Outcome(grid, params, results, True, {"samples": samples.tail_energy})


def cmd_decompose(args) -> _Outcome:
    grid = _resolve_grid(args, [args.space])
    space = _space(args, grid)
    groups = sio.read_partition(args.partition)
    components = decompose(space, PeriodicPartition.from_intervals(groups, grid))

    prefix = args.out_prefix or "component"
    files = []
    for j, comp in enumerate(components):
        path = f"{prefix}_{j}.csv"
        sio.write_grid_spectrum(comp.sampling_spectrum, path)
        files.append(path)
        print(f"[decompose] component {j}: measure={comp.mask.measure:.6g} wrote {path}")
    check = kernel_sum_gap(space, components)
    print(f"[decompose] kernel sum gap={check.value:.3g}")

    results = {"components": len(components), "files": files,
               "component_measures": [c.mask.measure for c in components],
               "kernel_sum_gap": check}
    return _Outcome(grid, {"space": args.space, "partition": args.partition}, results,
                    check.passed, {})


def cmd_determine(args) -> _Outcome:
    refs = [ref.strip() for ref in args.functions.split(",")]
    grid = _resolve_grid(args, [args.space, *refs])
    space = _space(args, grid)
    funcs = [_load_signal(ref, grid, args) for ref in refs]
    report = check_determining_set(space, funcs)

    print(f"[determine] union measure={report.union_mask.measure:.6g} "
          f"symmetric difference={report.checks[0].value:.6g} "
          f"passed={report.passed}")
    _print_failed(report.checks)
    files = []
    if report.passed and args.out_prefix:
        for i, (mask, alpha) in enumerate(zip(report.disjoint_masks, report.multipliers)):
            mask_path = f"{args.out_prefix}_mask_{i}.json"
            alpha_path = f"{args.out_prefix}_alpha_{i}.csv"
            sio.write_mask_intervals(mask, mask_path)
            sio.write_periodic_csv(grid, {"re": np.real(alpha.values),
                                          "im": np.imag(alpha.values)}, alpha_path)
            files += [mask_path, alpha_path]
            print(f"[determine] wrote {mask_path} and {alpha_path}")

    return _Outcome(grid, {"space": args.space, "functions": args.functions},
                    {**report.to_dict(), "files": files}, report.passed, {})


def _build_parser() -> _Parser:
    parser = _Parser(prog="sisbox", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="Grammian, support set, frame bounds, certificate")
    p.add_argument("signal")
    p.add_argument("--csv", type=str, default=None, help="write grammian/|Zak| per unit node")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("membership", help="membership criteria for one signal")
    p.add_argument("signal")
    p.add_argument("--theorem", required=True, choices=["1", "2", "5", "sz04"],
                   help="1: induced-subspace identities; 2: normalized-function "
                        "certificate; 5: integrable-spectrum characterization; "
                        "sz04: sufficient-condition pair")
    p.add_argument("--space", default="shannon", help="ambient space generator (theorem 1)")
    p.add_argument("--emit-s", type=str, default=None,
                   help="on a theorem-5 pass, write the constructed kernel spectrum")
    _add_common(p)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("reconstruct", help="rebuild a member from integer samples")
    p.add_argument("--space", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--lattice", type=str, default=None, help="rescale to lattice (k+b)/a: 'a,b'")
    finite = _checked(float, math.isfinite, "finite")
    p.add_argument("--from", dest="x_from", type=finite, default=-8.0)
    p.add_argument("--to", dest="x_to", type=finite, default=8.0)
    p.add_argument("--points", type=_checked(int, lambda v: v >= 1, ">= 1"), default=200)
    p.add_argument("--out", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("decompose", help="split a space along a periodic partition")
    p.add_argument("--space", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out-prefix", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("determine", help="determining-set test for a family of members")
    p.add_argument("--space", required=True)
    p.add_argument("--functions", required=True, help="comma-separated signals")
    p.add_argument("--out-prefix", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_determine)

    return parser


def _print_failed(checks) -> None:
    """One stderr line for each failed check: its value, tolerance and detail."""
    for check in checks:
        if not check.passed:
            detail = f" ({check.detail})" if check.detail else ""
            print(f"  failed check {check.name}: value={check.value} "
                  f"tolerance={check.tolerance}{detail}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        return _run(_build_parser().parse_args(argv))
    except SisboxError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        _print_failed(getattr(getattr(exc, "report", None), "checks", ()))
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
