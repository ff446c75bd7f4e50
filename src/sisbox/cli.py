"""Command-line front end.

    sisbox analyze SIGNAL [--csv out.csv]
    sisbox membership SIGNAL --theorem {1,2,5,sz04} [--space SIGNAL] [--emit-s out.csv]
    sisbox reconstruct --space SIGNAL --samples in.csv [--lattice a,b] [--out out.csv]
    sisbox decompose --space SIGNAL --partition parts.json [--out-prefix p]
    sisbox determine --space SIGNAL --functions f1,f2,... [--out-prefix p]

SIGNAL is a catalog name, a .json interval-spectrum file, or a .csv grid
spectrum file.  SISBOX_GRID="K,N" overrides the default grid.

Exit codes: 0 verdict pass; 2 verdict fail, "refused:" (NotASamplingSpace,
ConstructionRefused) or "failed:" (NotInSpace, Partition, DegenerateSpace
errors); 1 usage errors and every other SisboxError ("error:" bad files,
unknown signals, preconditions, spectra beyond the grid, samples the grid
cannot resolve).  No error ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import io as sio
from .catalog import build_signal, catalog_names, required_grid
from .decomposition import (
    PeriodicPartition,
    check_determining_set,
    decompose,
    lattice_rescale,
)
from .errors import FileFormatError, SisboxError
from .grid import FrequencyGrid
from .membership import (
    check_sz04,
    check_theorem2,
    check_theorem5,
    construct_s_from_f,
    induced_subspace,
)
from .reports import ReportDocument, gauge
from .signals import GridSpectrum
from .spaces import KERNEL_TOL, MEMBER_TOL, build_space, reconstruct, sz99_report
from .spectral import DEFAULT_EPS, DEFAULT_K_MAX, essential_bounds, fibers


class _UsageError(SisboxError):
    kind = "usage error"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _bounded(kind, low, strict: bool = False):
    """argparse type: a number of the given kind that is >= low (> low if strict)."""
    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text!r}")
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
    p.add_argument("--eps", type=_bounded(float, 0, strict=True), default=DEFAULT_EPS,
                   help="support/guard threshold")
    p.add_argument("--kmax", type=_bounded(int, 0), default=DEFAULT_K_MAX, help="sample truncation")
    p.add_argument("--seed", type=_bounded(int, 0), default=0, help="probe-grid seed")
    p.add_argument("--nmax", type=_bounded(int, 0), default=60, help="block count for the ex2 signal")
    p.add_argument("--json", type=str, default=None, help="write the report document here")


def _resolve_grid(args, signal_names: list[str]) -> FrequencyGrid:
    k_env, n_env = _default_grid()
    k = args.K if args.K is not None else k_env
    n = args.N if args.N is not None else n_env
    try:
        grid = FrequencyGrid(k, n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.K is None:
        # widen for catalog signals whose spectrum does not fit the default
        for name in signal_names:
            if name in catalog_names():
                grid = required_grid(name, grid, **_catalog_params(args, name))
    return grid


def _catalog_params(args, name: str) -> dict:
    return {"n_max": args.nmax} if name == "ex2" else {}


def _load_signal(ref: str, grid: FrequencyGrid, args):
    if ref.endswith(".json") and Path(ref).exists():
        return sio.read_piecewise_spectrum(ref)
    if ref.endswith(".csv") and Path(ref).exists():
        sig = sio.read_grid_spectrum(ref)
        grid.require_same(sig.grid)
        return sig
    if ref.endswith((".json", ".csv")):
        raise FileFormatError(f"signal file {ref!r} does not exist", line=1)
    return build_signal(ref, grid, **_catalog_params(args, ref))


def _finish(doc: ReportDocument, args, started: float, passed: bool) -> int:
    doc.timing_s = time.monotonic() - started
    doc.verdict = "pass" if passed else "fail"
    if args.json:
        doc.save(args.json)
    print(f"verdict: {doc.verdict}")
    return 0 if passed else 2


def cmd_analyze(args) -> int:
    started = time.monotonic()
    grid = _resolve_grid(args, [args.signal])
    sig = _load_signal(args.signal, grid, args)
    fib = fibers(sig, grid, args.eps, args.kmax)
    g, mask = fib.grammian, fib.mask
    bounds = essential_bounds(g, mask) if not mask.is_empty else (0.0, 0.0)
    report = sz99_report(sig, mask, fib.zak, k_max=args.kmax, seed=args.seed)

    print(f"[analyze] signal={args.signal} grid K={grid.half_bandwidth} N={grid.resolution}")
    print(f"[analyze] grammian min={float(np.min(g.real_values)):.6g} "
          f"max={float(np.max(g.real_values)):.6g}")
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

    doc = ReportDocument(
        command="analyze",
        grid={"K": grid.half_bandwidth, "N": grid.resolution},
        params={"signal": args.signal, "eps": args.eps, "kmax": args.kmax},
        results={
            "grammian": {"min": float(np.min(g.real_values)),
                         "max": float(np.max(g.real_values))},
            "support_measure": mask.measure,
            "frame_bounds": {"A": bounds[0], "B": bounds[1]},
            "certificate": report.to_dict(),
        },
        tails={"spectral": sig.spectral_tail_energy(grid),
               "series": float(getattr(sig, "series_tail", 0.0))},
        seed=args.seed,
    )
    return _finish(doc, args, started, report.passed)


def cmd_membership(args) -> int:
    started = time.monotonic()
    grid = _resolve_grid(args, [args.signal, args.space])
    sig = _load_signal(args.signal, grid, args)

    results: dict = {}
    if args.theorem == "1":
        gen = _load_signal(args.space, grid, args)
        space = build_space(gen, grid, eps=args.eps, k_max=args.kmax, seed=args.seed)
        sub = induced_subspace(space, sig)
        results["induced"] = {
            "member_residual": gauge(sub.member_residual, MEMBER_TOL,
                                     sub.member_residual <= MEMBER_TOL),
            "kernel_mask_residual": gauge(sub.kernel_mask_residual, KERNEL_TOL,
                                          sub.kernel_mask_residual <= KERNEL_TOL),
            "kernel_projection_residual": gauge(sub.kernel_projection_residual, KERNEL_TOL,
                                                sub.kernel_projection_residual <= KERNEL_TOL),
            "subspace_measure": sub.space.mask.measure,
        }
        passed = all(v["passed"] for v in results["induced"].values()
                     if isinstance(v, dict) and "passed" in v)
        print(f"[membership] theorem 1: kernel identities "
              f"mask={sub.kernel_mask_residual:.3g} proj={sub.kernel_projection_residual:.3g}")
    elif args.theorem == "2":
        report = check_theorem2(sig, grid, eps=args.eps, k_max=args.kmax, seed=args.seed)
        results["report"] = report.to_dict()
        passed = report.passed
        _print_condition_report(report)
    elif args.theorem == "5":
        report = check_theorem5(sig, grid, eps=args.eps, k_max=args.kmax, seed=args.seed)
        results["report"] = report.to_dict()
        passed = report.passed
        _print_condition_report(report)
        if passed and args.emit_s:
            space = construct_s_from_f(sig, grid, eps=args.eps, k_max=args.kmax,
                                       seed=args.seed, report=report)
            kernel = space.sampling_spectrum
            if not isinstance(kernel, GridSpectrum):
                kernel = GridSpectrum(kernel.grid_values(grid), grid)
            sio.write_grid_spectrum(kernel, args.emit_s)
            print(f"[membership] wrote kernel spectrum to {args.emit_s}")
    else:  # sz04
        report = check_sz04(sig, grid, eps=args.eps)
        results["report"] = report.to_dict()
        passed = report.passed
        _print_condition_report(report)

    doc = ReportDocument(
        command="membership",
        grid={"K": grid.half_bandwidth, "N": grid.resolution},
        params={"signal": args.signal, "theorem": args.theorem, "space": args.space,
                "eps": args.eps, "kmax": args.kmax},
        results=results,
        tails={"spectral": sig.spectral_tail_energy(grid),
               "series": float(getattr(sig, "series_tail", 0.0))},
        seed=args.seed,
    )
    return _finish(doc, args, started, passed)


def _print_condition_report(report) -> None:
    for check in report.checks:
        val = "n/a" if check.value is None else f"{check.value:.6g}"
        print(f"[membership] {report.criterion} {check.name}: value={val} "
              f"passed={check.passed}" + (f" ({check.detail})" if check.detail else ""))


def cmd_reconstruct(args) -> int:
    started = time.monotonic()
    grid = _resolve_grid(args, [args.space])
    gen = _load_signal(args.space, grid, args)
    space = build_space(gen, grid, eps=args.eps, k_max=args.kmax, seed=args.seed)
    samples = sio.read_samples(args.samples, k_max=args.kmax)
    xs = np.linspace(args.x_from, args.x_to, args.points)

    if args.lattice:
        try:
            a_str, b_str = args.lattice.split(",")
            a, b = float(a_str), float(b_str)
        except ValueError as exc:
            raise _UsageError(f"--lattice expects 'a,b', got {args.lattice!r}") from exc
        if not a > 0:
            raise _UsageError(f"--lattice scale a must be > 0, got {a_str!r}")
        rescaled = lattice_rescale(space, a, b)
        result = rescaled.reconstruct(samples, xs)
    else:
        result = reconstruct(space, samples, xs)

    out = args.out or "reconstruction.csv"
    sio.write_reconstruction_csv(xs, result.values, out)
    print(f"[reconstruct] route={result.route} points={len(xs)} wrote {out}")

    doc = ReportDocument(
        command="reconstruct",
        grid={"K": grid.half_bandwidth, "N": grid.resolution},
        params={"space": args.space, "samples": args.samples, "lattice": args.lattice,
                "points": args.points, "range": [args.x_from, args.x_to]},
        results={"route": result.route, "output": out,
                 "max_abs": float(np.max(np.abs(result.values)))},
        tails={"samples": samples.tail_energy, "truncation": result.truncation_tail},
        seed=args.seed,
    )
    return _finish(doc, args, started, True)


def cmd_decompose(args) -> int:
    started = time.monotonic()
    grid = _resolve_grid(args, [args.space])
    gen = _load_signal(args.space, grid, args)
    space = build_space(gen, grid, eps=args.eps, k_max=args.kmax, seed=args.seed)
    groups = sio.read_partition(args.partition)
    partition = PeriodicPartition.from_intervals(groups, grid, args.eps)
    components = decompose(space, partition)

    total = np.zeros(grid.size, dtype=complex)
    prefix = args.out_prefix or "component"
    files = []
    for j, comp in enumerate(components):
        kernel = comp.sampling_spectrum
        vals = kernel.grid_values(grid)
        total += vals
        path = f"{prefix}_{j}.csv"
        sio.write_grid_spectrum(GridSpectrum(vals, grid), path)
        files.append(path)
        print(f"[decompose] component {j}: measure={comp.mask.measure:.6g} wrote {path}")
    s_vals = space.sampling_spectrum.grid_values(grid)
    kernel_sum_gap = float(np.max(np.abs(total - s_vals)))
    print(f"[decompose] kernel sum gap={kernel_sum_gap:.3g}")

    doc = ReportDocument(
        command="decompose",
        grid={"K": grid.half_bandwidth, "N": grid.resolution},
        params={"space": args.space, "partition": args.partition},
        results={
            "components": len(components),
            "files": files,
            "component_measures": [c.mask.measure for c in components],
            "kernel_sum_gap": gauge(kernel_sum_gap, KERNEL_TOL, kernel_sum_gap <= KERNEL_TOL),
        },
        seed=args.seed,
    )
    return _finish(doc, args, started, kernel_sum_gap <= KERNEL_TOL)


def cmd_determine(args) -> int:
    started = time.monotonic()
    grid = _resolve_grid(args, [args.space])
    gen = _load_signal(args.space, grid, args)
    space = build_space(gen, grid, eps=args.eps, k_max=args.kmax, seed=args.seed)
    funcs = [_load_signal(ref.strip(), grid, args) for ref in args.functions.split(",")]
    report = check_determining_set(space, funcs)

    print(f"[determine] union measure={report.union_mask.measure:.6g} "
          f"symmetric difference={report.symmetric_difference_measure:.6g} "
          f"passed={report.passed}")
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

    doc = ReportDocument(
        command="determine",
        grid={"K": grid.half_bandwidth, "N": grid.resolution},
        params={"space": args.space, "functions": args.functions},
        results={**report.to_dict(), "files": files},
        seed=args.seed,
    )
    return _finish(doc, args, started, report.passed)


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
    p.add_argument("--from", dest="x_from", type=float, default=-8.0)
    p.add_argument("--to", dest="x_to", type=float, default=8.0)
    p.add_argument("--points", type=_bounded(int, 1), default=200)
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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SisboxError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is not None:
            print(json.dumps(report.to_dict(), indent=2), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
