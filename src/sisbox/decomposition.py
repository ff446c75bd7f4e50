"""Determining sets, direct-sum decompositions and lattice rescaling.

A finite family of members determines the space exactly when the union of
their support sets is the generator's support set, node for node, and its
disjoint masks B_i and periodic multipliers alpha_i recover the kernel,
kernel = sum_i alpha_i * f_i_hat; any periodic partition of the support set
(its nodes, each in exactly one mask) splits the space into an orthogonal
direct sum of smaller sampling spaces with masked kernels.  Each residual is
a ``ConditionCheck``, held to KERNEL_TOL of sup |kernel| or to MEMBER_TOL of
a probe's norm; comparisons read fold rows over the bands (``union_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import PartitionError
from .grid import FrequencyGrid, PeriodicSpectrum, SupportMask, TimeSamples
from .reports import ConditionCheck
from .signals import GridSpectrum, Signal
from .spaces import (
    KERNEL_TOL,
    MEMBER_TOL,
    ReconstructionResult,
    SamplingSpace,
    _space,
    member_residual,
    project,
    reconstruct,
)
from .spectral import Fibers, _cells_and_mask, divide_on_support, fibers, spectral_norm, union_rows


@dataclass(frozen=True)
class PeriodicPartition:
    """Ordered list of disjoint periodic masks meant to cover a support set."""

    masks: list[SupportMask]

    def __post_init__(self):
        if not self.masks:
            raise PartitionError("a partition needs at least one mask")

    @classmethod
    def from_intervals(cls, groups, grid: FrequencyGrid) -> "PeriodicPartition":
        """Each group is a list of [start, end) subintervals of [0, 1)."""
        masks = []
        nodes = grid.unit_omegas
        for group in groups:
            sel = np.zeros(grid.resolution, dtype=bool)
            for lo, hi in group:
                sel |= (nodes >= float(lo)) & (nodes < float(hi))
            masks.append(SupportMask(sel, grid))
        return cls(masks)

    def union(self) -> SupportMask:
        return reduce(SupportMask.union, self.masks)


@dataclass(frozen=True)
class DeterminingSetReport:
    """Outcome of a determining-set test for one ordered family of members."""

    member_masks: list[SupportMask]
    union_mask: SupportMask
    checks: list[ConditionCheck]               # symmetric_difference, kernel_residual (NaN if the first fails)
    disjoint_masks: list[SupportMask]          # B_i, only when the node sets agree
    multipliers: list[PeriodicSpectrum]        # alpha_i, only when the node sets agree

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        sym, kernel = self.checks
        return {
            "member_measures": [m.measure for m in self.member_masks],
            "union_measure": self.union_mask.measure,
            "symmetric_difference_measure": sym.value,
            "passed": self.passed,
            "disjoint_measures": [m.measure for m in self.disjoint_masks],
            "kernel_residual": kernel.value,
            "checks": self.checks,
        }


def _kernel_check(name: str, rows: np.ndarray, kernel_rows: np.ndarray) -> ConditionCheck:
    """sup |rows - kernel_rows|, held to KERNEL_TOL of sup |kernel_rows|."""
    gap = float(np.max(np.abs(rows - kernel_rows)))
    tol = KERNEL_TOL * max(float(np.max(np.abs(kernel_rows))), 1e-300)
    return ConditionCheck(name, gap <= tol, gap, tol)


def check_determining_set(space: SamplingSpace, funcs: list[Signal]) -> DeterminingSetReport:
    """Decide whether the family determines the space and, when its node sets
    cover the support set, build the disjoint masks and recovery multipliers."""
    grid = space.grid
    for i, f in enumerate(funcs):
        member_residual(space, f, f"function {i}")

    fibs = [fibers(f, grid, space.mask.eps, space.k_max) for f in funcs]
    masks = [fib.mask for fib in fibs]
    union = PeriodicPartition(masks).union()
    diff = union.symmetric_difference(space.mask)
    sym = ConditionCheck("symmetric_difference", diff.is_empty, diff.measure, 0.0,
                         "" if diff.is_empty else diff.describe())

    disjoint: list[SupportMask] = []
    alphas: list[PeriodicSpectrum] = []
    kernel = ConditionCheck("kernel_residual", False, float("nan"), detail="node sets differ")
    if sym.passed:
        taken = np.zeros(grid.resolution, dtype=bool)
        for fib in fibs:
            b = SupportMask(fib.mask.values & ~taken, grid, fib.mask.eps)
            taken |= b.values
            disjoint.append(b)
            alpha = divide_on_support(np.ones(grid.resolution), fib.zak.values, b)
            alphas.append(PeriodicSpectrum(alpha, grid))
        s_rows, *f_rows = union_rows([space.sampling_spectrum, *funcs], grid)
        recon = sum(alpha.values * rows for alpha, rows in zip(alphas, f_rows))
        kernel = _kernel_check("kernel_residual", recon, s_rows)

    return DeterminingSetReport(masks, union, [sym, kernel], disjoint, alphas)


def span_sum_check(space: SamplingSpace, report: DeterminingSetReport, funcs: list[Signal],
                   probe: Signal) -> ConditionCheck:
    """Express a probe member through the family; the spectral residual of
    the expansion, relative to the probe's norm, is held to MEMBER_TOL."""
    if not report.passed:
        raise ValueError("span check requires a passing determining-set report")
    grid = space.grid
    member_residual(space, probe, "probe")
    fib = fibers(probe, grid, space.mask.eps, space.k_max)
    p_rows, *f_rows = union_rows([probe, *funcs], grid)
    recon = sum(np.where(b.values, alpha.values * fib.zak.values, 0.0) * rows
                for rows, alpha, b in zip(f_rows, report.multipliers, report.disjoint_masks))
    residual = spectral_norm(recon - p_rows, grid) / max(spectral_norm(p_rows, grid), 1e-300)
    return ConditionCheck("span_residual", residual <= MEMBER_TOL, residual, MEMBER_TOL)


def decompose(space: SamplingSpace, partition: PeriodicPartition) -> list[SamplingSpace]:
    """Split the space along a periodic partition of its support set.

    Each mask is first cut to the support set: a node off it belongs to no
    component.  The cut masks must hold every support node exactly once.
    Components with empty masks are dropped; each surviving component is
    built from the masked rows of the generator and the masked Zak fiber of
    the space (``space.zak``) and certified; their kernels must sum to the
    kernel (``kernel_sum_gap``).  A component keeps that fiber, so it can be
    split again.
    """
    grid = space.grid
    partition = PeriodicPartition([mask.intersection(space.mask) for mask in partition.masks])
    counts = np.sum([m.values for m in partition.masks], axis=0)  # masks holding each node
    for nodes, fault in ((counts > 1, "overlap on"), (space.mask.values & (counts == 0), "leave uncovered")):
        if not (bad := SupportMask(nodes, grid)).is_empty:
            raise PartitionError(f"masks {fault} support nodes of measure {bad.measure:.6g}: "
                                 f"{bad.describe()}", measure=bad.measure)

    band, gen_rows = space.generator.band_values(grid)
    out: list[SamplingSpace] = []
    for mask in partition.masks:
        if mask.is_empty:
            continue
        comp_gen = GridSpectrum.from_band(band, np.where(mask.values, gen_rows, 0.0), grid,
                                          integrable_spectrum=space.generator.integrable_spectrum)
        # Z of M psi is M Z_psi exactly, not the fiber of its K-truncated spectrum; its samples, Z's inverse DFT
        zak = np.where(mask.values, space.zak.values, 0.0)
        fib = Fibers(comp_gen, grid, *_cells_and_mask(comp_gen, grid, space.mask.eps),
                     comp_gen.integer_samples(grid, space.k_max, zak), PeriodicSpectrum(zak, grid))
        out.append(_space(fib, seed=space.seed, checked=True))
    if not (gap := kernel_sum_gap(space, out)).passed:
        raise PartitionError(f"component kernels deviate from the masked kernel by {gap.value:.3g}")
    return out


def kernel_sum_gap(space: SamplingSpace, components: list[SamplingSpace]) -> ConditionCheck:
    """sup |sum of the component kernels - the kernel masked to the support
    set|, held to KERNEL_TOL of sup |kernel|: the components split the kernel."""
    s_rows, *comp_rows = union_rows([space.sampling_spectrum,
                                     *(c.sampling_spectrum for c in components)], space.grid)
    return _kernel_check("kernel_sum_gap", sum(comp_rows), np.where(space.mask.values, s_rows, 0.0))


def verify_direct_sum(space: SamplingSpace, components: list[SamplingSpace],
                      f: Signal) -> list[ConditionCheck]:
    """Project a probe onto every component: the pieces must sum back to the
    probe and show no cross-talk, each to MEMBER_TOL of the probe's norm."""
    grid = space.grid
    pieces = [project(f, comp) for comp in components]
    f_rows, *piece_rows = union_rows([f, *pieces], grid)
    residual = spectral_norm(sum(piece_rows) - f_rows, grid)

    cross = max((spectral_norm(project(piece, other).rows, grid) for j, piece in enumerate(pieces)
                 for l, other in enumerate(components) if j != l), default=0.0)
    tol = MEMBER_TOL * spectral_norm(f_rows, grid)
    return [ConditionCheck("residual", residual <= tol, residual, tol),
            ConditionCheck("max_cross_projection", cross <= tol, cross, tol)]


@dataclass(frozen=True)
class RescaledSpace:
    """A sampling space moved to the lattice (k + offset) / scale.

    Members are g(x) = sqrt(scale) * f(scale * x - offset) for members f
    of the base space; g is recovered from its samples on the rescaled
    lattice through the base-space reconstruction.
    """

    base: SamplingSpace
    scale: float
    offset: float

    def lattice(self, ks) -> np.ndarray:
        return (np.asarray(ks, dtype=float) + self.offset) / self.scale

    def kernel_values(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.sqrt(self.scale) * self.base.kernel_values(self.scale * xs - self.offset)

    def member_values(self, f: Signal, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.sqrt(self.scale) * f.time_values(self.scale * xs - self.offset)

    def reconstruct(self, samples: TimeSamples, x_values) -> ReconstructionResult:
        """samples maps k to g((k + offset) / scale)."""
        base_samples = samples.scaled(1.0 / np.sqrt(self.scale))
        xs = np.atleast_1d(np.asarray(x_values, dtype=float))
        inner = reconstruct(self.base, base_samples, self.scale * xs - self.offset)
        return ReconstructionResult(np.sqrt(self.scale) * inner.values, inner.route)


def lattice_rescale(space: SamplingSpace, a: float, b: float = 0.0) -> RescaledSpace:
    """Move a sampling space to the lattice (k + b) / a, a > 0."""
    if a <= 0:
        raise ValueError("scale must be positive")
    return RescaledSpace(space, float(a), float(b))
