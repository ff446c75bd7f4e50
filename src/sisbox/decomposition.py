"""Determining sets, direct-sum decompositions and lattice rescaling.

A finite family of members determines the space exactly when the union of
their support sets is the generator's support set, node for node.  A
passing family yields disjoint masks B_i and periodic multipliers alpha_i
with kernel = sum_i alpha_i * f_i_hat; any periodic partition of the
support set (its nodes, each in exactly one mask) splits the space into an
orthogonal direct sum of smaller sampling spaces with masked kernels.
Every comparison reads fold rows over the signals' bands (``union_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import PartitionError
from .grid import FrequencyGrid, PeriodicSpectrum, SupportMask, TimeSamples
from .signals import GridSpectrum, Signal
from .spaces import (
    KERNEL_TOL,
    ReconstructionResult,
    SamplingSpace,
    _space,
    member_residual,
    project,
    reconstruct,
)
from .spectral import divide_on_support, fibers, spectral_norm, union_rows


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

    def overlap_measure(self) -> float:
        counts = np.sum([m.values for m in self.masks], axis=0)  # masks holding each node
        return float(np.count_nonzero(counts > 1)) / self.masks[0].grid.resolution

    def union(self) -> SupportMask:
        return reduce(SupportMask.union, self.masks)


@dataclass(frozen=True)
class DeterminingSetReport:
    """Outcome of a determining-set test for one ordered family of members."""

    member_masks: list[SupportMask]
    union_mask: SupportMask
    symmetric_difference_measure: float
    passed: bool
    disjoint_masks: list[SupportMask]          # B_i, only on success
    multipliers: list[PeriodicSpectrum]        # alpha_i, only on success
    kernel_residual: float                     # sup |sum alpha_i f_i_hat - s_hat|

    def to_dict(self) -> dict:
        return {
            "member_measures": [m.measure for m in self.member_masks],
            "union_measure": self.union_mask.measure,
            "symmetric_difference_measure": self.symmetric_difference_measure,
            "passed": self.passed,
            "disjoint_measures": [m.measure for m in self.disjoint_masks],
            "kernel_residual": self.kernel_residual,
        }


def check_determining_set(space: SamplingSpace, funcs: list[Signal]) -> DeterminingSetReport:
    """Decide whether the family determines the space and, on success,
    build the disjoint masks and the recovery multipliers."""
    grid = space.grid
    for i, f in enumerate(funcs):
        member_residual(space, f, f"function {i}")

    fibs = [fibers(f, grid, space.mask.eps, space.k_max) for f in funcs]
    masks = [fib.mask for fib in fibs]
    union = PeriodicPartition(masks).union()
    sym = union.symmetric_difference(space.mask).measure
    passed = sym == 0.0

    disjoint: list[SupportMask] = []
    alphas: list[PeriodicSpectrum] = []
    kernel_residual = float("nan")
    if passed:
        taken = np.zeros(grid.resolution, dtype=bool)
        for fib in fibs:
            b = SupportMask(fib.mask.values & ~taken, grid, fib.mask.eps)
            taken |= b.values
            disjoint.append(b)
            alpha = divide_on_support(np.ones(grid.resolution), fib.zak.values, b)
            alphas.append(PeriodicSpectrum(alpha, grid))
        s_rows, *f_rows = union_rows([space.sampling_spectrum, *funcs], grid)
        recon = sum(alpha.values * rows for alpha, rows in zip(alphas, f_rows))
        kernel_residual = float(np.max(np.abs(recon - s_rows)))

    return DeterminingSetReport(masks, union, sym, passed, disjoint, alphas, kernel_residual)


def span_sum_check(space: SamplingSpace, report: DeterminingSetReport, funcs: list[Signal],
                   probe: Signal) -> float:
    """Express a probe member through the family and return the spectral
    residual of the expansion."""
    if not report.passed:
        raise ValueError("span check requires a passing determining-set report")
    grid = space.grid
    member_residual(space, probe, "probe")
    fib = fibers(probe, grid, space.mask.eps, space.k_max)
    p_rows, *f_rows = union_rows([probe, *funcs], grid)
    recon = sum(np.where(b.values, alpha.values * fib.zak.values, 0.0) * rows
                for rows, alpha, b in zip(f_rows, report.multipliers, report.disjoint_masks))
    return spectral_norm(recon - p_rows, grid) / max(spectral_norm(p_rows, grid), 1e-300)


def decompose(space: SamplingSpace, partition: PeriodicPartition) -> list[SamplingSpace]:
    """Split the space along a periodic partition of its support set.

    Each mask is first cut to the support set: a node off it belongs to no
    component.  The cut masks must hold every support node exactly once.
    Components with empty masks are dropped; each surviving component is
    built from the masked rows of the generator and the masked Zak fiber of
    the space (``space.zak``), certified, and checked to have the masked
    parent kernel.  A component keeps that fiber, so it can be split again.
    """
    grid = space.grid
    partition = PeriodicPartition([mask.intersection(space.mask) for mask in partition.masks])
    overlap = partition.overlap_measure()
    if overlap > 0:
        raise PartitionError(f"masks overlap on measure {overlap:.6g}", measure=overlap)
    uncovered = partition.union().symmetric_difference(space.mask).measure
    if uncovered > 0:
        raise PartitionError(f"masks leave support nodes of measure {uncovered:.6g} uncovered",
                             measure=uncovered)

    band, gen_rows = space.generator.band_values(grid)
    out: list[SamplingSpace] = []
    for mask in partition.masks:
        if mask.is_empty:
            continue
        comp_gen = GridSpectrum.from_band(band, np.where(mask.values, gen_rows, 0.0), grid,
                                          integrable_spectrum=space.generator.integrable_spectrum)
        # Z of M psi is M Z_psi exactly, not the fiber of its K-truncated spectrum
        fib = fibers(comp_gen, grid, space.mask.eps, space.k_max)
        comp_zak = PeriodicSpectrum(np.where(mask.values, space.zak.values, 0.0), grid)
        comp = _space(replace(fib, zak=comp_zak), seed=space.seed, checked=True)
        comp_rows, s_rows = union_rows([comp.sampling_spectrum, space.sampling_spectrum], grid)
        mismatch = float(np.max(np.abs(comp_rows - np.where(mask.values, s_rows, 0.0))))
        if mismatch > KERNEL_TOL * max(float(np.max(np.abs(s_rows))), 1e-300):
            raise PartitionError(
                f"component kernel deviates from the masked kernel by {mismatch:.3g}"
            )
        out.append(comp)
    return out


@dataclass(frozen=True)
class DirectSumCheck:
    residual: float
    max_cross_projection: float


def verify_direct_sum(space: SamplingSpace, components: list[SamplingSpace],
                      f: Signal) -> DirectSumCheck:
    """Project a probe onto every component and check that the pieces sum
    back to the probe with no cross-talk."""
    grid = space.grid
    pieces = [project(f, comp) for comp in components]
    f_rows, *piece_rows = union_rows([f, *pieces], grid)
    residual = spectral_norm(sum(piece_rows) - f_rows, grid)

    cross = 0.0
    for j, piece in enumerate(pieces):
        for l, other in enumerate(components):
            if j == l:
                continue
            cross = max(cross, spectral_norm(project(piece, other).rows, grid))
    return DirectSumCheck(residual, cross)


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
