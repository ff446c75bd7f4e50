"""Determining sets, direct-sum decompositions and lattice rescaling.

A finite family of members determines the space exactly when the union of
their support sets covers the generator's support set (up to one grid
cell).  A passing family yields disjoint masks B_i and periodic
multipliers alpha_i with kernel = sum_i alpha_i * f_i_hat; any periodic
partition of the support set splits the space into an orthogonal direct
sum of smaller sampling spaces with masked kernels.
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
from .spectral import divide_on_support, fibers, spectral_norm


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
        counts = np.zeros(self.masks[0].grid.resolution, dtype=int)
        for m in self.masks:
            counts += m.values.astype(int)
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
    order: list[int]
    disjoint_masks: list[SupportMask]          # B_i, only on success
    multipliers: list[PeriodicSpectrum]        # alpha_i, only on success
    kernel_residual: float                     # sup |sum alpha_i f_i_hat - s_hat|

    def to_dict(self) -> dict:
        return {
            "member_measures": [m.measure for m in self.member_masks],
            "union_measure": self.union_mask.measure,
            "symmetric_difference_measure": self.symmetric_difference_measure,
            "passed": self.passed,
            "order": self.order,
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
    passed = sym <= 1.0 / grid.resolution

    disjoint: list[SupportMask] = []
    alphas: list[PeriodicSpectrum] = []
    kernel_residual = float("nan")
    if passed:
        taken = np.zeros(grid.resolution, dtype=bool)
        recon = np.zeros(fibs[0].folded.shape, dtype=complex)
        for fib in fibs:
            b = SupportMask(fib.mask.values & ~taken, grid, fib.mask.eps)
            taken |= b.values
            disjoint.append(b)
            alpha = divide_on_support(np.ones(grid.resolution), fib.zak.values, b)
            alphas.append(PeriodicSpectrum(alpha, grid))
            recon += alpha * fib.folded
        s_vals = grid.fold(space.sampling_spectrum.grid_values(grid))
        kernel_residual = float(np.max(np.abs(recon - s_vals)))

    return DeterminingSetReport(masks, union, sym, passed, list(range(len(funcs))),
                                disjoint, alphas, kernel_residual)


def span_sum_check(space: SamplingSpace, report: DeterminingSetReport, funcs: list[Signal],
                   probe: Signal) -> float:
    """Express a probe member through the family and return the spectral
    residual of the expansion."""
    if not report.passed:
        raise ValueError("span check requires a passing determining-set report")
    grid = space.grid
    member_residual(space, probe, "probe")
    fib = fibers(probe, grid, space.mask.eps, space.k_max)
    recon = np.zeros(fib.folded.shape, dtype=complex)
    for f, alpha, b in zip(funcs, report.multipliers, report.disjoint_masks):
        beta = np.where(b.values, alpha.values * fib.zak.values, 0.0)
        recon += beta * grid.fold(f.grid_values(grid))
    return spectral_norm(recon - fib.folded, grid) / max(spectral_norm(fib.folded, grid), 1e-300)


def decompose(space: SamplingSpace, partition: PeriodicPartition) -> list[SamplingSpace]:
    """Split the space along a periodic partition of its support set.

    Components with empty masks are dropped; each surviving component is
    built from the masked generator and the masked Zak fiber of the space
    (``space.zak``), certified, and checked to have the masked parent
    kernel.  A component keeps that fiber, so it can be split again.
    """
    grid = space.grid
    cell = 1.0 / grid.resolution
    overlap = partition.overlap_measure()
    if overlap > cell:
        raise PartitionError(f"masks overlap on measure {overlap:.6g}", measure=overlap)
    uncovered = partition.union().symmetric_difference(space.mask).measure
    if uncovered > cell:
        raise PartitionError(
            f"union differs from the support set by measure {uncovered:.6g}",
            measure=uncovered,
        )

    gen_vals = space.generator.grid_values(grid)
    s_vals = space.sampling_spectrum.grid_values(grid)
    out: list[SamplingSpace] = []
    for mask in partition.masks:
        if mask.is_empty:
            continue
        tiled = mask.tile()
        comp_gen = GridSpectrum(np.where(tiled, gen_vals, 0.0), grid,
                                integrable_spectrum=space.generator.integrable_spectrum)
        # Z of M psi is M Z_psi exactly, not the fiber of its K-truncated spectrum
        fib = fibers(comp_gen, grid, space.mask.eps, space.k_max)
        comp_zak = PeriodicSpectrum(np.where(mask.values, space.zak.values, 0.0), grid)
        comp = _space(replace(fib, zak=comp_zak), seed=0, checked=True)
        comp_kernel = comp.sampling_spectrum.grid_values(grid)
        expected = np.where(tiled, s_vals, 0.0)
        mismatch = float(np.max(np.abs(comp_kernel - expected)))
        if mismatch > KERNEL_TOL * max(float(np.max(np.abs(s_vals))), 1e-300):
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
    fvals = f.grid_values(grid)
    pieces = [project(f, comp) for comp in components]
    total = np.zeros(grid.size, dtype=complex)
    for p in pieces:
        total += p.values
    residual = spectral_norm(total - fvals, grid)

    cross = 0.0
    for j, piece in enumerate(pieces):
        for l, other in enumerate(components):
            if j == l:
                continue
            cross = max(cross, spectral_norm(project(piece, other).values, grid))
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
        return ReconstructionResult(np.sqrt(self.scale) * inner.values, inner.route,
                                    inner.truncation_tail)


def lattice_rescale(space: SamplingSpace, a: float, b: float = 0.0) -> RescaledSpace:
    """Move a sampling space to the lattice (k + b) / a, a > 0."""
    if a <= 0:
        raise ValueError("scale must be positive")
    return RescaledSpace(space, float(a), float(b))
