"""Peak traced allocation of the certificate's hot calls, and of the space
operations, at (64, 4096).

The probe energies come from the Gram matrix of the occupied fold rows and
the chirp transform runs over the dense blocks of a span only, so none of
these calls builds a (probes, N) table or transforms empty blocks; the space
operations compare signals over their bands' rows, not the full grid.  Each
bound sits between the peak with those temporaries and the peak without.
"""

import tracemalloc

import numpy as np
import pytest

from sisbox import (
    FrequencyGrid,
    PeriodicPartition,
    PiecewiseConstantSpectrum,
    ShiftCombination,
    TimeSamples,
    build_signal,
    build_space,
    check_determining_set,
    check_sz99,
    check_theorem2,
    check_theorem5,
    decompose,
    induced_subspace,
    shift_square_sum,
    synthesize,
    verify_direct_sum,
)
from sisbox.spaces import _probe_points

from conftest import random_coefficients

MIB = 2 ** 20


def traced_peak(call) -> int:
    """Bytes allocated at the peak of call() above what was held before it."""
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not running:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def fine_grid():
    return FrequencyGrid(64, 4096)


def test_shift_square_sum_builds_no_probe_table(fine_grid):
    # 128 probes over 2 occupied rows: a (2, 2) Gram matrix, not a (128, 4096) table
    blhat = build_signal("blhat", fine_grid)
    probes = _probe_points(0)
    assert probes.size == 128
    assert traced_peak(lambda: shift_square_sum(blhat, probes, fine_grid)) < 1 * MIB


@pytest.mark.parametrize("call", [check_theorem2, check_sz99, build_space], ids=lambda c: c.__name__)
def test_certificate_of_a_band_signal_holds_only_its_rows(call, fine_grid):
    # shannon fills 2 of the 128 fold rows (128 KiB); one whole (2K, N) grid is 8 MiB
    shannon = build_signal("shannon", fine_grid)
    assert traced_peak(lambda: call(shannon, fine_grid)) < 2 * MIB


@pytest.fixture(scope="module")
def shannon_space_fine(fine_grid):
    return build_space(build_signal("shannon", fine_grid), fine_grid)


@pytest.mark.parametrize("op", ["decompose", "check_determining_set", "induced_subspace", "verify_direct_sum"])
def test_space_operations_read_band_rows(op, shannon_space_fine, fine_grid):
    # every signal here fills 2 of the 128 fold rows; each comparison reads them over
    # the union of the bands, never one (2K, N) grid (8 MiB), nor a tiled mask
    space = shannon_space_fine
    halves = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], fine_grid)
    family = [PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)]), PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)])]
    member = synthesize(space, random_coefficients(31))
    calls = {"decompose": lambda: decompose(space, halves),
             "check_determining_set": lambda: check_determining_set(space, family),
             "induced_subspace": lambda: induced_subspace(space, member)}
    if op == "verify_direct_sum":
        components = decompose(space, halves)
        calls[op] = lambda: verify_direct_sum(space, components, member)
    assert traced_peak(calls[op]) <= 4 * MIB


def test_theorem2_transforms_only_dense_blocks(fine_grid):
    ex2 = build_signal("ex2", fine_grid)
    assert traced_peak(lambda: check_theorem2(ex2, fine_grid)) < 30 * MIB


def test_theorem2_of_an_interval_spectrum_builds_no_quotient_band(fine_grid):
    # h's certificate reads ex2's record: one quotient band alone is 61 x 4,096 cells (3.8 MiB)
    ex2 = build_signal("ex2", fine_grid)
    assert traced_peak(lambda: check_theorem2(ex2, fine_grid)) < 4 * MIB


def test_theorem5_dual_energy_peak(fine_grid):
    # the kernel's spectrum is cached first: its own transform is not measured
    hat = build_signal("hat", fine_grid)
    hat.grid_values(fine_grid)
    assert traced_peak(lambda: check_theorem5(hat, fine_grid)) <= 16.4 * MIB


def test_kernel_spectrum_runs_one_output_block_at_a_time(fine_grid):
    # the (64, 4096) half spectrum (8 MiB) is written in place, block by block of one
    # rotated forward FFT: no batched (16, 18,432) FFTs nor (64, 4096) phase table (21.1 MiB);
    # the transform's shape (0.5 MiB, kept for every kernel on it) is cached first, by another hat
    build_signal("hat", fine_grid).grid_values(fine_grid)
    hat = build_signal("hat", fine_grid)
    assert traced_peak(lambda: hat.grid_values(fine_grid)) <= 9.5 * MIB


def test_interval_spectrum_table_runs_in_blocks():
    # ex2's 61 pieces at 4,097 uniform points (steps of 1/256 over [-8, 8]): the
    # phase table is built a block of rows at a time, never (4,097, 61) at once
    ex2 = build_signal("ex2", FrequencyGrid(64, 1024))
    xs = np.unique(np.add.outer(np.arange(-8, 8), np.linspace(0.0, 1.0, 257)))
    assert traced_peak(lambda: ex2.time_values(xs)) <= 2 * MIB


def test_grid_spectrum_at_scattered_points_runs_in_blocks(fine_grid):
    # blhat's 4,095 nodes at 4,097 sorted random points: exact phases a block of
    # at most 16,384 (node, point) pairs at a time; 2^20-pair blocks read 40 MiB
    blhat = build_signal("blhat", fine_grid)
    xs = np.sort(np.random.default_rng(63).uniform(-8, 8, 4097))
    assert traced_peak(lambda: blhat.time_values(xs)) <= 4 * MIB


def test_interval_synthesis_peak():
    # 17 coefficients over ex2 at 1,000 uniform points: a (1,000, 122) table of
    # exact phases and its split halves read 6.75 MiB
    f = ShiftCombination(build_signal("ex2", FrequencyGrid(64, 1024)), random_coefficients(41))
    assert traced_peak(lambda: f.time_values(np.linspace(-8, 8, 1000))) <= 6.75 * MIB


@pytest.mark.parametrize("count", [2000, 3000])  # a pair at a time; by rows and columns
def test_interval_synthesis_rows_per_block_shrink_with_the_coefficients(count):
    # 4,001 coefficients over shannon: each block's (points, coefficients) Cauchy
    # matrix holds at most 2^20 entries (8 MiB), however few the pieces; two are
    # alive as one block's replaces the last's.  Blocks sized by the 6 frequencies
    # alone held all the points: 62 and 93 MiB
    f = ShiftCombination(build_signal("shannon", FrequencyGrid(32, 1024)), random_coefficients(53, span=2000))
    assert traced_peak(lambda: f.time_values(np.linspace(-8, 8, count))) <= 17 * MIB


def test_combination_over_a_spectral_base_is_sampled_from_period_arrays():
    # 4,001 coefficients over ex2's 1,024 period samples: one FFT convolution of
    # period-sized arrays, not the member's (128, 1,024) grid spectrum (4.3 MiB)
    grid = FrequencyGrid(64, 1024)
    f = ShiftCombination(build_signal("ex2", grid), random_coefficients(53, span=2000))
    assert traced_peak(lambda: f.integer_samples(grid, 512)) <= 3 * MIB


def test_spread_combination_reads_only_its_windows():
    # hat at 0 and at 4000: every probe is summed, and the signal sampled, at
    # the 10 shifts of the two windows, not at the 4,003 of the hull between
    # them; the hat's spectrum is computed inside the certificate, not cached
    grid = FrequencyGrid(32, 1024)
    f = ShiftCombination(build_signal("hat", grid), TimeSamples.from_pairs({0: 1.0, 4000: 1.0}))
    assert traced_peak(lambda: check_sz99(f, grid)) < 8 * MIB
    assert traced_peak(lambda: f.integer_samples(grid, 512)) < 8 * MIB
