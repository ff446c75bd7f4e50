from fractions import Fraction

import numpy as np
import pytest

from sisbox import FrequencyGrid, TimeSamples, build_signal, build_space


@pytest.fixture(scope="session")
def grid():
    return FrequencyGrid(32, 1024)


@pytest.fixture(scope="session")
def wide_grid():
    # wide enough for the ex2 spectrum (blocks out to omega = 60)
    return FrequencyGrid(64, 1024)


@pytest.fixture(scope="session")
def shannon(grid):
    return build_signal("shannon", grid)


@pytest.fixture(scope="session")
def blhat(grid):
    return build_signal("blhat", grid)


@pytest.fixture(scope="session")
def ex2():
    return build_signal("ex2", FrequencyGrid(64, 1024))


@pytest.fixture(scope="session")
def ex3():
    return build_signal("ex3", FrequencyGrid(32, 1024))


@pytest.fixture(scope="session")
def hat():
    return build_signal("hat", FrequencyGrid(32, 1024))


@pytest.fixture(scope="session")
def shannon_space(shannon, grid):
    return build_space(shannon, grid)


@pytest.fixture(scope="session")
def ex3_space(ex3, grid):
    return build_space(ex3, grid)


@pytest.fixture(scope="session")
def hat_space(hat, grid):
    return build_space(hat, grid)


@pytest.fixture(scope="session")
def ex2_space(ex2, wide_grid):
    return build_space(ex2, wide_grid)


def random_coefficients(seed: int, span: int = 8) -> TimeSamples:
    rng = np.random.default_rng(seed)
    ks = np.arange(-span, span + 1)
    vals = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
    return TimeSamples(ks, vals, span)


# points at integers, within 1e-9 of them, at half-integers and in between
SYNTHESIS_POINTS = np.concatenate([
    [-7.0, 0.0, 3.0],
    [2.0 + 1e-9, 2.0 - 1e-9, -5.0 + 1e-9, 1e-9, -1e-9],
    [-6.5, 0.5, 4.5],
    np.random.default_rng(40).uniform(-8, 8, 4),
])


def exact_synthesis(pieces, ks, cs, xs) -> np.ndarray:
    """sum_k c_k psi(x - k) at each x, psi_hat = sum of v * 1[m + lo, m + hi)
    over local pieces (m, lo, hi, v).  Per piece, psi(y) = v exp(2i*pi*(m + lo)*y)
    expm1(2i*pi*(hi - lo)*y) / (2i*pi*y), with y = x - k exact and both phases
    reduced mod 1 in exact integer arithmetic before rounding (the ramp's to
    [-1/2, 1/2), where expm1 keeps its small values)."""
    ks = np.asarray(ks, dtype=object)
    cs = np.asarray(cs, dtype=complex)
    out = []
    for x in xs:
        p, q = float(x).as_integer_ratio()
        num = p - ks * q  # y = num / q exactly; Python int division rounds once
        y = (num / q).astype(float)
        total = 0j
        for m, lo, hi, v in pieces:
            a, d = Fraction(m) + Fraction(lo), Fraction(hi) - Fraction(lo)
            den = q * a.denominator
            turn = (num * a.numerator % den / den).astype(float)
            den = q * d.denominator
            r = num * d.numerator % den
            ramp_turn = (np.where(2 * r >= den, r - den, r) / den).astype(float)
            with np.errstate(divide="ignore", invalid="ignore"):
                ramp = np.where(num == 0, float(d), np.expm1(2j * np.pi * ramp_turn) / (2j * np.pi * y))
            total += v * np.sum(cs * np.exp(2j * np.pi * turn) * ramp)
        out.append(total)
    return np.array(out)
