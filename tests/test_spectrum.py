import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frictionlab.errors import ResonantDenominator
from frictionlab.spectrum import DispersionQuery, amplitude_ratio, dispersion_roots


def q_(eps, k, alpha=1.0, gamma=2.0, M=1.0):
    return DispersionQuery(epsilon=eps, alpha=alpha, gamma=gamma, M=M, k=k)


# roots of eps^2 l^2 + l + M + gamma M^(gamma-1) eps^alpha k^2 = 0,
# frozen from an independent np.roots evaluation
ROOT_TABLE = [
    # (eps, k, slow, fast)
    (0.1, 1.0, -1.214756329398, -98.785243670602),
    (0.05, 1.0, -1.103041752771, None),
    (0.05, 2.0, -1.404934603097, None),
    (0.025, 1.0, -1.050689968381, None),
    (0.2, 1.0, -1.488642227227, -23.511357772773),
]


@pytest.mark.parametrize("eps, k", [
    (0.1, math.nan), (0.1, math.inf), (0.1, -1.0),
    (math.nan, 1.0), (1.0, 1.0), (-0.1, 1.0)])
def test_query_rejects_a_bad_wavenumber_or_epsilon(eps, k):
    # written so that NaN fails the checks: no NaN roots come back
    with pytest.raises(ValueError):
        q_(eps, k)


@pytest.mark.parametrize("eps,k,slow,fast", ROOT_TABLE)
def test_roots_match_polynomial_oracle(eps, k, slow, fast):
    pair = dispersion_roots(q_(eps, k))
    assert pair.lambda_slow.real == pytest.approx(slow, abs=1e-9)
    assert pair.lambda_slow.imag == 0.0
    if fast is not None:
        assert pair.lambda_fast.real == pytest.approx(fast, abs=1e-9)


def test_degenerate_epsilon_single_root():
    pair = dispersion_roots(q_(0.0, 3.0))
    assert pair.lambda_slow == pytest.approx(-1.0)
    assert pair.lambda_fast is None


def test_slow_root_approaches_reduced_rate():
    # lambda_slow -> -(M + gamma M^(gamma-1) eps^alpha k^2) with O(eps^2)
    # coefficient gap
    for eps in (0.1, 0.05, 0.025):
        pair = dispersion_roots(q_(eps, 1.0))
        reduced = -(1.0 + 2.0 * eps)
        gap = abs(pair.lambda_slow.real - reduced)
        assert gap <= 2.0 * eps ** 2 * abs(pair.lambda_slow) ** 2


def test_fast_root_is_frictional():
    for eps in (0.1, 0.05, 0.01):
        pair = dispersion_roots(q_(eps, 1.0))
        assert abs(pair.lambda_fast) >= 1.0 / (2.0 * eps ** 2)


def test_complex_branch_is_damped_oscillatory():
    # large k * eps drives the discriminant negative
    pair = dispersion_roots(q_(0.2, 4.0))
    assert pair.lambda_slow.imag > 0.0
    assert pair.lambda_slow.real == pytest.approx(-12.5)
    assert pair.lambda_fast == pair.lambda_slow.conjugate()
    assert pair.stable


def test_residual_grid(quadratic_residual):
    worst = 0.0
    for eps in np.linspace(0.01, 0.5, 20):
        for k in np.linspace(0.0, 8.0, 10):
            q = q_(float(eps), float(k))
            pair = dispersion_roots(q)
            worst = max(worst, quadratic_residual(q, pair.lambda_slow),
                        quadratic_residual(q, pair.lambda_fast))
    assert worst <= 1e-12


@settings(max_examples=200)
@given(eps=st.floats(0.001, 0.5), k=st.floats(0.0, 64.0),
       gamma=st.sampled_from([1.4, 2.0, 3.0]),
       M=st.sampled_from([0.5, 1.0, 2.0]),
       alpha=st.floats(0.1, 1.9))
def test_stability_everywhere(eps, k, gamma, M, alpha):
    pair = dispersion_roots(DispersionQuery(
        epsilon=eps, alpha=alpha, gamma=gamma, M=M, k=k))
    assert pair.lambda_slow.real < 0.0
    assert pair.lambda_fast.real < 0.0


def test_amplitude_ratio_identity():
    # at any root, U/zeta reduces to i eps lambda / (k M)
    for eps, k in [(0.1, 1.0), (0.05, 2.0), (0.2, 0.5)]:
        q = q_(eps, k)
        pair = dispersion_roots(q)
        for lam in (pair.lambda_slow, pair.lambda_fast):
            ratio = amplitude_ratio(q, lam)
            expected = 1j * eps * lam / (k * 1.0)
            assert abs(ratio - expected) <= 1e-12 * max(1.0, abs(expected))


def test_amplitude_ratio_zero_wavenumber():
    q = q_(0.1, 0.0)
    pair = dispersion_roots(q)
    assert amplitude_ratio(q, pair.lambda_slow) == 0j


def test_amplitude_ratio_within_velocity_band():
    eps = 0.1
    q = q_(eps, 1.0)
    ratio = abs(amplitude_ratio(q, dispersion_roots(q).lambda_slow))
    assert 0.5 * eps <= ratio <= 2.0 * (eps + eps ** 2)


def test_amplitude_ratio_resonance_guard():
    q = q_(0.1, 1.0)
    with pytest.raises(ResonantDenominator):
        amplitude_ratio(q, -1.0 / 0.1 ** 2)


def test_amplitude_scaling_slope():
    # |U/zeta| is O(eps) to leading order; the log-log slope over a
    # dyadic eps sweep stays in the unit band at moderate wavenumber
    k = 0.5
    eps_list = [0.1, 0.05, 0.025]
    vals = []
    for eps in eps_list:
        q = q_(eps, k)
        vals.append(abs(amplitude_ratio(q, dispersion_roots(q).lambda_slow)))
    slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
    assert 0.9 <= slope <= 1.1

