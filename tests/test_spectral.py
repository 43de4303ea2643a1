import math
import tracemalloc

import numpy as np
import pytest

from frictionlab import spectral
from frictionlab.core import Grid
from frictionlab.spectral import (
    _symbols, dealias, deriv, inverse_gradient, trig_interp, wavenumbers,
)


@pytest.fixture
def g():
    return Grid.torus(64)


def test_wavenumbers_shape(g):
    k = wavenumbers(g)
    assert k.shape == (33,)
    assert k[0] == 0.0
    assert k[1] == pytest.approx(1.0)


def test_deriv_exact_on_trig(g):
    x = g.x
    np.testing.assert_allclose(deriv(np.sin(3 * x), g), 3 * np.cos(3 * x),
                               atol=1e-11)
    np.testing.assert_allclose(deriv(np.cos(x), g, order=2), -np.cos(x),
                               atol=1e-11)


def test_deriv_constant_is_zero(g):
    np.testing.assert_allclose(deriv(np.full(g.n, 4.2), g),
                               np.zeros(g.n), atol=1e-13)


def test_dealias_kills_high_modes(g):
    x = g.x
    high = np.cos(30 * x)          # above the 2/3 cutoff (n//3 = 21)
    np.testing.assert_allclose(dealias(high, g), np.zeros(g.n), atol=1e-12)
    low = np.cos(5 * x)
    np.testing.assert_allclose(dealias(low, g), low, atol=1e-12)


def test_dealias_idempotent(g):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.n)
    once = dealias(f, g)
    np.testing.assert_allclose(dealias(once, g), once, atol=1e-13)


def test_inverse_gradient_antiderivative(g):
    x = g.x
    # solves psi'' = -source with psi zero-mean; result = -psi' so that
    # d/dx(result) = -(source - mean)
    result, removed = inverse_gradient(np.cos(x), g)
    np.testing.assert_allclose(result, -np.sin(x), atol=1e-12)
    assert removed == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(deriv(result, g), -np.cos(x), atol=1e-11)


def test_inverse_gradient_removes_mean(g):
    source = 2.0 + np.sin(g.x)
    result, removed = inverse_gradient(source, g)
    assert removed == pytest.approx(2.0, abs=1e-13)
    np.testing.assert_allclose(deriv(result, g), -(source - 2.0), atol=1e-11)


def test_trig_interp_exact_at_nodes(g):
    f = np.cos(2 * g.x) + 0.3 * np.sin(5 * g.x)
    np.testing.assert_allclose(trig_interp(f, g, g.x), f, atol=1e-12)


def test_trig_interp_between_nodes(g):
    f = np.cos(2 * g.x)
    pts = np.array([0.1234, 1.9, 4.21])
    np.testing.assert_allclose(trig_interp(f, g, pts), np.cos(2 * pts),
                               atol=1e-12)


@pytest.mark.parametrize("n", [8, 9, 64, 65, 512, 2048])
def test_trig_interp_matches_dense_sum(n, dense_trig_interp):
    # full-spectrum data on a shifted cell whose length is not 2 pi, read
    # inside the cell, outside it on both sides, and at the nodes; the
    # bound is in units of sum |c_k|, the interpolant's coefficient size
    grid = Grid.torus(n, length=3.7, left=-1.3)
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n)
    span = 3.0 * grid.length
    points = np.concatenate((rng.uniform(grid.left, grid.right, 200),
                             rng.uniform(grid.left - span, grid.right + span,
                                         200),
                             grid.x))
    c = np.fft.rfft(values) / n
    c[1:(n + 1) // 2] *= 2.0
    np.testing.assert_allclose(trig_interp(values, grid, points),
                               dense_trig_interp(values, grid, points),
                               rtol=0.0, atol=1e-12 * np.abs(c).sum())
    empty = trig_interp(values, grid, np.empty(0))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_trig_interp_takes_two_phases_per_point(monkeypatch):
    # the baby and giant tables are powers of e^{i theta} and e^{ib theta}:
    # 2m cos/sin pairs, where one pair per table entry would be m(a + b)
    n = m = 512
    grid = Grid.torus(n)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(n)
    points = rng.uniform(0.0, grid.length, m)
    expected = trig_interp(values, grid, points)
    real_unit_phases = spectral._unit_phases
    handed = []

    def counting(phase):
        handed.append(np.size(phase))
        return real_unit_phases(phase)

    monkeypatch.setattr(spectral, "_unit_phases", counting)
    np.testing.assert_array_equal(trig_interp(values, grid, points), expected)
    assert 0 < sum(handed) <= 2 * m, handed


def test_trig_interp_rejects_non_1d_points(g):
    f = np.cos(g.x)
    with pytest.raises(ValueError, match="1-D"):
        trig_interp(f, g, 0.5)
    with pytest.raises(ValueError, match="1-D"):
        trig_interp(f, g, np.zeros((2, 3)))


def test_trig_interp_memory_below_one_dense_table():
    # the dense sum needs m x (n/2+1) cos and sin tables and products of
    # the same size; the baby/giant tables are m x ~sqrt(n/2) each
    n = m = 2048
    grid = Grid.torus(n)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(n)
    points = rng.uniform(0.0, grid.length, m)
    trig_interp(values, grid, points)     # one-time set-up stays out of the peak
    tracemalloc.start()
    try:
        trig_interp(values, grid, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * (n // 2 + 1) * 8, peak


@pytest.mark.parametrize("n", [64, 256, 2048])
def test_batched_fft_rows_match_single_calls(n):
    # the fused EP right side transforms stacked rows; each row must be
    # bit-identical to its own 1-D transform so that outputs do not depend
    # on how the rows are grouped
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((3, n))
    batched = np.fft.rfft(rows)
    for row, spec in zip(rows, batched):
        np.testing.assert_array_equal(spec, np.fft.rfft(row))
    back = np.fft.irfft(batched, n=n)
    for spec, row in zip(batched, back):
        np.testing.assert_array_equal(row, np.fft.irfft(spec, n=n))


def test_symbols_cached_and_read_only(g):
    sym = _symbols(g)
    assert _symbols(Grid.torus(64)) is sym
    assert sym.ik[-1] == 0.0 and sym.inv_grad[0] == 0.0
    assert sym.inv_grad[-1] == 0.0
    assert sym.keep.sum() == g.n // 3 + 1
    with pytest.raises(ValueError):
        sym.keep[0] = 0.0
