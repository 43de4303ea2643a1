import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from frictionlab import spectral
from frictionlab.core import Grid
from frictionlab.spectral import (
    _symbols, deriv, inverse_gradient, trig_coefficients, trig_eval,
    trig_tables, wavenumbers,
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


def _keep(values, g):
    """values with the keep-mask the stepper kernels read applied."""
    return np.fft.irfft(np.fft.rfft(values) * _symbols(g).keep, n=g.n)


def test_dealias_kills_high_modes(g):
    x = g.x
    high = np.cos(30 * x)          # above the 2/3 cutoff (n//3 = 21)
    np.testing.assert_allclose(_keep(high, g), np.zeros(g.n), atol=1e-12)
    low = np.cos(21 * x)           # the highest mode kept
    np.testing.assert_allclose(_keep(low, g), low, atol=1e-12)
    np.testing.assert_array_equal(_symbols(g).keep,
                                  np.arange(33) <= 21)


def test_dealias_idempotent(g):
    keep = _symbols(g).keep
    np.testing.assert_array_equal(keep * keep, keep)
    rng = np.random.default_rng(7)
    once = _keep(rng.standard_normal(g.n), g)
    np.testing.assert_allclose(_keep(once, g), once, atol=1e-13)


def test_inverse_gradient_antiderivative(g):
    x = g.x
    # solves psi'' = -source with psi zero-mean; result = -psi' so that
    # d/dx(result) = -(source - mean)
    result = inverse_gradient(np.cos(x), g)
    np.testing.assert_allclose(result, -np.sin(x), atol=1e-12)
    np.testing.assert_allclose(deriv(result, g), -np.cos(x), atol=1e-11)


def test_inverse_gradient_removes_mean(g):
    source = 2.0 + np.sin(g.x)
    result = inverse_gradient(source, g)
    np.testing.assert_allclose(result, inverse_gradient(np.sin(g.x), g),
                               atol=1e-14)
    np.testing.assert_allclose(deriv(result, g), -(source - 2.0), atol=1e-11)


@pytest.mark.parametrize("order", [0, -1, True, False, 1.0, 2.5, "1", None])
def test_deriv_refuses_an_order_that_is_not_an_integer_from_1(g, order):
    with pytest.raises(ValueError, match=f"got {order!r}"):
        deriv(np.sin(g.x), g, order)


def test_deriv_takes_numpy_integer_orders(g):
    np.testing.assert_array_equal(deriv(np.sin(g.x), g, np.int64(2)),
                                  deriv(np.sin(g.x), g, 2))


@pytest.mark.parametrize("transform",
                         [deriv, inverse_gradient, trig_coefficients])
@pytest.mark.parametrize("shape", [(63,), (65,), (2, 32), (64, 2), ()])
def test_rows_off_the_grid_are_refused(g, transform, shape):
    with pytest.raises(ValueError, match=r"grid\.n = 64"):
        transform(np.ones(shape), g)


def test_deriv_and_inverse_gradient_take_stacked_rows_and_lists(g):
    rows = np.stack((np.sin(g.x), np.cos(2 * g.x)))
    for f in (lambda v: deriv(v, g, 3), lambda v: inverse_gradient(v, g)):
        stacked = f(rows)
        for row, out in zip(rows, stacked):
            np.testing.assert_array_equal(f(row), out)
            np.testing.assert_array_equal(f(row.tolist()), out)


def _interpolate(values, grid, points):
    """The interpolant of values read at points: trig_eval of its
    coefficients on new tables, the package's one interpolation path."""
    return trig_eval(trig_coefficients(values, grid), grid, points,
                     trig_tables(grid, points.size))


def test_trig_interp_exact_at_nodes(g):
    f = np.cos(2 * g.x) + 0.3 * np.sin(5 * g.x)
    np.testing.assert_allclose(_interpolate(f, g, g.x), f, atol=1e-12)


def test_trig_interp_between_nodes(g):
    f = np.cos(2 * g.x)
    pts = np.array([0.1234, 1.9, 4.21])
    np.testing.assert_allclose(_interpolate(f, g, pts), np.cos(2 * pts),
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
    np.testing.assert_allclose(_interpolate(values, grid, points),
                               dense_trig_interp(values, grid, points),
                               rtol=0.0, atol=1e-12 * np.abs(c).sum())
    empty = _interpolate(values, grid, np.empty(0))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_trig_interp_takes_two_phases_per_point(monkeypatch):
    # the baby and giant tables are powers of the one phase e^{i theta},
    # the giant base e^{ib theta} made from the baby table: m cos/sin
    # pairs, where one pair per table entry would be m(a + b)
    n = m = 512
    grid = Grid.torus(n)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(n)
    points = rng.uniform(0.0, grid.length, m)
    expected = _interpolate(values, grid, points)
    real_unit_phases = spectral._unit_phases
    handed = []

    def counting(phase):
        handed.append(np.size(phase))
        return real_unit_phases(phase)

    monkeypatch.setattr(spectral, "_unit_phases", counting)
    np.testing.assert_array_equal(_interpolate(values, grid, points), expected)
    assert sum(handed) == m, handed


@pytest.mark.parametrize("n", [9, 512])
def test_batched_coefficients_on_shared_tables_match_trig_interp(n):
    # the oracle's path: the coefficients of stacked rows from one batched
    # rfft and every read on one set of tables; each read is the
    # interpolant of its row alone at its points on new tables, bit for
    # bit, in a new array
    grid = Grid.torus(n, length=3.7, left=-1.3)
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((5, n))
    blocks = trig_coefficients(rows, grid)
    tables = trig_tables(grid, n)
    for j in (0, 3, 3, 4, 1):
        points = rng.uniform(grid.left - grid.length, grid.right + 1.0, n)
        got = trig_eval(blocks[j], grid, points, tables)
        assert got.tobytes() == _interpolate(rows[j], grid, points).tobytes()
        assert not any(np.shares_memory(got, t) for t in tables)


def test_trig_interp_memory_below_one_dense_table():
    # the dense sum needs m x (n/2+1) cos and sin tables and products of
    # the same size; the baby/giant tables are m x ~sqrt(n/2) each
    n = m = 2048
    grid = Grid.torus(n)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(n)
    points = rng.uniform(0.0, grid.length, m)
    _interpolate(values, grid, points)     # one-time set-up stays out of the peak
    tracemalloc.start()
    try:
        _interpolate(values, grid, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * (n // 2 + 1) * 8, peak


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [9, 64, 255, 256, 2048])
def test_batched_fft_rows_match_single_calls(n):
    # the fused EP right side transforms stacked rows; each row must be
    # bit-identical to its own 1-D transform so that outputs do not depend
    # on how the rows are grouped, and the package's seam spectral.rfft/
    # irfft must give numpy.fft's bytes on 1-D, 2-D and 3-D stacks, on the
    # strided rows (rho, bracket) u[0:4:3] that a first stage transforms,
    # and when it writes into a view
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((3, n))
    batched = np.fft.rfft(rows)
    for row, spec in zip(rows, batched):
        np.testing.assert_array_equal(spec, np.fft.rfft(row))
    back = np.fft.irfft(batched, n=n)
    for spec, row in zip(batched, back):
        np.testing.assert_array_equal(row, np.fft.irfft(spec, n=n))

    u = rng.standard_normal((5, 4, n))
    for x in (rows[0], rows, u, u[0:4:3]):
        c = np.fft.rfft(x)
        _same_bytes(spectral.rfft(x), c)
        _same_bytes(spectral.irfft(c, n), np.fft.irfft(c, n=n))
    modes = np.zeros((6, 4, n // 2 + 1), dtype=complex)
    spectral.rfft(u[0:4:3], out=modes[1:3])
    _same_bytes(modes[1:3], np.fft.rfft(u[0:4:3]))
    assert not modes[0].any() and not modes[3:].any()
    samples = np.zeros((7, 4, n))
    spectral.irfft(modes[1:3], n, out=samples[2:4])
    _same_bytes(samples[2:4], np.fft.irfft(modes[1:3], n=n))
    assert not samples[:2].any() and not samples[4:].any()
    with pytest.raises(ValueError, match="modes"):
        spectral.rfft(u, out=modes[:5, :, :-1])
    with pytest.raises(ValueError, match="samples"):
        spectral.irfft(modes, n + 1, out=samples[:6])


def test_no_module_calls_numpy_fft():
    # every transform goes through spectral.rfft/irfft, so the counters
    # and the tracer's spans on the seam see all of them: no module names
    # np.fft or imports from numpy.fft but the seam's kernels
    import frictionlab

    for path in sorted(Path(frictionlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                assert not (isinstance(node.value, ast.Name)
                            and node.value.id in ("np", "numpy")), where
            elif isinstance(node, ast.Import):
                assert all(not a.name.startswith("numpy.fft")
                           for a in node.names), where
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
                assert [a.name for a in node.names] == ["_pocketfft_umath"], \
                    where


def test_symbols_cached_and_read_only(g):
    sym = _symbols(g)
    assert _symbols(Grid.torus(64)) is sym
    assert sym.ik[-1] == 0.0 and sym.inv_grad[0] == 0.0
    assert sym.inv_grad[-1] == 0.0
    assert sym.keep.sum() == g.n // 3 + 1
    with pytest.raises(ValueError):
        sym.keep[0] = 0.0
