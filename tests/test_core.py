import math

import numpy as np
import pytest

from frictionlab.core import (
    MEAN_DEFECT_TOL, Field, Grid, ParamSet, _quad_weights, mean_defect,
    validate_initial_data,
)
from frictionlab.errors import (
    MeanDefect, NonFinite, RangeViolation,
)


def test_torus_grid_geometry():
    g = Grid.torus(64)
    assert g.is_torus
    assert g.n == 64
    assert g.h == pytest.approx(2.0 * math.pi / 64)
    assert g.length == pytest.approx(2.0 * math.pi)
    # torus nodes are cell midpoints starting at the left edge: x[0] = left
    assert g.x[0] == 0.0
    assert g.x[-1] == pytest.approx(2.0 * math.pi - g.h)


def test_line_grid_geometry():
    g = Grid.line(-1.0, 3.0, 81)
    assert not g.is_torus
    assert g.x[0] == -1.0
    assert g.x[-1] == 3.0
    assert g.length == pytest.approx(4.0)


def test_torus_quadrature_exact_for_cosine():
    g = Grid.torus(64)
    # midpoint rule integrates trig polynomials below Nyquist exactly
    assert g.integrate(np.cos(g.x)) == pytest.approx(0.0, abs=1e-13)
    assert g.integrate(np.cos(g.x) ** 2) == pytest.approx(math.pi, rel=1e-13)


def test_line_quadrature_trapezoid():
    g = Grid.line(0.0, 1.0, 101)
    x = g.x
    assert g.integrate(x) == pytest.approx(0.5, rel=1e-12)
    # trapezoid is second order: x^2 has h^2/6-type error, not exactness
    assert g.integrate(x * x) == pytest.approx(1.0 / 3.0, abs=1e-4)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["left", "length"])
def test_grid_rejects_non_finite_geometry(name, value):
    # a non-finite edge or period is named, not left to poison the nodes
    geometry = {"left": 0.0, "length": 2.0 * math.pi, name: value}
    with pytest.raises(ValueError, match=f"grid {name} must be finite"):
        Grid("torus", 64, **geometry)


def test_mean_defect_is_none_within_tolerance():
    g = Grid.torus(64)
    tol = MEAN_DEFECT_TOL * g.length
    assert mean_defect(g, 1.0 + 0.3 * np.cos(g.x), 1.0) is None
    assert mean_defect(g, np.full(g.n, 1.0 + 0.5 * tol / g.length), 1.0) \
        is None
    values = np.full(g.n, 1.0 + 2.0 * tol / g.length)
    assert mean_defect(g, values, 1.0) == g.integrate(values - 1.0)


@pytest.mark.parametrize("grid", [Grid.torus(64), Grid.line(0.0, 1.0, 101)])
def test_quadrature_weights_cached_and_read_only(grid):
    weights = _quad_weights(grid)
    assert _quad_weights(Grid(grid.kind, grid.n, grid.left, grid.length)) \
        is weights
    with pytest.raises(ValueError):
        weights[0] = 0.0
    # the cache changes no integral: same dot product as fresh weights
    fresh = np.full(grid.n, grid.h)
    if not grid.is_torus:
        fresh[[0, -1]] *= 0.5
    values = np.sin(3.0 * grid.x) + grid.x
    assert grid.integrate(values) == float(np.dot(fresh, values))


def test_grid_rejects_tiny_n():
    with pytest.raises(ValueError):
        Grid.torus(4)


@pytest.mark.parametrize("n", [64.5, 64.0, True, "64"])
def test_grid_rejects_a_non_integer_n(n):
    # a fractional n would give n = 64.5, 65 nodes and h = L/64.5
    with pytest.raises(ValueError, match="must be an integer"):
        Grid.torus(n)
    with pytest.raises(ValueError, match="must be an integer"):
        Grid.line(0.0, 1.0, n)
    assert Grid.torus(np.int64(64)).n == 64


def test_field_rejects_nonfinite(torus64):
    values = np.ones(torus64.n)
    values[3] = np.nan
    with pytest.raises(NonFinite):
        Field(torus64, values)


def test_density_field_rejects_negative(torus64):
    values = np.ones(torus64.n)
    values[0] = -0.01
    with pytest.raises(RangeViolation):
        Field(torus64, values, tag="density")
    # without the density tag the same samples are fine
    Field(torus64, values)


class TestParamSet:
    def test_rejects_bad_epsilon(self, torus64):
        with pytest.raises(ValueError):
            ParamSet(epsilon=1.5, alpha=1.0, gamma=2.0, mass_level=1.0,
                     rho_lower=0.25, rho_upper=2.0, grid=torus64)

    def test_rejects_inverted_band(self, torus64):
        with pytest.raises(ValueError):
            ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=3.0,
                     rho_lower=0.25, rho_upper=2.0, grid=torus64)

    def test_rejects_non_power_of_two_torus(self):
        g = Grid.torus(96)
        with pytest.raises(ValueError):
            ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                     rho_lower=0.25, rho_upper=2.0, grid=g)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
    def test_rejects_bad_t_end(self, torus64, t_end):
        with pytest.raises(ValueError, match="t_end"):
            ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                     rho_lower=0.25, rho_upper=2.0, grid=torus64, t_end=t_end)

    def test_replace(self, params):
        p2 = params.replace(epsilon=0.05)
        assert p2.epsilon == 0.05
        assert p2.gamma == params.gamma


def test_validate_equilibrium_passes(params, torus64, zero_w):
    rho0 = Field(torus64, np.ones(torus64.n), tag="density")
    assert validate_initial_data(rho0, zero_w, params) is None


def test_validate_cosine_passes(params, cosine_rho, zero_w):
    # range [0.5, 1.5] lies inside the band (0.25, 2)
    rho0 = Field(params.grid, 1.0 + 0.5 * np.cos(params.grid.x),
                 tag="density")
    assert validate_initial_data(rho0, zero_w, params) is None


def test_validate_mean_defect(params, torus64, zero_w):
    rho0 = Field(torus64, np.full(torus64.n, 1.1), tag="density")
    with pytest.raises(MeanDefect, match="mass defect"):
        validate_initial_data(rho0, zero_w, params)


def test_validate_range_violation(params, torus64, zero_w):
    # out of the band and off the mean: the range is reported first
    rho0 = Field(torus64, 1.05 + 0.9 * np.cos(torus64.x), tag="density")
    with pytest.raises(RangeViolation, match="not inside"):
        validate_initial_data(rho0, zero_w, params)
