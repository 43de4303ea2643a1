import numpy as np
import pytest
from hypothesis import given, strategies as st

from frictionlab.core import Field, Grid
from frictionlab.errors import NotTorus
from frictionlab.ksmap import ks_map_torus
from frictionlab.profiles import bump_profile
from frictionlab.spectral import (
    deriv, trig_coefficients, trig_eval, trig_tables,
)


def test_torus_cosine(torus64):
    rho = Field(torus64, 1.0 + np.cos(torus64.x), tag="density")
    vel = ks_map_torus(rho, 1.0)
    np.testing.assert_allclose(vel.values, np.sin(torus64.x), atol=1e-12)


def test_torus_equilibrium(torus64):
    rho = Field(torus64, np.ones(torus64.n), tag="density")
    np.testing.assert_allclose(ks_map_torus(rho, 1.0).values,
                               np.zeros(torus64.n), atol=1e-14)


def test_torus_second_mode(torus64):
    rho = Field(torus64, 1.0 + np.sin(2 * torus64.x), tag="density")
    vel = ks_map_torus(rho, 1.0)
    np.testing.assert_allclose(vel.values, -np.cos(2 * torus64.x) / 2.0,
                               atol=1e-12)


def test_torus_derivative_consistency(torus64):
    rho = Field(torus64, 1.0 + 0.2 * np.cos(torus64.x)
                + 0.1 * np.sin(4 * torus64.x), tag="density")
    v = ks_map_torus(rho, 1.0)
    np.testing.assert_allclose(deriv(v.values, torus64),
                               rho.values - 1.0, atol=1e-10)


def test_torus_rejects_line_grid():
    g = Grid.line(0.0, 1.0, 33)
    with pytest.raises(NotTorus):
        ks_map_torus(Field(g, np.ones(33), tag="density"), 1.0)


@given(a=st.floats(-0.4, 0.4), b=st.floats(-0.4, 0.4))
def test_torus_map_linearity(a, b):
    g = Grid.torus(64)
    f1 = np.cos(g.x)
    f2 = np.sin(3 * g.x)
    combined = ks_map_torus(Field(g, 1.0 + a * f1 + b * f2), 1.0).values
    separate = (a * ks_map_torus(Field(g, 1.0 + f1), 1.0).values
                + b * ks_map_torus(Field(g, 1.0 + f2), 1.0).values)
    np.testing.assert_allclose(combined, separate, atol=1e-13)


def test_torus_line_agreement_for_compact_bump():
    # the bump profile has zero-mean deviation, so the periodic inversion
    # gives the line velocity v = F, the profile's closed-form cumulative
    M = 1.0
    prof = bump_profile(M)
    gt = Grid.torus(256)
    x = np.linspace(0.0, 2.0 * np.pi, 4097)
    vt = ks_map_torus(Field(gt, prof.sigma0(gt.x), tag="density"), M)
    v_at_x = trig_eval(trig_coefficients(vt.values, gt), gt, x,
                       trig_tables(gt, x.size))
    np.testing.assert_allclose(v_at_x, prof.cumulative(x), atol=1e-5)
