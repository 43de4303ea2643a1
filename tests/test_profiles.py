import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frictionlab import profiles
from frictionlab.core import MEAN_DEFECT_TOL, Grid
from frictionlab.errors import MeanDefect, RangeViolation
from frictionlab.profiles import (
    PROFILES, bump_profile, cosine_profile, equilibrium_profile,
    profile_field, profile_line, vacuum_ramp_profile,
)


def test_equilibrium_profile_flat():
    prof = equilibrium_profile(1.5)
    x = np.linspace(*prof.domain, 101)
    np.testing.assert_allclose(prof.sigma0(x), 1.5)
    np.testing.assert_allclose(prof.cumulative(x), 0.0)
    assert prof.vacuum_set == () and prof.edge_jet == ()


class TestCosineProfile:
    def test_closed_forms(self):
        prof = cosine_profile(1.0, amp=0.3, k=2)
        x = np.linspace(*prof.domain, 2001)
        np.testing.assert_array_equal(prof.sigma0(x), 1.0 + 0.3 * np.cos(2 * x))
        np.testing.assert_allclose(prof.cumulative(x), 0.15 * np.sin(2 * x))
        assert np.max(np.abs(prof.cumulative(x))) <= prof.max_abs_F
        assert prof.vacuum_set == () and prof.edge_jet == ()
        prof.check()

    def test_cumulative_is_antiderivative(self):
        prof = cosine_profile(1.0, amp=0.3, k=3)
        x = np.linspace(0.5, 5.5, 2001)
        dF = np.gradient(prof.cumulative(x), x, edge_order=2)
        np.testing.assert_allclose(dF, prof.sigma0(x) - 1.0, atol=5e-5)

    def test_rejects_negative_density(self):
        with pytest.raises(RangeViolation):
            cosine_profile(1.0, amp=-1.2)

    @pytest.mark.parametrize("k", [1.5, 0, -1, math.inf, math.nan])
    def test_rejects_a_wavenumber_that_is_not_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="wavenumber"):
            cosine_profile(1.0, k=k)

    @pytest.mark.parametrize("k", [True, 2.0])
    def test_rejects_a_bool_or_float_wavenumber(self, k):
        # an integral float or a bool is not an integer wavenumber
        with pytest.raises(ValueError, match="wavenumber k must be"):
            cosine_profile(1.0, k=k)


class TestBumpProfile:
    def test_mass_balance(self):
        prof = bump_profile(1.0)
        assert abs(prof.cumulative(np.array([prof.domain[1]]))[0]) <= 1e-10

    def test_cumulative_is_antiderivative(self):
        prof = bump_profile(1.0, amp=0.3)
        x = np.linspace(0.5, 5.5, 2001)
        F = prof.cumulative(x)
        dF = np.gradient(F, x)
        np.testing.assert_allclose(dF, prof.sigma0(x) - 1.0, atol=5e-5)

    def test_stays_positive(self):
        prof = bump_profile(1.0, amp=0.45)
        x = np.linspace(*prof.domain, 4001)
        assert prof.sigma0(x).min() > 0.0

    def test_rejects_vacuum_forming_amplitude(self):
        with pytest.raises(RangeViolation):
            bump_profile(1.0, amp=1.7)

    @pytest.mark.parametrize("amp", [-1.0, -1.5, -3.0])
    def test_rejects_a_negative_amplitude_that_empties_the_centre(self, amp):
        # sigma0 = M + amp at the centre: amp = -1.5 once built a profile
        # whose trajectories crossed (Jacobian -0.165 at tau = 1.5)
        with pytest.raises(RangeViolation):
            bump_profile(1.0, amp=amp)
        prof = bump_profile(1.0, amp=0.99 * amp / -amp)
        assert prof.sigma0(np.array([math.pi]))[0] == pytest.approx(0.01)

    @pytest.mark.parametrize("amp, radius", [(0.45, 1.2), (-0.8, 0.7)])
    def test_max_abs_F_is_the_exact_maximum(self, amp, radius):
        # max |u(1 - u^2)^3| is 216/(343 sqrt 7) = 0.238 at u = 1/sqrt(7);
        # 0.3932 overstated it by 65%
        prof = bump_profile(1.0, amp=amp, radius=radius)
        x = np.linspace(*prof.domain, 200_001)
        sampled = np.abs(prof.cumulative(x)).max()
        assert sampled <= prof.max_abs_F
        assert prof.max_abs_F - sampled < 1e-6 * sampled

    @pytest.mark.parametrize("radius", [0, 0.0, -0.5])
    def test_rejects_a_radius_that_is_not_positive(self, radius):
        # radius 0 divided by zero and built the flat equilibrium
        with pytest.raises(ValueError, match="bump radius must be > 0"):
            bump_profile(1.0, radius=radius)


class TestVacuumRamp:
    @pytest.mark.parametrize("touch", [1, 2, 3])
    def test_vacuum_on_unit_interval(self, touch):
        prof = vacuum_ramp_profile(1.0, touch=touch)
        assert prof.vacuum_set == ((0.0, 1.0),)
        x = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(prof.sigma0(x), 0.0, atol=1e-15)

    def test_nonnegative_everywhere(self):
        prof = vacuum_ramp_profile(1.0)
        x = np.linspace(*prof.domain, 8001)
        assert prof.sigma0(x).min() >= -1e-12

    def test_mass_balance(self):
        for M in (0.5, 1.0, 2.0):
            prof = vacuum_ramp_profile(M, touch=2)
            assert abs(prof.cumulative(np.array([prof.domain[1]]))[0]) \
                <= 1e-8 * M

    def test_default_f0_skips_left_bump(self):
        # with F0 = -(ramp deficit) the left compensating bump vanishes
        prof = vacuum_ramp_profile(1.0, width=0.5, touch=1)
        F0 = float(prof.cumulative(np.array([0.0]))[0])
        assert F0 == pytest.approx(-1.0 * 0.5 * 1.0 / 3.0, rel=1e-12)

    def test_requested_f0_reached(self):
        prof = vacuum_ramp_profile(1.0, f0=-0.3)
        assert float(prof.cumulative(np.array([0.0]))[0]) == \
            pytest.approx(-0.3, abs=1e-12)

    @pytest.mark.parametrize("touch", [1, 2, 3])
    def test_edge_derivatives_one_sided(self, touch):
        w = 0.5
        prof = vacuum_ramp_profile(1.0, width=w, touch=touch)
        # orders below the touch order vanish at the right edge
        assert len(prof.edge_jet) == touch
        assert prof.edge_jet[:-1] == (0.0,) * (touch - 1)
        expected = math.factorial(touch + 1) / w ** touch
        assert prof.edge_jet[-1] == pytest.approx(expected, rel=1e-12)
        # the right ramp's one-sided difference quotients from b0 = 1
        h = 1e-4
        fd = prof.sigma0(1.0 + h * np.arange(touch + 1))
        for _ in range(touch):
            fd = np.diff(fd)
        assert fd[0] / h**touch == pytest.approx(expected, rel=1e-2)

    def test_cumulative_matches_quadrature(self):
        prof = vacuum_ramp_profile(1.0, touch=2)
        a, b = prof.domain
        x = np.linspace(a, b, 40001)
        dev = prof.sigma0(x) - 1.0
        F_quad = np.concatenate([[0.0], np.cumsum(
            0.5 * (dev[1:] + dev[:-1]) * np.diff(x))])
        np.testing.assert_allclose(prof.cumulative(x), F_quad, atol=5e-8)

    def test_rejects_too_negative_f0(self):
        with pytest.raises(RangeViolation):
            vacuum_ramp_profile(1.0, f0=-5.0)

    @pytest.mark.parametrize("touch", [1.5, 0, -1, math.inf, math.nan])
    def test_rejects_a_touch_that_is_not_a_positive_integer(self, touch):
        with pytest.raises(ValueError, match="touch order"):
            vacuum_ramp_profile(1.0, touch=touch)

    @pytest.mark.parametrize("touch", [True, 2.0])
    def test_rejects_a_bool_or_float_touch(self, touch):
        # True is not touch order 1 and 2.0 is not touch order 2
        with pytest.raises(ValueError, match="touch order must be"):
            vacuum_ramp_profile(1.0, touch=touch)


# (center, radius, height) of quartic bumps: the default ramp's right bump,
# a negative left bump, and two off-scale ones
BUMPS = [(2.25, 0.5, 2.5), (-1.0, 0.5, -0.3), (0.3, 1.7, 11.3),
         (5.0, 0.1, 0.07)]


@pytest.mark.parametrize("c, r, h", BUMPS)
@settings(max_examples=200, deadline=None)
@given(t=st.floats(-2.0, 2.0))
def test_bump_integral_matches_exact_arithmetic(c, r, h, t):
    # h r (u - 2u^3/3 + u^5/5 + 8/15) of the computed u, in exact
    # arithmetic, within 4 ulps of the full integral h r 16/15; where
    # |u| = 1 the products equal numpy's powers bit for bit
    x = np.array([c + t * r])
    u = np.clip((x - c) / r, -1.0, 1.0)
    got = profiles._quartic_bump_cum(x, c, r, h)[0]
    U = Fraction(float(u[0]))
    exact = Fraction(h) * Fraction(r) * (
        U - 2 * U**3 / 3 + U**5 / 5 + Fraction(8, 15))
    assert abs(Fraction(float(got)) - exact) <= 4 * math.ulp(h * r * 16 / 15)
    if abs(u[0]) == 1.0:
        powers = h * r * (u - 2.0 * u**3 / 3.0 + u**5 / 5.0 + 8.0 / 15.0)
        assert got == powers[0]


def _ramp_profile_old_forms(M, width, f0, k):
    """The vacuum ramp's sigma0 and cumulative as they read before the
    ramp powers were evaluated on t > 0 only and zero-height bumps
    skipped: every power over the whole clipped t, both bumps always."""
    w = float(width)
    deficit = M * w * k / (k + 2.0)
    f0 = -deficit if f0 is None else f0
    r = profiles.RAMP_BUMP_RADIUS
    h_left = 15.0 * (f0 + deficit) / (16.0 * r)
    h_right = 15.0 * (M + deficit - f0) / (16.0 * r)
    c_left = -w - profiles.RAMP_GAP - r
    c_right = 1.0 + w + profiles.RAMP_GAP + r

    def ramp(t):
        t = np.clip(t, 0.0, 1.0)
        return (k + 1.0) * t**k - k * t ** (k + 1.0)

    def ramp_cum(t):
        t = np.clip(t, 0.0, 1.0)
        return t ** (k + 1.0) - k * t ** (k + 2.0) / (k + 2.0)

    def sigma0(x):
        out = np.full_like(x, M)
        out = out + profiles._quartic_bump(x, c_left, r, h_left)
        out = out + profiles._quartic_bump(x, c_right, r, h_right)
        out = np.where((x >= -w) & (x < 0.0), M * ramp(-x / w), out)
        out = np.where((x > 1.0) & (x <= 1.0 + w), M * ramp((x - 1.0) / w),
                       out)
        return np.where((x >= 0.0) & (x <= 1.0), 0.0, out)

    def cumulative(x):
        out = profiles._quartic_bump_cum(x, c_left, r, h_left)
        out = out + profiles._quartic_bump_cum(x, c_right, r, h_right)
        t_left = np.clip(-x / w, 0.0, 1.0)
        out = out + M * w * ((2.0 / (k + 2.0) - ramp_cum(t_left))
                             - (1.0 - t_left))
        out = out - M * np.clip(x, 0.0, 1.0)
        t_right = np.clip((x - 1.0) / w, 0.0, 1.0)
        return out + M * w * (ramp_cum(t_right) - t_right)

    return sigma0, cumulative, (c_left, c_right, h_left)


@pytest.mark.parametrize("M, width, f0, k", [
    (1.0, 0.5, None, 1), (1.0, 0.45, None, 2), (0.7, 0.55, None, 3),
    (1.0, 0.5, 0.2, 1), (1.3, 0.3, -0.6, 2)])
def test_ramp_profile_matches_its_old_forms_bit_for_bit(M, width, f0, k):
    # powers on t > 0 only and skipped zero-height bumps leave every bit,
    # the sign of a zero included, of sigma0 and cumulative as they were;
    # f0 = 0.2 and -0.6 give a left bump of either sign
    prof = vacuum_ramp_profile(M, width=width, f0=f0, touch=k)
    sigma0, cumulative, (c_left, c_right, h_left) = _ramp_profile_old_forms(
        M, width, f0, k)
    assert (h_left == 0.0) == (f0 is None)
    lo, hi = prof.domain
    edges = [0.0, -0.0, 1.0, -width, 1.0 + width, lo, hi]
    for c in (c_left, c_right):
        edges += [c - 0.5, c, c + 0.5]
    x = np.concatenate((np.linspace(lo - 1.0, hi + 1.0, 8193), edges,
                        np.nextafter(edges, math.inf),
                        np.nextafter(edges, -math.inf)))
    for new, old in ((prof.sigma0, sigma0), (prof.cumulative, cumulative)):
        assert new(x).tobytes() == old(x).tobytes()
        for point in edges:
            assert new(np.float64(point)).tobytes() == \
                old(np.float64(point)).tobytes()


def test_registry_names():
    assert PROFILES == {"equilibrium": equilibrium_profile,
                        "cosine": cosine_profile, "bump": bump_profile,
                        "vacuum-ramp": vacuum_ramp_profile}


def test_profile_field_cosine():
    # a zero-mean sampling is left exactly as sampled
    g = Grid.torus(64)
    f = profile_field("cosine", g, 1.0, amp=0.2, k=2)
    np.testing.assert_array_equal(f.values, 1.0 + 0.2 * np.cos(2 * g.x))


@pytest.mark.parametrize("n", [64, 128, 512, 4096])
def test_profile_field_removes_the_sampled_mean_defect(n):
    # the bump's deviation has zero mean exactly but not on the grid:
    # 2.3e-4 at n = 64 to 8.0e-10 at n = 4096, above the tolerance
    g = Grid.torus(n)
    sampled = bump_profile(1.0).sigma0(g.x)
    assert abs(g.integrate(sampled - 1.0)) > MEAN_DEFECT_TOL * g.length
    f = profile_field("bump", g, 1.0)
    assert abs(g.integrate(f.values - 1.0)) <= MEAN_DEFECT_TOL * g.length
    shift = f.values - sampled
    np.testing.assert_allclose(shift, shift[0], rtol=0.0, atol=1e-15)


def test_profile_field_rejects_a_deviation_that_is_not_mean_zero():
    # the default ramp's deviation integrates to 1/6 over [0, 2 pi]
    with pytest.raises(MeanDefect, match="integrates to 0.1667"):
        profile_field("vacuum-ramp", Grid.torus(64), 1.0)


def test_profile_field_unknown_name():
    g = Grid.torus(64)
    with pytest.raises(KeyError):
        profile_field("sawtooth", g, 1.0)


def test_profile_line_cosine():
    prof = profile_line("cosine", 1.0, amp=0.2, k=2)
    assert (prof.M, prof.label, prof.max_abs_F) == (1.0, "cosine", 0.1)


@pytest.mark.parametrize("name, args", [
    ("vacuum-ramp", {"widht": 0.7}), ("cosine", {"radius": 1.0}),
    ("equilibrium", {"amp": 0.3})])
def test_unknown_profile_argument_is_rejected(name, args):
    with pytest.raises(ValueError, match=f"profile {name!r}"):
        profile_line(name, 1.0, **args)
    with pytest.raises(ValueError, match=f"profile {name!r}"):
        profile_field(name, Grid.torus(64), 1.0, **args)


def test_vacuum_ramp_takes_f0_by_its_config_name():
    prof = profile_line("vacuum-ramp", 1.0, f0=-0.3)
    assert float(prof.cumulative(np.array([0.0]))[0]) == \
        pytest.approx(-0.3, abs=1e-12)


@pytest.mark.parametrize("name, key", [
    ("bump", "radius"), ("bump", "center"), ("cosine", "amp"),
    ("vacuum-ramp", "f0"), ("vacuum-ramp", "width")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_profile_argument_is_rejected(name, key, value):
    # a NaN or infinite argument is refused, not built into a NaN profile
    # or a silent equilibrium
    with pytest.raises(ValueError, match=f"argument {key!r} must be finite"):
        profile_line(name, 1.0, **{key: value})
