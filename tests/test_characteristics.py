import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frictionlab import characteristics
from frictionlab.core import Field, Grid, KSState, ParamSet
from frictionlab.characteristics import (
    dxeta, edge_derivative_along, invert_trajectory_map,
    reconstruct_eulerian, semi_lagrangian_oracle, sigma_along,
    trajectory_position, trajectory_rows, vacuum_interval, velocity_along,
)
from frictionlab.errors import (
    InversionFailure, MultipleVacuumIntervals, NoVacuum,
    PreconditionViolation, VacuumApproach,
)
from frictionlab.experiments import FD_WINDOW_SCALE, _edge_derivatives_fd
from frictionlab.profiles import (
    bump_profile, equilibrium_profile, vacuum_ramp_profile,
)
from frictionlab.spectral import trig_eval


@pytest.fixture(scope="module")
def ramp():
    return vacuum_ramp_profile(1.0)


def rk4_logistic(sigma0, M, tau, n=20000):
    """Independent fixed-step RK4 for d(sigma)/dtau = -sigma (sigma - M)."""
    f = lambda s: -s * (s - M)
    s = float(sigma0)
    dt = tau / n if n else 0.0
    for _ in range(n):
        k1 = f(s)
        k2 = f(s + 0.5 * dt * k1)
        k3 = f(s + 0.5 * dt * k2)
        k4 = f(s + dt * k3)
        s += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


def test_velocity_closed_form(ramp):
    x = np.array([-0.8])
    F = ramp.cumulative(x)
    np.testing.assert_allclose(velocity_along(x, 0.0, ramp), F, rtol=1e-12)
    np.testing.assert_allclose(velocity_along(x, math.log(2.0), ramp),
                               0.5 * F, rtol=1e-12)


def test_velocity_zero_for_equilibrium():
    prof = equilibrium_profile(1.0)
    np.testing.assert_array_equal(
        velocity_along(np.array([2.0]), 1.3, prof), 0.0)


def test_trajectory_closed_form_and_limit(ramp):
    x = np.array([0.0])
    F0 = float(ramp.cumulative(x)[0])
    assert trajectory_position(x, math.log(2.0), ramp)[0] == \
        pytest.approx(0.0 + 0.5 * F0)
    assert trajectory_position(x, math.inf, ramp)[0] == \
        pytest.approx(F0)


def test_trajectory_vs_rk4_of_velocity(ramp):
    # eta solves d(eta)/dtau = v(eta, tau) with v along the flow known in
    # closed form; integrate the ODE independently and compare
    M, x0, tau_end = 1.0, -0.7, 1.5
    F = lambda x: float(ramp.cumulative(np.array([x]))[0])
    n = 4000
    dt = tau_end / n
    eta = x0
    # velocity field at (y, tau) equals e^{-M tau} F(label of y); along the
    # trajectory the label is constant, so v(eta(tau), tau) = e^{-tau} F(x0)
    for i in range(n):
        t = i * dt
        k1 = math.exp(-t) * F(x0)
        k2 = math.exp(-(t + dt / 2)) * F(x0)
        k4 = math.exp(-(t + dt)) * F(x0)
        eta += (dt / 6.0) * (k1 + 4 * k2 + k4)
    assert trajectory_position(np.array([x0]), tau_end, ramp)[0] == \
        pytest.approx(eta, abs=1e-10)


def test_trajectories_order_preserving(ramp):
    labels = np.linspace(ramp.domain[0], ramp.domain[1], 301)
    for tau in (0.1, 1.0, 10.0):
        eta = trajectory_position(labels, tau, ramp)
        assert np.all(np.diff(eta) > 0.0)
    # near the horizon vacuum labels coincide to machine precision: the
    # exact spacing h*e^{-49} sits far below one ulp of eta, so order is
    # preserved only up to rounding noise
    eta = trajectory_position(labels, 49.0, ramp)
    assert np.all(np.diff(eta) >= -1e-15)


@pytest.mark.parametrize("sigma0,tau,expected", [
    (0.5, math.log(3.0), 0.75),
    (0.1, 1.0, 0.23196931668407),
    (2.0, 1.0, 1.22539967356056),
    (0.5, 10.0, 0.99995460213130),
])
def test_logistic_closed_form_frozen(sigma0, tau, expected):
    value = _logistic_via_sigma_along(sigma0, tau, M=1.0)
    assert value == pytest.approx(expected, abs=1e-12)


def _logistic_via_sigma_along(sigma0, tau, M):
    """Evaluate sigma_along on a stub profile pinned at sigma0."""
    from frictionlab.profiles import InitialProfile
    stub = InitialProfile(
        M=M,
        sigma0=lambda x: np.full_like(np.asarray(x, dtype=float), sigma0),
        cumulative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        vacuum_set=((0.0, 1.0),) if sigma0 == 0.0 else (),
        domain=(0.0, 1.0),
        max_abs_F=0.0,
        label="stub",
    )
    return sigma_along(np.array([0.5]), tau, stub)[0]


@pytest.mark.parametrize("sigma0", [0.0, 0.1, 0.5, 1.0, 2.0])
def test_logistic_matches_rk4(sigma0):
    for tau in (0.3, 1.0, 4.0, 10.0):
        closed = _logistic_via_sigma_along(sigma0, tau, M=1.0)
        assert closed == pytest.approx(rk4_logistic(sigma0, 1.0, tau),
                                       abs=1e-10)


@given(sigma0=st.floats(1e-3, 3.0), tau=st.floats(0.0, 20.0))
def test_logistic_bounds_property(sigma0, tau):
    M = 1.0
    value = _logistic_via_sigma_along(sigma0, tau, M)
    floor = min(sigma0, M)
    assert value >= floor - 1e-12
    assert abs(value - M) <= math.exp(-floor * tau) * abs(sigma0 - M) + 1e-12


def test_vacuum_interval_laws(ramp):
    rep0 = vacuum_interval([0.0], ramp)[0]
    assert rep0.length == pytest.approx(1.0)
    rep = vacuum_interval([math.log(2.0)], ramp)[0]
    assert rep.length == pytest.approx(0.5, rel=1e-14)
    assert rep.b - rep.a == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("tau", [math.nan, -1.0, -1e-300])
def test_tau_must_be_a_time(ramp, tau):
    # a negative tau used to give a vacuum longer than at tau = 0, and a
    # NaN used to give NaN edges, derivatives and rows
    with pytest.raises(ValueError,
                       match=f"tau must be >= 0, got {tau} at index 2 of"):
        vacuum_interval([0.0, 1.0, tau], ramp)
    with pytest.raises(ValueError, match=f"tau must be >= 0, got {tau}"):
        edge_derivative_along(2, tau, ramp)
    with pytest.raises(ValueError, match=f"tau must be >= 0, got {tau}"):
        trajectory_rows(np.array([-0.25, 0.5]), [1.0, tau], ramp)
    # sigma_along at label -0.25 and tau = -1 gave a negative density
    # (-1.699), dxeta a negative Jacobian, and trajectory_position at
    # label 0 and tau = -1 gave 0.2864
    for along in (sigma_along, dxeta, velocity_along, trajectory_position):
        with pytest.raises(ValueError, match=f"tau must be >= 0, got {tau}"):
            along(np.array([-0.25, 2.0]), tau, ramp)


def test_trajectory_position_takes_one_tau(ramp):
    # an array of taus, one per label, once gave 23.27 at label 1 and
    # tau = -3 unchecked; rows at taus of their own are inverted by
    # invert_trajectory_map
    with pytest.raises(TypeError):
        trajectory_position(np.array([0.0, 1.0]), np.array([0.5, -3.0]), ramp)


@pytest.mark.parametrize("k", [0, -1, True, 1.5, 2.0])
@pytest.mark.parametrize("vacuum", [True, False], ids=["vacuum", "no-vacuum"])
def test_derivative_order_must_be_an_integer(ramp, k, vacuum):
    # True used to be taken as order 1, and 1.5 or 2.0 raised a bare
    # TypeError; the order is checked before the profile's edge jet
    prof = ramp if vacuum else bump_profile(1.0)
    with pytest.raises(ValueError,
                       match=f"order must be an integer >= 1, got {k!r}"):
        edge_derivative_along(k, 1.0, prof)


def test_infinite_tau_is_the_limit(ramp):
    rep = vacuum_interval([math.inf], ramp)[0]
    assert rep.length == 0.0
    assert rep.a == pytest.approx(rep.limit_point, abs=1e-12)
    assert rep.b == pytest.approx(rep.limit_point, abs=1e-12)
    assert edge_derivative_along(1, math.inf, ramp) == math.inf
    (row,) = trajectory_rows(np.array([0.5]), [math.inf], ramp)
    assert row[1] == math.inf
    assert row[2] == pytest.approx(rep.limit_point, abs=1e-12)
    assert row[3:] == [0.0, 0.0, 0.0]
    # along a trajectory: the density M off vacuum and 0 on it, the
    # Jacobian sigma0/M and the velocity 0
    labels = np.array([-0.25, 0.5, 2.0])
    s0 = ramp.sigma0(labels)
    np.testing.assert_array_equal(sigma_along(labels, math.inf, ramp),
                                  np.where(s0 > 0.0, ramp.M, 0.0))
    np.testing.assert_array_equal(dxeta(labels, math.inf, ramp), s0 / ramp.M)
    np.testing.assert_array_equal(velocity_along(labels, math.inf, ramp), 0.0)


def test_vacuum_limit_point_matches_f0():
    prof = vacuum_ramp_profile(1.0, f0=-0.3)
    rep = vacuum_interval([2.0], prof)[0]
    assert rep.limit_point == pytest.approx(-0.3, abs=1e-12)


def test_vacuum_intervals_of_a_list_are_its_one_tau_reports():
    # both edges at every tau and the limit point come from one eta
    # evaluation; each report is the one-tau report bit for bit
    prof = vacuum_ramp_profile(1.0, width=0.45, touch=2)
    taus = [0.0, 0.5, 1.0, 3.0, 49.9, 60.0, math.inf]
    reports = vacuum_interval(taus, prof)
    assert len(reports) == len(taus)
    for tau, rep in zip(taus, reports):
        assert rep == vacuum_interval([tau], prof)[0], tau
    assert vacuum_interval([], prof) == []


def test_stacked_densities_are_sigma_along_row_by_row(ramp):
    # one density pass over a stack, one decay e^{-M tau} per row, gives
    # each row sigma_along at its tau bit for bit, the limit rows included
    taus = [0.0, 0.5, 1.0, 5.0, 49.9, 60.0, math.inf]
    labels = np.stack([np.linspace(-2.0 + 0.1 * i, 3.0 - 0.2 * i, 257)
                       for i in range(len(taus))])
    stacked = characteristics._density(
        labels, characteristics._decays(taus, ramp.M), ramp)
    for row, tau, got in zip(labels, taus, stacked):
        assert np.array_equal(got, sigma_along(row, tau, ramp)), tau


def test_vacuum_interval_requires_vacuum():
    with pytest.raises(NoVacuum):
        vacuum_interval([1.0], bump_profile(1.0))


def test_vacuum_interval_refuses_two_intervals(ramp):
    from dataclasses import replace
    two = replace(ramp, vacuum_set=((0.0, 0.4), (0.6, 1.0)))
    with pytest.raises(MultipleVacuumIntervals):
        vacuum_interval([1.0], two)


def test_edge_gradient_growth(ramp):
    d0 = edge_derivative_along(1, 0.0, ramp)
    d = edge_derivative_along(1, math.log(2.0), ramp)
    assert d / d0 == pytest.approx(4.0, rel=1e-13)  # e^{2 M tau}


def test_higher_order_growth_law():
    prof = vacuum_ramp_profile(1.0, touch=2)
    d0 = edge_derivative_along(2, 0.0, prof)
    d = edge_derivative_along(2, math.log(2.0), prof)
    assert d / d0 == pytest.approx(8.0, rel=1e-13)  # e^{3 M tau}


def test_orders_below_the_touch_order_vanish():
    prof = vacuum_ramp_profile(1.0, touch=3)
    for tau in (0.0, 1.0, math.inf):
        assert edge_derivative_along(1, tau, prof) == 0.0
        assert edge_derivative_along(2, tau, prof) == 0.0
    assert edge_derivative_along(3, math.inf, prof) == math.inf


def test_growth_past_the_float_range_is_infinite():
    # e^{2 M tau} overflows a float past tau ~ 355 and e^{4 M tau} past
    # ~ 177: math.exp raised OverflowError at tau = 400, where tau = inf
    # gave inf
    for touch, below in ((1, 300.0), (3, 150.0)):
        prof = vacuum_ramp_profile(1.0, touch=touch)
        assert edge_derivative_along(touch, 400.0, prof) == math.inf
        assert edge_derivative_along(touch, below, prof) < math.inf
    assert edge_derivative_along(1, 400.0,
                                 vacuum_ramp_profile(1.0, touch=3)) == 0.0


def test_growth_law_precondition(ramp):
    # touch-1 profile has nonvanishing first derivative at the edge, so
    # the second-order law does not apply there
    with pytest.raises(PreconditionViolation):
        edge_derivative_along(2, 1.0, ramp)


def test_edge_derivative_needs_a_vacuum_edge():
    with pytest.raises(NoVacuum, match="has no vacuum edge"):
        edge_derivative_along(1, 1.0, bump_profile(1.0))


def test_dxeta_positive(ramp):
    labels = np.linspace(ramp.domain[0], ramp.domain[1], 101)
    for tau in (0.0, 1.0, 5.0):
        assert np.all(dxeta(labels, tau, ramp) > 0.0)


def test_reconstruct_equilibrium():
    prof = equilibrium_profile(1.0)
    g = Grid.line(0.0, 2.0, 129)
    (state,) = reconstruct_eulerian([1.0], prof, g)
    np.testing.assert_allclose(state.sigma.values, 1.0, atol=1e-12)


def test_reconstruct_matches_flow(ramp):
    # push labels forward, then invert: values must agree along positions
    tau = 1.0
    labels = np.linspace(-1.5, 2.0, 41)
    pos = trajectory_position(labels, tau, ramp)
    g = Grid.line(float(pos[0]), float(pos[-1]), 4097)
    (state,) = reconstruct_eulerian([tau], ramp, g)
    expected = sigma_along(labels, tau, ramp)
    sampled = np.interp(pos, g.x, state.sigma.values)
    # linear resampling costs ~h^2 sigma'' and the edge has steepened
    np.testing.assert_allclose(sampled, expected, atol=1e-4)


def test_reconstructed_vacuum_gap(ramp):
    tau = 3.0
    g = Grid.line(ramp.domain[0], ramp.domain[1], 4096)
    (state,) = reconstruct_eulerian([tau], ramp, g)
    gap_cells = np.flatnonzero(state.sigma.values <= 1e-9)
    measured = g.x[gap_cells[-1]] - g.x[gap_cells[0]] + g.h
    assert abs(measured - math.exp(-3.0)) <= g.h


@settings(max_examples=30, deadline=None)
@given(width=st.floats(0.4, 1.0), touch=st.integers(1, 2),
       tau=st.floats(0.0, 3.0))
def test_edge_labels_match_the_full_grid(width, touch, tau):
    # the edge finite difference inverts only the order + 1 nodes its
    # stencil reads: their labels must be the full grid's, bit for bit,
    # and so must the difference itself
    M = 1.0
    prof = vacuum_ramp_profile(M, width=width, touch=touch)
    b = vacuum_interval([tau], prof)[0].b
    (a0, b0), = prof.vacuum_set
    n = 2048
    grid = Grid.line(b, b + FD_WINDOW_SCALE * (b0 - a0) * math.exp(-2.0 * M * tau), n)
    (full,) = invert_trajectory_map(grid.x[None], [tau], prof)
    (part,) = invert_trajectory_map(grid.x[None, :touch + 1], [tau], prof)
    assert np.array_equal(part, full[:touch + 1])
    (state,) = reconstruct_eulerian([tau], prof, grid)
    stencil = state.sigma.values[:touch + 1]
    for _ in range(touch):
        stencil = np.diff(stencil)
    assert _edge_derivatives_fd(prof, [tau], [b], touch) == \
        [float(stencil[0] / grid.h ** touch)]


@st.composite
def inversion_cases(draw):
    """A line profile and a stack of 1-4 rows of sorted target positions,
    each row at its own tau: the 2048-node grid of the vacuum table, or
    1-3 evenly spaced targets starting anywhere in the domain or at an
    image of a vacuum edge, where the edge finite difference puts its
    stencil."""
    M = 1.0
    kind = draw(st.sampled_from(["vacuum-ramp", "bump", "equilibrium"]))
    if kind == "vacuum-ramp":
        prof = vacuum_ramp_profile(M, width=draw(st.floats(0.4, 1.0)),
                                   touch=draw(st.integers(1, 3)))
    else:
        prof = bump_profile(M) if kind == "bump" else equilibrium_profile(M)
    size = draw(st.sampled_from([1, 2, 3, 2048]))
    lo, hi = prof.domain
    taus, rows = [], []
    for _ in range(draw(st.integers(1, 4))):
        tau = draw(st.one_of(st.floats(0.0, 6.0),
                             st.sampled_from([30.0, 49.9, 60.0, math.inf])))
        if size == 2048:
            y = Grid.line(lo, hi, size).x
        else:
            starts = [st.floats(lo, hi)]
            if prof.vacuum_set:
                rep = vacuum_interval([tau], prof)[0]
                starts.append(st.sampled_from([rep.a, rep.b]))
            start = draw(st.one_of(*starts))
            step = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.5]))
            y = start + step * np.arange(size)
        taus.append(tau)
        rows.append(y)
    return prof, taus, np.stack(rows)


@settings(max_examples=60, deadline=None)
@given(case=inversion_cases())
def test_inversion_is_bit_identical_to_plain_bisection(case, plain_bisection):
    # every row of the stack gets the labels of its own plain bisection,
    # and so does a row inverted alone, as a one-row stack
    prof, taus, y = case
    labels = invert_trajectory_map(y, taus, prof)
    assert labels.shape == y.shape
    for row, tau, got in zip(y, taus, labels):
        assert np.array_equal(got, plain_bisection(row, tau, prof))
    assert np.array_equal(invert_trajectory_map(y[:1], taus[:1], prof),
                          labels[:1])


def test_one_stack_at_five_taus_inverts_each_row_alone(ramp):
    # the certified guesses of a stack are made together: the samples in
    # chunks of rows, each Newton step and the residual over the paying
    # rows at once.  At tau = 40 and inf the guess cannot pay: it is y
    # with radius inf, and every decision is evaluated
    taus = [0.0, 1.0, 5.0, 40.0, math.inf]
    grid = Grid.line(ramp.domain[0], ramp.domain[1], 2048)
    y = np.broadcast_to(grid.x, (len(taus), grid.n))
    labels = invert_trajectory_map(y, taus, ramp)
    for row, tau, got in zip(y, taus, labels):
        (alone,) = invert_trajectory_map(row[None], [tau], ramp)
        assert np.array_equal(got, alone), tau
    c = ramp.max_abs_F / ramp.M + 1.0
    guess, tol = characteristics._certified_guess(
        y, c, characteristics._decays(taus, ramp.M), ramp)
    assert np.all(np.isfinite(tol[:3]))
    assert np.all(tol[3:] == math.inf) and np.array_equal(guess[3:], y[3:])
    for i, tau in enumerate(taus):
        alone = characteristics._certified_guess(
            y[i:i + 1], c, characteristics._decays([tau], ramp.M), ramp)
        assert np.array_equal(guess[i], alone[0][0])
        assert np.array_equal(tol[i], alone[1][0])


@pytest.mark.parametrize("tau", [math.nan, -1.0, -1e-300])
def test_inversion_rejects_nan_or_negative_tau(ramp, tau):
    with pytest.raises(ValueError, match="tau"):
        invert_trajectory_map(np.array([[0.0, 0.5]]), [tau], ramp)


@pytest.mark.parametrize("taus, row", [
    ([1.0, math.nan], 1), ([-1.0, 1.0], 0), ([0.0, 2.0, -1e-300], 2)])
def test_inversion_names_the_row_with_a_bad_tau(ramp, taus, row):
    y = np.tile([0.0, 0.5], (len(taus), 1))
    with pytest.raises(ValueError, match=f"tau.*row {row}"):
        invert_trajectory_map(y, taus, ramp)


@pytest.mark.parametrize("y, taus, message", [
    (np.zeros((2, 3)), [1.0], r"1 taus for a stack of shape \(2, 3\)"),
    (np.zeros((1, 3)), [1.0, 2.0, 0.0],
     r"3 taus for a stack of shape \(1, 3\)"),
    (np.zeros(3), [1.0, 1.0, 1.0], r"3 taus for a stack of shape \(3,\)"),
    (np.zeros((1, 2, 3)), [1.0], r"1 taus for a stack of shape \(1, 2, 3\)"),
])
def test_inversion_takes_one_tau_per_row_of_a_stack(ramp, y, taus, message):
    # a count of taus that differs from the rows once escaped as numpy's
    # broadcast error, and a single row at a scalar tau was a second form
    with pytest.raises(ValueError, match=f"one tau per row of a stack, "
                       f"got {message}"):
        invert_trajectory_map(y, taus, ramp)


def _counting_inversions(monkeypatch) -> list:
    """The shape of each stack that invert_trajectory_map is given."""
    shapes = []
    invert = characteristics.invert_trajectory_map

    def counting(y, *args):
        shapes.append(np.shape(y))
        return invert(y, *args)

    monkeypatch.setattr(characteristics, "invert_trajectory_map", counting)
    return shapes


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_reconstruction_names_the_index_of_a_bad_tau(ramp, bad,
                                                     monkeypatch):
    # 13 taus at n = 2048 make stacks of 4 rows: the tau at index 9 was
    # once named as row 1 of the third stack, after two stacks were
    # inverted; every tau is checked before the first inversion
    taus = [0.5 * i for i in range(13)]
    taus[9] = bad
    grid = Grid.line(ramp.domain[0], ramp.domain[1], 2048)
    shapes = _counting_inversions(monkeypatch)
    with pytest.raises(ValueError,
                       match=f"tau must be >= 0, got {bad} at index 9 "):
        reconstruct_eulerian(taus, ramp, grid)
    assert shapes == []


def test_stacked_reconstruction_is_the_one_tau_reconstruction(ramp,
                                                              monkeypatch):
    # 9 taus at n = 2048, 0 and inf among them: stacks of 4, 4 and 1 rows,
    # each state the reconstruction of its tau alone, bit for bit
    taus = [0.0, 0.25, 1.0, 2.0, 3.0, 5.0, 12.0, 30.0, math.inf]
    grid = Grid.line(ramp.domain[0], ramp.domain[1], 2048)
    shapes = _counting_inversions(monkeypatch)
    states = reconstruct_eulerian(taus, ramp, grid)
    assert shapes == [(4, 2048), (4, 2048), (1, 2048)]
    assert len(states) == len(taus)
    for tau, state in zip(taus, states):
        (alone,) = reconstruct_eulerian([tau], ramp, grid)
        assert state.time == alone.time == tau
        assert np.array_equal(state.sigma.values, alone.sigma.values), tau


@pytest.mark.parametrize("tau", [1.0, 40.0])
def test_inversion_of_an_empty_row_is_empty(ramp, tau):
    # at tau = 40 the certified guess is skipped; an empty row once failed
    # inside it on a reduction with no identity
    assert invert_trajectory_map(np.empty((1, 0)), [tau],
                                 ramp).shape == (1, 0)
    assert invert_trajectory_map(np.empty((3, 0)), [tau, 0.0, tau],
                                 ramp).shape == (3, 0)


@pytest.mark.parametrize("tau", [1.0, 40.0])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inversion_rejects_a_non_finite_position(ramp, tau, bad):
    # [0, nan] once gave [0.286..., nan] with RuntimeWarnings, and [inf]
    # gave [inf]
    with pytest.raises(ValueError, match=f"position {bad} at index 1 of row 0"):
        invert_trajectory_map(np.array([[0.0, bad]]), [tau], ramp)
    with pytest.raises(ValueError, match=f"position {bad} at index 0 of row 1"):
        invert_trajectory_map(np.array([[0.0], [bad]]), [tau, tau], ramp)


def test_inversion_bracket_miss_raises(ramp):
    # max_abs_F = 0 claims a bracket of +-1, but (1 - e^{-5}) F(1) < -1
    understated = dataclasses.replace(ramp, max_abs_F=0.0)
    with pytest.raises(InversionFailure, match="bracket"):
        invert_trajectory_map(np.array([[0.0]]), [5.0], understated)


def test_inversion_bracket_miss_names_its_row(ramp):
    # at tau = 0 eta is the identity and every bracket holds; at tau = 5
    # the understated bracket misses label 1's image
    understated = dataclasses.replace(ramp, max_abs_F=0.0)
    with pytest.raises(InversionFailure, match="bracket.*row 1"):
        invert_trajectory_map(np.array([[0.0], [0.0]]), [0.0, 5.0],
                              understated)


def test_inversion_of_descending_targets_raises(ramp):
    with pytest.raises(InversionFailure, match="monotone"):
        invert_trajectory_map(np.array([[1.0, 0.0]]), [1.0], ramp)


def test_inversion_of_one_descending_row_names_it(ramp):
    # rows are sorted each on its own: row 0 ends above row 1's start
    y = np.array([[2.0, 3.0], [1.0, 1.5], [1.0, 0.0]])
    with pytest.raises(InversionFailure, match="monotone.*row 2"):
        invert_trajectory_map(y, [1.0, 1.0, 1.0], ramp)
    invert_trajectory_map(y[:2], [1.0, 1.0], ramp)


def _eta_evaluations(prof, tau, monkeypatch) -> float:
    """Grid-equivalents of eta evaluations inverting a 2048-node grid."""
    grid = Grid.line(prof.domain[0], prof.domain[1], 2048)
    evaluated = []
    original = characteristics._eta

    def counting(x, *args):
        evaluated.append(np.size(x))
        return original(x, *args)

    monkeypatch.setattr(characteristics, "_eta", counting)
    invert_trajectory_map(grid.x[None], [tau], prof)
    return sum(evaluated) / grid.n


@pytest.mark.parametrize("tau", [0.0, 1.0, 3.0, 5.0])
def test_inversion_evaluates_eta_near_the_roots_only(ramp, tau, monkeypatch):
    # the plain bisection evaluates eta on 52 grid-equivalents here (two
    # bracket ends and 50 midpoints); the certified guess decides the
    # midpoints far from the roots
    assert _eta_evaluations(ramp, tau, monkeypatch) <= 24.0


@pytest.mark.parametrize("tau", [30.0, 49.9])
def test_inversion_skips_a_guess_that_cannot_pay(ramp, tau, monkeypatch):
    # at e^{-M tau} this small the radius of the certified guess spans
    # most of the bracket: sampling and refining it would cost more eta
    # evaluations than it spares, so the count is plain bisection's 52
    assert _eta_evaluations(ramp, tau, monkeypatch) <= 52.0


def test_trajectory_rows(ramp):
    labels = np.array([-0.25, 0.5])
    rows = trajectory_rows(labels, [0.0, 1.0], ramp)
    assert len(rows) == 4
    label, tau, eta, sig, jac, vel = rows[0]
    assert (label, tau) == (-0.25, 0.0)
    assert eta == pytest.approx(label)
    assert jac == pytest.approx(1.0)
    label, tau, eta, sig, jac, vel = rows[3]
    assert (label, tau) == (0.5, 1.0)
    x = np.array([0.5])
    assert [eta, sig, jac, vel] == [
        trajectory_position(x, 1.0, ramp)[0], sigma_along(x, 1.0, ramp)[0],
        dxeta(x, 1.0, ramp)[0], velocity_along(x, 1.0, ramp)[0]]


def test_oracle_on_constant_field():
    g = Grid.torus(64)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=g)
    state = KSState(sigma=Field(g, np.ones(g.n), tag="density"))
    cmp = semi_lagrangian_oracle(state, p, 0.5)
    assert cmp.max_gap <= 1e-13


def test_oracle_small_run():
    g = Grid.torus(128)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=g)
    state = KSState(sigma=Field(g, 1.0 + 0.3 * np.cos(g.x), tag="density"))
    cmp = semi_lagrangian_oracle(state, p, 0.5)
    assert cmp.max_gap <= 1e-5


def test_oracle_gaps_match_dense_interpolation(monkeypatch, dense_trig_interp):
    # the markers read the velocity 4 times per marker step and the density
    # once at the end, each read a trig_eval of rows of trig_coefficients;
    # swapping in the dense cos/sin sum of the samples themselves (the
    # coefficients left as the sample rows) must leave every gap in place
    g = Grid.torus(256)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=g)
    state = KSState(sigma=Field(g, 1.0 + 0.3 * np.cos(g.x)
                                + 0.05 * np.sin(7 * g.x), tag="density"))
    fast_reads, dense_reads = [], []

    def fast_eval(block, grid, points, tables):
        fast_reads.append(points.shape)
        return trig_eval(block, grid, points, tables)

    def dense_eval(values, grid, points, _tables):
        dense_reads.append(values.shape)
        return dense_trig_interp(values, grid, points)

    monkeypatch.setattr(characteristics, "trig_eval", fast_eval)
    fast = semi_lagrangian_oracle(state, p, 0.5)
    monkeypatch.setattr(characteristics, "trig_coefficients",
                        lambda values, _grid: values)
    monkeypatch.setattr(characteristics, "trig_eval", dense_eval)
    dense = semi_lagrangian_oracle(state, p, 0.5)
    assert len(fast_reads) % 4 == 1 and len(fast_reads) > 1
    assert dense_reads == fast_reads == [(g.n,)] * len(fast_reads)
    np.testing.assert_allclose(fast.gaps, dense.gaps, rtol=0.0, atol=1e-13)


def _oracle_case(amp):
    g = Grid.torus(64)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=g)
    return KSState(sigma=Field(g, 1.0 + amp * np.cos(g.x), tag="density")), p


@pytest.mark.parametrize("tau_end, n_steps", [
    (0.5, -2), (0.5, 0), (math.nan, 4), (math.inf, None), (0.0, None),
    (-0.5, 4), (0.5, 4.0), (0.5, 3.5), (0.5, True),
])
def test_oracle_rejects_bad_horizons(tau_end, n_steps):
    # a negative count once took no step and passed with a zero gap; a
    # float count failed inside range() with a TypeError, and True ran as
    # 2 marker steps
    state, p = _oracle_case(0.3)
    with pytest.raises(ValueError, match="tau_end|n_steps"):
        semi_lagrangian_oracle(state, p, tau_end, n_steps=n_steps)


def test_oracle_raises_the_breakdown_of_its_run():
    # amp 1 touches vacuum: the Eulerian run stops at once, and the oracle
    # raises its breakdown instead of comparing the markers with the one
    # sample the run kept
    state, p = _oracle_case(1.0)
    with pytest.raises(VacuumApproach):
        semi_lagrangian_oracle(state, p, 0.5, n_steps=4)
