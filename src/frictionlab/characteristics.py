"""Closed-form characteristic dynamics of the limit system on the line.

Along the trajectory eta(x, tau) starting from label x the density obeys
the logistic law d(sigma)/dtau = -sigma(sigma - M), whose exact solution
and derived quantities drive everything here:

    sigma(eta(x,tau), tau) = M sigma0 / D,   D = sigma0 + (M - sigma0) e^{-M tau}
    v(eta(x,tau), tau)     = e^{-M tau} F(x)
    eta(x, tau)            = x + (1 - e^{-M tau}) F(x) / M
    d(eta)/dx              = D / M

A vacuum interval [a0, b0] shrinks to length (b0-a0) e^{-M tau}; the
first nontrivial one-sided edge derivative, of the touch order k, grows
like e^{(k+1) M tau} from the profile's edge jet.  The functions along
trajectories take an array of labels and one tau.  Every closed form
reads M from its `InitialProfile`, and they hold on the torus too,
where v has zero mean.  This module doubles as the oracle for the
Eulerian solvers: reconstruction, and a semi-Lagrangian comparison that
carries markers through the velocity fields of one `simulate_ks` run.

Reconstruction inverts the trajectory map by certified bisection.  One
bisection inverts a stack (R, N) of rows of positions with one tau per
row, its only input form, and gives every row the labels of its own
inversion bit for bit.  It reads tau through the growth factor
s = 1 - e^{-M tau} of each row, one column, and evaluates
eta = x + s F(x)/M through one helper, so any map of that form inverts
with it; the certified guesses of all rows are made together.  A list of
taus is evaluated in one pass of each closed form, never one per tau:
`reconstruct_eulerian` stacks at most core.STACK_POSITIONS positions per
bisection and takes their densities from one helper with a column of
decays e^{-M tau}, and `vacuum_interval` gives both edges at every tau
from one eta evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (STACK_POSITIONS, Field, Grid, KSState, ParamSet,
                   _positive_integer)
from .errors import (InversionFailure, MultipleVacuumIntervals, NoVacuum,
                     PreconditionViolation)
from .keller_segel import simulate_ks
from .profiles import InitialProfile
from .spectral import (inverse_gradient, trig_coefficients, trig_eval,
                       trig_tables)

TRAJECTORY_HORIZON = 50.0  # beyond tau = 50/M, e^{-M tau} underflows; report limits
GUESS_NEWTON_STEPS = 2     # Newton steps from the interpolated inversion guess
ETA_NOISE_ULPS = 8.0       # bound on a computed eta's error, in ulps of |y| + c
GUESS_COST = 3 + GUESS_NEWTON_STEPS  # eta evaluations per label the guess makes


def _decay(tau: float, M: float) -> float:
    if math.isinf(tau) or tau > TRAJECTORY_HORIZON / M:
        return 0.0
    return math.exp(-M * tau)


def _decays(taus, M: float) -> np.ndarray:
    """The column of the decays e^{-M tau} of taus, one row per tau."""
    return np.array([[_decay(t, M)] for t in taus]).reshape(-1, 1)


def _check_tau(tau: float, where: str = "") -> None:
    """Raise ValueError for a NaN or negative tau; tau = inf is the limit."""
    if math.isnan(tau) or tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}{where}")


def _eta(x: np.ndarray, s, prof: InitialProfile) -> np.ndarray:
    """eta = x + s F(x)/M at float labels x, for a growth factor
    s = 1 - e^{-M tau} that is a float or a column of one s per row of a
    stack of labels."""
    return x + s * prof.cumulative(x) / prof.M


def velocity_along(x: np.ndarray, tau: float, prof: InitialProfile):
    """Flow velocity along the trajectories from labels x: e^{-M tau} F(x)."""
    _check_tau(tau)
    return _decay(tau, prof.M) * prof.cumulative(x)


def trajectory_position(x: np.ndarray, tau: float, prof: InitialProfile):
    """eta(x, tau) = x + (1 - e^{-M tau}) F(x)/M; tends to x + F(x)/M."""
    _check_tau(tau)
    return _eta(x, 1.0 - _decay(tau, prof.M), prof)


def _denominator(sigma0, e, M: float):
    """D = sigma0 + (M - sigma0) e for a decay e = e^{-M tau}."""
    return sigma0 + (M - sigma0) * e


def _density(x: np.ndarray, e, prof: InitialProfile) -> np.ndarray:
    """sigma = M sigma0/D at float labels x, for a decay e = e^{-M tau}
    that is a float or a column of one e per row of a stack of labels;
    where e is 0 (the limit), M off vacuum and 0 on it."""
    M = prof.M
    s0 = prof.sigma0(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = M * s0 / _denominator(s0, e, M)
    limit = np.equal(e, 0.0)
    if limit.any():
        sigma = np.where(limit, np.where(s0 > 0.0, float(M), 0.0), sigma)
    return sigma


def sigma_along(x: np.ndarray, tau: float, prof: InitialProfile):
    """Exact logistic density along the trajectories from labels x;
    identically 0 on vacuum labels."""
    _check_tau(tau)
    return _density(x, _decay(tau, prof.M), prof)


def dxeta(x: np.ndarray, tau: float, prof: InitialProfile):
    """Trajectory Jacobian d(eta)/dx = D/M > 0 (trajectories never cross)."""
    _check_tau(tau)
    return _denominator(prof.sigma0(x), _decay(tau, prof.M), prof.M) / prof.M


def edge_derivative_along(k: int, tau: float, prof: InitialProfile) -> float:
    """The order-k spatial derivative of the density at the right vacuum
    edge's image at tau: e^{(k+1) M tau} d^k sigma0(b0+), read from the
    profile's edge jet.  The law holds when every lower order vanishes:
    below the touch order len(edge_jet) it gives 0.

    Raises ValueError unless k is an integer >= 1 (not a bool), and for a
    NaN or negative tau (tau = inf is the limit); NoVacuum for a profile
    without an edge jet, and PreconditionViolation for k above the touch
    order, where a lower order does not vanish.
    """
    _positive_integer("derivative order", k)
    _check_tau(tau)
    jet = prof.edge_jet
    if not jet:
        raise NoVacuum(f"profile {prof.label!r} has no vacuum edge")
    if k > len(jet):
        raise PreconditionViolation(
            f"order-{len(jet)} edge derivative of the profile is "
            f"{jet[-1]:.3e} != 0; the order-{k} law needs all lower "
            "orders to vanish")
    dk = jet[k - 1]
    return _edge_growth(k, tau, prof.M) * dk if dk != 0.0 else 0.0


def _edge_growth(k: int, tau: float, M: float) -> float:
    """The growth factor e^{(k+1) M tau} of the order-k edge derivative:
    inf where it overflows, as at tau = inf."""
    try:
        return math.exp((k + 1.0) * M * tau)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class VacuumReport:
    a: float
    b: float
    length: float
    limit_point: float


def vacuum_interval(taus, prof: InitialProfile) -> list:
    """One report per tau of taus: edges, exact length (b0-a0) e^{-M tau},
    and the common limit point a0 + F(a0)/M of the profile's single
    vacuum interval under the flow.  Both edges at every tau and the limit
    point (the edge a at growth factor 1) come from one eta evaluation.
    Raises ValueError for a NaN or negative tau, naming its index in taus
    (tau = inf is the limit)."""
    taus = list(taus)
    for i, tau in enumerate(taus):
        _check_tau(tau, f" at index {i} of taus")
    if not prof.vacuum_set:
        raise NoVacuum(f"profile {prof.label!r} has no vacuum interval")
    if len(prof.vacuum_set) > 1:
        raise MultipleVacuumIntervals(
            f"profile has {len(prof.vacuum_set)} vacuum intervals; "
            "the collapse law tracks exactly one")
    a0, b0 = prof.vacuum_set[0]
    e = _decays(taus, prof.M)
    edges = _eta(np.asarray([a0, b0]), np.vstack([1.0 - e, [[1.0]]]), prof)
    limit = float(edges[-1, 0])
    return [VacuumReport(a=a, b=b, length=(b0 - a0) * d, limit_point=limit)
            for (a, b), d in zip(edges[:-1].tolist(), e[:, 0].tolist())]


def _certified_guess(y: np.ndarray, c: float, e: np.ndarray,
                     prof: InitialProfile):
    """A label guess g for each root x* of eta(x, tau) = y, and a radius tol
    such that every label mid with |mid - g| > tol has the computed
    eta(mid) > y exactly when mid > g; y is a stack (R, N) of rows of
    positions and e the column of their decays e^{-M tau}.

    For sigma0 >= 0, d(eta)/dx = D/M >= e.  A computed eta is off by at
    most noise = ETA_NOISE_ULPS ulps of |y| + c, so the measured residual
    r = |eta(g) - y| gives |g - x*| <= (r + noise)/e, and a label further
    than noise/e from x* has the sign of its exact residual.  The radius
    2(r + 2 noise)/e keeps a factor two over that bound.  Where the guess
    is not finite, tol is inf: every decision is evaluated.

    A decision is taken from the guess only while the bisection bracket,
    2c wide at first and halved at each step, is wider than the radius, so
    the guess can spare at most log2(2c / (4 noise/e)) evaluations per
    label, and it costs GUESS_COST: the 2N + 1 samples, the Newton steps
    and the residual.  A row where that bound does not exceed the cost
    (e tiny or 0) keeps the guess y and tol inf without sampling.  The
    paying rows share each Newton step and the residual; their samples go
    in chunks of rows of at most STACK_POSITIONS values (and at least one
    row).
    """
    guess = y.copy()
    tol = np.full(y.shape, np.inf)
    ulps = ETA_NOISE_ULPS * np.finfo(float).eps
    noise_min = ulps * (np.abs(y).min(axis=1, keepdims=True) + c)
    pay = (e * 2.0 * c > 2.0**GUESS_COST * 4.0 * noise_min)[:, 0]
    if not pay.any():
        return guess, tol
    y, e = y[pay], e[pay]
    s = 1.0 - e
    n = 2 * y.shape[1] + 1
    g = np.empty(y.shape)
    per_chunk = max(1, STACK_POSITIONS // n)
    for i in range(0, len(y), per_chunk):
        rows = slice(i, i + per_chunk)
        samples = np.linspace(y[rows, 0] - c, y[rows, -1] + c, n, axis=1)
        for j, eta, x in zip(range(i, len(y)), _eta(samples, s[rows], prof),
                             samples):
            g[j] = np.interp(y[j], eta, x)
    M = prof.M
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(GUESS_NEWTON_STEPS):
            g = g - (_eta(g, s, prof) - y) / \
                (_denominator(prof.sigma0(g), e, M) / M)
        r = np.abs(_eta(g, s, prof) - y)
        noise = ulps * (np.abs(y) + c)
        t = 2.0 * (r + 2.0 * noise) / e
    ok = np.isfinite(g) & np.isfinite(t)
    guess[pay] = np.where(ok, g, y)
    tol[pay] = np.where(ok, t, np.inf)
    return guess, tol


def invert_trajectory_map(y: np.ndarray, taus,
                          prof: InitialProfile) -> np.ndarray:
    """Labels x with eta(x, tau) = y, by vectorized bisection in label
    space.  y is a stack (R, N) of sorted rows of positions, taus one tau
    per row.  Every row gets the labels of its own inversion, bit for
    bit: the rows share the bracket width 2c and so the bisection steps.

    Raises ValueError unless y has two dimensions and R taus, for a NaN
    or negative tau (tau = inf is the limit) and for a NaN or infinite
    position, and InversionFailure if the bracket y -+ c,
    c = max|F|/M + 1, misses a position or a row's labels are not
    monotone; each names its row.  Empty rows give no labels.

    A certified guess per row (_certified_guess) takes each bisection
    decision eta(mid) > y whose midpoint lies outside the guess's radius;
    eta is evaluated only for midpoints near the root.  The decisions, and
    so the labels, are bit for bit those of evaluating eta at every
    midpoint."""
    stack = np.asarray(y, dtype=float)
    taus = [float(t) for t in taus]
    if stack.ndim != 2 or len(taus) != len(stack):
        raise ValueError(f"need one tau per row of a stack, got "
                         f"{len(taus)} taus for a stack of shape {stack.shape}")
    for i, t in enumerate(taus):
        _check_tau(t, f" in row {i}")
    bad = np.argwhere(~np.isfinite(stack))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"position {stack[i, j]} at index {j} of row {i} "
                         "is not finite")
    if stack.size == 0:
        return np.empty(stack.shape)
    c = prof.max_abs_F / prof.M + 1.0
    e = _decays(taus, prof.M)
    s = 1.0 - e
    lo = stack - c
    hi = stack + c
    eta_lo = _eta(lo, s, prof)
    eta_hi = _eta(hi, s, prof)
    missed = np.any((eta_lo > stack) | (eta_hi < stack), axis=1)
    if missed.any():
        raise InversionFailure("bracket does not contain the target "
                               f"positions of row {np.argmax(missed)}")
    guess, tol = _certified_guess(stack, c, e, prof)
    s_at = np.broadcast_to(s, stack.shape)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        above = mid > guess
        near = np.abs(mid - guess) <= tol
        if near.all():
            above = _eta(mid, s, prof) > stack
        elif near.any():
            above[near] = _eta(mid[near], s_at[near], prof) > stack[near]
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if np.max(hi - lo) < 1e-14:
            break
    labels = 0.5 * (lo + hi)
    disordered = np.any(np.diff(labels, axis=1) < -1e-9, axis=1)
    if disordered.any():
        raise InversionFailure("sampled trajectory map is not monotone in "
                               f"row {np.argmax(disordered)}")
    return labels


def reconstruct_eulerian(taus, prof: InitialProfile, grid: Grid) -> list:
    """The Eulerian density on the grid at each of taus, one KSState per
    tau, from the labels of its nodes: stacked inversions
    (invert_trajectory_map) of at most STACK_POSITIONS positions (and at
    least one row) each, so every state is the one-tau reconstruction
    ([tau]) bit for bit.  Raises ValueError for a NaN or negative tau,
    naming its index in taus, before any inversion."""
    taus = list(taus)
    for i, tau in enumerate(taus):
        _check_tau(tau, f" at index {i} of taus")
    per_stack = max(1, STACK_POSITIONS // grid.n)
    states = []
    for i in range(0, len(taus), per_stack):
        chunk = taus[i:i + per_stack]
        labels = invert_trajectory_map(
            np.broadcast_to(grid.x, (len(chunk), grid.n)), chunk, prof)
        sigma = np.maximum(_density(labels, _decays(chunk, prof.M), prof),
                           0.0)
        states += [KSState(sigma=Field(grid, row, tag="density"), time=tau)
                   for row, tau in zip(sigma, chunk)]
    return states


def trajectory_rows(labels: np.ndarray, taus, prof: InitialProfile) -> list:
    """One row (label, tau, eta, sigma, d(eta)/dx, v) per tau and label.
    Raises ValueError for a NaN or negative tau (tau = inf is the limit)."""
    rows = []
    for tau in taus:
        columns = (trajectory_position(labels, tau, prof),
                   sigma_along(labels, tau, prof), dxeta(labels, tau, prof),
                   velocity_along(labels, tau, prof))
        rows.extend([x, tau, *values] for x, *values in zip(labels, *columns))
    return rows


@dataclass(frozen=True)
class OracleComparison:
    """Pointwise gaps between an Eulerian run and the exact logistic values
    carried along numerically integrated marker trajectories."""

    max_gap: float
    gaps: np.ndarray


def semi_lagrangian_oracle(state: KSState, p: ParamSet, tau_end: float,
                           n_steps: int | None = None) -> OracleComparison:
    """Advect markers with RK4 through the velocity fields of an Eulerian
    run while advancing their densities by the exact logistic map, then
    compare against the Eulerian field at the marker positions.

    The run is one simulate_ks from state.sigma, sampled every dt =
    tau_end / n_steps (n_steps rounded up to even); below the CFL bound
    each sample is one solver step.  A marker step spans two samples, so
    the RK4 midpoint velocity is available without interpolation in time.
    The velocities of all samples come from one batched inverse gradient,
    and their interpolation coefficients from one batched rfft; every
    read of a field at the markers evaluates on one set of tables.
    Raises ValueError unless tau_end is finite and positive and n_steps is
    None or an integer >= 1 (not a bool), and the run's SolverBreakdown if
    it has one: no partial trajectory is compared.
    """
    if not (math.isfinite(tau_end) and tau_end > 0.0):
        raise ValueError(f"tau_end must be finite and positive, got {tau_end}")
    if n_steps is not None:
        _positive_integer("n_steps", n_steps)
    grid = state.sigma.grid
    M = p.mass_level
    if n_steps is None:
        vmax = float(np.max(np.abs(inverse_gradient(state.sigma.values - M,
                                                    grid))))
        bound = 0.9 * p.dt_cfl * grid.h / vmax if vmax > 0.0 else math.inf
        dt = min(bound, 0.1 / M)
        n_steps = max(2, 2 * math.ceil(tau_end / (2.0 * dt)))
    if n_steps % 2:
        n_steps += 1
    dt = tau_end / n_steps
    run = simulate_ks(state.sigma, p, dt * np.arange(n_steps + 1),
                      records=False)
    run.raise_if_failed()
    # the KS velocity of each sample, -inverse_gradient(sigma - M), and
    # its interpolation coefficients, each in one batched call
    deviations = np.stack([s.sigma.values for s, _ in run.samples])
    deviations -= M
    v = inverse_gradient(deviations, grid)
    np.negative(v, out=v)
    coefficients = trig_coefficients(v, grid)
    tables = trig_tables(grid, grid.n)

    markers = grid.x.copy()
    sigma_m = state.sigma.values.copy()
    length = grid.length

    def vel(j, pos):
        return trig_eval(coefficients[j], grid, pos, tables)

    for j in range(2, n_steps + 1, 2):
        h = 2.0 * dt
        k1 = vel(j - 2, markers)
        k2 = vel(j - 1, markers + 0.5 * h * k1)
        k3 = vel(j - 1, markers + 0.5 * h * k2)
        k4 = vel(j, markers + h * k3)
        markers = markers + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # exact logistic update over the pair of steps
        e = math.exp(-M * h)
        sigma_m = M * sigma_m / (sigma_m + (M - sigma_m) * e)

    # fold marker positions back into the periodic cell for interpolation
    folded = grid.left + np.mod(markers - grid.left, length)
    eulerian_at_markers = trig_eval(
        trig_coefficients(run.samples[-1][0].sigma.values, grid), grid,
        folded, tables)
    gaps = eulerian_at_markers - sigma_m
    return OracleComparison(max_gap=float(np.max(np.abs(gaps))), gaps=gaps)
