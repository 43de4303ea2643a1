"""Monitored quantities: energies, dissipations, norms, and rate fits.

The energy splits into a zeroth-order part (kinetic + relative pressure)
and a higher-order part built from spatial derivatives up to the cap
DERIV_CAP (2 in 1D).  The relative pressure bracket
rho^gamma - M^gamma - gamma M^(gamma-1) (rho - M) is a Bregman divergence
of the convex function rho^gamma, hence nonnegative for rho > 0.

A run's records come from one call, `record_states`, over its sampled
states, and one body (`_stacked_records`) over a stack of them; one
state's record is the one-state stack.  A stack's derivatives come from
one rfft and one batched irfft, whose rows are those of single-row calls
bit for bit, and every integral from one np.vecdot of the stack with the
quadrature weights: vecdot takes one cblas_ddot per row, the dot that
Grid.integrate takes of one row, where a matrix-vector product
(rows @ weights, gemv) or a one-row matmul rounds differently.  Square
roots and the fourth root of the L^4 norm are taken on Python floats
(numpy's ** 0.25 differs from Python's in the last bit on some values).
So a record does not depend on its stack.  `record_states` cuts a run
into chunks of at most core.STACK_POSITIONS // (fields x DERIV_CAP x n)
states (and at least one), fields 2 for EP states (rho, w) and 1 for KS
states, so that every temporary stays under the mmap threshold (8 KS
states per chunk at n = 512, one EP state at n = 2048).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import STACK_POSITIONS, Field, KSState, ParamSet, _quad_weights
from .errors import InsufficientSamples, NonPositiveSample
from .spectral import _derivs

DERIV_CAP = 2  # 1D derivative cap for the high-order functionals


def pressure_bracket(rho: np.ndarray, gamma: float, M: float) -> np.ndarray:
    return rho**gamma - M**gamma - gamma * M ** (gamma - 1.0) * (rho - M)


def _integrals(grid, rows: np.ndarray) -> np.ndarray:
    """grid.integrate of each of the stacked rows, bit for bit (one
    cblas_ddot per row)."""
    return np.vecdot(rows, _quad_weights(grid))


def _l4(grid, g: np.ndarray) -> list:
    """(integral of g^4)^(1/4) of each of the stacked rows g, as Python
    floats, g^4 as two squares: numpy's power goes element by element for
    a negative base."""
    return [v ** 0.25
            for v in _integrals(grid, np.square(np.square(g))).tolist()]


def norms(f: Field) -> dict:
    """l2, sup, l4 of the gradient, and h1/h2/h3 (squared-sum convention)
    of a torus field."""
    grid = f.grid
    vals = f.values
    sq = grid.integrate(vals * vals)
    out = {"l2": math.sqrt(max(sq, 0.0)), "sup": float(np.max(np.abs(vals)))}
    derivs = _derivs(vals[None], grid, 3)[:, 0]
    (out["l4_of_gradient"],) = _l4(grid, derivs[:1])
    for j, d in enumerate(derivs, 1):
        sq += grid.integrate(d * d)
        out[f"h{j}"] = math.sqrt(max(sq, 0.0))
    return out


def fit_exponential_rate(series, window) -> tuple[float, float]:
    """Least-squares fit of log(y) vs tau on the window; returns (rate, r2)
    with rate = -slope.  Requires >= 5 strictly positive samples inside,
    at >= 2 distinct times.
    """
    t1, t2 = window
    pts = [(t, y) for (t, y) in series if t1 <= t <= t2]
    times = {t for t, _ in pts}
    if len(pts) < 5 or len(times) < 2:
        raise InsufficientSamples(
            f"need >= 5 samples at >= 2 distinct times in [{t1}, {t2}], "
            f"found {len(pts)} at {len(times)}")
    taus = np.array([t for t, _ in pts])
    ys = np.array([y for _, y in pts])
    if np.any(ys <= 0.0):
        raise NonPositiveSample("rate fit requires y > 0 on the window")
    logy = np.log(ys)
    slope, intercept = np.polyfit(taus, logy, 1)
    fitted = slope * taus + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    return float(-slope), float(r2)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampled row of the monitored quantities."""

    tau: float
    e0: float
    e1: float
    e_total: float
    d0: float
    d1: float
    d_total: float
    sup_dev: float
    l2_dev: float
    grad_l4: float
    w_l2: float
    mass: float
    rho_min: float
    rho_max: float

    CSV_COLUMNS = ("tau", "sup_dev", "l2_dev", "grad_l4", "w_l2",
                   "e_total", "d_total", "mass_defect", "rho_min", "rho_max")

    def csv_row(self, mass0: float) -> list:
        return [self.tau, self.sup_dev, self.l2_dev, self.grad_l4, self.w_l2,
                self.e_total, self.d_total, self.mass - mass0,
                self.rho_min, self.rho_max]


def _stacked_records(rows: np.ndarray, taus, p: ParamSet) -> list:
    """The records at the times taus of the fields x r x n stacked rows
    (rho, w), or (rho,) for KS states, in one pass: every derivative from
    one rfft and one batched irfft, every integral one vecdot over the
    stack.  A KS state's w terms (kinetic energy, friction dissipation,
    w_l2) are 0.0, not computed.

    e0 = (eps^alpha/2) ∫ rho w^2 + ∫ bracket / (gamma - 1) and
    d0 = eps^(alpha-2) ∫ w^2 + ∫ (rho - M)^2; e1 and d1 sum over
    1 <= j <= DERIV_CAP the terms (eps^alpha/2) ∫ rho (d^j w)^2 +
    (gamma/2) ∫ rho^(gamma-2) (d^j rho)^2 and the same with weights
    eps^(alpha-2) and gamma rho^(gamma-1).  e_w[j], d_w[j]: the w terms.
    Each sum is formed in the order of the one-state formula, so a row's
    record does not depend on its stack.
    """
    grid = p.grid
    rho = rows[0]
    derivs = _derivs(rows.reshape(-1, grid.n), grid, DERIV_CAP).reshape(
        (DERIV_CAP,) + rows.shape)
    drho = derivs[:, 0]
    dev = rho - p.mass_level
    relax = _integrals(grid, dev * dev)
    if len(rows) == 1:
        e_w = d_w = (0.0,) * (DERIV_CAP + 1)
        w_l2 = [0.0] * len(taus)
    else:
        w, dw = rows[1], derivs[:, 1]
        rho_w2 = [_integrals(grid, rho * d * d) for d in (w, *dw)]
        e_w = [0.5 * p.epsilon**p.alpha * v for v in rho_w2]
        d_w = [p.epsilon ** (p.alpha - 2.0) * v
               for v in (_integrals(grid, w * w), *rho_w2[1:])]
        w_sc = p.epsilon ** (0.5 * p.alpha) * w
        w_l2 = [math.sqrt(max(v, 0.0))
                for v in _integrals(grid, w_sc * w_sc).tolist()]
    e0 = e_w[0] + _integrals(
        grid, pressure_bracket(rho, p.gamma, p.mass_level)) / (p.gamma - 1.0)
    d0 = d_w[0] + relax
    e_weight = rho ** (p.gamma - 2.0)
    d_weight = rho ** (p.gamma - 1.0)
    e1 = d1 = 0.0
    for j, dr in enumerate(drho, 1):
        e1 += e_w[j]
        d1 += d_w[j]
        e1 += 0.5 * p.gamma * _integrals(grid, e_weight * dr * dr)
        d1 += p.gamma * _integrals(grid, d_weight * dr * dr)
    return [
        DiagnosticsRecord(
            tau=tau, e0=a, e1=b, e_total=a + b, d0=c, d1=d, d_total=c + d,
            sup_dev=sup, l2_dev=math.sqrt(max(sq, 0.0)), grad_l4=l4,
            w_l2=wl2, mass=mass, rho_min=low, rho_max=high)
        for tau, a, b, c, d, sup, sq, l4, wl2, mass, low, high in zip(
            taus, e0.tolist(), e1.tolist(), d0.tolist(), d1.tolist(),
            np.max(np.abs(dev), axis=-1).tolist(), relax.tolist(),
            _l4(grid, drho[0]), w_l2, _integrals(grid, rho).tolist(),
            rho.min(axis=-1).tolist(), rho.max(axis=-1).tolist())]


def record_states(states, p: ParamSet) -> list:
    """The records of states, all EPStates or all KSStates on p's grid,
    from one stacked pass per chunk (the chunk rule of the module
    docstring): each is its state's one-state record bit for bit."""
    states = list(states)
    if not states:
        return []
    names = ("sigma",) if isinstance(states[0], KSState) else ("rho", "w")
    per_stack = max(1, STACK_POSITIONS // (len(names) * DERIV_CAP * p.grid.n))
    out = []
    for i in range(0, len(states), per_stack):
        chunk = states[i:i + per_stack]
        rows = np.array([[getattr(s, name).values for s in chunk]
                         for name in names])
        out += _stacked_records(rows, [s.time for s in chunk], p)
    return out

