"""Monitored quantities: energies, dissipations, norms, and rate fits.

The energy splits into a zeroth-order part (kinetic + relative pressure)
and a higher-order part built from spatial derivatives up to the cap
DERIV_CAP (2 in 1D).  The relative pressure bracket
rho^gamma - M^gamma - gamma M^(gamma-1) (rho - M) is a Bregman divergence
of the convex function rho^gamma, hence nonnegative for rho > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EPState, Field, KSState, ParamSet
from .errors import InsufficientSamples, NonPositiveSample
from .spectral import deriv

DERIV_CAP = 2  # 1D derivative cap for the high-order functionals


def pressure_bracket(rho: np.ndarray, gamma: float, M: float) -> np.ndarray:
    return rho**gamma - M**gamma - gamma * M ** (gamma - 1.0) * (rho - M)


def _e0(rho: np.ndarray, w, p: ParamSet) -> float:
    """e0 of the rows (rho, w); w None (a KS state) has no kinetic part."""
    grid = p.grid
    internal = grid.integrate(pressure_bracket(rho, p.gamma, p.mass_level)) / (p.gamma - 1.0)
    if w is None:
        return float(internal)
    kinetic = 0.5 * p.epsilon**p.alpha * grid.integrate(rho * w * w)
    return float(kinetic + internal)


def _higher_order(rho: np.ndarray, w, p: ParamSet) -> tuple[float, float, np.ndarray]:
    """(e1, d1, d rho/dx) from one batched derivative of (rho, w) per order,
    of rho alone when w is None (a KS state: no w terms).

    e1 = sum over 1 <= j <= DERIV_CAP of
    (eps^alpha/2) ∫ rho (d^j w)^2 + (gamma/2) ∫ rho^(gamma-2) (d^j rho)^2,
    d1 = the same sum with weights eps^(alpha-2) and gamma rho^(gamma-1).
    """
    grid = p.grid
    rows = rho[None] if w is None else np.stack((rho, w))
    derivs = [deriv(rows, grid, j) for j in range(1, DERIV_CAP + 1)]
    e_weight = rho ** (p.gamma - 2.0)
    d_weight = rho ** (p.gamma - 1.0)
    e1 = d1 = 0.0
    for d in derivs:
        if w is not None:
            kinetic = grid.integrate(rho * d[1] * d[1])
            e1 += 0.5 * p.epsilon**p.alpha * kinetic
            d1 += p.epsilon ** (p.alpha - 2.0) * kinetic
        dr = d[0]
        e1 += 0.5 * p.gamma * grid.integrate(e_weight * dr * dr)
        d1 += p.gamma * grid.integrate(d_weight * dr * dr)
    return float(e1), float(d1), derivs[0][0]


def _d0(rho: np.ndarray, w, p: ParamSet) -> float:
    """d0 of the rows (rho, w); w None (a KS state) has no friction part."""
    grid = p.grid
    dev = rho - p.mass_level
    relax = grid.integrate(dev * dev)
    if w is None:
        return float(relax)
    return float(p.epsilon ** (p.alpha - 2.0) * grid.integrate(w * w) + relax)


def norms(f: Field) -> dict:
    """l2, sup, l4 of the gradient, and h1/h2/h3 (squared-sum convention)
    of a torus field."""
    grid = f.grid
    vals = f.values
    sq = grid.integrate(vals * vals)
    out = {"l2": math.sqrt(max(sq, 0.0)), "sup": float(np.max(np.abs(vals)))}
    derivs = [deriv(vals, grid, j) for j in range(1, 4)]
    out["l4_of_gradient"] = grid.integrate(derivs[0]**4) ** 0.25
    for j, d in enumerate(derivs, 1):
        sq += grid.integrate(d * d)
        out[f"h{j}"] = math.sqrt(max(sq, 0.0))
    return out


def fit_exponential_rate(series, window) -> tuple[float, float]:
    """Least-squares fit of log(y) vs tau on the window; returns (rate, r2)
    with rate = -slope.  Requires >= 5 strictly positive samples inside.
    """
    t1, t2 = window
    pts = [(t, y) for (t, y) in series if t1 <= t <= t2]
    if len(pts) < 5:
        raise InsufficientSamples(
            f"need >= 5 samples in [{t1}, {t2}], found {len(pts)}")
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


def _record(rho: np.ndarray, w, tau: float, p: ParamSet) -> DiagnosticsRecord:
    """The record of the rows (rho, w) at time tau; w None is a KS state,
    whose w terms (kinetic energy, w derivatives, friction dissipation)
    are skipped, and its w_l2 is 0."""
    grid = p.grid
    dev = rho - p.mass_level
    e0 = _e0(rho, w, p)
    e1, d1, grad = _higher_order(rho, w, p)
    d0 = _d0(rho, w, p)
    w_l2 = 0.0
    if w is not None:
        w_sc = p.epsilon ** (0.5 * p.alpha) * w
        w_l2 = math.sqrt(max(grid.integrate(w_sc * w_sc), 0.0))
    return DiagnosticsRecord(
        tau=tau, e0=e0, e1=e1, e_total=e0 + e1,
        d0=d0, d1=d1, d_total=d0 + d1,
        sup_dev=float(np.max(np.abs(dev))),
        l2_dev=math.sqrt(max(grid.integrate(dev * dev), 0.0)),
        grad_l4=grid.integrate(grad**4) ** 0.25,
        w_l2=w_l2,
        mass=grid.integrate(rho),
        rho_min=float(rho.min()),
        rho_max=float(rho.max()),
    )


def record_ep(state: EPState, p: ParamSet) -> DiagnosticsRecord:
    return _record(state.rho.values, state.w.values, state.time, p)


def record_ks(state: KSState, p: ParamSet) -> DiagnosticsRecord:
    """The record of a KS state: record_ep's of (sigma, w = 0), without
    the w terms, which add 0.0."""
    return _record(state.sigma.values, None, state.time, p)
