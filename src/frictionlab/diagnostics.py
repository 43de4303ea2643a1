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
from .spectral import _derivs

DERIV_CAP = 2  # 1D derivative cap for the high-order functionals


def pressure_bracket(rho: np.ndarray, gamma: float, M: float) -> np.ndarray:
    return rho**gamma - M**gamma - gamma * M ** (gamma - 1.0) * (rho - M)


def _l4(grid, g: np.ndarray) -> float:
    """(integral of g^4)^(1/4), g^4 as two squares: numpy's power goes
    element by element for a negative base."""
    return grid.integrate(np.square(np.square(g))) ** 0.25


def norms(f: Field) -> dict:
    """l2, sup, l4 of the gradient, and h1/h2/h3 (squared-sum convention)
    of a torus field."""
    grid = f.grid
    vals = f.values
    sq = grid.integrate(vals * vals)
    out = {"l2": math.sqrt(max(sq, 0.0)), "sup": float(np.max(np.abs(vals)))}
    derivs = _derivs(vals[None], grid, 3)[:, 0]
    out["l4_of_gradient"] = _l4(grid, derivs[0])
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


def _record(rho: np.ndarray, w, tau: float, p: ParamSet) -> DiagnosticsRecord:
    """The record of the rows (rho, w) at time tau, every derivative from
    one rfft and one batched irfft.  w None is a KS state: its w terms
    (kinetic energy, friction dissipation, w_l2) are 0.0, not computed.

    e0 = (eps^alpha/2) ∫ rho w^2 + ∫ bracket / (gamma - 1) and
    d0 = eps^(alpha-2) ∫ w^2 + ∫ (rho - M)^2; e1 and d1 sum over
    1 <= j <= DERIV_CAP the terms (eps^alpha/2) ∫ rho (d^j w)^2 +
    (gamma/2) ∫ rho^(gamma-2) (d^j rho)^2 and the same with weights
    eps^(alpha-2) and gamma rho^(gamma-1).  e_w[j], d_w[j]: the w terms.
    """
    grid = p.grid
    dev = rho - p.mass_level
    relax = grid.integrate(dev * dev)
    if w is None:
        drho = _derivs(rho[None], grid, DERIV_CAP)[:, 0]
        e_w = d_w = (0.0,) * (DERIV_CAP + 1)
        w_l2 = 0.0
    else:
        drho, dw = _derivs(np.stack((rho, w)), grid, DERIV_CAP).swapaxes(0, 1)
        rho_w2 = [grid.integrate(rho * d * d) for d in (w, *dw)]
        e_w = [0.5 * p.epsilon**p.alpha * v for v in rho_w2]
        d_w = [p.epsilon ** (p.alpha - 2.0) * v
               for v in (grid.integrate(w * w), *rho_w2[1:])]
        w_sc = p.epsilon ** (0.5 * p.alpha) * w
        w_l2 = math.sqrt(max(grid.integrate(w_sc * w_sc), 0.0))
    e0 = e_w[0] + grid.integrate(
        pressure_bracket(rho, p.gamma, p.mass_level)) / (p.gamma - 1.0)
    d0 = d_w[0] + relax
    e_weight = rho ** (p.gamma - 2.0)
    d_weight = rho ** (p.gamma - 1.0)
    e1 = d1 = 0.0
    for j, dr in enumerate(drho, 1):
        e1 += e_w[j]
        d1 += d_w[j]
        e1 += 0.5 * p.gamma * grid.integrate(e_weight * dr * dr)
        d1 += p.gamma * grid.integrate(d_weight * dr * dr)
    return DiagnosticsRecord(
        tau=tau, e0=e0, e1=e1, e_total=e0 + e1,
        d0=d0, d1=d1, d_total=d0 + d1,
        sup_dev=float(np.max(np.abs(dev))),
        l2_dev=math.sqrt(max(relax, 0.0)),
        grad_l4=_l4(grid, drho[0]),
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
