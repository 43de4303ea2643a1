"""Named analytic initial profiles.

Every named profile is an `InitialProfile`: sigma0, its cumulative
deviation F and its vacuum set in closed form, with the background level
M the characteristic formulas read from it, and for a vacuum profile the
jet of one-sided derivatives at the right vacuum edge that the edge
growth law reads.  `PROFILES` maps each name to its builder;
`profile_line` builds one from keyword arguments (an argument the
builder does not take is an error), and `profile_field` samples it on a
grid.

Exact definitions (x is the spatial coordinate, M the background level):

* ``equilibrium``: sigma0(x) = M.

* ``cosine(amp, k)``: sigma0(x) = M + amp*cos(k*x), k a positive
  integer, F(x) = (amp/k) sin(k*x).

* ``bump(amp, radius, center)``: sigma0 = M + G'(x) with
  G(x) = amp*radius * u*(1-u^2)^3, u = (x-center)/radius, supported on
  |u| <= 1.  G is odd about the center, so the deviation has zero mean
  and the cumulative integral F(x) = G(x) in closed form.  Works on the
  torus and on the line (deviation compactly supported).

* ``vacuum-ramp(width, f0, touch)``: vacuum on [0,1]; on each side the
  density climbs to M over a ramp of the given width using
  s_k(t) = (k+1)t^k - k t^(k+1) (touch order k at the vacuum edge,
  C^1 at the plateau end); quartic bumps h*(1-u^2)^2 on the outer
  plateaus tune the cumulative integral so that F(0) = f0 and
  F(+inf) = 0.  The edge jet holds the one-sided derivatives
  d^j sigma0(1+) = M*width^-j * s_k^(j)(0), j = 1..k, with s_k^(j)(0) = 0
  for j < k and s_k^(k)(0) = (k+1)!.
"""
from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import MEAN_DEFECT_TOL, Field, Grid, _positive_integer, mean_defect
from .errors import MeanDefect, NonzeroTotalMass, RangeViolation

TORUS_DOMAIN = (0.0, 2.0 * math.pi)   # line domain of the torus-born profiles
CHECK_SAMPLES = 4001                  # InitialProfile.check: sign test points
CHECK_TOL = 1e-8                      # and relative bound on F at the right end
RAMP_BUMP_RADIUS = 0.5                # vacuum-ramp compensating bumps
RAMP_GAP = 0.25                       # ramp end to bump support
RAMP_MARGIN = 0.5                     # bump support to domain end

# --------------------------------------------------------------------------
# small closed-form pieces

def _quartic_bump(x, c, r, h):
    u = np.clip((np.asarray(x, dtype=float) - c) / r, -1.0, 1.0)
    return h * (1.0 - u * u) ** 2


def _quartic_bump_cum(x, c, r, h):
    """Integral of the quartic bump from -inf to x (closed form)."""
    u = np.clip((np.asarray(x, dtype=float) - c) / r, -1.0, 1.0)
    # products, not u**3 and u**5: numpy's power goes element by element
    # for a negative base; at u = -1, 0 or 1 both forms are exact
    u2 = u * u
    u3 = u2 * u
    prim = u - 2.0 * u3 / 3.0 + u3 * u2 / 5.0
    return h * r * (prim + 8.0 / 15.0)


def _on_positive(t, form):
    """form(t) where t > 0 and exact zeros elsewhere, t clipped to [0, 1]:
    most labels lie off a ramp, at t = 0, where numpy's power goes
    element by element."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    out = np.zeros_like(t)
    positive = t > 0.0
    out[positive] = form(t[positive])
    return out


def _ramp(t, k):
    """s_k(t) = (k+1)t^k - k t^(k+1) on [0,1]; 0 below, 1 above."""
    return _on_positive(t, lambda t: (k + 1.0) * t**k - k * t ** (k + 1.0))


def _ramp_cum(t, k):
    """S_k(t) = integral of s_k from 0 to t (t clipped to [0,1])."""
    return _on_positive(
        t, lambda t: t ** (k + 1.0) - k * t ** (k + 2.0) / (k + 2.0))


# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialProfile:
    """Line profile for the characteristic machinery.

    sigma0 and cumulative are vectorized callables; cumulative is
    F(x) = integral of (sigma0 - M) from the left.  vacuum_set lists the
    maximal closed intervals where sigma0 vanishes.  edge_jet holds the
    one-sided derivatives d^j sigma0(b0+) at the right edge b0 of the
    vacuum interval for j = 1..k, up to the first that is not 0, so its
    length is the edge's touch order k; a profile without vacuum holds ().
    """

    M: float
    sigma0: Callable
    cumulative: Callable
    vacuum_set: tuple = ()
    edge_jet: tuple = ()
    domain: tuple = (0.0, 1.0)
    max_abs_F: float = 0.0
    label: str = ""

    def check(self):
        xs = np.linspace(self.domain[0], self.domain[1], CHECK_SAMPLES)
        vals = self.sigma0(xs)
        if np.min(vals) < -1e-12:
            raise RangeViolation(f"profile {self.label!r} goes negative")
        f_end = float(self.cumulative(np.array([self.domain[1]]))[0])
        if abs(f_end) > CHECK_TOL * max(1.0, self.M * (self.domain[1] - self.domain[0])):
            raise NonzeroTotalMass(
                f"profile {self.label!r}: F at the right end is {f_end:.3e}")
        return self


def equilibrium_profile(M: float) -> InitialProfile:
    return InitialProfile(
        M=M,
        sigma0=lambda x: np.full_like(np.asarray(x, dtype=float), M),
        cumulative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        vacuum_set=(),
        domain=TORUS_DOMAIN,
        max_abs_F=0.0,
        label="equilibrium",
    )


def cosine_profile(M: float, amp: float = 0.3, k: int = 1) -> InitialProfile:
    """sigma0 = M + amp cos(kx) on the torus; F = (amp/k) sin(kx) exactly."""
    if abs(amp) > M:
        raise RangeViolation("cosine amplitude drives the profile negative")
    _positive_integer("wavenumber k", k)
    k = int(k)
    return InitialProfile(
        M=M,
        sigma0=lambda x: M + amp * np.cos(k * np.asarray(x, dtype=float)),
        cumulative=lambda x: (amp / k) * np.sin(k * np.asarray(x, dtype=float)),
        vacuum_set=(),
        domain=TORUS_DOMAIN,
        max_abs_F=abs(amp) / k,
        label="cosine",
    )


def bump_profile(M: float, amp: float = 0.45, radius: float = 1.2,
                 center: float = math.pi) -> InitialProfile:
    """sigma0 = M + G' with G = amp*radius*u*(1-u^2)^3; F = G exactly.
    G'/amp = (1-u^2)^2 (1-7u^2) spans [-32/49, 1], so sigma0 stays
    positive for amp > -M and amp * 0.66 < M; other amplitudes raise
    RangeViolation, and a radius that is not > 0 ValueError."""
    if not radius > 0.0:
        raise ValueError(f"bump radius must be > 0, got {radius}")
    if amp * 0.66 >= M or amp <= -M:
        raise RangeViolation("bump amplitude drives the profile into vacuum")
    A = amp * radius

    def g(x):
        u = np.clip((np.asarray(x, dtype=float) - center) / radius, -1.0, 1.0)
        return A * u * (1.0 - u * u) ** 3

    def sigma0(x):
        u = np.asarray(x, dtype=float)
        u = (u - center) / radius
        inside = np.abs(u) <= 1.0
        uu = np.clip(u, -1.0, 1.0)
        dg = amp * (1.0 - uu * uu) ** 2 * (1.0 - 7.0 * uu * uu)
        return M + np.where(inside, dg, 0.0)

    return InitialProfile(
        M=M, sigma0=sigma0, cumulative=g, domain=TORUS_DOMAIN,
        # max |u(1-u^2)^3| = 216/(343 sqrt 7) = 0.23802... at u = 1/sqrt(7)
        max_abs_F=float(abs(A) * 216.0 / (343.0 * math.sqrt(7.0))),
        label="bump",
    )


def vacuum_ramp_profile(M: float, width: float = 0.5, f0: Optional[float] = None,
                        touch: int = 1) -> InitialProfile:
    """Vacuum interval [0,1] with touch-order ramps and compensating bumps
    of radius RAMP_BUMP_RADIUS, RAMP_GAP beyond each ramp, inside a domain
    RAMP_MARGIN wider than the outer bumps.  Raises ValueError for a width
    outside (0, 1], a touch order that is not an integer >= 1 and a width
    so small that the edge jet entry M w^-k (k+1)! overflows."""
    if not (0 < width <= 1.0):
        raise ValueError("ramp width must lie in (0,1]")
    _positive_integer("touch order", touch)
    k = int(touch)
    w = float(width)
    ramp_deficit = M * w * k / (k + 2.0)  # mass deficit of one ramp
    if f0 is None:
        f0 = -ramp_deficit  # no left bump needed
    A_left = f0 + ramp_deficit
    A_right = M + ramp_deficit - f0
    r = RAMP_BUMP_RADIUS
    h_left = 15.0 * A_left / (16.0 * r)
    h_right = 15.0 * A_right / (16.0 * r)
    if h_left <= -M:
        raise RangeViolation(
            f"f0 = {f0} needs a negative bump deeper than the background")
    c_left = -w - RAMP_GAP - r
    c_right = 1.0 + w + RAMP_GAP + r
    domain = (c_left - r - RAMP_MARGIN, c_right + r + RAMP_MARGIN)
    # a bump of height 0 adds exact zeros: sigma0 and cumulative skip it
    bumps = [(c, h) for c, h in ((c_left, h_left), (c_right, h_right))
             if h != 0.0]

    def sigma0(x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, M)
        for c, h in bumps:
            out = out + _quartic_bump(x, c, r, h)
        # ramps and vacuum replace the plateau on [-w, 1+w]
        left_zone = (x >= -w) & (x < 0.0)
        right_zone = (x > 1.0) & (x <= 1.0 + w)
        vac = (x >= 0.0) & (x <= 1.0)
        out = np.where(left_zone, M * _ramp(-x / w, k), out)
        out = np.where(right_zone, M * _ramp((x - 1.0) / w, k), out)
        out = np.where(vac, 0.0, out)
        return out

    s_full = 2.0 / (k + 2.0)  # S_k(1)

    def cumulative(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, h in bumps:
            out = out + _quartic_bump_cum(x, c, r, h)
        # left ramp contribution: zero before -w, closed form inside,
        # constant -ramp_deficit after
        t_left = np.clip(-x / w, 0.0, 1.0)
        out = out + M * w * ((s_full - _ramp_cum(t_left, k)) - (1.0 - t_left))
        # vacuum contribution
        out = out - M * np.clip(x, 0.0, 1.0)
        # right ramp
        t_right = np.clip((x - 1.0) / w, 0.0, 1.0)
        out = out + M * w * (_ramp_cum(t_right, k) - t_right)
        return out

    # d^j sigma0(1+) = M w^-j s_k^(j)(0): 0 below the touch order k and
    # M w^-k (k+1)! at it, written (M/w) * 2 at k = 1; the two forms
    # differ in the last bit for some M and w, and vacuum.csv pins them.
    # A tiny width overflows either form (the power raises, M/w is inf)
    try:
        top = (M / w) * 2.0 if k == 1 else \
            M * (1.0 / w) ** k * float(math.factorial(k + 1))
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValueError(f"ramp width {w} at touch order {k} overflows "
                         "the edge jet")

    prof = InitialProfile(
        M=M, sigma0=sigma0, cumulative=cumulative,
        vacuum_set=((0.0, 1.0),), edge_jet=(0.0,) * (k - 1) + (top,),
        domain=domain,
        max_abs_F=float(abs(f0) + M + abs(A_right) + abs(A_left)),
        label=f"vacuum-ramp(width={w}, f0={f0}, touch={k})",
    )
    return prof.check()


# --------------------------------------------------------------------------
# registry for the CLI / experiment harness

PROFILES = {
    "equilibrium": equilibrium_profile,
    "cosine": cosine_profile,
    "bump": bump_profile,
    "vacuum-ramp": vacuum_ramp_profile,
}


def profile_line(name: str, M: float, **args) -> InitialProfile:
    """The named profile built from its keyword arguments.  Raises KeyError
    for an unknown name and ValueError for an argument its builder does
    not take, or that is a bool, not a real number or not finite."""
    if name not in PROFILES:
        raise KeyError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    builder = PROFILES[name]
    try:
        inspect.signature(builder).bind(M, **args)
    except TypeError as err:
        raise ValueError(f"profile {name!r}: {err}") from None
    for key, value in args.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"profile {name!r}: argument {key!r} must be "
                             f"a real number, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"profile {name!r}: argument {key!r} must be "
                             f"finite, got {value}")
    return builder(M, **args)


def profile_field(name: str, grid: Grid, M: float, **args) -> Field:
    """The named profile sampled at the grid nodes, less the sampled
    deviation's mean where its integral exceeds MEAN_DEFECT_TOL |Omega|
    (a bump's exact zero mean is not the quadrature's).  Raises MeanDefect
    when the exact integral F(right) - F(left) of the deviation over the
    grid exceeds that bound: such a profile is not a torus perturbation."""
    prof = profile_line(name, M, **args)
    F = prof.cumulative(np.array([grid.left, grid.right]))
    if abs(F[1] - F[0]) > MEAN_DEFECT_TOL * grid.length:
        raise MeanDefect(f"profile {prof.label!r}: the deviation integrates "
                         f"to {F[1] - F[0]:.4g} over the grid, not 0")
    values = prof.sigma0(grid.x)
    defect = mean_defect(grid, values, M)
    if defect is not None:
        values = values - defect / grid.length
    return Field(grid, values, tag="density")
