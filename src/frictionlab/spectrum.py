"""Linear spectrum of the relaxation system about the equilibrium (M, 0).

For a Fourier mode e^{ikx} the two eigenvalues solve

    eps^2 lambda^2 + lambda + M + gamma M^(gamma-1) eps^alpha k^2 = 0.

The 'slow' root continues -M as eps -> 0; the 'fast' root scales like
-1/eps^2 (friction).  For large k*eps the discriminant goes negative and
the pair becomes complex (damped oscillation) -- still stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ResonantDenominator


@dataclass(frozen=True)
class DispersionQuery:
    epsilon: float
    alpha: float
    gamma: float
    M: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k >= 0.0):
            raise ValueError(f"wavenumber must be finite and nonnegative, "
                             f"got {self.k}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0,1)")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0,2)")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if not self.M > 0.0:
            raise ValueError("M must be positive")

    @property
    def stiffness(self) -> float:
        """The constant term M + gamma M^(gamma-1) eps^alpha k^2."""
        return self.M + self.gamma * self.M ** (self.gamma - 1.0) \
            * self.epsilon**self.alpha * self.k**2


@dataclass(frozen=True)
class ModePair:
    lambda_slow: complex
    lambda_fast: Optional[complex]
    amplitude_ratio: complex

    @property
    def stable(self) -> bool:
        ok = self.lambda_slow.real < 0.0
        if self.lambda_fast is not None:
            ok = ok and self.lambda_fast.real < 0.0
        return ok


def dispersion_roots(q: DispersionQuery) -> ModePair:
    """Both roots by the cancellation-free quadratic formula, labeled by
    eps -> 0 continuation (slow = the branch continuing -M).

    At eps = 0 the quadratic degenerates to the single root
    lambda = -stiffness = -M (the eps^alpha factor vanishes for alpha > 0);
    lambda_fast is None there.
    """
    c = q.stiffness
    if q.epsilon == 0.0:
        slow = complex(-q.M, 0.0)
        return ModePair(lambda_slow=slow, lambda_fast=None,
                        amplitude_ratio=amplitude_ratio(q, slow))
    e2 = q.epsilon**2
    disc = 1.0 - 4.0 * e2 * c
    if disc >= 0.0:
        # q_ = -(1 + sqrt(disc))/2 never cancels; the other root via c/q_
        q_ = -0.5 * (1.0 + math.sqrt(disc))
        fast = complex(q_ / e2, 0.0)
        slow = complex(c / q_, 0.0)
    else:
        im = math.sqrt(-disc)
        slow = complex(-1.0, im) / (2.0 * e2)
        fast = complex(-1.0, -im) / (2.0 * e2)
    return ModePair(lambda_slow=slow, lambda_fast=fast,
                    amplitude_ratio=amplitude_ratio(q, slow))


def amplitude_ratio(q: DispersionQuery, lam: complex) -> complex:
    """Velocity-to-density eigencomponent ratio U/zeta for the mode e^{ikx}.

    Evaluated from the linearized momentum balance with the substitutions
    grad(-Delta)^{-1} -> i/k and grad -> ik:

        U/zeta = -(eps*(i/k) + gamma eps^(alpha+1) M^(gamma-2) (ik)) / (1 + eps^2 lam)

    At any dispersion root this equals i*eps*lam/(k*M) identically.
    k = 0 carries no velocity mode (the map has no zero mode): returns 0.
    """
    if q.k == 0.0:
        return 0.0 + 0.0j
    denom = 1.0 + q.epsilon**2 * lam
    if abs(denom) < 1e-14:
        raise ResonantDenominator(f"1 + eps^2*lambda = {denom:.3e}")
    electric = q.epsilon * (1j / q.k)
    pressure = q.gamma * q.epsilon ** (q.alpha + 1.0) \
        * q.M ** (q.gamma - 2.0) * (1j * q.k)
    return -(electric + pressure) / denom

