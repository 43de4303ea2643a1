"""The nonlocal velocity map rho -> v = -grad(-Delta)^{-1}(rho - M) on the
torus, by spectral inversion (zero mode projected and reported).  On the
line the map is v(x) = F(x), the profile's cumulative deviation, which
the characteristics use in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Field
from .errors import NonFinite, NotTorus
from .spectral import inverse_gradient


@dataclass(frozen=True)
class KSVelocity:
    """Transport velocity induced by the density deviation."""

    v: Field
    source_mean_defect: float


def ks_map_torus(rho: Field, M: float) -> KSVelocity:
    """Spectral inversion: v_hat(k) = (rho - M)_hat(k) / (ik) for k != 0,
    zero mode dropped, so that dv/dx = rho - M - <rho - M>.
    """
    if not rho.grid.is_torus:
        raise NotTorus("ks_map_torus needs a torus grid")
    if not np.all(np.isfinite(rho.values)):
        raise NonFinite("ks_map_torus: source has non-finite samples")
    source = rho.values - M
    grad_inv, removed = inverse_gradient(source, rho.grid)
    return KSVelocity(v=Field(rho.grid, -grad_inv), source_mean_defect=removed)
