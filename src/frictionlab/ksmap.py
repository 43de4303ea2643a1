"""The nonlocal velocity map rho -> v = -grad(-Delta)^{-1}(rho - M) on the
torus, by spectral inversion with the zero mode projected out.  On the
line the map is v(x) = F(x), the profile's cumulative deviation, which
the characteristics use in closed form.
"""
from __future__ import annotations

import numpy as np

from .core import Field
from .errors import NonFinite, NotTorus
from .spectral import inverse_gradient


def ks_map_torus(rho: Field, M: float) -> Field:
    """The transport velocity of the density deviation, by spectral
    inversion: v_hat(k) = (rho - M)_hat(k) / (ik) for k != 0, zero mode
    dropped, so that dv/dx = rho - M - <rho - M>.
    """
    if not rho.grid.is_torus:
        raise NotTorus("ks_map_torus needs a torus grid")
    if not np.all(np.isfinite(rho.values)):
        raise NonFinite("ks_map_torus: source has non-finite samples")
    return Field(rho.grid, -inverse_gradient(rho.values - M, rho.grid))
