import numpy as np
import pytest

from frictionlab.characteristics import trajectory_position
from frictionlab.core import Field, Grid, ParamSet
from frictionlab.errors import InversionFailure


def _dense_trig_interp(values, grid, points):
    """The dense trigonometric interpolant: the full m x (n/2+1) cos and
    sin tables, summed mode by mode (the paired modes twice)."""
    n = grid.n
    fh = np.fft.rfft(values) / n
    k = (2.0 * np.pi / grid.length) * np.arange(n // 2 + 1)
    theta = np.multiply.outer(np.asarray(points, dtype=float) - grid.left, k)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = cos_t @ fh.real - sin_t @ fh.imag
    out += cos_t[:, 1:-1] @ fh.real[1:-1] - sin_t[:, 1:-1] @ fh.imag[1:-1]
    if n % 2 == 1:
        out += cos_t[:, -1] * fh.real[-1] - sin_t[:, -1] * fh.imag[-1]
    return out


@pytest.fixture
def dense_trig_interp():
    """The reference that the interpolant spectral.trig_eval reads (of
    spectral.trig_coefficients, on spectral.trig_tables) is checked
    against."""
    return _dense_trig_interp


def _dealias(values, grid):
    """The 2/3-rule truncation of the top third of the spectrum, one FFT
    round trip, its mask built here and not read from spectral._symbols."""
    keep = np.arange(grid.n // 2 + 1) <= grid.n // 3
    return np.fft.irfft(np.fft.rfft(values) * keep, n=grid.n)


@pytest.fixture(scope="session")
def dealias():
    """The reference for the dealiasing the fused stepper kernels do in
    Fourier space."""
    return _dealias


def _quadratic_residual(q, lam):
    """Scaled residual |eps^2 lam^2 + lam + stiffness| / max(1, |lam|^2 eps^2)
    of a dispersion root."""
    r = q.epsilon**2 * lam * lam + lam + q.stiffness
    return abs(r) / max(1.0, abs(lam) ** 2 * q.epsilon**2)


@pytest.fixture(scope="session")
def quadratic_residual():
    """The check that spectrum.dispersion_roots returns roots of the
    dispersion quadratic."""
    return _quadratic_residual


def _plain_bisection(y, tau, prof):
    """The trajectory-map inversion that evaluates eta at every midpoint:
    the labels characteristics.invert_trajectory_map must reproduce."""
    y = np.asarray(y, dtype=float)
    c = prof.max_abs_F / prof.M + 1.0
    lo = y - c
    hi = y + c
    eta_lo = trajectory_position(lo, tau, prof)
    eta_hi = trajectory_position(hi, tau, prof)
    if np.any(eta_lo > y) or np.any(eta_hi < y):
        raise InversionFailure("bracket does not contain the target positions")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        above = trajectory_position(mid, tau, prof) > y
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if np.max(hi - lo) < 1e-14:
            break
    labels = 0.5 * (lo + hi)
    if np.any(np.diff(labels) < -1e-9):
        raise InversionFailure("sampled trajectory map is not monotone")
    return labels


@pytest.fixture(scope="session")
def plain_bisection():
    """The reference that invert_trajectory_map is checked against."""
    return _plain_bisection


@pytest.fixture
def torus64():
    return Grid.torus(64)


@pytest.fixture
def params(torus64):
    return ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                    rho_lower=0.25, rho_upper=2.0, grid=torus64, t_end=1.0)


@pytest.fixture
def cosine_rho(torus64):
    return Field(torus64, 1.0 + 0.3 * np.cos(torus64.x), tag="density")


@pytest.fixture
def zero_w(torus64):
    return Field(torus64, np.zeros(torus64.n))
