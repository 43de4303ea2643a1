"""Fourier helpers on the uniform torus: derivatives, dealiasing,
zero-mode-projected inverse gradients, and trigonometric interpolation.

All routines work on raw sample arrays; the real FFT is used throughout
(fields are real).

The Fourier symbols are built once per grid and cached (`_symbols`, keyed
on the frozen `Grid`), all in the rfft layout j = 0..n/2: the wavenumbers
k, the first derivative ik with the unpaired Nyquist mode zeroed, the
inverse gradient i/k (zero at k = 0 and at Nyquist), and the 2/3-rule
keep-mask (1 for j <= n/3, else 0).  `deriv`, `dealias` and
`inverse_gradient` read them, and so do the fused right-hand sides of
the Euler-Poisson and Keller-Segel steppers, which take and return rfft
coefficients: they dealias and differentiate the flux in Fourier space.
The cached arrays are read-only.

`trig_interp` evaluates the interpolant Re sum_k c_k e^{ik theta} of the
K = n/2+1 rfft modes at m arbitrary points by the baby-step/giant-step
split of polynomial evaluation (Paterson & Stockmeyer, 1973): with
b = ceil(sqrt K) and k = jb + r the sum is sum_j (e^{ib theta})^j
(sum_r c_{jb+r} e^{ir theta}), one small complex GEMM of a b x m table
with the coefficient block plus a column-wise dot with an a x m table,
a = ceil(K/b).  Both tables are powers built by repeated products from
2m cos/sin pairs (e^{i theta} and e^{ib theta}), so the work is m(a + b)
complex products and O(m(a + b)) memory, where the dense sum takes 2mK
cos/sin values in m x K tables; each product adds one rounding, so the
error bound grows by u (a + b) sum_k |c_k| (bound in the `trig_interp`
docstring).
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .core import Grid
from .errors import NotTorus


def _check_torus(grid: Grid):
    if not grid.is_torus:
        raise NotTorus("spectral operations require a torus grid")


def wavenumbers(grid: Grid) -> np.ndarray:
    """Physical wavenumbers for the rfft layout: 2*pi*j/L, j=0..n/2."""
    _check_torus(grid)
    return (2.0 * math.pi / grid.length) * np.arange(grid.n // 2 + 1)


class _Symbols(NamedTuple):
    k: np.ndarray          # wavenumbers
    ik: np.ndarray         # d/dx, Nyquist zeroed for even n
    inv_grad: np.ndarray   # grad(-Delta)^{-1}: i/k, zero at k = 0 and Nyquist
    keep: np.ndarray       # 2/3 rule: 1.0 for j <= n/3, else 0.0


@functools.lru_cache(maxsize=64)
def _symbols(grid: Grid) -> _Symbols:
    """The cached rfft-layout symbols of a torus grid."""
    k = wavenumbers(grid)
    ik = 1j * k
    inv_grad = np.zeros_like(ik)
    inv_grad[1:] = 1j / k[1:]
    if grid.n % 2 == 0:
        # no signed Nyquist mode for an odd symbol
        ik[-1] = 0.0
        inv_grad[-1] = 0.0
    keep = (np.arange(k.size) <= grid.n // 3).astype(float)
    for a in (k, ik, inv_grad, keep):
        a.setflags(write=False)
    return _Symbols(k, ik, inv_grad, keep)


def deriv(values: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """Spectral derivative of given order."""
    _check_torus(grid)
    sym = _symbols(grid)
    if order == 1:
        symbol = sym.ik
    else:
        symbol = (1j * sym.k) ** order
        if order % 2 == 1 and grid.n % 2 == 0:
            symbol[-1] = 0.0  # odd derivative of the unpaired Nyquist mode
    return np.fft.irfft(np.fft.rfft(values) * symbol, n=grid.n)


def dealias(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Standard 2/3-rule truncation of the top third of the spectrum."""
    _check_torus(grid)
    return np.fft.irfft(np.fft.rfft(values) * _symbols(grid).keep, n=grid.n)


def inverse_gradient(source: np.ndarray, grid: Grid) -> tuple[np.ndarray, float]:
    """Apply grad(-Delta)^{-1} to `source` with the zero mode projected out.

    Returns (result, removed_mean): result solves d/dx(result) =
    -(source - removed_mean) ... more precisely result_hat(k) =
    (i/k) * source_hat(k) for k != 0 and 0 at k = 0, which is the
    Fourier symbol of grad(-Delta)^{-1}.  removed_mean is the projected
    k = 0 amplitude of the source.
    """
    _check_torus(grid)
    sh = np.fft.rfft(source)
    removed = sh[0].real / grid.n
    out = np.fft.irfft(sh * _symbols(grid).inv_grad, n=grid.n)
    return out, float(removed)


def _unit_phases(phase: np.ndarray) -> np.ndarray:
    """e^{i phase}: real cos and sin written into a complex array, with no
    complex temporary i*phase and no complex exp."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """The count x m table of powers z^0 .. z^{count-1} of the m phases z,
    each row the previous one times z."""
    out = np.empty((count, z.size), dtype=complex)
    out[0] = 1.0
    for r in range(1, count):
        np.multiply(out[r - 1], z, out=out[r])
    return out


def trig_interp(values: np.ndarray, grid: Grid, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of `values` at arbitrary points.

    Exact on band-limited data; used by the semi-Lagrangian oracle to read
    Eulerian fields at marker positions.  `points` is a 1-D array of
    positions anywhere on the line (the interpolant is periodic).

    With theta = 2 pi (x - left)/L the interpolant is Re sum_k c_k e^{ik theta},
    c_k the rfft coefficients over n, doubled for the paired modes
    1 <= k < (n+1)/2 (the Nyquist mode of even n stays single).  The sum
    is split baby-step/giant-step, k = jb + r with b = ceil(sqrt K) and
    a = ceil(K/b) (the coefficients zero-padded to a x b):

        sum_j e^{ijb theta} * (sum_r c_{jb+r} e^{ir theta}),

    the inner sums one GEMM of the coefficient block with the b x m "baby"
    table e^{ir theta}, the outer one a column-wise dot with the a x m
    "giant" table e^{ijb theta}.  Each table is the powers of one unit
    phase, z = e^{i theta} or z_b = e^{ib theta}, built row by row by
    repeated complex products: 2m cos/sin pairs and m(a + b) complex
    products, against the 2mK cos/sin of the dense sum.  Each product adds
    at most one rounding, so the error is at most about
    (K |theta| + 2(a + b)) u sum_k |c_k| (u the unit roundoff): the phase
    error of the largest argument, the recurrences and the two short sums.
    """
    _check_torus(grid)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise ValueError("points must be a 1-D array")
    n = grid.n
    c = np.fft.rfft(values) / n
    c[1:(n + 1) // 2] *= 2.0
    b = math.isqrt(c.size - 1) + 1
    a = -(-c.size // b)
    block = np.zeros(a * b, dtype=complex)
    block[:c.size] = c
    theta = (2.0 * math.pi / grid.length) * (pts - grid.left)
    baby = _powers(_unit_phases(theta), b)
    giant = _powers(_unit_phases(b * theta), a)
    inner = block.reshape(a, b) @ baby
    # the real part of the column-wise product, without a complex temporary
    return (giant.real * inner.real - giant.imag * inner.imag).sum(axis=0)
