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
the Euler-Poisson and Keller-Segel steppers.
The cached arrays are read-only.
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


def trig_interp(values: np.ndarray, grid: Grid, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of `values` at arbitrary points.

    Exact on band-limited data; used by the semi-Lagrangian oracle to read
    Eulerian fields at marker positions.
    """
    _check_torus(grid)
    n = grid.n
    fh = np.fft.rfft(values) / n
    k = _symbols(grid).k
    theta = np.multiply.outer(np.asarray(points, dtype=float) - grid.left, k)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = cos_t @ fh.real - sin_t @ fh.imag
    out += cos_t[:, 1:-1] @ fh.real[1:-1] - sin_t[:, 1:-1] @ fh.imag[1:-1]
    if n % 2 == 1:
        out += cos_t[:, -1] * fh.real[-1] - sin_t[:, -1] * fh.imag[-1]
    return out
