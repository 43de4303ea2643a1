"""Fourier helpers on the uniform torus: derivatives, zero-mode-projected
inverse gradients, and trigonometric interpolation.

All routines work on raw sample arrays; the real FFT is used throughout
(fields are real).

Every transform of the package goes through one seam: `rfft(x, out)` and
`irfft(c, n, out)`, over the last axis, float64 samples in and complex128
coefficients out (the only dtypes the package transforms).  They call the
pocketfft gufuncs that numpy.fft.rfft/irfft end in (numpy >= 2.0), with
the factors those pass by default (1 forward, 1/n inverse), so every
output bit is numpy.fft's; what they skip is numpy.fft's argument
handling (norm lookup, dtype and axis resolution), about 7 of the 20 us
a call took on the 2 x 4 x 256 stacks of a four-member sweep step.  An
`out` array is written in place.  No module calls numpy.fft, so a
counter or tracer on the seam sees every transform.

The Fourier symbols are built once per grid and cached (`_symbols`, keyed
on the frozen `Grid`), all in the rfft layout j = 0..n/2: the wavenumbers
k, the first derivative ik with the unpaired Nyquist mode zeroed, the
inverse gradient i/k (zero at k = 0 and at Nyquist) and its negative
-i/k, which maps sigma - M to the nonlocal velocity v, the 2/3-rule
keep-mask (1 for j <= n/3, else 0), and -ik keep, minus the derivative
of the dealiased field; and, per grid and top order m, the symbols of
d^j/dx^j for j = 1..m (`_deriv_symbols`).  `deriv`, `_derivs` (orders
1..m of stacked rows from one rfft and one batched irfft, for the
diagnostics) and `inverse_gradient` read them, and so do the fused
right-hand sides of the Euler-Poisson and Keller-Segel steppers, which
take and return rfft coefficients: they dealias (with the keep-mask)
and differentiate the flux in Fourier space, in one product with
-ik keep.  The cached arrays are read-only.

A field is read at arbitrary points in three parts: `trig_coefficients`
makes the coefficient blocks of stacked rows in one batched rfft,
`trig_tables` the work tables for m points (over 128 KiB each at
n = m = 512), made once for any number of reads, and `trig_eval`
evaluates one block on them from one cos/sin pair per point and m(a + b)
complex products, a + b about 2 sqrt(n/2), where the dense sum takes
m(n/2 + 1) cos/sin pairs.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .core import Grid, _positive_integer
from .errors import NotTorus


def _check_torus(grid: Grid):
    if not grid.is_torus:
        raise NotTorus("spectral operations require a torus grid")


def _check_rows(values, grid: Grid) -> np.ndarray:
    """values as an array of rows of grid.n samples on a torus grid."""
    _check_torus(grid)
    values = np.asarray(values)
    if values.shape[-1:] != (grid.n,):
        raise ValueError(f"rows must have grid.n = {grid.n} samples, "
                         f"got shape {values.shape}")
    return values


_RFFT = (_pocketfft.rfft_n_even, _pocketfft.rfft_n_odd)   # by n % 2


def rfft(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The rfft of each row of the float64 array x (... x n), as
    numpy.fft.rfft(x) gives it bit for bit, written into out (complex128,
    ... x (n/2 + 1)) or a new array."""
    n = x.shape[-1]
    if out is None:
        out = np.empty(x.shape[:-1] + (n // 2 + 1,), dtype=complex)
    elif out.shape[-1] != n // 2 + 1:
        raise ValueError(f"out has {out.shape[-1]} modes, not {n // 2 + 1}")
    return _RFFT[n % 2](x, 1.0, out)


def irfft(c: np.ndarray, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The n samples of each row of rfft coefficients c (complex128,
    ... x (n/2 + 1)), as numpy.fft.irfft(c, n=n) gives them bit for bit,
    written into out (float64, ... x n) or a new array."""
    if out is None:
        out = np.empty(c.shape[:-1] + (n,))
    elif out.shape[-1] != n:
        raise ValueError(f"out has {out.shape[-1]} samples, not {n}")
    return _pocketfft.irfft(c, 1.0 / n, out)


def wavenumbers(grid: Grid) -> np.ndarray:
    """Physical wavenumbers for the rfft layout: 2*pi*j/L, j=0..n/2."""
    _check_torus(grid)
    return (2.0 * math.pi / grid.length) * np.arange(grid.n // 2 + 1)


class _Symbols(NamedTuple):
    k: np.ndarray          # wavenumbers
    ik: np.ndarray         # d/dx, Nyquist zeroed for even n
    inv_grad: np.ndarray   # grad(-Delta)^{-1}: i/k, zero at k = 0 and Nyquist
    neg_inv_grad: np.ndarray  # -i/k: sigma - M to v = -grad(-Delta)^{-1}
    keep: np.ndarray       # 2/3 rule: 1.0 for j <= n/3, else 0.0
    neg_ik_keep: np.ndarray  # -ik keep: minus d/dx of the dealiased field


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
    neg_ik_keep = -ik * keep
    out = _Symbols(k, ik, inv_grad, -inv_grad, keep, neg_ik_keep)
    for a in out:
        a.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def _deriv_symbols(grid: Grid, m: int) -> np.ndarray:
    """The cached m x (n/2+1) table of the symbols (ik)^j of d^j/dx^j,
    j = 1..m (m >= 1), whose unpaired Nyquist mode is kept for even j and
    zeroed for odd j; row 0 equals `_symbols(grid).ik`."""
    ik = 1j * _symbols(grid).k
    out = np.stack([ik**j for j in range(1, m + 1)])
    if grid.n % 2 == 0:
        out[::2, -1] = 0.0  # odd orders
    out.setflags(write=False)
    return out


def _derivs(rows: np.ndarray, grid: Grid, m: int) -> np.ndarray:
    """Derivatives of orders 1..m of the r x n stacked rows, as an
    m x r x n array, from one rfft and one batched irfft."""
    _check_torus(grid)
    return irfft(rfft(rows) * _deriv_symbols(grid, m)[:, None], grid.n)


def deriv(values: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """Spectral derivative of the given order, an integer >= 1, of each
    row of grid.n samples in values."""
    values = _check_rows(values, grid)
    _positive_integer("order", order)
    symbol = _deriv_symbols(grid, order)[order - 1]
    return irfft(rfft(values) * symbol, grid.n)


def inverse_gradient(source: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply grad(-Delta)^{-1} to `source` with the zero mode projected out:
    result_hat(k) = (i/k) source_hat(k) for k != 0 and 0 at k = 0, so
    d/dx(result) = -(source - mean(source)).
    """
    coefficients = rfft(_check_rows(source, grid))
    coefficients *= _symbols(grid).inv_grad
    return irfft(coefficients, grid.n)


def _unit_phases(phase: np.ndarray) -> np.ndarray:
    """e^{i phase}: real cos and sin written into a complex array, with no
    complex temporary i*phase and no complex exp."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _powers(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, a count x m table, filled with the powers z^0 .. z^{count-1}
    of the m phases z, each row the previous one times z."""
    out[0] = 1.0
    for r in range(1, len(out)):
        np.multiply(out[r - 1], z, out=out[r])
    return out


def _split(grid: Grid) -> tuple:
    """(a, b) of the baby-step/giant-step split of the K = n/2+1 modes:
    b = ceil(sqrt K) and a = ceil(K/b)."""
    size = grid.n // 2 + 1
    b = math.isqrt(size - 1) + 1
    return -(-size // b), b


class InterpTables(NamedTuple):
    """The work tables of `trig_eval` at m points, which each evaluation
    overwrites: made once, they serve any number of evaluations."""

    baby: np.ndarray    # b x m: e^{ir theta}, r < b
    giant: np.ndarray   # a x m: e^{ijb theta}, j < a
    inner: np.ndarray   # a x m: the inner sums
    terms: np.ndarray   # 2 x a x m real: the two products of Re(giant inner)


def trig_tables(grid: Grid, m: int) -> InterpTables:
    """New work tables of `trig_eval` for m points on grid."""
    a, b = _split(grid)
    return InterpTables(np.empty((b, m), dtype=complex),
                        np.empty((a, m), dtype=complex),
                        np.empty((a, m), dtype=complex), np.empty((2, a, m)))


def trig_coefficients(values: np.ndarray, grid: Grid) -> np.ndarray:
    """The coefficients `trig_eval` reads of the interpolant of each row of
    values (... x n), from one batched rfft: c_k the rfft coefficients
    over n, doubled for the paired modes 1 <= k < (n+1)/2 (the Nyquist
    mode of even n stays single), zero-padded to a x b blocks
    (... x a x b), block row j holding c_{jb} .. c_{jb+b-1}."""
    n = grid.n
    c = rfft(_check_rows(values, grid))
    c /= n
    c[..., 1:(n + 1) // 2] *= 2.0
    a, b = _split(grid)
    block = np.zeros(c.shape[:-1] + (a * b,), dtype=complex)
    block[..., :c.shape[-1]] = c
    return block.reshape(c.shape[:-1] + (a, b))


def trig_eval(block: np.ndarray, grid: Grid, points: np.ndarray,
              tables: InterpTables) -> np.ndarray:
    """Evaluate at the 1-D array points the trigonometric interpolant of
    the coefficient block `block` (a x b, one row of `trig_coefficients`)
    on tables made for points.size points (`trig_tables`); a new array.
    Exact on band-limited data, and periodic in the points.

    With theta = 2 pi (x - left)/L the interpolant Re sum_k c_k e^{ik theta}
    is split baby-step/giant-step (Paterson & Stockmeyer, 1973), k = jb + r:
    sum_j e^{ijb theta} (sum_r c_{jb+r} e^{ir theta}), the inner sums one
    GEMM of the block with the b x m table e^{ir theta}, the outer one a
    column-wise dot with the a x m table e^{ijb theta}.  Both tables are
    powers of the one unit phase z = e^{i theta}, built by repeated complex
    products, each of which adds at most one rounding: the baby table
    holds z^r, and the giant table the powers of its base z^b, made as
    z^{b-1} z.  A power z^k is k products from z, so the error is at most
    about (K (|theta| + 2) + 2a + b) u sum_k |c_k|, K = n/2 + 1 and u the
    unit roundoff (the phase error of z carried to the largest power, the
    products on the way to it, and the two short sums).
    """
    theta = (2.0 * math.pi / grid.length) * (points - grid.left)
    z = _unit_phases(theta)
    baby = _powers(z, tables.baby)
    giant = _powers(baby[-1] * z, tables.giant)
    inner = np.matmul(block, baby, out=tables.inner)
    # the real part of the column-wise product, without a complex temporary
    re, im = tables.terms
    np.multiply(giant.real, inner.real, out=re)
    np.multiply(giant.imag, inner.imag, out=im)
    return np.subtract(re, im, out=re).sum(axis=0)
