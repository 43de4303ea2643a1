"""Core containers: grids, fields, parameter sets, and initial-data checks.

All types are plain frozen dataclasses holding numpy arrays; they are
immutable after construction and safe to share between threads.  A
state (`EPState`, `KSState`) holds its fields and time.
`validate_initial_data` raises the typed error of the first check that
fails and returns None.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import MeanDefect, NonFinite, RangeViolation

TWO_PI = 2.0 * math.pi
STACK_POSITIONS = 8192  # values per stacked pass (reconstruction, records):
                        # 64 KiB float arrays, under glibc's 128 KiB mmap
                        # threshold, so no stack's arrays go back to the
                        # kernel when freed


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _positive_integer(name: str, value) -> None:
    """Raise a ValueError that names value unless it is an integer >= 1
    and not a bool: the one check of a derivative order or a step count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform 1D mesh, either periodic ('torus') or truncated line ('line').

    Torus grids exclude the right endpoint (periodic identification):
    x_j = left + j*h, h = length/n.  Line grids include both endpoints:
    x_j = left + j*h, h = (right-left)/(n-1).
    """

    kind: str            # 'torus' | 'line'
    n: int
    left: float
    length: float        # torus period, or right-left for a line

    def __post_init__(self):
        if self.kind not in ("torus", "line"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
        if self.n < 8:
            raise ValueError("grid needs at least 8 points")
        if not math.isfinite(self.left):
            raise ValueError(f"grid left must be finite, got {self.left!r}")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError(
                f"grid length must be finite and positive, got {self.length!r}")

    @classmethod
    def torus(cls, n: int, length: float = TWO_PI, left: float = 0.0) -> "Grid":
        return cls("torus", n, left, length)

    @classmethod
    def line(cls, left: float, right: float, n: int) -> "Grid":
        return cls("line", n, left, right - left)

    @property
    def right(self) -> float:
        return self.left + self.length

    @property
    def h(self) -> float:
        if self.kind == "torus":
            return self.length / self.n
        return self.length / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return self.left + self.h * np.arange(self.n)

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(_quad_weights(self), values))


@functools.lru_cache(maxsize=64)
def _quad_weights(grid: Grid) -> np.ndarray:
    """Quadrature weights: midpoint rule on the torus, trapezoid on a
    line.  Cached per grid and read-only."""
    w = np.full(grid.n, grid.h)
    if grid.kind == "line":
        w[0] *= 0.5
        w[-1] *= 0.5
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class Field:
    """Real grid function. A field tagged 'density' must be nonnegative."""

    grid: Grid
    values: np.ndarray
    tag: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise NonFinite(f"field {self.tag or '<unnamed>'} has non-finite samples")
        if self.tag == "density" and vals.min() < 0.0:
            raise RangeViolation("density field has negative samples")


@dataclass(frozen=True)
class ParamSet:
    """Physical and numerical parameters shared by the solvers."""

    epsilon: float
    alpha: float
    gamma: float
    mass_level: float
    rho_lower: float
    rho_upper: float
    grid: Grid
    dt_cfl: float = 0.4
    t_end: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0,1)")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0,2)")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if not 0.0 < self.rho_lower < self.mass_level < self.rho_upper:
            raise ValueError("need 0 < rho_lower < mass_level < rho_upper")
        if not 0.0 < self.dt_cfl <= 1.0:
            raise ValueError("dt_cfl must lie in (0,1]")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError("t_end must be finite and nonnegative")
        if not _is_power_of_two(self.grid.n):
            raise ValueError("grid size must be a power of two")

    def replace(self, **kw) -> "ParamSet":
        return replace(self, **kw)


@dataclass(frozen=True)
class EPState:
    """State of the perturbation system: density rho and velocity component w."""

    rho: Field
    w: Field
    time: float = 0.0


@dataclass(frozen=True)
class KSState:
    """State of the limit system: bacteria/charge density sigma."""

    sigma: Field
    time: float = 0.0


MEAN_DEFECT_TOL = 1e-10  # relative to |Omega|


def mean_defect(grid: Grid, values: np.ndarray, M: float) -> float | None:
    """The integral of values - M over the grid where it exceeds
    MEAN_DEFECT_TOL |Omega|, else None: the one zero-mean test."""
    defect = grid.integrate(values - M)
    return defect if abs(defect) > MEAN_DEFECT_TOL * grid.length else None


def validate_initial_data(rho0: Field, w0: Field, p: ParamSet) -> None:
    """Check the admissibility of (rho0, w0): finiteness, the pointwise
    band, a zero-mean perturbation.  Raises NonFinite, RangeViolation or
    MeanDefect for the first check that fails, in that order.
    """
    if rho0.grid != p.grid or w0.grid != p.grid:
        raise ValueError("initial fields must live on the parameter grid")
    if not (np.all(np.isfinite(rho0.values)) and np.all(np.isfinite(w0.values))):
        raise NonFinite("initial data has non-finite samples")

    rho_min = float(rho0.values.min())
    rho_max = float(rho0.values.max())
    if not (p.rho_lower < rho_min and rho_max < p.rho_upper):
        raise RangeViolation(
            f"rho0 range [{rho_min:.6g}, {rho_max:.6g}] not inside "
            f"({p.rho_lower:.6g}, {p.rho_upper:.6g})")

    defect = mean_defect(p.grid, rho0.values, p.mass_level)
    if defect is not None:
        raise MeanDefect(
            f"perturbation mass defect {defect:.3e} exceeds "
            f"{MEAN_DEFECT_TOL * p.grid.length:.3e}")
