"""Flat key=value configuration files and deterministic CSV output.

CSV cells use '.' decimals, minimal RFC-4180 quoting, CRLF rows, and
exponent notation for magnitudes below 1e-4, with fixed precision so
identical runs produce byte-identical files.
"""
from __future__ import annotations

import csv
import math
import numbers
from pathlib import Path

import numpy as np

from .core import Grid, ParamSet

def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if x == 0.0:
            return "0"
        if not math.isfinite(x):
            return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
        if abs(x) < 1e-4:
            return f"{x:.12e}"
        return f"{x:.12g}"
    return str(x)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # csv defaults: RFC-4180 quoting, CRLF rows
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(c) for c in row])
    return path


def _coerce(raw: str):
    raw = raw.strip()
    if "," in raw:
        return tuple(_coerce(part) for part in raw.split(","))
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def read_config(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment; commas make tuples.
    Raises ValueError naming path:line for a line without '=', an empty
    key and a key given twice."""
    cfg = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        if key in cfg:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        cfg[key] = _coerce(value)
    return cfg


DEFAULTS = dict(
    epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
    rho_lower=0.25, rho_upper=2.0, dt_cfl=0.4, t_end=1.0,
    grid_n=128, grid_length=2.0 * math.pi, grid_left=0.0,
)
# keys the CLI reads besides DEFAULTS and the profile_* arguments
CONFIG_KEYS = ("epsilon_list", "wavenumbers", "profile", "initial_data")


def build_params(cfg: dict) -> ParamSet:
    """The parameter set of a config on its torus grid.  Raises ValueError
    for a key that nothing reads, and for a value of a float key of
    DEFAULTS that is a bool or not a real number."""
    unknown = sorted(k for k in cfg if k not in DEFAULTS
                     and k not in CONFIG_KEYS and not k.startswith("profile_"))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    merged = {**DEFAULTS, **cfg}
    real = {}
    for key, default in DEFAULTS.items():
        if isinstance(default, float):
            value = merged[key]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"config key {key!r} must be a real number, "
                                 f"got {value!r}")
            real[key] = float(value)
    grid = Grid.torus(merged["grid_n"], real.pop("grid_length"),
                      real.pop("grid_left"))
    return ParamSet(grid=grid, **real)


def profile_args_from(cfg: dict) -> tuple[str, dict]:
    """Extract the profile name and its profile_* parameters."""
    name = cfg.get("profile", "cosine")
    args = {}
    for key, value in cfg.items():
        if key.startswith("profile_"):
            args[key[len("profile_"):]] = value
    return name, args


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_initial_csv(path, grid):
    """Two-column (x, value) CSV, interpolated onto the grid nodes.

    Blank rows and rows whose first cell starts with '#' are skipped, and
    a first row that is not all numbers is the header.  Any other row that
    is not two numbers, or whose x or value is NaN or infinite, raises
    ValueError naming its file and line.
    """
    xs, vals = [], []
    first = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not "".join(row).strip() or row[0].lstrip().startswith("#"):
                continue
            is_first, first = first, False
            try:
                x, v = map(float, row)
            except ValueError:
                if is_first and not all(map(_is_number, row)):
                    continue  # the header
                raise ValueError(f"{path}:{reader.line_num}: expected two "
                                 f"numbers x, value, got {','.join(row)!r}"
                                 ) from None
            if not (math.isfinite(x) and math.isfinite(v)):
                raise ValueError(f"{path}:{reader.line_num}: x and value "
                                 f"must be finite, got {row[0]}, {row[1]}")
            xs.append(x)
            vals.append(v)
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least two (x, value) rows")
    order = np.argsort(xs)
    xs = np.asarray(xs)[order]
    vals = np.asarray(vals)[order]
    return np.interp(grid.x, xs, vals)
