"""Desk-scale example spaces and the space-definition JSON interface.

JSON schema::

    { "kind": "explicit" | "weighted" | "dirichlet" | "named",
      "components": [[coeff, ...], ...],      # explicit; coeff = x or [re, im]
      "weights": [w0, w1, ...],               # weighted
      "atoms": [{"z": [re, im], "c": w}, ...],# dirichlet
      "name": "h2" | "rank1-half" }           # named

The named set additionally accepts "cusp" (symbol (z + z^2)/2),
"dirichlet-origin" and "dirichlet-pair" as documented extensions.
"""

import json

import numpy as np

from .errors import ConfigError, InvariantViolation
from .harmonic import DEFAULT_GRID, DiskFunction
from .model import SpaceHandle
from .symbols import DirichletSpace, MeasureSpec, RowSymbol, weighted_space_symbol


def h2_symbol() -> RowSymbol:
    """The Hardy space: empty row symbol."""
    return RowSymbol([])


def rank1_half_symbol(n_boundary: int = DEFAULT_GRID) -> RowSymbol:
    """b = z / sqrt(2); equivalently coefficient weights (1, 2, 2, ...)."""
    return RowSymbol([DiskFunction([0.0, 1.0 / np.sqrt(2.0)], n_boundary=n_boundary)])


def cusp_symbol(n_boundary: int = DEFAULT_GRID) -> RowSymbol:
    """b = (z + z^2)/2; the defect sin^2(theta/2) touches zero on the circle."""
    return RowSymbol([DiskFunction([0.0, 0.5, 0.5], n_boundary=n_boundary)])


def inner_symbol(n_boundary: int = DEFAULT_GRID) -> RowSymbol:
    """b = z; the attached space is the constants."""
    return RowSymbol([DiskFunction([0.0, 1.0], n_boundary=n_boundary)])


def dirichlet_origin(degree: int = 128) -> DirichletSpace:
    """Local Dirichlet space of the unit mass at the origin."""
    return DirichletSpace(MeasureSpec(atoms=[(0.0, 1.0)]), degree=degree)


def dirichlet_half(degree: int = 128) -> DirichletSpace:
    return DirichletSpace(MeasureSpec(atoms=[(0.5, 1.0)]), degree=degree)


def dirichlet_pair(degree: int = 128) -> DirichletSpace:
    return DirichletSpace(MeasureSpec(atoms=[(0.5, 1.0), (-0.5, 1.0)]), degree=degree)


_NAMED = {
    "h2": lambda **kw: SpaceHandle(h2_symbol(), **kw),
    "rank1-half": lambda **kw: SpaceHandle(rank1_half_symbol(kw.get("n_grid", DEFAULT_GRID)), **kw),
    "cusp": lambda **kw: SpaceHandle(cusp_symbol(kw.get("n_grid", DEFAULT_GRID)), **kw),
    # Dirichlet-type spaces are exact and take no grid: only ``degree`` applies
    "dirichlet-origin": lambda degree=128, **_: dirichlet_origin(degree),
    "dirichlet-half": lambda degree=128, **_: dirichlet_half(degree),
    "dirichlet-pair": lambda degree=128, **_: dirichlet_pair(degree),
}


def named_space(name: str, **kwargs):
    try:
        builder = _NAMED[name]
    except KeyError:
        raise ConfigError(
            f"unknown space name {name!r}; known: {sorted(_NAMED)}"
        ) from None
    return builder(**kwargs)


def _parse_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"cannot parse complex number from {value!r}")


def space_from_json(obj, **kwargs):
    """Build a space object (SpaceHandle or DirichletSpace) from a JSON
    space definition, a JSON string, or a path to a JSON file."""
    if isinstance(obj, str):
        text = obj
        if not text.lstrip().startswith("{"):
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed space JSON: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("space definition must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "named":
            return named_space(obj["name"], **kwargs)
        if kind == "explicit":
            comps = [np.array([_parse_complex(v) for v in row], dtype=complex)
                     for row in obj["components"]]
            n_grid = kwargs.get("n_grid", DEFAULT_GRID)
            symbol = RowSymbol([DiskFunction(c, n_boundary=n_grid) for c in comps])
            return SpaceHandle(symbol, **kwargs)
        if kind == "weighted":
            symbol = weighted_space_symbol(
                obj["weights"], n_boundary=kwargs.get("n_grid", DEFAULT_GRID))
            return SpaceHandle(symbol, **kwargs)
        if kind == "dirichlet":
            atoms = [(_parse_complex(a["z"]), float(a["c"])) for a in obj["atoms"]]
            return DirichletSpace(MeasureSpec(atoms=atoms), degree=kwargs.get("degree", 128))
    except KeyError as exc:
        raise ConfigError(f"space definition missing field {exc}") from exc
    except InvariantViolation:
        raise  # a well-formed definition whose object fails its invariants
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid space definition: {exc}") from exc
    raise ConfigError(f"unknown space kind {kind!r}")
