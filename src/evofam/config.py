"""Config ingestion: JSON schema validation and object construction."""

from __future__ import annotations

import json
from functools import partial
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .assumptions import SamplePlan
from .errors import ConfigurationError
from .perturbation import Mollifier, MultiplierFamily, SmoothingComposite
from .spectral import (Grid, GridFunction, box_profile, gaussian_bump, gaussian_profile,
                       indicator, load_function, mode, random_band_limited)
from .symbols import CoefficientFunction, SymbolSpec, constant
from .transport import TimeSpaceCoefficient, TransportProblem


def load_schema() -> dict:
    text = resources.files("evofam.data").joinpath("config.schema.json").read_text()
    return json.loads(text)


def validate_config(config: dict) -> None:
    """Schema-check; raises ConfigurationError with a field-path diagnostic."""
    validator = jsonschema.Draft7Validator(load_schema())
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigurationError(f"config invalid at {path}: {err.message}")


def _non_finite(name: str):
    # NaN and Infinity are not JSON; an infinite plans.cap would pass every
    # sampled constant it bounds
    raise ConfigurationError(f"config holds the non-finite number {name}")


def load_config(path) -> dict:
    path = Path(path)
    try:
        config = json.loads(path.read_text(), parse_constant=_non_finite)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    validate_config(config)
    grid_dim, symbol_dim = config["grid"]["dim"], config["symbol"]["dim"]
    if grid_dim != symbol_dim:
        raise ConfigurationError(f"config invalid at grid/dim: the grid's dim {grid_dim} "
                                 f"differs from the symbol's dim {symbol_dim}")
    return config


def _complexish(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1])


def build_coefficient(entry: dict) -> CoefficientFunction:
    poly = tuple((int(k), complex(re, im)) for k, re, im in entry.get("poly", []))
    trig = tuple((float(w), complex(cr, ci), complex(sr, si))
                 for w, cr, ci, sr, si in entry.get("trig", []))
    steps = tuple((float(t0), complex(re, im))
                  for t0, re, im in entry.get("steps", []))
    return CoefficientFunction(const=_complexish(entry.get("const", 0.0)),
                               poly=poly, trig=trig, steps=steps)


def build_symbol(entry: dict) -> SymbolSpec:
    coeffs = {}
    for item in entry["coefficients"]:
        alpha = tuple(int(a) for a in item["alpha"])
        coeffs[alpha] = build_coefficient(item)
    return SymbolSpec(dim=int(entry["dim"]), order=int(entry["order"]),
                      horizon=float(entry["horizon"]), coefficients=coeffs)


def build_grid(entry: dict) -> Grid:
    return Grid(int(entry["dim"]), int(entry["n"]), float(entry["box"]))


def build_plan(entry: dict | None, seed: int) -> SamplePlan:
    entry = dict(entry or {})
    return SamplePlan(seed=seed, **entry)


def build_perturbation(entry: dict | None):
    entry = entry or {"kind": "mollifier"}
    kind = entry["kind"]
    if kind == "mollifier":
        return Mollifier()
    # an absent coefficient takes the family's own default (None); a present
    # one is built as written, so {} is c = 0
    coeff = build_coefficient(entry["coefficient"]) if "coefficient" in entry else None
    if kind == "multiplier":
        return MultiplierFamily(
            coefficient=coeff,
            profile_num=tuple(entry.get("profile_num", (1.0,))),
            profile_den=tuple(entry.get("profile_den", (1.0, 1.0))),
        )
    if kind == "smoothing":
        return SmoothingComposite(order=int(entry.get("order", 2)), coefficient=coeff)
    raise ConfigurationError(f"unknown perturbation kind {kind!r}")


def build_solver(entry: dict | None) -> int:
    """The Volterra step count M; the schema's minimum of 2 keeps the
    family checks' M // 2 run nonempty."""
    return int((entry or {}).get("steps", 1024))


def build_initial(entry: dict, grid: Grid, rng: np.random.Generator) -> GridFunction:
    kind = entry["kind"]
    if kind == "mode":
        return mode(grid, entry.get("k", 1))
    if kind == "random_band":
        return random_band_limited(grid, rng, band=int(entry.get("band", 4)))
    if kind == "indicator":
        return indicator(grid, float(entry.get("lo", 0.0)), float(entry.get("hi", 1.0)))
    if kind == "gaussian":
        return gaussian_bump(grid, entry.get("center"), entry.get("width"))
    if kind == "file":
        return load_function(entry["stem"])
    raise ConfigurationError(f"unknown initial kind {kind!r} for grid functions")


def build_field(entry: dict) -> TimeSpaceCoefficient:
    """c(t) (w0 + w1 x/(1+x)); the schema requires exactly one of `const`
    and `time` for c."""
    time_part = (constant(float(entry["const"])) if "const" in entry
                 else build_coefficient(entry["time"]))
    return TimeSpaceCoefficient(time_part,
                                w0=float(entry.get("w0", 1.0)),
                                w1=float(entry.get("w1", 0.0)))


def build_transport(entry: dict) -> TransportProblem:
    return TransportProblem(
        horizon=float(entry["T"]),
        x_max=float(entry["xmax"]),
        cells=int(entry["cells"]),
        velocity=build_field(entry["g"]),
        decay=build_field(entry["mu"]),
    )


def build_transport_initial(entry: dict):
    """The initial profile as a function of the cell centres."""
    kind = entry["kind"]
    if kind == "box":
        return partial(box_profile, lo=float(entry.get("lo", 1.0)),
                       hi=float(entry.get("hi", 2.0)))
    if kind == "gaussian":
        return partial(gaussian_profile, center=float(entry.get("center", 1.5)),
                       width=float(entry.get("width", 0.25)))
    raise ConfigurationError(f"unknown initial kind {kind!r} for transport")
