"""Run configuration: YAML schema, defaults, validation and CLI overrides.

A run is described by one YAML file with nested sections; ``--set`` flags
on the command line override dotted keys.  An override is merged into the
configuration the same way the file is merged into the defaults, so a
section override such as ``storm={sigma_time_sq: 2.0}`` or ``grid=null``
keeps the section's other keys.  Every value is read through a typed
reader, so a value of the wrong type is a ``ConfigError`` naming its dotted
key.  Everything random flows from the mandatory ``seed`` key: a missing
seed is a configuration error, never an implicit clock-based default.

The schema, with its defaults, is described in README's "Configuration
schema".  Its source is the key tables below: each row holds one key's
default and its reader, and ``_DEFAULTS`` is derived from them.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .covmodels import (
    AnisotropicModel,
    AnisotropyTransform,
    BernsteinModel,
    CorrelationModel,
    GneitingModel,
    MaMixtureModel,
    PoweredExponential,
    SeparableModel,
)
from .errors import ConfigError, StormFieldsError
from .gaussfield import SpaceTimeGrid
from .maxstable import (
    DEFAULT_INTENSITY_FLOOR,
    MarginalKind,
    StormModelParams,
    equivalent_storm_params,
)

__all__ = ["RunConfig", "SurfacesSpec", "ValidateSpec", "load_config", "parse_config"]


@dataclass(frozen=True)
class SurfacesSpec:
    kind: str
    h_max: float
    u_max: float
    n_h: int
    n_u: int
    extent: float
    n_grid: int
    output: str


@dataclass(frozen=True)
class ValidateSpec:
    construction: str
    n: int
    realizations: int
    pairs: tuple
    thresholds: tuple
    report: str


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A fully validated run: built objects plus the raw mapping they echo."""

    raw: dict
    seed: int
    workers: int
    model: CorrelationModel
    grid: SpaceTimeGrid
    construction: str
    marginal: MarginalKind
    n: int
    realizations: int
    output_dir: str
    storm: StormModelParams
    surfaces: SurfacesSpec
    validate: ValidateSpec


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _expect_mapping(value, path):
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(path, "must be a mapping")
    return value


# Marks a key that has no default.
_REQUIRED = object()


def _read(section, keys, path, required="is required"):
    """Each key of the table ``keys``, read from ``section`` or its default, by its reader.

    A ``_REQUIRED`` key that ``section`` lacks fails with the message ``required``.
    """
    section = _expect_mapping(section, path)
    unknown = sorted(set(section) - set(keys))
    if unknown:
        _fail(path, f"unknown key(s): {', '.join(unknown)}")
    values = {}
    for key, (default, reader) in keys.items():
        value = section.get(key, default)
        if value is _REQUIRED:
            _fail(f"{path}.{key}", required)
        values[key] = reader(value, f"{path}.{key}")
    return values


# Readers: ``reader(value, dotted_path)`` returns the value read or raises a
# ConfigError naming ``dotted_path``.

def _number(value, path, *, minimum=None, exclusive=False, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "must be a number")
    if integer:
        if not math.isfinite(value) or float(value) != int(value):
            _fail(path, "must be an integer")
        value = int(value)
    else:
        value = float(value)
        if not math.isfinite(value):
            _fail(path, "must be finite")
    if minimum is not None:
        if exclusive and not value > minimum:
            _fail(path, f"must be > {minimum}")
        if not exclusive and not value >= minimum:
            _fail(path, f"must be >= {minimum}")
    return value


_POSITIVE = partial(_number, minimum=0.0, exclusive=True)


def _count(minimum):
    """The reader of an integer >= ``minimum``."""
    return partial(_number, minimum=minimum, integer=True)


def _numbers(value, path, *, length=None, **limits):
    """A non-empty list of numbers, of ``length`` entries if given, as a tuple."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        kind = "integer" if limits.get("integer") else "number"
        _fail(path, f"must be a list of {length or 'one or more'} {kind}(s)")
    return tuple(_number(x, f"{path}[{i}]", **limits) for i, x in enumerate(value))


def _per_axis(value, path):
    """A number, or a list of numbers (one per spatial axis)."""
    return _numbers(value, path) if isinstance(value, list) else _number(value, path)


def _entries(value, path, what="a non-empty list"):
    """``(dotted_path, entry)`` of each entry of the non-empty list ``value``."""
    if not isinstance(value, list) or not value:
        _fail(path, f"must be {what}")
    return [(f"{path}[{i}]", entry) for i, entry in enumerate(value)]


def _string(value, path):
    if not isinstance(value, str):
        _fail(path, "must be a string")
    return value


def _choice(value, path, choices):
    if value not in choices:
        _fail(path, f"must be {' or '.join(map(repr, choices))}")
    return value


def _csv_path(value, path):
    """An output CSV path; its sidecar takes the ``.json`` suffix, so the CSV may not."""
    if Path(_string(value, path)).suffix == ".json":
        _fail(path, "must not end in .json, the suffix of its JSON sidecar")
    return value


def _flag(value, path):
    if not isinstance(value, bool):
        _fail(path, "must be true or false")
    return value


def _marginal(value, path):
    try:
        return MarginalKind(str(value).lower())
    except ValueError:
        _fail(path, "must be 'frechet', 'gumbel' or 'weibull'")


def _atoms(value, path):
    return tuple(_numbers(entry, entry_path, length=3) for entry_path, entry in
                 _entries(value, path, "a non-empty list of [v1, v2, weight] triples"))


def _base(value, path):
    return PoweredExponential(**_read(value, _BASE, path))


def _anisotropy(value, path):
    a_max, a_min, angle_deg = _read(value, _ANISOTROPY, path).values()
    return AnisotropyTransform(a_max=a_max, a_min=a_min, angle=math.radians(angle_deg))


def _sigma(value, path):
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "must be a 2x2 matrix")
    return np.array([_numbers(row, f"{path}[{i}]", length=2) for i, row in enumerate(value)])


def _pairs(value, path):
    return tuple(tuple(_read(entry, _PAIR, entry_path).values())
                 for entry_path, entry in _entries(value, path))


def _thresholds(value, path):
    """Each entry as a ``(y1, y2)`` pair; a scalar means y1 = y2."""
    return tuple(_numbers(entry, entry_path, length=2, minimum=0.0, exclusive=True)
                 if isinstance(entry, list) else (_POSITIVE(entry, entry_path),) * 2
                 for entry_path, entry in _entries(value, path))


# Key tables: each key maps to ``(default, reader)``.

_BASE = {"scale": (_REQUIRED, _POSITIVE), "exponent": (_REQUIRED, _POSITIVE)}
_ANISOTROPY = {"a_max": (3.0, _number), "a_min": (1.0, _number), "angle_deg": (45.0, _number)}
_PAIR = {"h": ([0.0, 0.0], partial(_numbers, length=2)), "u": (0.0, _number)}

# Each model family's class and its keys besides family and anisotropy; the
# gneiting values are the reference set of the documentation examples.
_FAMILIES = {
    "gneiting": (GneitingModel, {
        "a": (0.03, _POSITIVE), "b": (0.03, _POSITIVE), "nu": (1.5, _POSITIVE),
        "gamma": (1.0, _POSITIVE), "beta1": (1.0, _POSITIVE), "beta2": (1.0, _POSITIVE),
        "dimension": (2, _count(1))}),
    "separable": (SeparableModel, {
        "spatial_range": (1.0, _POSITIVE), "temporal_decay": (1.0, _POSITIVE),
        "dimension": (2, _count(1))}),
    "ma_mixture": (MaMixtureModel, {
        "atoms": (_REQUIRED, _atoms), "spatial": (_REQUIRED, _base),
        "temporal": (_REQUIRED, _base), "dimension": (2, _count(1))}),
    "bernstein": (BernsteinModel, {
        "spatial_scales": (_REQUIRED, _numbers), "spatial_exponents": (_REQUIRED, _numbers),
        "temporal_scale": (1.0, _number), "temporal_exponent": (1.0, _number),
        "atoms": (_REQUIRED, _atoms)}),
}
# ma_mixture's keys that name its base_spatial and base_temporal arguments
_ARGUMENTS = {"spatial": "base_spatial", "temporal": "base_temporal"}

_CONSTRUCTIONS = ("husler_reiss", "storm")

_TOP_LEVEL = {"seed": (_REQUIRED, _count(0)), "workers": (1, _count(1))}
# grid.origin is not here: its default, zeros of the model's dimension, is
# added by _build_grid.
_SECTIONS = {
    "model": {"family": ("gneiting", partial(_choice, choices=tuple(_FAMILIES)))},
    "grid": {
        "shape": ([30, 30], partial(_numbers, minimum=1, integer=True)),
        "spacing": (1.0, _per_axis),
        "times": ([0.0, 1.0, 2.0, 3.0], _numbers),
    },
    "simulate": {
        "construction": ("husler_reiss", partial(_choice, choices=_CONSTRUCTIONS)),
        "marginal": ("frechet", _marginal),
        "n": (100, _count(2)),
        "realizations": (1, _count(1)),
        "output_dir": ("output", _string),
    },
    "storm": {
        "sigma": ([[1.0, 0.0], [0.0, 1.0]], _sigma),
        "sigma_time_sq": (1.0, _POSITIVE),
        "buffer": (4.0, partial(_number, minimum=0.0)),
        "intensity_floor": (DEFAULT_INTENSITY_FLOOR, _POSITIVE),
        "from_model": (False, _flag),
    },
    "surfaces": {
        "kind": ("isotropic", partial(_choice, choices=("isotropic", "anisotropic"))),
        "h_max": (20.0, _POSITIVE), "u_max": (30.0, _POSITIVE),  # isotropic
        "n_h": (201, _count(2)), "n_u": (301, _count(2)),
        "extent": (12.0, _POSITIVE), "n_grid": (201, _count(2)),  # anisotropic
        "output": ("surfaces.csv", _csv_path),
    },
    "validate": {
        "construction": ("storm", partial(_choice, choices=_CONSTRUCTIONS)),
        "n": (1000, _count(2)),
        "realizations": (10000, _count(1000)),
        "pairs": ([{"h": [0.0, 0.0], "u": 0.0}, {"h": [1.0, 0.0], "u": 0.0},
                   {"h": [0.0, 0.0], "u": 2.0}, {"h": [1.0, 0.0], "u": 1.0}], _pairs),
        "thresholds": ([0.5, 1.0, 2.0], _thresholds),
        "report": ("report.csv", _csv_path),
    },
}

_DEFAULTS = {"workers": _TOP_LEVEL["workers"][0],
             **{name: {key: default for key, (default, _) in keys.items()}
                for name, keys in _SECTIONS.items()}}


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        # a null section over a mapping default keeps the defaults, like an empty one
        if isinstance(out.get(key), dict) and (value is None or isinstance(value, dict)):
            out[key] = _merge(out[key], value or {})
        else:
            out[key] = copy.deepcopy(value)
    return out


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads an exponent float without a dot, such as 1e-6, as a float."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?[0-9]+(?:\.[0-9]+)?[eE][-+]?[0-9]+$"), list("-+0123456789"))


def _override(item):
    """``key.path=value`` as the nested mapping ``{key: {path: value}}``."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} must have the form key.path=value")
    dotted, raw_value = (part.strip() for part in item.split("=", 1))
    try:
        value = yaml.load(raw_value, Loader=_Loader)
    except yaml.YAMLError as exc:
        _fail(dotted, f"unparseable override value: {exc}")
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def _build_model(section) -> CorrelationModel:
    section = dict(_expect_mapping(section, "model"))
    anisotropy = section.pop("anisotropy", None)
    family = _read({"family": section.pop("family")}, _SECTIONS["model"], "model")["family"]
    cls, keys = _FAMILIES[family]
    values = _read(section, keys, "model", f"is required for the {family} family")
    model = cls(**{_ARGUMENTS.get(key, key): value for key, value in values.items()})
    if anisotropy is not None:
        model = AnisotropicModel(base=model, transform=_anisotropy(anisotropy, "model.anisotropy"))
    return model


def _build_grid(section, dimension) -> SpaceTimeGrid:
    origin = [0.0] * dimension
    grid = _read(section, {**_SECTIONS["grid"], "origin": (origin, _per_axis)}, "grid")
    section.setdefault("origin", origin)  # so that the run's echo records it
    for key in ("shape", "spacing", "origin"):
        if isinstance(grid[key], tuple) and len(grid[key]) != dimension:
            _fail(f"grid.{key}", f"must list {dimension} value(s), one per spatial axis")
    return SpaceTimeGrid.regular(**grid)


def _build_storm(storm, model) -> StormModelParams:
    if storm.pop("from_model"):
        return equivalent_storm_params(model.expansion(), buffer=storm["buffer"],
                                       intensity_floor=storm["intensity_floor"])
    return StormModelParams(sigma_space=storm.pop("sigma"), **storm)


def parse_config(mapping, overrides=()) -> RunConfig:
    """Validate a raw configuration mapping into a RunConfig."""
    if not isinstance(mapping, dict):
        raise ConfigError("configuration must be a mapping")
    merged = _merge(_DEFAULTS, mapping)
    for item in overrides:
        merged = _merge(merged, _override(item))

    top_level = _read({key: value for key, value in merged.items() if key not in _SECTIONS},
                      _TOP_LEVEL, "config",
                      "a master seed is required; implicit seeding is not allowed")

    def read(name):
        return _read(merged[name], _SECTIONS[name], name)

    try:
        model = _build_model(merged["model"])
        return RunConfig(
            raw=merged,
            **top_level,
            model=model,
            grid=_build_grid(merged["grid"], model.dimension),
            storm=_build_storm(read("storm"), model),
            surfaces=SurfacesSpec(**read("surfaces")),
            validate=ValidateSpec(**read("validate")),
            **read("simulate"),
        )
    except ConfigError:
        raise
    except StormFieldsError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, overrides=()) -> RunConfig:
    """Read a YAML configuration file and validate it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            mapping = yaml.load(handle, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if mapping is None:
        mapping = {}
    return parse_config(mapping, overrides)
