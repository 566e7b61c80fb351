"""Run configuration: YAML schema, defaults, validation and CLI overrides.

A run is described by one YAML file with nested sections; ``--set`` flags
on the command line override dotted keys.  An override is merged into the
configuration, so a section override such as ``storm={sigma_time_sq: 2.0}``
or ``grid=null`` keeps the section's other keys; a null section reads as an
empty one.  Every value is read through a typed
reader, so a value of the wrong type is a ``ConfigError`` naming its dotted
key; a value that a constructor rejects is one naming its section.
Everything random flows from the mandatory ``seed`` key: a missing seed is
a configuration error, never an implicit clock-based default.

The schema, with its defaults, is described in README's "Configuration
schema".  Its source is the key tables below: each row holds one key's
default and its reader, and is the only place the key is declared.  A key
that the configuration lacks is written into it with its default as it is
read, so ``RunConfig.raw``, the echo in every sidecar, holds every key the
run read; under ``storm.from_model``, the derived ``sigma`` and
``sigma_time_sq``.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, make_dataclass
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
)
from .errors import ConfigError, StormFieldsError
from .gaussfield import SpaceTimeGrid
from .maxstable import MarginalKind, StormModelParams, equivalent_storm_params

__all__ = ["RunConfig", "SurfacesSpec", "ValidateSpec", "load_config", "parse_config"]


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


# Marks a key that has no default.
_REQUIRED = object()


def _read(section, keys, path, required="is required", known=()):
    """Each key of the table ``keys``, read from the mapping ``section`` by its reader.

    A key that ``section`` lacks is first written into it as a copy of its
    default, so ``section`` then holds every key read; a ``_REQUIRED`` one
    fails with the message ``required`` instead.  Keys of ``known`` may be
    present besides the table's: another table reads them.
    """
    if not isinstance(section, dict):
        _fail(path, "must be a mapping")
    unknown = sorted(set(section) - set(keys) - set(known))
    if unknown:
        _fail(path, f"unknown key(s): {', '.join(unknown)}")
    values = {}
    for key, (default, reader) in keys.items():
        if key not in section:
            if default is _REQUIRED:
                _fail(f"{path}.{key}", required)
            section[key] = copy.deepcopy(default)
        values[key] = reader(section[key], f"{path}.{key}")
    return values


# Readers: ``reader(value, dotted_path)`` returns the value read or raises a
# ConfigError naming ``dotted_path``.

def _number(value, path, *, minimum=None, exclusive=False, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "must be a number")
    # an int is taken exactly, so a seed above 2**53 keeps every digit
    if integer and not (isinstance(value, int) or value.is_integer()):
        _fail(path, "must be an integer")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite:
        _fail(path, "must be finite")
    value = int(value) if integer else float(value)
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

_ANISOTROPY = {"a_max": (3.0, _number), "a_min": (1.0, _number), "angle_deg": (45.0, _number)}
_PAIR = {"h": ([0.0, 0.0], partial(_numbers, length=2)), "u": (0.0, _number)}

# Each model family's class and its keys besides family and anisotropy; the
# gneiting values are the reference set of the documentation examples.
_FAMILIES = {
    "gneiting": (GneitingModel, {
        "a": (0.03, _POSITIVE), "b": (0.03, _POSITIVE), "nu": (1.5, _POSITIVE),
        "gamma": (1.0, _POSITIVE), "beta1": (1.0, _POSITIVE), "beta2": (1.0, _POSITIVE),
        "dimension": (2, _count(1))}),
    "ma_mixture": (MaMixtureModel, {
        "atoms": (_REQUIRED, _atoms),
        "spatial_scale": (_REQUIRED, _POSITIVE), "spatial_exponent": (_REQUIRED, _POSITIVE),
        "temporal_scale": (_REQUIRED, _POSITIVE), "temporal_exponent": (_REQUIRED, _POSITIVE),
        "dimension": (2, _count(1))}),
    "bernstein": (BernsteinModel, {
        "spatial_scales": (_REQUIRED, _numbers), "spatial_exponents": (_REQUIRED, _numbers),
        "temporal_scale": (1.0, _number), "temporal_exponent": (1.0, _number),
        "atoms": (_REQUIRED, _atoms)}),
}

_CONSTRUCTIONS = ("husler_reiss", "storm")

_TOP_LEVEL = {"seed": (_REQUIRED, _count(0)), "workers": (1, _count(1))}
_SECTIONS = {
    "model": {"family": ("gneiting", partial(_choice, choices=tuple(_FAMILIES)))},
    "grid": {
        "shape": ([30, 30], partial(_numbers, minimum=1, integer=True)),
        "spacing": (1.0, _per_axis),
        "origin": (0.0, _per_axis),
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
        "from_model": (False, _flag),
    },
    "surfaces": {  # u_max and n_u only for an isotropic model
        "h_max": (20.0, _POSITIVE), "u_max": (30.0, _POSITIVE),
        "n_h": (201, _count(2)), "n_u": (301, _count(2)),
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

# The plain specs of two sections, one field per key of their tables.  The
# module is set so that pickle finds the classes.
SurfacesSpec, ValidateSpec = (
    make_dataclass(f"{name.title()}Spec", _SECTIONS[name], frozen=True,
                   namespace={"__module__": __name__})
    for name in ("surfaces", "validate"))


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


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        # a null section over a mapping keeps that mapping, like an empty one
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
    # the family, read first, decides the table of the other keys
    family = _read(section, _SECTIONS["model"], "model", known=section)["family"]
    cls, keys = _FAMILIES[family]
    model = cls(**_read(section, keys, "model", f"is required for the {family} family",
                        known=("family", "anisotropy")))
    if section.get("anisotropy") is not None:
        transform = _anisotropy(section["anisotropy"], "model.anisotropy")
        model = AnisotropicModel(base=model, transform=transform)
    return model


def _build_storm(section, model) -> StormModelParams:
    # every key is read, so sigma is checked under from_model too; the echo
    # then records the derived law, so it reruns with from_model false too
    storm = _read(section, _SECTIONS["storm"], "storm")
    if storm.pop("from_model"):
        law = equivalent_storm_params(model.expansion())
        storm.update(sigma=law.sigma_space, sigma_time_sq=law.sigma_time_sq)
        section.update(sigma=law.sigma_space.tolist(), sigma_time_sq=law.sigma_time_sq)
    return StormModelParams(sigma_space=storm.pop("sigma"), **storm)


def _built(section, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``, whose constructor errors become ``ConfigError``s naming ``section``.

    A reader's ``ConfigError``, which names its dotted key, passes unchanged.
    """
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except StormFieldsError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(mapping, overrides=()) -> RunConfig:
    """Validate a raw configuration mapping into a RunConfig."""
    if not isinstance(mapping, dict):
        raise ConfigError("configuration must be a mapping")
    # every section starts as a mapping, so a null one reads as an empty one
    merged = {name: {} for name in _SECTIONS}
    for layer in (mapping, *map(_override, overrides)):
        merged = _merge(merged, layer)

    top = {key: value for key, value in merged.items() if key not in _SECTIONS}
    top_level = _read(top, _TOP_LEVEL, "config",
                      "a master seed is required; implicit seeding is not allowed")
    merged.update(top)

    def read(name):
        return _read(merged[name], _SECTIONS[name], name)

    model = _built("model", _build_model, merged["model"])
    return RunConfig(
        raw=merged,
        **top_level,
        model=model,
        grid=_built("grid", SpaceTimeGrid.regular, **read("grid")),
        storm=_built("storm", _build_storm, merged["storm"], model),
        surfaces=_built("surfaces", SurfacesSpec, **read("surfaces")),
        validate=_built("validate", ValidateSpec, **read("validate")),
        **read("simulate"),
    )


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
