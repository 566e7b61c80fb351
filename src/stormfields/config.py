"""Run configuration: YAML schema, defaults, validation and CLI overrides.

A run is described by one YAML file with nested sections; ``--set`` flags
on the command line override dotted keys.  An override is merged into the
configuration the same way the file is merged into the defaults, so a
section override such as ``storm={sigma_time_sq: 2.0}`` or ``grid=null``
keeps the section's other keys.  Every value is read through a typed
reader, so a value of the wrong type is a ``ConfigError`` naming its dotted
key.  Everything random flows from the mandatory ``seed`` key: a missing
seed is a configuration error, never an implicit clock-based default.

Schema (defaults shown; see README for the full description)::

    seed: 20240            # required, no default
    workers: 1

    model:
      family: gneiting     # gneiting | separable | ma_mixture | bernstein
      a: 0.03              # gneiting: temporal scale
      b: 0.03              # gneiting: spatial scale
      nu: 1.5
      gamma: 1.0
      beta1: 1.0
      beta2: 1.0
      dimension: 2
      # anisotropy:        # optional geometric anisotropy (d = 2)
      #   a_max: 3.0
      #   a_min: 1.0
      #   angle_deg: 45.0

    grid:
      shape: [30, 30]
      spacing: 1.0
      origin: [0.0, 0.0]   # default: zeros of the model's dimension
      times: [0.0, 1.0, 2.0, 3.0]

    simulate:
      construction: husler_reiss    # husler_reiss | storm
      marginal: frechet             # frechet | gumbel | weibull
      n: 100                        # Gaussian replications per maximum
      realizations: 1
      output_dir: output

    storm:
      sigma: [[1.0, 0.0], [0.0, 1.0]]
      sigma_time_sq: 1.0
      buffer: 4.0
      intensity_floor: 1.4426950408889634e-06
      from_model: false             # derive sigma/sigma_time_sq from model

    surfaces:
      kind: isotropic               # isotropic | anisotropic
      h_max: 20.0
      u_max: 30.0
      n_h: 201
      n_u: 301
      extent: 12.0                  # anisotropic half-width
      n_grid: 201
      output: surfaces.csv

    validate:
      construction: storm           # storm | husler_reiss
      n: 1000                       # replications (husler_reiss only)
      realizations: 10000
      pairs:
        - {h: [0.0, 0.0], u: 0.0}
        - {h: [1.0, 0.0], u: 0.0}
        - {h: [0.0, 0.0], u: 2.0}
        - {h: [1.0, 0.0], u: 1.0}
      thresholds: [0.5, 1.0, 2.0]   # scalars mean y1 = y2; pairs allowed
      report: report.csv
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass
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

_DEFAULTS = {
    "workers": 1,
    "model": {
        "family": "gneiting",
    },
    "grid": {
        "shape": [30, 30],
        "spacing": 1.0,
        "times": [0.0, 1.0, 2.0, 3.0],
    },
    "simulate": {
        "construction": "husler_reiss",
        "marginal": "frechet",
        "n": 100,
        "realizations": 1,
        "output_dir": "output",
    },
    "storm": {
        "sigma": [[1.0, 0.0], [0.0, 1.0]],
        "sigma_time_sq": 1.0,
        "buffer": 4.0,
        "intensity_floor": DEFAULT_INTENSITY_FLOOR,
        "from_model": False,
    },
    "surfaces": {
        "kind": "isotropic",
        "h_max": 20.0,
        "u_max": 30.0,
        "n_h": 201,
        "n_u": 301,
        "extent": 12.0,
        "n_grid": 201,
        "output": "surfaces.csv",
    },
    "validate": {
        "construction": "storm",
        "n": 1000,
        "realizations": 10000,
        "pairs": [
            {"h": [0.0, 0.0], "u": 0.0},
            {"h": [1.0, 0.0], "u": 0.0},
            {"h": [0.0, 0.0], "u": 2.0},
            {"h": [1.0, 0.0], "u": 1.0},
        ],
        "thresholds": [0.5, 1.0, 2.0],
        "report": "report.csv",
    },
}

# Marks a model key that has no default.
_REQUIRED = object()

# Each model family's keys besides family and anisotropy, with their defaults.
# The gneiting values are the reference set of the documentation examples.
_FAMILIES = {
    "gneiting": {"a": 0.03, "b": 0.03, "nu": 1.5, "gamma": 1.0, "beta1": 1.0, "beta2": 1.0,
                 "dimension": 2},
    "separable": {"spatial_range": 1.0, "temporal_decay": 1.0, "dimension": 2},
    "ma_mixture": {"atoms": _REQUIRED, "spatial": None, "temporal": None, "dimension": 2},
    "bernstein": {"spatial_scales": _REQUIRED, "spatial_exponents": _REQUIRED,
                  "temporal_scale": 1.0, "temporal_exponent": 1.0, "atoms": _REQUIRED},
}
_ANISOTROPY_DEFAULTS = {"a_max": 3.0, "a_min": 1.0, "angle_deg": 45.0}

_CONSTRUCTIONS = ("husler_reiss", "storm")


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


def _reject_unknown(section, allowed, path):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        _fail(path, f"unknown key(s): {', '.join(unknown)}")


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


def _get_number(section, key, path, **limits):
    return _number(section[key], f"{path}.{key}", **limits)


def _numbers(value, path, *, length=None, **limits):
    """A non-empty list of numbers, of ``length`` entries if given, as a tuple."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        kind = "integer" if limits.get("integer") else "number"
        _fail(path, f"must be a list of {length or 'one or more'} {kind}(s)")
    return tuple(_number(x, f"{path}[{i}]", **limits) for i, x in enumerate(value))


def _get_numbers(section, key, path, **limits):
    return _numbers(section[key], f"{path}.{key}", **limits)


def _get_scalar_or_list(section, key, path, length):
    """A number, or a list of ``length`` numbers (one per spatial axis)."""
    if isinstance(section[key], list):
        return _get_numbers(section, key, path, length=length)
    return _get_number(section, key, path)


def _get_string(section, key, path):
    if not isinstance(section[key], str):
        _fail(f"{path}.{key}", "must be a string")
    return section[key]


def _get_choice(section, key, path, choices):
    if section[key] not in choices:
        _fail(f"{path}.{key}", f"must be {' or '.join(map(repr, choices))}")
    return section[key]


def _get_csv_path(section, key, path):
    """An output CSV path; its sidecar takes the ``.json`` suffix, so the CSV may not."""
    value = _get_string(section, key, path)
    if Path(value).suffix == ".json":
        _fail(f"{path}.{key}", "must not end in .json, the suffix of its JSON sidecar")
    return value


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


def _build_atoms(entries, path):
    if not isinstance(entries, list) or not entries:
        _fail(path, "must be a non-empty list of [v1, v2, weight] triples")
    return tuple(_numbers(entry, f"{path}[{i}]", length=3) for i, entry in enumerate(entries))


def _build_base(section, path):
    section = _expect_mapping(section, path)
    _reject_unknown(section, {"scale", "exponent"}, path)
    missing = {"scale", "exponent"} - set(section)
    if missing:
        _fail(path, f"missing key(s): {', '.join(sorted(missing))}")
    return PoweredExponential(
        scale=_get_number(section, "scale", path, minimum=0.0, exclusive=True),
        exponent=_get_number(section, "exponent", path, minimum=0.0, exclusive=True),
    )


def _build_model(section) -> CorrelationModel:
    family = section.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        _fail("model.family", f"must be one of {sorted(_FAMILIES)}, got {family!r}")
    _reject_unknown(section, {*_DEFAULTS["model"], "anisotropy", *_FAMILIES[family]}, "model")
    merged = {**_FAMILIES[family], **section}
    for key, value in merged.items():
        if value is _REQUIRED:
            _fail(f"model.{key}", f"is required for the {family} family")
    if family == "gneiting":
        model = GneitingModel(
            a=_get_number(merged, "a", "model", minimum=0.0, exclusive=True),
            b=_get_number(merged, "b", "model", minimum=0.0, exclusive=True),
            nu=_get_number(merged, "nu", "model", minimum=0.0, exclusive=True),
            gamma=_get_number(merged, "gamma", "model", minimum=0.0, exclusive=True),
            beta1=_get_number(merged, "beta1", "model", minimum=0.0, exclusive=True),
            beta2=_get_number(merged, "beta2", "model", minimum=0.0, exclusive=True),
            dimension=_get_number(merged, "dimension", "model", minimum=1, integer=True),
        )
    elif family == "separable":
        model = SeparableModel(
            spatial_range=_get_number(merged, "spatial_range", "model", minimum=0.0, exclusive=True),
            temporal_decay=_get_number(merged, "temporal_decay", "model", minimum=0.0, exclusive=True),
            dimension=_get_number(merged, "dimension", "model", minimum=1, integer=True),
        )
    elif family == "ma_mixture":
        model = MaMixtureModel(
            atoms=_build_atoms(merged["atoms"], "model.atoms"),
            base_spatial=_build_base(merged["spatial"], "model.spatial"),
            base_temporal=_build_base(merged["temporal"], "model.temporal"),
            dimension=_get_number(merged, "dimension", "model", minimum=1, integer=True),
        )
    else:
        model = BernsteinModel(
            spatial_scales=_get_numbers(merged, "spatial_scales", "model"),
            spatial_exponents=_get_numbers(merged, "spatial_exponents", "model"),
            temporal_scale=_get_number(merged, "temporal_scale", "model"),
            temporal_exponent=_get_number(merged, "temporal_exponent", "model"),
            atoms=_build_atoms(merged["atoms"], "model.atoms"),
        )

    aniso = section.get("anisotropy")
    if aniso is not None:
        aniso = _expect_mapping(aniso, "model.anisotropy")
        _reject_unknown(aniso, _ANISOTROPY_DEFAULTS, "model.anisotropy")
        aniso = {**_ANISOTROPY_DEFAULTS, **aniso}
        transform = AnisotropyTransform(
            a_max=_get_number(aniso, "a_max", "model.anisotropy"),
            a_min=_get_number(aniso, "a_min", "model.anisotropy"),
            angle=math.radians(_get_number(aniso, "angle_deg", "model.anisotropy")),
        )
        model = AnisotropicModel(base=model, transform=transform)
    return model


def _build_grid(section, dimension) -> SpaceTimeGrid:
    _reject_unknown(section, {*_DEFAULTS["grid"], "origin"}, "grid")
    # set in the section itself, so that the run's echo records it
    section.setdefault("origin", [0.0] * dimension)
    return SpaceTimeGrid.regular(
        shape=_get_numbers(section, "shape", "grid", length=dimension, minimum=1, integer=True),
        spacing=_get_scalar_or_list(section, "spacing", "grid", dimension),
        origin=_get_scalar_or_list(section, "origin", "grid", dimension),
        times=_get_numbers(section, "times", "grid"),
    )


def _build_storm(section, model) -> StormModelParams:
    _reject_unknown(section, _DEFAULTS["storm"], "storm")
    buffer = _get_number(section, "buffer", "storm", minimum=0.0)
    floor = _get_number(section, "intensity_floor", "storm", minimum=0.0, exclusive=True)
    if not isinstance(section["from_model"], bool):
        _fail("storm.from_model", "must be true or false")
    if section["from_model"]:
        return equivalent_storm_params(model.expansion(), buffer=buffer, intensity_floor=floor)
    sigma = section["sigma"]
    if not isinstance(sigma, list) or len(sigma) != 2:
        _fail("storm.sigma", "must be a 2x2 matrix")
    return StormModelParams(
        sigma_space=np.array([_numbers(row, f"storm.sigma[{i}]", length=2)
                              for i, row in enumerate(sigma)]),
        sigma_time_sq=_get_number(section, "sigma_time_sq", "storm", minimum=0.0, exclusive=True),
        buffer=buffer,
        intensity_floor=floor,
    )


def _build_surfaces(section) -> SurfacesSpec:
    _reject_unknown(section, _DEFAULTS["surfaces"], "surfaces")
    return SurfacesSpec(
        kind=_get_choice(section, "kind", "surfaces", ("isotropic", "anisotropic")),
        h_max=_get_number(section, "h_max", "surfaces", minimum=0.0, exclusive=True),
        u_max=_get_number(section, "u_max", "surfaces", minimum=0.0, exclusive=True),
        n_h=_get_number(section, "n_h", "surfaces", minimum=2, integer=True),
        n_u=_get_number(section, "n_u", "surfaces", minimum=2, integer=True),
        extent=_get_number(section, "extent", "surfaces", minimum=0.0, exclusive=True),
        n_grid=_get_number(section, "n_grid", "surfaces", minimum=2, integer=True),
        output=_get_csv_path(section, "output", "surfaces"),
    )


def _build_validate(section) -> ValidateSpec:
    _reject_unknown(section, _DEFAULTS["validate"], "validate")
    construction = _get_choice(section, "construction", "validate", _CONSTRUCTIONS)
    realizations = _get_number(section, "realizations", "validate", minimum=1000, integer=True)
    pairs = []
    entries = section["pairs"]
    if not isinstance(entries, list) or not entries:
        _fail("validate.pairs", "must be a non-empty list")
    for i, entry in enumerate(entries):
        path = f"validate.pairs[{i}]"
        entry = {"h": [0.0, 0.0], "u": 0.0, **_expect_mapping(entry, path)}
        _reject_unknown(entry, {"h", "u"}, path)
        pairs.append((_get_numbers(entry, "h", path, length=2), _get_number(entry, "u", path)))
    thresholds = []
    entries = section["thresholds"]
    if not isinstance(entries, list) or not entries:
        _fail("validate.thresholds", "must be a non-empty list")
    for i, entry in enumerate(entries):
        path = f"validate.thresholds[{i}]"
        if isinstance(entry, list):
            thresholds.append(_numbers(entry, path, length=2, minimum=0.0, exclusive=True))
        else:
            thresholds.append((_number(entry, path, minimum=0.0, exclusive=True),) * 2)
    return ValidateSpec(
        construction=construction,
        n=_get_number(section, "n", "validate", minimum=2, integer=True),
        realizations=realizations,
        pairs=tuple(pairs),
        thresholds=tuple(thresholds),
        report=_get_csv_path(section, "report", "validate"),
    )


def parse_config(mapping, overrides=()) -> RunConfig:
    """Validate a raw configuration mapping into a RunConfig."""
    if not isinstance(mapping, dict):
        raise ConfigError("configuration must be a mapping")
    merged = _merge(_DEFAULTS, mapping)
    for item in overrides:
        merged = _merge(merged, _override(item))

    if "seed" not in merged or merged["seed"] is None:
        raise ConfigError("seed: a master seed is required; implicit seeding is not allowed")
    _reject_unknown(merged, {"seed", *_DEFAULTS}, "config")
    seed = _get_number(merged, "seed", "config", minimum=0, integer=True)
    workers = _get_number(merged, "workers", "config", minimum=1, integer=True)

    try:
        model = _build_model(_expect_mapping(merged["model"], "model"))
        grid = _build_grid(_expect_mapping(merged["grid"], "grid"), model.dimension)
        storm = _build_storm(_expect_mapping(merged["storm"], "storm"), model)
        surfaces = _build_surfaces(_expect_mapping(merged["surfaces"], "surfaces"))
        validate = _build_validate(_expect_mapping(merged["validate"], "validate"))
    except ConfigError:
        raise
    except StormFieldsError as exc:
        raise ConfigError(str(exc)) from exc

    sim = _expect_mapping(merged["simulate"], "simulate")
    _reject_unknown(sim, _DEFAULTS["simulate"], "simulate")
    construction = _get_choice(sim, "construction", "simulate", _CONSTRUCTIONS)
    try:
        marginal = MarginalKind(str(sim["marginal"]).lower())
    except ValueError:
        _fail("simulate.marginal", "must be 'frechet', 'gumbel' or 'weibull'")

    return RunConfig(
        raw=merged,
        seed=seed,
        workers=workers,
        model=model,
        grid=grid,
        construction=construction,
        marginal=marginal,
        n=_get_number(sim, "n", "simulate", minimum=2, integer=True),
        realizations=_get_number(sim, "realizations", "simulate", minimum=1, integer=True),
        output_dir=_get_string(sim, "output_dir", "simulate"),
        storm=storm,
        surfaces=surfaces,
        validate=validate,
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
