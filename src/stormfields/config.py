"""Run configuration: YAML schema, defaults, validation and CLI overrides.

A run is described by one YAML file with nested sections; ``--set`` flags
on the command line override individual dotted keys.  Everything random
flows from the mandatory ``seed`` key: a missing seed is a configuration
error, never an implicit clock-based default.

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
from dataclasses import dataclass

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

_MODEL_KEYS = {
    "gneiting": {"family", "a", "b", "nu", "gamma", "beta1", "beta2", "dimension", "anisotropy"},
    "separable": {"family", "spatial_range", "temporal_decay", "dimension", "anisotropy"},
    "ma_mixture": {"family", "atoms", "spatial", "temporal", "dimension", "anisotropy"},
    "bernstein": {
        "family", "spatial_scales", "spatial_exponents",
        "temporal_scale", "temporal_exponent", "atoms", "anisotropy",
    },
}


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


def _get_number(section, key, path, *, minimum=None, exclusive=False, integer=False):
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", "must be a number")
    if integer:
        if float(value) != int(value):
            _fail(f"{path}.{key}", "must be an integer")
        value = int(value)
    else:
        value = float(value)
        if not math.isfinite(value):
            _fail(f"{path}.{key}", "must be finite")
    if minimum is not None:
        if exclusive and not value > minimum:
            _fail(f"{path}.{key}", f"must be > {minimum}")
        if not exclusive and not value >= minimum:
            _fail(f"{path}.{key}", f"must be >= {minimum}")
    return value


def _merge(base, override, path="config"):
    out = copy.deepcopy(base)
    for key, value in override.items():
        # a null section over a mapping default keeps the defaults, like an empty one
        if isinstance(out.get(key), dict) and (value is None or isinstance(value, dict)):
            out[key] = _merge(out[key], value or {}, f"{path}.{key}")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_override(mapping, dotted, raw_value):
    keys = dotted.split(".")
    target = mapping
    for key in keys[:-1]:
        node = target.setdefault(key, {})
        if not isinstance(node, dict):
            _fail(dotted, "override path runs through a non-mapping value")
        target = node
    try:
        target[keys[-1]] = yaml.safe_load(raw_value)
    except yaml.YAMLError as exc:
        _fail(dotted, f"unparseable override value: {exc}")


def _build_atoms(entries, path):
    if not isinstance(entries, list) or not entries:
        _fail(path, "must be a non-empty list of [v1, v2, weight] triples")
    atoms = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            _fail(f"{path}[{i}]", "must be a [v1, v2, weight] triple")
        atoms.append(tuple(float(x) for x in entry))
    return tuple(atoms)


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


# reference parameter set used throughout the documentation examples
_GNEITING_DEFAULTS = {
    "a": 0.03, "b": 0.03, "nu": 1.5, "gamma": 1.0, "beta1": 1.0, "beta2": 1.0, "dimension": 2,
}
_SEPARABLE_DEFAULTS = {"spatial_range": 1.0, "temporal_decay": 1.0, "dimension": 2}


def _build_model(section) -> CorrelationModel:
    family = section.get("family")
    if family not in _MODEL_KEYS:
        _fail("model.family", f"must be one of {sorted(_MODEL_KEYS)}, got {family!r}")
    _reject_unknown(section, _MODEL_KEYS[family], "model")
    if family == "gneiting":
        merged = {**_GNEITING_DEFAULTS, **section}
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
        merged = {**_SEPARABLE_DEFAULTS, **section}
        model = SeparableModel(
            spatial_range=_get_number(merged, "spatial_range", "model", minimum=0.0, exclusive=True),
            temporal_decay=_get_number(merged, "temporal_decay", "model", minimum=0.0, exclusive=True),
            dimension=_get_number(merged, "dimension", "model", minimum=1, integer=True),
        )
    elif family == "ma_mixture":
        if "atoms" not in section:
            _fail("model.atoms", "is required for the ma_mixture family")
        model = MaMixtureModel(
            atoms=_build_atoms(section["atoms"], "model.atoms"),
            base_spatial=_build_base(section.get("spatial"), "model.spatial"),
            base_temporal=_build_base(section.get("temporal"), "model.temporal"),
            dimension=int(section.get("dimension", 2)),
        )
    else:
        for key in ("spatial_scales", "spatial_exponents", "atoms"):
            if key not in section:
                _fail(f"model.{key}", "is required for the bernstein family")
        model = BernsteinModel(
            spatial_scales=tuple(float(x) for x in section["spatial_scales"]),
            spatial_exponents=tuple(float(x) for x in section["spatial_exponents"]),
            temporal_scale=float(section.get("temporal_scale", 1.0)),
            temporal_exponent=float(section.get("temporal_exponent", 1.0)),
            atoms=_build_atoms(section["atoms"], "model.atoms"),
        )

    aniso = section.get("anisotropy")
    if aniso is not None:
        aniso = _expect_mapping(aniso, "model.anisotropy")
        _reject_unknown(aniso, {"a_max", "a_min", "angle_deg"}, "model.anisotropy")
        transform = AnisotropyTransform(
            a_max=float(aniso.get("a_max", 3.0)),
            a_min=float(aniso.get("a_min", 1.0)),
            angle=math.radians(float(aniso.get("angle_deg", 45.0))),
        )
        model = AnisotropicModel(base=model, transform=transform)
    return model


def _build_grid(section, dimension) -> SpaceTimeGrid:
    _reject_unknown(section, {"shape", "spacing", "origin", "times"}, "grid")
    # set in the section itself, so that the run's echo records it
    section.setdefault("origin", [0.0] * dimension)
    shape = section["shape"]
    if not isinstance(shape, list) or len(shape) != dimension:
        _fail("grid.shape", f"must be a list of {dimension} integer(s)")
    times = section["times"]
    if not isinstance(times, list) or not times:
        _fail("grid.times", "must be a non-empty list")
    return SpaceTimeGrid.regular(
        shape=[int(s) for s in shape],
        spacing=section["spacing"],
        origin=section["origin"],
        times=[float(t) for t in times],
    )


def _build_storm(section, model) -> StormModelParams:
    _reject_unknown(
        section, {"sigma", "sigma_time_sq", "buffer", "intensity_floor", "from_model"}, "storm"
    )
    buffer = _get_number(section, "buffer", "storm", minimum=0.0)
    floor = _get_number(section, "intensity_floor", "storm", minimum=0.0, exclusive=True)
    if section.get("from_model"):
        return equivalent_storm_params(model.expansion(), buffer=buffer, intensity_floor=floor)
    sigma = np.asarray(section["sigma"], dtype=float)
    if sigma.shape != (2, 2):
        _fail("storm.sigma", "must be a 2x2 matrix")
    return StormModelParams(
        sigma_space=sigma,
        sigma_time_sq=_get_number(section, "sigma_time_sq", "storm", minimum=0.0, exclusive=True),
        buffer=buffer,
        intensity_floor=floor,
    )


def _build_surfaces(section) -> SurfacesSpec:
    _reject_unknown(
        section, {"kind", "h_max", "u_max", "n_h", "n_u", "extent", "n_grid", "output"}, "surfaces"
    )
    kind = section["kind"]
    if kind not in ("isotropic", "anisotropic"):
        _fail("surfaces.kind", "must be 'isotropic' or 'anisotropic'")
    return SurfacesSpec(
        kind=kind,
        h_max=_get_number(section, "h_max", "surfaces", minimum=0.0, exclusive=True),
        u_max=_get_number(section, "u_max", "surfaces", minimum=0.0, exclusive=True),
        n_h=_get_number(section, "n_h", "surfaces", minimum=2, integer=True),
        n_u=_get_number(section, "n_u", "surfaces", minimum=2, integer=True),
        extent=_get_number(section, "extent", "surfaces", minimum=0.0, exclusive=True),
        n_grid=_get_number(section, "n_grid", "surfaces", minimum=2, integer=True),
        output=str(section["output"]),
    )


def _build_validate(section) -> ValidateSpec:
    _reject_unknown(
        section, {"construction", "n", "realizations", "pairs", "thresholds", "report"}, "validate"
    )
    construction = section["construction"]
    if construction not in ("storm", "husler_reiss"):
        _fail("validate.construction", "must be 'storm' or 'husler_reiss'")
    realizations = _get_number(section, "realizations", "validate", minimum=1000, integer=True)
    pairs = []
    entries = section["pairs"]
    if not isinstance(entries, list) or not entries:
        _fail("validate.pairs", "must be a non-empty list")
    for i, entry in enumerate(entries):
        entry = _expect_mapping(entry, f"validate.pairs[{i}]")
        _reject_unknown(entry, {"h", "u"}, f"validate.pairs[{i}]")
        h = entry.get("h", [0.0, 0.0])
        if not isinstance(h, list) or len(h) != 2:
            _fail(f"validate.pairs[{i}].h", "must be a 2-vector")
        pairs.append((tuple(float(x) for x in h), float(entry.get("u", 0.0))))
    thresholds = []
    for i, entry in enumerate(section["thresholds"]):
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            pair = (float(entry), float(entry))
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            pair = (float(entry[0]), float(entry[1]))
        else:
            _fail(f"validate.thresholds[{i}]", "must be a number or a [y1, y2] pair")
        if pair[0] <= 0.0 or pair[1] <= 0.0:
            _fail(f"validate.thresholds[{i}]", "thresholds must be > 0")
        thresholds.append(pair)
    return ValidateSpec(
        construction=construction,
        n=_get_number(section, "n", "validate", minimum=2, integer=True),
        realizations=realizations,
        pairs=tuple(pairs),
        thresholds=tuple(thresholds),
        report=str(section["report"]),
    )


def parse_config(mapping, overrides=()) -> RunConfig:
    """Validate a raw configuration mapping into a RunConfig."""
    if not isinstance(mapping, dict):
        raise ConfigError("configuration must be a mapping")
    merged = _merge(_DEFAULTS, mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must have the form key.path=value")
        dotted, raw_value = item.split("=", 1)
        _apply_override(merged, dotted.strip(), raw_value)

    if "seed" not in merged or merged["seed"] is None:
        raise ConfigError("seed: a master seed is required; implicit seeding is not allowed")
    _reject_unknown(
        merged,
        {"seed", "workers", "model", "grid", "simulate", "storm", "surfaces", "validate"},
        "config",
    )
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
    _reject_unknown(sim, {"construction", "marginal", "n", "realizations", "output_dir"}, "simulate")
    construction = sim["construction"]
    if construction not in ("husler_reiss", "storm"):
        _fail("simulate.construction", "must be 'husler_reiss' or 'storm'")
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
        output_dir=str(sim["output_dir"]),
        storm=storm,
        surfaces=surfaces,
        validate=validate,
    )


def load_config(path, overrides=()) -> RunConfig:
    """Read a YAML configuration file and validate it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            mapping = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if mapping is None:
        mapping = {}
    return parse_config(mapping, overrides)
