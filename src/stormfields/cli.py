"""Command-line front end: simulate fields, export surfaces, validate by Monte Carlo.

Three subcommands share one YAML configuration (see ``config``):

* ``simulate``  writes one CSV per field realization plus a JSON sidecar
  that echoes the full configuration, so any output can be reproduced
  byte-for-byte from its sidecar alone.
* ``surfaces``  exports plot-ready correlation and tail-dependence grids
  (the contour data behind the model's dependence story).
* ``validate``  compares empirical joint non-exceedance probabilities
  against the closed-form bivariate distribution functions and flags
  discrepancies beyond a binomial 99% half-width plus 0.01.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation-threshold breach.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .covmodels import delta_values
from .errors import (
    ConfigError,
    DomainError,
    FactorizationError,
    NotPositiveDefiniteError,
    StormFieldsError,
    UnsupportedModelError,
)
from .extremal import bivariate_cdf_hr, bivariate_cdf_smith, tail_dependence
from .gaussfield import SpaceTimeGrid
from .maxstable import (
    MarginalKind,
    husler_reiss_block,
    husler_reiss_field,
    rescaled_factor,
    simulate_storm_field,
)

__all__ = ["main", "cmd_simulate", "cmd_surfaces", "cmd_validate"]

_Z_99 = 2.5758293035489004  # two-sided 99% standard normal quantile


def _format(value) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(value))


def _write_sidecar(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_field_csv(path: Path, grid: SpaceTimeGrid, values: np.ndarray) -> None:
    coords, times = grid.flat_coordinates()
    columns = [f"s{i + 1}" for i in range(grid.dimension)] + ["t", "value"]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for k in range(grid.size):
            cells = [_format(c) for c in coords[k]]
            cells.append(_format(times[k]))
            cells.append(_format(values[k]))
            handle.write(",".join(cells) + "\n")


def _map_ordered(func, items, workers: int):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


def _hr_values(index, *, model, grid, n, kind, seed, factor):
    return husler_reiss_field(model, grid, n, kind, seed, index, factor=factor).values


def _storm_values(index, *, params, grid, seed):
    return simulate_storm_field(params, grid, seed, index).values


# Block helpers for ``validate``: the values of realizations start..stop-1,
# one row each.  They live at module level so that pool tasks can pickle them.
def _hr_block(bounds, *, factor, n, kind, seed):
    return husler_reiss_block(factor, n, kind, seed, range(*bounds))


def _storm_block(bounds, *, params, grid, seed):
    return np.array([_storm_values(index, params=params, grid=grid, seed=seed)
                     for index in range(*bounds)])


def _sidecar_base(cfg: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "config": cfg.raw,
        "master_seed": cfg.seed,
        "library_version": __version__,
    }


def cmd_simulate(cfg: RunConfig) -> int:
    """Write one `s1,..,t,value` CSV plus sidecar per realization."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.construction == "husler_reiss":
        factor = rescaled_factor(cfg.model, cfg.grid, cfg.n)
        jitter = factor.jitter_used
        make = partial(
            _hr_values, model=cfg.model, grid=cfg.grid, n=cfg.n,
            kind=cfg.marginal, seed=cfg.seed, factor=factor,
        )
    else:
        if cfg.grid.dimension != 2:
            raise ConfigError("the storm construction requires a 2-d spatial grid")
        if cfg.marginal is not MarginalKind.FRECHET:
            raise ConfigError("the storm construction has Frechet marginals only")
        jitter = 0.0
        make = partial(_storm_values, params=cfg.storm, grid=cfg.grid, seed=cfg.seed)

    all_values = _map_ordered(make, range(cfg.realizations), cfg.workers)
    for index, values in enumerate(all_values):
        csv_path = out_dir / f"field_{index:04d}.csv"
        _write_field_csv(csv_path, cfg.grid, values)
        sidecar = _sidecar_base(cfg, "simulate")
        sidecar.update(
            {
                "realization": index,
                "construction": cfg.construction,
                "marginal": cfg.marginal.value,
                "jitter_used": jitter,
                "csv_file": csv_path.name,
            }
        )
        _write_sidecar(out_dir / f"field_{index:04d}.json", sidecar)
    return 0


def cmd_surfaces(cfg: RunConfig) -> int:
    """Export `hnorm,u,rho,chi` (isotropic) or `h1,h2,rho,chi` (anisotropic) grids."""
    spec = cfg.surfaces
    model = cfg.model
    expansion = model.expansion()
    out_path = Path(spec.output)
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)

    if spec.kind == "isotropic":
        if model.anisotropy is not None:
            raise ConfigError(
                "surfaces.kind isotropic cannot be used with an anisotropic model"
            )
        radii = np.linspace(0.0, spec.h_max, spec.n_h)
        lags = np.linspace(0.0, spec.u_max, spec.n_u)
        r_mesh, u_mesh = np.meshgrid(radii, lags, indexing="ij")
        h_vec = np.zeros(r_mesh.shape + (model.dimension,))
        h_vec[..., 0] = r_mesh
        rho = np.asarray(model.rho(h_vec, u_mesh), dtype=float)
        chi = tail_dependence(delta_values(expansion, h_vec, u_mesh))
        header = "hnorm,u,rho,chi"
        first, second = r_mesh, u_mesh
    else:
        if model.anisotropy is None:
            raise ConfigError("surfaces.kind anisotropic requires model.anisotropy")
        axis = np.linspace(-spec.extent, spec.extent, spec.n_grid)
        h1_mesh, h2_mesh = np.meshgrid(axis, axis, indexing="ij")
        h_vec = np.stack([h1_mesh, h2_mesh], axis=-1)
        rho = np.asarray(model.rho(h_vec, 0.0), dtype=float)
        chi = tail_dependence(delta_values(expansion, h_vec, 0.0, aniso=model.anisotropy))
        header = "h1,h2,rho,chi"
        first, second = h1_mesh, h2_mesh

    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for a, b, r, c in zip(first.ravel(), second.ravel(), rho.ravel(), chi.ravel()):
            handle.write(f"{_format(a)},{_format(b)},{_format(r)},{_format(c)}\n")

    sidecar = _sidecar_base(cfg, "surfaces")
    sidecar.update({"kind": spec.kind, "csv_file": out_path.name})
    _write_sidecar(out_path.with_suffix(".json"), sidecar)
    return 0


def _joint_counts(bounds, *, make_block, site_pairs, thresholds):
    """Realizations in ``bounds`` at or below (y1, y2), per site pair and threshold."""
    values = make_block(bounds)
    ia, ib = np.transpose(site_pairs)
    y1, y2 = np.asarray(thresholds, dtype=float).reshape(-1, 2).T
    return ((values[:, ia, None] <= y1) & (values[:, ib, None] <= y2)).sum(axis=0, dtype=np.int64)


def _measurement_grid(pairs):
    """Smallest grid containing the base site and every lagged partner."""
    spatial = [(0.0, 0.0)]
    times = [0.0]
    for h, u in pairs:
        if h not in spatial:
            spatial.append(h)
        if u not in times:
            times.append(u)
    grid = SpaceTimeGrid(np.array(spatial), np.array(sorted(times)))
    time_index = {t: k for k, t in enumerate(grid.time_points)}
    space_index = {tuple(p): k for k, p in enumerate(map(tuple, grid.spatial_points))}

    def flat(point, t):
        return time_index[t] * grid.n_space + space_index[point]

    site_pairs = [(flat((0.0, 0.0), 0.0), flat(h, u)) for h, u in pairs]
    return grid, site_pairs


def cmd_validate(cfg: RunConfig) -> int:
    """Monte-Carlo check of joint probabilities against the closed forms."""
    spec = cfg.validate
    if cfg.model.dimension != 2:
        raise ConfigError("validate requires a 2-d spatial model")
    grid, site_pairs = _measurement_grid(spec.pairs)

    if spec.construction == "storm":
        make_block = partial(_storm_block, params=cfg.storm, grid=grid, seed=cfg.seed)

        def closed_form(pair, y1, y2):
            h, u = pair
            return bivariate_cdf_smith(y1, y2, np.asarray(h), u, cfg.storm)
    else:
        factor = rescaled_factor(cfg.model, grid, spec.n)
        expansion = cfg.model.expansion()
        make_block = partial(
            _hr_block, factor=factor, n=spec.n, kind=MarginalKind.FRECHET, seed=cfg.seed,
        )

        def closed_form(pair, y1, y2):
            h, u = pair
            dependence = float(
                delta_values(expansion, np.asarray(h), u, aniso=cfg.model.anisotropy)
            )
            return bivariate_cdf_hr(y1, y2, dependence)

    total = spec.realizations
    n_chunks = min(total, max(1, cfg.workers * 8))
    edges = np.linspace(0, total, n_chunks + 1, dtype=int)
    worker = partial(
        _joint_counts, make_block=make_block,
        site_pairs=site_pairs, thresholds=list(spec.thresholds),
    )
    counts = sum(_map_ordered(worker, list(zip(edges[:-1], edges[1:])), cfg.workers))

    report_path = Path(spec.report)
    if report_path.parent != Path("."):
        report_path.parent.mkdir(parents=True, exist_ok=True)
    breached = False
    with open(report_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("pair,h1,h2,u,y1,y2,empirical,closed_form,abs_diff,half_width_99,flagged\n")
        for pi, pair in enumerate(spec.pairs):
            (h1, h2), u = pair
            for ti, (y1, y2) in enumerate(spec.thresholds):
                empirical = counts[pi, ti] / total
                theory = closed_form(pair, y1, y2)
                diff = abs(empirical - theory)
                half_width = _Z_99 * math.sqrt(empirical * (1.0 - empirical) / total)
                flagged = diff > half_width + 0.01
                breached = breached or flagged
                cells = [str(pi), _format(h1), _format(h2), _format(u), _format(y1),
                         _format(y2), _format(empirical), _format(theory),
                         _format(diff), _format(half_width), str(int(flagged))]
                handle.write(",".join(cells) + "\n")

    sidecar = _sidecar_base(cfg, "validate")
    sidecar.update(
        {
            "construction": spec.construction,
            "realizations": total,
            "report_file": report_path.name,
            "threshold_rule": "abs_diff > half_width_99 + 0.01",
        }
    )
    _write_sidecar(report_path.with_suffix(".json"), sidecar)
    return 4 if breached else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormfields",
        description="Simulate max-stable space-time fields and validate them against theory.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "simulate field realizations to CSV"),
        ("surfaces", "export correlation / tail-dependence surfaces"),
        ("validate", "Monte-Carlo validation against closed forms"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", "-c", required=True, help="YAML configuration file")
        cmd.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a dotted config key, e.g. --set simulate.n=200",
        )
        cmd.add_argument("--workers", type=int, default=None, help="worker process count")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = list(args.set)
    if args.workers is not None:
        overrides.append(f"workers={args.workers}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")

    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    commands = {"simulate": cmd_simulate, "surfaces": cmd_surfaces, "validate": cmd_validate}
    try:
        return commands[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FactorizationError, NotPositiveDefiniteError, DomainError,
            UnsupportedModelError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except StormFieldsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
