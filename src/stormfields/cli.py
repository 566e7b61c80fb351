"""Command-line front end: simulate fields, export surfaces, validate by Monte Carlo.

Three subcommands share one YAML configuration (see ``config``):

* ``simulate``  writes one CSV per field realization plus a JSON sidecar
  that echoes the full configuration, so any output can be reproduced
  byte-for-byte from its sidecar alone.
* ``surfaces``  exports plot-ready correlation and tail-dependence grids
  (the contour data behind the model's dependence story).
* ``validate``  lays out one cell per (site pair, threshold pair), in the
  report's row order (pair-major), and compares each cell's empirical joint
  non-exceedance probability with the closed-form bivariate distribution
  function, flagging discrepancies beyond a binomial 99% half-width plus 0.01.

Both constructions run through one path: ``_construction`` alone tells them
apart, by a block function (``husler_reiss_block`` or ``storm_block`` bound
to all but its range of realizations) and a dependence parameter delta(h, u)
that the one closed form ``bivariate_cdf_hr`` takes.  ``_map_blocks`` runs it
over contiguous realization ranges, installed once per worker process.  A row
depends only on its realization's Philox substream, so no output depends on
the worker count or on the ranges.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation-threshold breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .covmodels import delta_values
from .errors import ConfigError, StormFieldsError, UnsupportedModelError
from .extremal import bivariate_cdf_hr, delta_from_storm, tail_dependence
from .gaussfield import SpaceTimeGrid
from .maxstable import (
    MarginalKind,
    husler_reiss_block,
    rescaled_factor,
    storm_block,
)

__all__ = ["main", "cmd_simulate", "cmd_surfaces", "cmd_validate"]

_Z_99 = 2.5758293035489004  # two-sided 99% standard normal quantile


def _format(value) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(value))


def _float_rows(*columns):
    """One row of formatted cells per entry of the equal-length ``columns``."""
    return (map(_format, row) for row in np.column_stack(columns).tolist())


def _write_csv(path: Path, header: str, rows) -> None:
    """``header`` and one line per row of cell strings, UTF-8 with LF endings."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _write_sidecar(path: Path, cfg: RunConfig, command: str, fields: dict) -> None:
    """JSON sidecar: the command, config echo, master seed and library version, plus ``fields``."""
    payload = {"command": command, "config": cfg.raw, "master_seed": cfg.seed,
               "library_version": __version__, **fields}
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# Set once in each pool worker by the pool initializer; never in the parent.
_WORKER_BLOCK = None


def _install_block(func) -> None:
    global _WORKER_BLOCK
    _WORKER_BLOCK = func


def _run_installed_block(realizations):
    return _WORKER_BLOCK(realizations)


def _map_blocks(func, total: int, workers: int) -> list:
    """``func(range)`` over contiguous ranges of 0..total-1, in range order.

    With more than one worker, a process pool of ``min(workers, CPUs)``
    processes installs ``func`` once per worker (inherited under ``fork``,
    pickled once under ``spawn``), and each task sends only its range.  The
    realizations are cut into ``min(total, 8 * processes)`` ranges, so a
    worker count above the CPU count adds no tasks.
    """
    processes = min(workers, os.cpu_count() or 1)
    edges = np.linspace(0, total, min(total, max(1, processes * 8)) + 1, dtype=int).tolist()
    ranges = [range(start, stop) for start, stop in zip(edges, edges[1:])]
    if workers <= 1 or len(ranges) <= 1:
        return [func(realizations) for realizations in ranges]
    with ProcessPoolExecutor(min(processes, len(ranges)), initializer=_install_block,
                             initargs=(func,)) as pool:
        return list(pool.map(_run_installed_block, ranges))


def _construction(cfg: RunConfig, name: str, grid: SpaceTimeGrid, n: int, kind: MarginalKind):
    """``(make_block, factor_fields, delta_of(h, u))`` of construction ``name``.

    ``factor_fields`` are the sidecar's ``factor_rank`` and ``factor_residual``,
    the Gaussian factor's rank and largest residual variance (null for storm).
    """
    if name == "storm":
        if grid.dimension != 2:
            raise ConfigError("the storm construction requires a 2-d spatial grid")
        if kind is not MarginalKind.FRECHET:
            raise ConfigError("the storm construction has Frechet marginals only")
        make_block = partial(storm_block, cfg.storm, grid, cfg.seed)
        no_factor = {"factor_rank": None, "factor_residual": None}
        return make_block, no_factor, partial(delta_from_storm, cfg.storm)

    factor = rescaled_factor(cfg.model, grid, n)
    make_block = partial(husler_reiss_block, factor, n, kind, cfg.seed)
    factor_fields = {"factor_rank": factor.rank, "factor_residual": factor.residual}
    return make_block, factor_fields, partial(delta_values, cfg.model.expansion())


def cmd_simulate(cfg: RunConfig) -> int:
    """Write one `s1,..,t,value` CSV plus sidecar per realization."""
    out_dir = Path(cfg.output_dir)
    make_block, factor_fields, _ = _construction(cfg, cfg.construction, cfg.grid, cfg.n,
                                                 cfg.marginal)
    all_values = np.concatenate(_map_blocks(make_block, cfg.realizations, cfg.workers))
    coords, times = cfg.grid.flat_coordinates()
    header = ",".join([f"s{i + 1}" for i in range(cfg.grid.dimension)] + ["t", "value"])
    for index, values in enumerate(all_values):
        csv_path = out_dir / f"field_{index:04d}.csv"
        _write_csv(csv_path, header, _float_rows(coords, times, values))
        _write_sidecar(csv_path.with_suffix(".json"), cfg, "simulate", {
            "realization": index,
            "construction": cfg.construction,
            "marginal": cfg.marginal.value,
            **factor_fields,
            "csv_file": csv_path.name,
        })
    return 0


def cmd_surfaces(cfg: RunConfig) -> int:
    """Export `hnorm,u,rho,chi` (isotropic) or `h1,h2,rho,chi` (anisotropic) grids."""
    spec = cfg.surfaces
    model = cfg.model
    expansion = model.expansion()

    if spec.kind == "isotropic":
        if expansion.anisotropy is not None:
            raise ConfigError(
                "surfaces.kind isotropic cannot be used with an anisotropic model"
            )
        radii = np.linspace(0.0, spec.h_max, spec.n_h)
        lags = np.linspace(0.0, spec.u_max, spec.n_u)
        first, second = np.meshgrid(radii, lags, indexing="ij")
        h_vec = np.zeros(first.shape + (model.dimension,))
        h_vec[..., 0] = first
        u = second
        header = "hnorm,u,rho,chi"
    else:
        if expansion.anisotropy is None:
            raise ConfigError("surfaces.kind anisotropic requires model.anisotropy")
        axis = np.linspace(-spec.extent, spec.extent, spec.n_grid)
        first, second = np.meshgrid(axis, axis, indexing="ij")
        h_vec = np.stack([first, second], axis=-1)
        u = 0.0
        header = "h1,h2,rho,chi"
    rho = np.asarray(model.rho(h_vec, u), dtype=float)
    chi = tail_dependence(delta_values(expansion, h_vec, u))

    out_path = Path(spec.output)
    rows = _float_rows(first.ravel(), second.ravel(), rho.ravel(), chi.ravel())
    _write_csv(out_path, header, rows)
    _write_sidecar(out_path.with_suffix(".json"), cfg, "surfaces",
                   {"kind": spec.kind, "csv_file": out_path.name})
    return 0


def _joint_counts(realizations, *, make_block, sites, thresholds):
    """Per cell of (cells, k) ``sites`` and ``thresholds``: rows at or below all k thresholds."""
    values = make_block(realizations)
    return np.all(values[:, sites] <= thresholds, axis=-1).sum(axis=0, dtype=np.int64)


def _measurement_grid(pairs):
    """The grid of the base site and every lagged partner, and each pair's two flat sites.

    Spatial points come in first-seen order from the base (0, 0), times sorted.
    """
    spatial = list(dict.fromkeys([(0.0, 0.0), *(h for h, _ in pairs)]))
    times = sorted({0.0, *(u for _, u in pairs)})
    base = times.index(0.0) * len(spatial)
    sites = [(base, times.index(u) * len(spatial) + spatial.index(h)) for h, u in pairs]
    return SpaceTimeGrid(np.array(spatial), np.array(times)), np.array(sites)


def cmd_validate(cfg: RunConfig) -> int:
    """Monte-Carlo check of joint probabilities against the closed forms."""
    spec = cfg.validate
    if cfg.model.dimension != 2:
        raise ConfigError("validate requires a 2-d spatial model")
    grid, pair_sites = _measurement_grid(spec.pairs)
    make_block, factor_fields, delta_of = _construction(cfg, spec.construction, grid, spec.n,
                                                        MarginalKind.FRECHET)

    # one cell per (pair, threshold), pair-major: the report's row order
    pair = np.repeat(np.arange(len(spec.pairs)), len(spec.thresholds))
    lags, times = (np.array(column)[pair] for column in zip(*spec.pairs))
    thresholds = np.array(spec.thresholds * len(spec.pairs), dtype=float)
    count_block = partial(_joint_counts, make_block=make_block, sites=pair_sites[pair],
                          thresholds=thresholds)
    empirical = sum(_map_blocks(count_block, spec.realizations, cfg.workers)) / spec.realizations
    theory = bivariate_cdf_hr(*thresholds.T, delta_of(lags, times))
    diff = np.abs(empirical - theory)
    half_width = _Z_99 * np.sqrt(empirical * (1.0 - empirical) / spec.realizations)
    flagged = diff > half_width + 0.01

    report_path = Path(spec.report)
    columns = np.column_stack((pair, lags, times, thresholds, empirical, theory, diff,
                               half_width, flagged)).tolist()
    rows = ([str(int(i)), *map(_format, cells), str(int(flag))] for i, *cells, flag in columns)
    _write_csv(report_path,
               "pair,h1,h2,u,y1,y2,empirical,closed_form,abs_diff,half_width_99,flagged", rows)
    _write_sidecar(report_path.with_suffix(".json"), cfg, "validate", {
        "construction": spec.construction,
        "realizations": spec.realizations,
        **factor_fields,
        "report_file": report_path.name,
        "threshold_rule": "abs_diff > half_width_99 + 0.01",
    })
    return 4 if flagged.any() else 0


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

    commands = {"simulate": cmd_simulate, "surfaces": cmd_surfaces, "validate": cmd_validate}
    try:
        return commands[args.command](load_config(args.config, overrides))
    except (ConfigError, UnsupportedModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StormFieldsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
