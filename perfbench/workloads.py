"""The benchmark's workloads: configs generated from a seed, and output checks.

All three use the Gneiting model (a = b = 0.03, nu = 1.5, gamma = 1).  The
workload seed fixes every input: the master seed of the k-th command of a
run is drawn from ``(workload, seed, k)``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The held-out seed, 7919, is never the default: see README.md.
DEFAULT_SEED = 20240

MODEL = {"family": "gneiting", "a": 0.03, "b": 0.03, "nu": 1.5, "gamma": 1.0}
GRID = {"shape": [30, 30], "spacing": 1.0, "origin": [0.0, 0.0], "times": [0.0, 1.0, 2.0, 3.0]}
GRID_POINTS = 30 * 30 * 4
# The pairs and thresholds of configs/example_validation.yaml.
PAIRS = [
    {"h": [0.0, 0.0], "u": 0.0},
    {"h": [1.0, 0.0], "u": 0.0},
    {"h": [0.0, 0.0], "u": 2.0},
    {"h": [1.0, 0.0], "u": 1.0},
]
THRESHOLDS = [0.5, 1.0, 2.0]
OUT = "out"

FIELD_HEADER = "s1,s2,t,value"
REPORT_HEADER = "pair,h1,h2,u,y1,y2,empirical,closed_form,abs_diff,half_width_99,flagged"


class CheckError(Exception):
    """The outputs of a command are missing, malformed or wrong."""


@dataclass(frozen=True)
class Outputs:
    digests: dict  # file name -> sha256 of its bytes
    output_bytes: int
    # Largest abs_diff - half_width_99 - 0.01 over the validate report; a row
    # is flagged when it is positive.  Commands without a report give -1.0.
    worst_margin: float = -1.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the stormfields subcommand
    workers: int
    realizations: int
    # The set-up state every realization reuses: "grid_factor" is
    # rescaled_factor on the simulated grid, "pair_factor" on the validate
    # measurement grid, "none" means the config is all there is.
    state: str
    sections: dict  # config sections besides seed, workers, model and grid

    def master_seed(self, seed: int, index: int) -> int:
        return random.Random(f"{self.name}:{seed}:{index}").randrange(2**31)

    def config(self, seed: int, index: int) -> dict:
        cfg = {
            "seed": self.master_seed(seed, index),
            "workers": self.workers,
            "model": MODEL,
            "grid": GRID,
            **self.sections,
        }
        cfg = copy.deepcopy(cfg)
        cfg[self.command]["realizations"] = self.realizations
        return cfg

    def check(self, out_dir: Path) -> Outputs:
        """Check the files a command wrote into ``out_dir``; raise CheckError."""
        if not out_dir.is_dir():
            raise CheckError(f"{out_dir.name}/ was not written")
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        worst = Outputs.worst_margin
        if self.command == "simulate":
            expected = {f"field_{i:04d}.{ext}" for i in range(self.realizations) for ext in ("csv", "json")}
            _check_names(files, expected)
            for i in range(self.realizations):
                stem = f"field_{i:04d}"
                check_field_csv(files[f"{stem}.csv"].decode(), GRID_POINTS)
                sidecar = _json(files, f"{stem}.json")
                if sidecar.get("csv_file") != f"{stem}.csv" or sidecar.get("realization") != i:
                    raise CheckError(f"{stem}.json does not describe {stem}.csv")
        else:
            _check_names(files, {"report.csv", "report.json"})
            worst = check_report(files["report.csv"].decode(), len(PAIRS) * len(THRESHOLDS))
            if _json(files, "report.json").get("realizations") != self.realizations:
                raise CheckError("report.json has the wrong realization count")
        return Outputs(
            digests={name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
            output_bytes=sum(len(data) for data in files.values()),
            worst_margin=worst,
        )


def _check_names(files, expected) -> None:
    if set(files) != expected:
        missing = sorted(expected - set(files))
        extra = sorted(set(files) - expected)
        raise CheckError(f"output files differ: missing {missing}, unexpected {extra}")


def _json(files, name) -> dict:
    try:
        return json.loads(files[name])
    except ValueError as exc:
        raise CheckError(f"{name} is not valid JSON: {exc}") from exc


def _number(cell: str, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CheckError(f"{what} {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckError(f"{what} {cell!r} is not finite")
    return value


def check_field_csv(text: str, points: int) -> None:
    """One field: a header and ``points`` rows of finite, positive Frechet values."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError("field CSV does not end with a newline")
    lines.pop()
    if not lines or lines[0] != FIELD_HEADER:
        raise CheckError("field CSV has the wrong header")
    if len(lines) - 1 != points:
        raise CheckError(f"field CSV has {len(lines) - 1} rows, expected {points}")
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != 4:
            raise CheckError(f"field CSV row {row} has {len(cells)} cells")
        for cell in cells[:3]:
            _number(cell, f"row {row} coordinate")
        if _number(cells[3], f"row {row} value") <= 0.0:
            raise CheckError(f"field CSV row {row} has a non-positive Frechet value")


def check_report(text: str, rows: int) -> float:
    """A validate report with ``rows`` unflagged rows; returns the worst margin."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError("report does not end with a newline")
    lines.pop()
    if not lines or lines[0] != REPORT_HEADER:
        raise CheckError("report has the wrong header")
    if len(lines) - 1 != rows:
        raise CheckError(f"report has {len(lines) - 1} rows, expected {rows}")
    worst = -math.inf
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != 11:
            raise CheckError(f"report row {row} has {len(cells)} cells")
        values = [_number(cell, f"report row {row} cell") for cell in cells[1:10]]
        abs_diff, half_width = values[7], values[8]
        if cells[10] != "0":
            raise CheckError(f"report row {row} is flagged")
        worst = max(worst, abs_diff - half_width - 0.01)
    return worst


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hr_grid",
            command="simulate",
            workers=2,
            realizations=4,
            state="grid_factor",
            sections={
                "simulate": {
                    "construction": "husler_reiss", "marginal": "frechet", "n": 100,
                    "output_dir": OUT,
                },
            },
        ),
        Workload(
            name="storm_grid",
            command="simulate",
            workers=1,
            # The cost of one storm realization varies with its events (the
            # coefficient of variation is about 0.2), so a run times many
            # short commands, each on a new config, and reports their median.
            realizations=2,
            state="none",
            sections={
                "storm": {"sigma": [[1.0, 0.0], [0.0, 1.0]], "sigma_time_sq": 1.0, "buffer": 4.0},
                "simulate": {
                    "construction": "storm", "marginal": "frechet",
                    "output_dir": OUT,
                },
            },
        ),
        Workload(
            name="mc_validate",
            command="validate",
            workers=2,
            realizations=10000,
            state="pair_factor",
            sections={
                "validate": {
                    "construction": "husler_reiss", "n": 1000,
                    "pairs": PAIRS, "thresholds": THRESHOLDS, "report": f"{OUT}/report.csv",
                },
            },
        ),
    )
}
