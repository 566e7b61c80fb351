#!/usr/bin/env python3
"""Benchmark the stormfields command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hr_grid [--seed 20240] [--seconds 30] [--trace 0]

Every command is ``python -m stormfields.cli`` in a fresh process, on a
config generated from the seed into ``.perfbench_work/`` (removed at the
end), with OpenBLAS and OpenMP pinned to one thread.  Each command's exit
code and outputs are checked, and a rerun of the same config must write the
same bytes.

``--trace 0`` times the set-up (``setup_state.py``, in fresh interpreters)
and then runs commands for ``--seconds``: the first config, its rerun, then
a new config per command.  It reports the end-to-end metrics.

``--trace 1`` alternates untraced and traced commands on the first config
for ``--seconds`` (at least two of each).  A traced command runs with
``hook/`` on ``PYTHONPATH``, which records spans around the public
functions of each stormfields layer in the command and its pool workers.
It reports the per-layer metrics: time medians over the traced commands,
counts that must repeat exactly, and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without a stormfields source tree under ``src/`` the script
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import benchstats
from workloads import DEFAULT_SEED, WORKLOADS, CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_MIN_REPS = 3
SETUP_MIN_S = 3.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.load_s": "s",
    "covmodels.rho_s": "s",
    "covmodels.rho_evals": "count",
    "gaussfield.build_covariance_s": "s",
    "gaussfield.cholesky_s": "s",
    "gaussfield.jitter_used": "1",
    "gaussfield.factor_bytes": "bytes",
    "gaussfield.sample_s": "s",
    "gaussfield.sample_calls": "count",
    "gaussfield.normals_drawn": "count",
    "gaussfield.draw_flops": "flop",
    "streams.substream_s": "s",
    "streams.substreams": "count",
    "numerics.cdf_s": "s",
    "numerics.cdf_values": "count",
    "numerics.cdf_ns_per_value": "ns",
    "maxstable.transform_self_s": "s",
    "maxstable.hr_field_self_s": "s",
    "maxstable.rescaled_factor_s": "s",
    "maxstable.storm_field_s": "s",
    "maxstable.storm_fields": "count",
    "extremal.closed_form_s": "s",
    "extremal.closed_form_calls": "count",
    "extremal.worst_margin": "1",
    "cli.self_s": "s",
    "cli.worker_busy_frac": "fraction",
    "cli.output_bytes": "bytes",
    "trace_overhead_frac": "fraction",
}
# Per-layer metrics measured by the clock; the others, except the overhead,
# are counts that must repeat exactly between traced commands.
TIMED = {name for name in PER_LAYER if name.endswith("_s")} | {
    "numerics.cdf_ns_per_value", "cli.worker_busy_frac",
}
COUNTED = set(PER_LAYER) - TIMED - {"trace_overhead_frac"}


@dataclass
class Proc:
    exit: int
    wall: float
    cpu: float  # user + system seconds of the process and the children it reaped
    rss_mb: float  # largest resident set of the process or any child it reaped
    output: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, *, env, cwd, log: Path, timeout: float) -> Proc:
    """Run ``argv`` to completion in its own process group, killed after ``timeout``."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=sink, stderr=subprocess.STDOUT, start_new_session=True
        )
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        exit=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        output=log.read_text(errors="replace"),
    )


def command_env(trace_dir: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
    paths = [str(SRC)] + ([str(BENCH / "hook")] if trace_dir else [])
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(PINNED)
    if trace_dir:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


PROBE = """
import json, platform, numpy, stormfields
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({type(exc).__name__})"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas, "stormfields": stormfields.__version__}))
"""


def environment(workload) -> dict | None:
    """What the result depends on besides the code; None if stormfields cannot run."""
    try:
        probe = subprocess.run(
            [sys.executable, "-c", PROBE], env=command_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        return None
    if probe.returncode != 0:
        print(probe.stderr, file=sys.stderr)
        return None
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    digest = hashlib.sha256()
    for path in sorted((SRC / "stormfields").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    info.update({
        "nproc": nproc,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "pinning": {**PINNED, "workers": workload.workers,
                    "workers_x_blas_threads_le_nproc": workload.workers <= nproc},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    })
    return info


class Bench:
    """One benchmark run of one workload in a private working directory."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.references = {}  # config index -> output digests of its first run

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def config_path(self, index: int) -> Path:
        path = self.workdir / f"config-{index}.yaml"
        if not path.exists():
            # JSON is YAML, so the stormfields loader reads it unchanged.
            path.write_text(json.dumps(self.workload.config(self.seed, index), indent=2) + "\n")
        return path

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: failed: {message}", file=sys.stderr)

    def setup(self) -> float | None:
        """One set-up in a fresh interpreter; its time, or None if it failed."""
        argv = [sys.executable, str(BENCH / "setup_state.py"),
                str(self.config_path(0)), self.workload.state]
        proc = run_process(argv, env=command_env(), cwd=self.workdir,
                           log=self.workdir / "setup.log", timeout=self.remaining())
        self.attempted += 1
        try:
            if proc.exit != 0:
                raise ValueError(f"exit code {proc.exit}")
            return float(json.loads(proc.output.strip().splitlines()[-1])["setup_s"])
        except (ValueError, KeyError, IndexError) as exc:
            self.fail(f"set-up: {exc}: {proc.output[-2000:]}")
            return None

    def command(self, index: int, trace_dir: Path | None = None):
        """Run and check one command; returns ``(Proc, Outputs or None)``."""
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-m", "stormfields.cli", self.workload.command,
                "--config", self.config_path(index).name]
        proc = run_process(argv, env=command_env(trace_dir), cwd=self.workdir,
                           log=self.workdir / "command.log", timeout=self.remaining())
        self.attempted += 1
        try:
            if proc.exit != 0:
                raise CheckError(f"exit code {proc.exit}: {proc.output[-2000:]}")
            outputs = self.workload.check(out)
            reference = self.references.setdefault(index, outputs.digests)
            if outputs.digests != reference:
                raise CheckError(f"config {index} wrote other bytes than on its first run")
        except CheckError as exc:
            self.fail(f"{self.workload.command} (config {index}): {exc}")
            return proc, None
        return proc, outputs

    def time_left_for(self, last_wall: float) -> bool:
        return self.remaining() > 2.0 * last_wall + 5.0

    def run_untraced(self):
        setups = []
        start = time.monotonic()
        while len(setups) < SETUP_MIN_REPS or time.monotonic() - start < SETUP_MIN_S:
            value = self.setup()
            if value is None:
                break
            setups.append(value)
        procs = []
        start = time.monotonic()
        while True:
            # the first config, its rerun, then a new config per command
            index = max(len(procs) - 1, 0)
            proc, _ = self.command(index)
            procs.append(proc)
            done = len(procs) >= 2 and time.monotonic() - start >= self.seconds
            if done or proc.exit < 0 or not self.time_left_for(proc.wall):
                break
        samples = {
            "wall_s": [p.wall for p in procs],
            "setup_s": setups,
            "cpu_s": [p.cpu for p in procs],
            "peak_rss_mb": [p.rss_mb for p in procs],
        }
        for name, values in samples.items():
            print(describe(name, values, END_TO_END[name]))
        return {name: statistics.median(values) for name, values in samples.items() if values}

    def run_traced(self):
        plain, traced, runs = [], [], []
        start = time.monotonic()
        while True:
            proc, _ = self.command(0)
            plain.append(proc.wall)
            trace_dir = self.workdir / f"trace-{len(traced)}"
            trace_dir.mkdir()
            proc, outputs = self.command(0, trace_dir)
            traced.append(proc.wall)
            if outputs is not None:
                runs.append(self.analyse(trace_dir, proc, outputs))
            shutil.rmtree(trace_dir)
            done = len(traced) >= 2 and time.monotonic() - start >= self.seconds
            if done or proc.exit < 0 or not self.time_left_for(2 * proc.wall):
                break
        if not runs:
            return {}
        for name in sorted(COUNTED):
            values = {run[name] for run in runs}
            if len(values) != 1:
                self.problems.append(f"{name} differs between traced commands: {sorted(values)}")
        metrics = {
            name: statistics.median([run[name] for run in runs]) if name in TIMED else runs[0][name]
            for name in PER_LAYER if name != "trace_overhead_frac"
        }
        metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        print(describe("untraced wall_s", plain, "s"))
        print(describe("traced wall_s", traced, "s"))
        return metrics

    def analyse(self, trace_dir: Path, proc: Proc, outputs) -> dict:
        spans = [
            json.loads(line)
            for path in sorted(trace_dir.glob("spans-*.jsonl"))
            for line in path.read_text().splitlines()
        ]
        metrics, layers, root_s = benchstats.trace_metrics(spans, self.workload.workers)
        if any(value < 0 for value in layers.values()):
            self.problems.append(f"negative layer self time: {layers}")
        if abs(sum(layers.values()) - root_s) > 1e-6 * max(root_s, 1.0):
            self.problems.append(f"layer self times sum to {sum(layers.values())}, not {root_s}")
        print("perfbench layers " + json.dumps({
            "self_s": layers, "sum_s": sum(layers.values()), "root_span_s": root_s,
            "traced_wall_s": proc.wall, "spans": len(spans),
        }))
        metrics["extremal.worst_margin"] = outputs.worst_margin
        metrics["cli.output_bytes"] = outputs.output_bytes
        return metrics


def describe(name: str, values, unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    tail = benchstats.tail_percentile(values)
    tail_text = (
        f"p{tail[0]:g} {tail[1]!r} {unit} ({tail[2]} samples beyond)" if tail
        else f"no percentile has {benchstats.MIN_BEYOND} samples beyond it"
    )
    samples = ", ".join(f"{v:.4g}" for v in values)
    return (f"{name}: median {statistics.median(values)!r} {unit}, {tail_text}, "
            f"n={len(values)} [{samples}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "stormfields" / "__init__.py").is_file():
        print(f"perfbench: no stormfields source at {SRC}", file=sys.stderr)
        return 2
    env = environment(workload)
    if env is None:
        print("perfbench: stormfields cannot be imported", file=sys.stderr)
        return 2

    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, args.seconds, workdir)
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        bench.problems.append(f"no value for {missing}")
    for problem in bench.problems:
        print(f"perfbench: problem: {problem}", file=sys.stderr)
    print("perfbench env " + json.dumps(env, sort_keys=True))
    print(f"perfbench run workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"error_rate: {bench.failed / max(bench.attempted, 1)!r} "
          f"({bench.failed} failed of {bench.attempted} attempted)")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
