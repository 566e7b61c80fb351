"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats  # noqa: E402
import run  # noqa: E402
from workloads import GRID_POINTS, WORKLOADS, CheckError, check_field_csv, check_report  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(span_id, parent, start, end, name="cli.command", **counts):
    out = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
    if counts:
        out["counts"] = counts
    return out


class TestTailPercentile:
    def test_too_few_samples(self):
        assert benchstats.tail_percentile(range(19)) is None

    def test_median_needs_twenty(self):
        assert benchstats.tail_percentile(range(1, 21)) == (50.0, 10, 10)

    def test_hundred_samples_give_p90(self):
        assert benchstats.tail_percentile(range(1, 101)) == (90.0, 90, 10)

    def test_thousand_samples_give_p99(self):
        assert benchstats.tail_percentile(range(1, 1001)) == (99.0, 990, 10)

    def test_between_steps_keeps_the_lower_percentile(self):
        # 199 samples: p95 is rank 190 with 9 beyond, so p90 (rank 180, 19 beyond)
        assert benchstats.tail_percentile(range(1, 200)) == (90.0, 180, 19)


# A parent [0, 10] with two overlapping children, as two pool workers give.
OVERLAP = [
    span("p", None, 0.0, 10.0),
    span("a", "p", 1.0, 5.0, "cli.task"),
    span("b", "p", 3.0, 8.0, "cli.task"),
]


class TestSelfTime:
    def test_overlapping_children_are_covered_once(self):
        assert benchstats.self_times(OVERLAP) == {"p": 3.0, "a": 4.0, "b": 5.0}

    def test_child_outside_parent_is_clipped(self):
        spans = [span("p", None, 0.0, 4.0), span("c", "p", 3.0, 6.0)]
        assert benchstats.self_times(spans)["p"] == 3.0

    def test_nested_children_count_only_direct(self):
        spans = [span("p", None, 0.0, 10.0), span("c", "p", 2.0, 8.0), span("g", "c", 3.0, 4.0)]
        assert benchstats.self_times(spans) == {"p": 4.0, "c": 5.0, "g": 1.0}

    def test_wall_shares_split_overlap_and_sum_to_wall(self):
        shares = benchstats.wall_shares(OVERLAP)
        assert shares == pytest.approx({"p": 3.0, "a": 3.0, "b": 4.0})
        assert sum(shares.values()) == pytest.approx(10.0)

    def test_wall_shares_equal_self_times_in_one_process(self):
        spans = [span("p", None, 0.0, 10.0), span("c", "p", 2.0, 8.0), span("g", "c", 3.0, 4.0),
                 span("d", "p", 8.0, 9.5)]
        assert benchstats.wall_shares(spans) == pytest.approx(benchstats.self_times(spans))

    def test_equal_timestamps_keep_nesting(self):
        spans = [span("p", None, 0.0, 2.0), span("c", "p", 0.0, 2.0)]
        assert benchstats.wall_shares(spans) == {"p": 0.0, "c": 2.0}


class TestTraceMetrics:
    def test_layers_sum_to_root_and_counts_add_up(self):
        spans = [
            span("r", None, 0.0, 10.0),
            span("t1", "r", 1.0, 6.0, "cli.task"),
            span("t2", "r", 2.0, 7.0, "cli.task"),
            span("c1", "t1", 2.0, 3.0, "numerics.std_normal_cdf", values=1000),
            span("c2", "t2", 2.0, 4.0, "numerics.std_normal_cdf", values=1000),
            span("m", "r", 7.0, 9.0, "covmodels.GneitingModel.rho", evals=50),
            span("n", "m", 7.5, 8.0, "covmodels.AnisotropicModel.rho", evals=50),
        ]
        metrics, layers, root_s = benchstats.trace_metrics(spans, workers=2)
        assert root_s == 10.0
        assert sum(layers.values()) == pytest.approx(10.0)
        assert metrics["numerics.cdf_values"] == 2000
        assert metrics["numerics.cdf_ns_per_value"] == pytest.approx(1e9 * 3.0 / 2000)
        assert metrics["numerics.cdf_s"] == pytest.approx(1.5)  # [2, 3] halved, then [3, 4] halved
        assert metrics["covmodels.rho_evals"] == 50  # the nested call is not counted again
        assert metrics["covmodels.rho_s"] == pytest.approx(2.0)
        assert metrics["cli.worker_busy_frac"] == pytest.approx(10.0 / 20.0)

    def test_needs_one_root(self):
        with pytest.raises(ValueError):
            benchstats.trace_metrics([span("a", None, 0, 1), span("b", None, 1, 2)], workers=1)


def field_csv(rows=GRID_POINTS, value="1.5"):
    lines = ["s1,s2,t,value"] + [f"0.0,{k}.0,0.0,{value}" for k in range(rows)]
    return "\n".join(lines) + "\n"


def report_csv(flag_row=None, rows=12):
    lines = ["pair,h1,h2,u,y1,y2,empirical,closed_form,abs_diff,half_width_99,flagged"]
    for k in range(rows):
        flagged = "1" if k == flag_row else "0"
        lines.append(f"{k // 3},0.0,0.0,0.0,1.0,1.0,0.37,0.368,0.002,0.012,{flagged}")
    return "\n".join(lines) + "\n"


class TestOutputChecks:
    def test_field_accepted(self):
        check_field_csv(field_csv(), GRID_POINTS)

    def test_truncated_field_rejected(self):
        text = field_csv()
        with pytest.raises(CheckError):
            check_field_csv(text[: len(text) // 2], GRID_POINTS)

    def test_truncated_field_at_a_row_boundary_rejected(self):
        with pytest.raises(CheckError, match="rows"):
            check_field_csv(field_csv(rows=GRID_POINTS - 1), GRID_POINTS)

    @pytest.mark.parametrize("value", ["0.0", "-2.0", "nan", "inf"])
    def test_non_frechet_value_rejected(self, value):
        with pytest.raises(CheckError):
            check_field_csv(field_csv(rows=3, value=value), 3)

    def test_report_margin(self):
        assert check_report(report_csv(), 12) == pytest.approx(0.002 - 0.012 - 0.01)

    def test_flagged_report_rejected(self):
        with pytest.raises(CheckError, match="flagged"):
            check_report(report_csv(flag_row=5), 12)

    def test_short_report_rejected(self):
        with pytest.raises(CheckError):
            check_report(report_csv(rows=11), 12)

    def test_missing_sidecar_rejected(self, tmp_path):
        workload = WORKLOADS["storm_grid"]
        for i in range(workload.realizations):
            (tmp_path / f"field_{i:04d}.csv").write_text(field_csv())
        with pytest.raises(CheckError, match="missing"):
            workload.check(tmp_path)


class TestWorkloads:
    def test_same_seed_same_config(self):
        for workload in WORKLOADS.values():
            assert workload.config(7, 0) == workload.config(7, 0)
            assert workload.config(7, 0)["seed"] != workload.config(7, 1)["seed"]
            assert workload.config(7, 0)["seed"] != workload.config(8, 0)["seed"]

    def test_benchmark_json_matches_the_script(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
        assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
