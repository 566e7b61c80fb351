"""Configuration handling, CLI subcommands, file formats and determinism."""

import json
import math
from functools import partial

import numpy as np
import pytest
import yaml

from stormfields import (
    AnisotropicModel,
    GneitingModel,
    MarginalKind,
    SeparableModel,
    StormModelParams,
    husler_reiss_field,
    rescaled_factor,
    simulate_storm_field,
)
from stormfields.cli import _hr_block, _joint_counts, _measurement_grid, _storm_block, main
from stormfields.config import load_config, parse_config
from stormfields.errors import ConfigError, FactorizationError

BASE_CONFIG = {
    "seed": 4242,
    "model": {"family": "gneiting"},
    "grid": {"shape": [4, 4], "times": [0.0, 1.0]},
    "simulate": {"n": 30, "realizations": 2, "output_dir": "out"},
    "validate": {
        "realizations": 1000,
        "pairs": [{"h": [0.0, 0.0], "u": 0.0}, {"h": [1.0, 0.0], "u": 0.0}],
        "thresholds": [1.0],
    },
    "surfaces": {"n_h": 12, "n_u": 9, "h_max": 20.0, "u_max": 30.0},
}


def write_config(tmp_path, mapping, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_defaults_mirror_reference_setup(self):
        cfg = parse_config({"seed": 1})
        assert isinstance(cfg.model, GneitingModel)
        assert (cfg.model.a, cfg.model.b, cfg.model.nu, cfg.model.gamma) == (0.03, 0.03, 1.5, 1.0)
        assert cfg.n == 100
        assert cfg.grid.n_space == 900
        assert cfg.grid.n_time == 4
        assert cfg.marginal is MarginalKind.FRECHET

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"seed": 1, "model": {"family": "gneiting", "aa": 2.0}})

    def test_field_level_message(self):
        with pytest.raises(ConfigError, match="model.a"):
            parse_config({"seed": 1, "model": {"family": "gneiting", "a": -1.0}})
        with pytest.raises(ConfigError, match="simulate.n"):
            parse_config({"seed": 1, "simulate": {"n": 1}})

    def test_overrides(self):
        cfg = parse_config({"seed": 1}, overrides=["simulate.n=250", "model.a=0.05", "workers=3"])
        assert cfg.n == 250
        assert cfg.model.a == 0.05
        assert cfg.workers == 3
        assert cfg.raw["simulate"]["n"] == 250

    def test_anisotropy_section(self):
        cfg = parse_config(
            {"seed": 1, "model": {"family": "gneiting", "anisotropy": {"a_max": 3.0, "a_min": 1.0, "angle_deg": 45.0}}}
        )
        assert isinstance(cfg.model, AnisotropicModel)
        assert cfg.model.transform.angle == pytest.approx(math.pi / 4)

    def test_separable_family(self):
        cfg = parse_config(
            {"seed": 1, "model": {"family": "separable", "spatial_range": 2.0, "temporal_decay": 0.3}}
        )
        assert isinstance(cfg.model, SeparableModel)

    def test_ma_mixture_and_bernstein_families(self):
        cfg = parse_config({
            "seed": 1,
            "model": {
                "family": "ma_mixture",
                "atoms": [[1.0, 1.0, 0.4], [0.5, 2.0, 0.6]],
                "spatial": {"scale": 0.2, "exponent": 1.5},
                "temporal": {"scale": 0.4, "exponent": 1.0},
            },
        })
        assert cfg.model.expansion().alpha_space == 1.5
        cfg = parse_config({
            "seed": 1,
            "model": {
                "family": "bernstein",
                "spatial_scales": [0.5, 1.0],
                "spatial_exponents": [0.8, 0.8],
                "temporal_scale": 0.5,
                "temporal_exponent": 0.5,
                "atoms": [[1.0, 1.0, 1.0]],
            },
        })
        assert cfg.model.expansion().spatial_weights is not None

    def test_storm_from_model(self):
        cfg = parse_config({"seed": 1, "storm": {"from_model": True}})
        assert cfg.storm.sigma_space[0, 0] == pytest.approx(1.0 / (4 * 0.045))
        assert cfg.storm.sigma_time_sq == pytest.approx(1.0 / (4 * 0.03))

    def test_validate_thresholds_forms(self):
        cfg = parse_config(
            {"seed": 1, "validate": {"thresholds": [0.5, [1.0, 2.0]],
                                     "pairs": [{"h": [1.0, 0.0]}], "realizations": 1000}}
        )
        assert cfg.validate.thresholds == ((0.5, 0.5), (1.0, 2.0))

    def test_validate_minimum_realizations(self):
        with pytest.raises(ConfigError, match="validate.realizations"):
            parse_config({"seed": 1, "validate": {"realizations": 500}})

    def test_bad_yaml_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)


class TestSimulateCommand:
    def test_writes_files_and_roundtrips(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "-c", str(cfg_path)]) == 0

        csv_path = tmp_path / "out" / "field_0000.csv"
        meta_path = tmp_path / "out" / "field_0000.json"
        assert csv_path.exists() and meta_path.exists()
        assert (tmp_path / "out" / "field_0001.csv").exists()

        rows = csv_path.read_text().splitlines()
        assert rows[0] == "s1,s2,t,value"
        data = np.array([[float(x) for x in line.split(",")] for line in rows[1:]])
        assert data.shape == (32, 4)

        meta = json.loads(meta_path.read_text())
        assert meta["master_seed"] == 4242
        assert meta["realization"] == 0
        assert meta["jitter_used"] >= 0.0
        assert meta["config"]["simulate"]["n"] == 30

        # reconstruct grid coordinates from the config echo and compare
        from stormfields.config import parse_config as reparse

        echoed = reparse(meta["config"])
        coords, times = echoed.grid.flat_coordinates()
        np.testing.assert_array_equal(data[:, :2], coords)
        np.testing.assert_array_equal(data[:, 2], times)

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        main(["simulate", "-c", str(cfg_path), "--set", "simulate.output_dir=a"])
        main(["simulate", "-c", str(cfg_path), "--set", "simulate.output_dir=b"])
        for name in ("field_0000.csv", "field_0001.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_count_does_not_change_outputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_CONFIG)
        cfg["simulate"] = {**BASE_CONFIG["simulate"], "realizations": 4}
        cfg_path = write_config(tmp_path, cfg)
        main(["simulate", "-c", str(cfg_path), "--workers", "1",
              "--set", "simulate.output_dir=w1"])
        main(["simulate", "-c", str(cfg_path), "--workers", "2",
              "--set", "simulate.output_dir=w2"])
        for i in range(4):
            name = f"field_{i:04d}.csv"
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    def test_sidecar_echo_reproduces_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        main(["simulate", "-c", str(cfg_path)])
        meta = json.loads((tmp_path / "out" / "field_0000.json").read_text())
        echo = dict(meta["config"])
        echo["simulate"] = {**echo["simulate"], "output_dir": "again"}
        echo_path = write_config(tmp_path, echo, name="echo.yaml")
        main(["simulate", "-c", str(echo_path)])
        assert (tmp_path / "again" / "field_0000.csv").read_bytes() == (
            tmp_path / "out" / "field_0000.csv"
        ).read_bytes()

    def test_storm_construction(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_CONFIG)
        cfg["simulate"] = {**BASE_CONFIG["simulate"], "construction": "storm", "realizations": 1}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "-c", str(cfg_path)]) == 0
        rows = (tmp_path / "out" / "field_0000.csv").read_text().splitlines()
        values = np.array([float(r.split(",")[-1]) for r in rows[1:]])
        assert np.all(values > 0.0)

    def test_gumbel_storm_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_CONFIG)
        cfg["simulate"] = {**BASE_CONFIG["simulate"], "construction": "storm", "marginal": "gumbel"}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "-c", str(cfg_path)]) == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"model": {"family": "gneiting"}})
        assert main(["simulate", "-c", str(cfg_path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, BASE_CONFIG)

        def boom(*args, **kwargs):
            raise FactorizationError("not positive definite; most negative pivot -1")

        monkeypatch.setattr("stormfields.cli.rescaled_factor", boom)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "-c", str(cfg_path)]) == 3


class TestSurfacesCommand:
    def test_isotropic_surface(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert main(["surfaces", "-c", str(cfg_path)]) == 0
        rows = (tmp_path / "surfaces.csv").read_text().splitlines()
        assert rows[0] == "hnorm,u,rho,chi"
        first = [float(x) for x in rows[1].split(",")]
        assert first == [0.0, 0.0, 1.0, 1.0]
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        assert data.shape == (12 * 9, 4)
        assert np.all((data[:, 2] > 0) & (data[:, 2] <= 1.0))
        assert np.all((data[:, 3] >= 0) & (data[:, 3] <= 1.0))
        assert (tmp_path / "surfaces.json").exists()

    def test_extremal_range_shorter_than_correlation(self, tmp_path, monkeypatch):
        # chi falls below 0.05 strictly before rho does, in space and time
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_CONFIG)
        cfg["surfaces"] = {"n_h": 201, "n_u": 301, "h_max": 20.0, "u_max": 30.0}
        cfg_path = write_config(tmp_path, cfg)
        main(["surfaces", "-c", str(cfg_path)])
        rows = (tmp_path / "surfaces.csv").read_text().splitlines()[1:]
        data = np.array([[float(x) for x in r.split(",")] for r in rows])
        spatial = data[data[:, 1] == 0.0]
        temporal = data[data[:, 0] == 0.0]
        for axis_data, col in ((spatial, 0), (temporal, 1)):
            chi_cross = axis_data[axis_data[:, 3] <= 0.05][:, col].min()
            rho_cross = axis_data[axis_data[:, 2] <= 0.05][:, col].min()
            assert chi_cross < rho_cross

    def test_anisotropic_surface(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_CONFIG)
        cfg["model"] = {
            "family": "gneiting",
            "anisotropy": {"a_max": 3.0, "a_min": 1.0, "angle_deg": 45.0},
        }
        cfg["surfaces"] = {"kind": "anisotropic", "extent": 12.0, "n_grid": 41}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["surfaces", "-c", str(cfg_path)]) == 0
        rows = (tmp_path / "surfaces.csv").read_text().splitlines()
        assert rows[0] == "h1,h2,rho,chi"
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        # along the stretched 45-degree axis dependence decays more slowly
        # than along the orthogonal direction at the same radius (4.2 lies
        # on the 0.6-spaced export grid)
        r = 4.2
        along = data[np.isclose(data[:, 0], r) & np.isclose(data[:, 1], r)]
        across = data[np.isclose(data[:, 0], r) & np.isclose(data[:, 1], -r)]
        assert along[0, 3] > across[0, 3]
        assert along[0, 2] > across[0, 2]

    def test_isotropic_kind_with_anisotropic_model_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_CONFIG)
        cfg["model"] = {"family": "gneiting", "anisotropy": {"a_max": 2.0, "a_min": 1.0, "angle_deg": 0.0}}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["surfaces", "-c", str(cfg_path)]) == 2


class TestValidateCommand:
    def test_storm_validation_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert main(["validate", "-c", str(cfg_path)]) == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert rows[0].startswith("pair,h1,h2,u,y1,y2,empirical,closed_form")
        assert len(rows) == 1 + 2  # two pairs, one threshold
        cells = rows[1].split(",")
        empirical, closed = float(cells[6]), float(cells[7])
        # zero-lag pair: complete dependence, exp(-1/min(y1, y2))
        assert closed == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert abs(empirical - closed) <= 0.05
        assert (tmp_path / "report.json").exists()

    def test_husler_reiss_validation(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_CONFIG)
        cfg["validate"] = {
            "construction": "husler_reiss",
            "n": 200,
            "realizations": 1000,
            "pairs": [{"h": [1.0, 0.0], "u": 1.0}],
            "thresholds": [1.0],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["validate", "-c", str(cfg_path)]) in (0, 4)
        rows = (tmp_path / "report.csv").read_text().splitlines()
        cells = rows[1].split(",")
        assert abs(float(cells[6]) - float(cells[7])) <= 0.06

    def test_breach_exit_code(self, tmp_path, monkeypatch):
        # a huge intensity floor truncates real mass: empirical CDF inflates
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_CONFIG)
        cfg["storm"] = {"intensity_floor": 20.0}
        cfg["validate"] = {
            "realizations": 1000,
            "pairs": [{"h": [1.0, 0.0], "u": 0.0}],
            "thresholds": [0.5],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["validate", "-c", str(cfg_path)]) == 4
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert rows[1].split(",")[-1] == "1"

    def test_worker_count_does_not_change_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        main(["validate", "-c", str(cfg_path), "--workers", "1", "--set", "validate.report=r1.csv"])
        main(["validate", "-c", str(cfg_path), "--workers", "2", "--set", "validate.report=r2.csv"])
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


class TestJointCounts:
    MODEL = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0)
    PAIRS = (((0.0, 0.0), 0.0), ((1.0, 0.0), 0.0), ((0.0, 0.0), 1.0))

    @staticmethod
    def scalar_counts(rows, site_pairs, thresholds):
        counts = np.zeros((len(site_pairs), len(thresholds)), dtype=np.int64)
        for values in rows:
            for pi, (ia, ib) in enumerate(site_pairs):
                for ti, (y1, y2) in enumerate(thresholds):
                    if values[ia] <= y1 and values[ib] <= y2:
                        counts[pi, ti] += 1
        return counts

    def test_hand_built_block_with_ties(self):
        block = np.array([
            [1.0, 2.0, 0.5],
            [0.5, 0.5, 3.0],
            [2.0, 1.0, 1.0],
            [0.9, 2.5, 0.4],
        ])
        site_pairs = [(0, 1), (0, 2), (1, 1)]
        # each value of the block equals some threshold coordinate
        thresholds = [(1.0, 2.0), (0.5, 0.5), (2.0, 1.0), (1.0, 1.0), (3.0, 3.0)]
        counts = _joint_counts(
            (1, 4), make_block=lambda bounds: block[slice(*bounds)],
            site_pairs=site_pairs, thresholds=thresholds,
        )
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, self.scalar_counts(block[1:4], site_pairs, thresholds))
        # pair (0, 1): row 1 sits exactly on (0.5, 0.5) and row 2 on (2.0, 1.0)
        np.testing.assert_array_equal(counts[0], [1, 1, 2, 1, 3])

    def test_block_helpers_of_both_constructions(self):
        grid, site_pairs = _measurement_grid(self.PAIRS)
        factor = rescaled_factor(self.MODEL, grid, 50)
        params = StormModelParams(np.eye(2), 1.0)
        cases = {
            "husler_reiss": (
                partial(_hr_block, factor=factor, n=50, kind=MarginalKind.FRECHET, seed=9),
                lambda r: husler_reiss_field(
                    self.MODEL, grid, 50, MarginalKind.FRECHET, 9, r, factor=factor
                ).values,
            ),
            "storm": (
                partial(_storm_block, params=params, grid=grid, seed=9),
                lambda r: simulate_storm_field(params, grid, 9, r).values,
            ),
        }
        for name, (make_block, single) in cases.items():
            rows = np.array([single(r) for r in range(3, 11)])
            np.testing.assert_array_equal(make_block((3, 11)), rows, err_msg=name)
            # threshold 1 + pi sits exactly on the first row's values of pair pi
            thresholds = [(1.0, 1.0)] + [(rows[0, ia], rows[0, ib]) for ia, ib in site_pairs]
            counts = _joint_counts(
                (3, 11), make_block=make_block, site_pairs=site_pairs, thresholds=thresholds,
            )
            np.testing.assert_array_equal(
                counts, self.scalar_counts(rows, site_pairs, thresholds), err_msg=name
            )
            assert np.all(np.diagonal(counts[:, 1:]) >= 1), name


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "stormfields" in capsys.readouterr().out
