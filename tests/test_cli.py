"""Configuration handling, CLI subcommands, file formats and determinism."""

import json
import math
import os
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml

from stormfields import (
    AnisotropicModel,
    GneitingModel,
    MarginalKind,
    SeparableModel,
    SpaceTimeGrid,
    StormModelParams,
    delta_from_storm,
    husler_reiss_block,
    rescaled_factor,
    storm_block,
)
from stormfields import cli, gaussfield, maxstable
from stormfields.cli import _joint_counts, _map_blocks, _measurement_grid, main
from stormfields import config
from stormfields.config import load_config, parse_config
from stormfields.covmodels import delta_values
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

# minimal valid model sections of the two families with list-valued keys
BERNSTEIN = {"family": "bernstein", "spatial_scales": [0.5, 1.0],
             "spatial_exponents": [0.8, 0.8], "atoms": [[1.0, 1.0, 1.0]]}
MA_MIXTURE = {"family": "ma_mixture", "atoms": [[1.0, 1.0, 1.0]],
              "spatial": {"scale": 0.2, "exponent": 1.5},
              "temporal": {"scale": 0.4, "exponent": 1.0}}


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

        # the default origin follows the model's dimension
        cfg = parse_config({"seed": 1, "model": {"dimension": 1},
                            "grid": {"shape": [4], "times": [0.0, 1.0]}})
        assert cfg.grid.spatial_points.tolist() == [[0.0], [1.0], [2.0], [3.0]]
        assert cfg.raw["grid"]["origin"] == [0.0]

    @pytest.mark.parametrize("section", ["model", "grid", "storm", "simulate", "validate", "surfaces"])
    def test_null_section_keeps_defaults(self, section):
        assert parse_config({"seed": 1, section: None}).raw == parse_config({"seed": 1}).raw
        # a null section override merges like a null section in the file
        assert parse_config({"seed": 1}, [f"{section}=null"]).raw == parse_config({"seed": 1}).raw

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"seed": 1, "model": {"family": "gneiting", "aa": 2.0}})
        # every section, a key of another model family and the top level
        for section in ("grid", "simulate", "storm", "surfaces", "validate"):
            with pytest.raises(ConfigError, match=f"{section}: unknown key"):
                parse_config({"seed": 1, section: {"bogus": 1}})
        with pytest.raises(ConfigError, match="model: unknown key"):
            parse_config({"seed": 1, "model": {"family": "separable", "a": 1.0}})
        with pytest.raises(ConfigError, match="config: unknown key"):
            parse_config({"seed": 1, "bogus": 1})

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

        # a section override merges into the section, keeping its other keys
        cfg = parse_config({"seed": 1}, overrides=["storm={sigma_time_sq: 2.0}"])
        assert cfg.storm.sigma_time_sq == 2.0
        assert cfg.storm.buffer == 4.0
        assert cfg.raw["storm"] == {**parse_config({"seed": 1}).raw["storm"], "sigma_time_sq": 2.0}

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

    def test_storm_from_anisotropic_model(self):
        # the storm built from an anisotropic model has the model's delta,
        # including along the long axis h = (1, 1) at 45 degrees
        cfg = parse_config({"seed": 1, "storm": {"from_model": True}, "model": {
            "family": "gneiting", "anisotropy": {"a_max": 3.0, "a_min": 1.0, "angle_deg": 45.0}}})
        rng = np.random.default_rng(17)
        h = np.vstack([[1.0, 1.0], rng.uniform(-10.0, 10.0, size=(200, 2))])
        u = np.concatenate([[0.0], rng.uniform(-10.0, 10.0, size=200)])
        np.testing.assert_allclose(delta_from_storm(cfg.storm, h, u),
                                   delta_values(cfg.model.expansion(), h, u), rtol=1e-12)
        # C1 ||A h||^2 with C1 = b nu = 0.045 and ||A (1, 1)||^2 = 2/9
        assert delta_from_storm(cfg.storm, (1.0, 1.0), 0.0) == pytest.approx(0.01, rel=1e-12)
        # the isotropic sigma is unchanged to the bit
        iso = parse_config({"seed": 1, "storm": {"from_model": True}})
        np.testing.assert_array_equal(iso.storm.sigma_space, np.eye(2) / (4 * 0.045))

    def test_exponent_float_without_dot(self, tmp_path):
        # YAML 1.1 alone reads 1e-6 as a string; the config reader takes it as a float
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 1\nstorm: {intensity_floor: 1e-6}\n", encoding="utf-8")
        assert load_config(path).storm.intensity_floor == 1e-6
        cfg = load_config(path, ["storm.intensity_floor=1e-6", "storm.buffer=+2E0"])
        assert (cfg.storm.intensity_floor, cfg.storm.buffer) == (1e-6, 2.0)

    def test_validate_thresholds_forms(self):
        cfg = parse_config(
            {"seed": 1, "validate": {"thresholds": [0.5, [1.0, 2.0]],
                                     "pairs": [{"h": [1.0, 0.0]}], "realizations": 1000}}
        )
        assert cfg.validate.thresholds == ((0.5, 0.5), (1.0, 2.0))

    @pytest.mark.parametrize("mapping, key", [
        ({"grid": {"spacing": "x"}}, "grid.spacing"),
        ({"grid": {"shape": ["a", 3]}}, "grid.shape[0]"),
        ({"grid": {"times": ["x"]}}, "grid.times[0]"),
        ({"storm": {"sigma": "x"}}, "storm.sigma"),
        ({"model": {**BERNSTEIN, "spatial_scales": ["x", 1]}}, "model.spatial_scales[0]"),
        ({"model": {**BERNSTEIN, "temporal_scale": "x"}}, "model.temporal_scale"),
        ({"model": {**MA_MIXTURE, "dimension": "two"}}, "model.dimension"),
        ({"model": {**MA_MIXTURE, "atoms": [["a", 1, 1]]}}, "model.atoms[0][0]"),
        ({"model": {"anisotropy": {"a_max": "big"}}}, "model.anisotropy.a_max"),
        ({"validate": {"pairs": [{"h": ["a", 0]}]}}, "validate.pairs[0].h[0]"),
        ({"validate": {"thresholds": [["a", 1]]}}, "validate.thresholds[0][0]"),
        ({"validate": {"thresholds": 3}}, "validate.thresholds"),
        ({"surfaces": {"n_h": "x"}}, "surfaces.n_h"),
        ({"simulate": {"output_dir": 3}}, "simulate.output_dir"),
        ({"storm": {"from_model": "yes"}}, "storm.from_model"),
        ({"model": {**MA_MIXTURE, "spatial": {"scale": "x", "exponent": 1.0}}},
         "model.spatial.scale"),
        ({"model": {"anisotropy": {"angle_deg": "x"}}}, "model.anisotropy.angle_deg"),
        ({"workers": "x"}, "workers"),
    ])
    def test_wrong_type_names_its_key(self, mapping, key):
        with pytest.raises(ConfigError, match=re.escape(f"{key}: must be")):
            parse_config({"seed": 1, **mapping})

    @pytest.mark.parametrize("model, key", [
        ({k: v for k, v in MA_MIXTURE.items() if k != "atoms"}, "model.atoms"),
        ({k: v for k, v in BERNSTEIN.items() if k != "spatial_scales"}, "model.spatial_scales"),
        ({**MA_MIXTURE, "spatial": {"exponent": 1.0}}, "model.spatial.scale"),
    ])
    def test_missing_required_key_names_it(self, model, key):
        with pytest.raises(ConfigError, match=re.escape(f"{key}: is required")):
            parse_config({"seed": 1, "model": model})

    def test_storm_from_model_still_reads_sigma(self):
        # every storm key is read, also the ones from_model: true replaces
        with pytest.raises(ConfigError, match=re.escape("storm.sigma: must be")):
            parse_config({"seed": 1, "storm": {"from_model": True, "sigma": "x"}})

    def test_readme_schema_is_the_tables(self):
        # README's schema block is a valid config that names every key of the tables
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Configuration schema", 1)[1].split("```yaml\n", 1)[1]
        schema = yaml.load(block.split("```", 1)[0], Loader=config._Loader)
        parse_config(schema)
        expected = {name: set(keys) for name, keys in config._SECTIONS.items()}
        expected["model"] |= {*config._FAMILIES["gneiting"][1], "anisotropy"}
        expected["grid"].add("origin")
        assert set(schema) == {*config._TOP_LEVEL, *expected}
        assert {name: set(schema[name]) for name in expected} == expected
        assert set(schema["model"]["anisotropy"]) == set(config._ANISOTROPY)

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
        assert meta["factor_residual"] <= 1e-8
        assert 1 <= meta["factor_rank"] <= 32
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

        # the storm construction runs through the same pool path
        for workers in (1, 2, 3):
            assert main(["simulate", "-c", str(cfg_path), "--workers", str(workers),
                         "--set", "simulate.construction=storm",
                         "--set", f"simulate.output_dir=storm_w{workers}"]) == 0
        for workers in (2, 3):
            for i in range(4):
                name = f"field_{i:04d}.csv"
                assert (tmp_path / f"storm_w{workers}" / name).read_bytes() == (
                    tmp_path / "storm_w1" / name
                ).read_bytes()
                # sidecars echo the worker count and output directory by design
                meta = json.loads((tmp_path / f"storm_w{workers}" / f"field_{i:04d}.json").read_text())
                ref = json.loads((tmp_path / "storm_w1" / f"field_{i:04d}.json").read_text())
                assert {k: v for k, v in meta.items() if k != "config"} == {
                    k: v for k, v in ref.items() if k != "config"
                }

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
        meta = json.loads((tmp_path / "out" / "field_0000.json").read_text())
        assert meta["factor_rank"] is None and meta["factor_residual"] is None

    def test_gumbel_storm_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE_CONFIG)
        cfg["simulate"] = {**BASE_CONFIG["simulate"], "construction": "storm", "marginal": "gumbel"}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "-c", str(cfg_path)]) == 2
        assert "Frechet marginals only" in capsys.readouterr().err

        # a 1-d spatial grid is rejected the same way
        cfg["model"] = {"family": "gneiting", "dimension": 1}
        cfg["grid"] = {"shape": [4], "origin": [0.0], "times": [0.0, 1.0]}
        cfg["simulate"] = {**BASE_CONFIG["simulate"], "construction": "storm"}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", "-c", str(cfg_path)]) == 2
        assert "2-d spatial grid" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["simulate", "surfaces"])
    def test_unsupported_model_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # unequal spatial exponents have no single scaling sequence: the
        # model choice is a configuration error, not a numerical failure
        monkeypatch.chdir(tmp_path)
        model = {"family": "bernstein", "spatial_scales": [1.0, 1.0],
                 "spatial_exponents": [0.5, 1.0], "atoms": [[1.0, 1.0, 1.0]]}
        cfg_path = write_config(tmp_path, {**BASE_CONFIG, "model": model})
        assert main([command, "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: a single scaling sequence requires a common spatial exponent")


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
        sidecar = json.loads((tmp_path / "report.json").read_text())
        grid, _ = _measurement_grid((((1.0, 0.0), 1.0),))
        assert 0 < sidecar["factor_rank"] <= grid.size
        assert sidecar["factor_residual"] <= gaussfield.RANK_TOLERANCE

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

    def test_non_finite_storm_value_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(maxstable, "_event_maxima",
                            lambda field, *args: np.full(field.shape, np.nan))
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        # a floor this high stops every realization after a few dozen events
        assert main(["validate", "-c", str(cfg_path), "--set", "storm.intensity_floor=20.0"]) == 3
        assert "field values must be finite" in capsys.readouterr().err

    def test_worker_count_does_not_change_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        main(["validate", "-c", str(cfg_path), "--workers", "1", "--set", "validate.report=r1.csv"])
        main(["validate", "-c", str(cfg_path), "--workers", "2", "--set", "validate.report=r2.csv"])
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


SIDECAR_KEYS = {
    "simulate": {"realization", "construction", "marginal", "factor_rank", "factor_residual",
                 "csv_file"},
    "surfaces": {"kind", "csv_file"},
    "validate": {"construction", "realizations", "factor_rank", "factor_residual", "report_file",
                 "threshold_rule"},
}


class TestOutputFiles:
    def test_format_of_every_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        for command in SIDECAR_KEYS:
            assert main([command, "-c", str(cfg_path)]) == 0
        outputs = {
            "simulate": sorted((tmp_path / "out").glob("*.csv")),
            "surfaces": [tmp_path / "surfaces.csv"],
            "validate": [tmp_path / "report.csv"],
        }
        for command, paths in outputs.items():
            assert paths, command
            for path in paths:
                text = path.read_bytes().decode("utf-8")
                assert text.endswith("\n") and "\r" not in text, path.name
                header, *rows = text[:-1].split("\n")
                assert rows, path.name
                for row in rows:
                    cells = row.split(",")
                    assert len(cells) == len(header.split(",")), path.name
                    if command == "validate":
                        # the pair index and the flag are integers
                        assert [cells[0], cells[-1]] == [str(int(cells[0])), str(int(cells[-1]))]
                        cells = cells[1:-1]
                    assert cells == [repr(float(cell)) for cell in cells], path.name
                sidecar = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
                common = {"command", "config", "master_seed", "library_version"}
                assert set(sidecar) == common | SIDECAR_KEYS[command], path.name

    @pytest.mark.parametrize("command, key", [
        ("validate", "validate.report"),
        ("surfaces", "surfaces.output"),
    ])
    def test_json_output_path_rejected(self, tmp_path, monkeypatch, capsys, command, key):
        # the sidecar takes the CSV's name with a .json suffix
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert main([command, "-c", str(cfg_path), "--set", f"{key}=out.json"]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


def test_measurement_grid_layout():
    # a repeated spatial lag, a negative time lag and a negative zero
    pairs = (((1.0, 0.0), 0.0), ((0.0, 2.0), -1.0), ((1.0, 0.0), 2.0), ((-0.0, 0.0), 1.0),
             ((0.0, 2.0), 0.0))
    grid, sites = _measurement_grid(pairs)
    # spatial points in first-seen order from the base, times sorted
    np.testing.assert_array_equal(grid.spatial_points, [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(grid.time_points, [-1.0, 0.0, 1.0, 2.0])
    assert sites.shape == (len(pairs), 2)
    coords, times = grid.flat_coordinates()
    for (h, u), (base, partner) in zip(pairs, sites):
        assert (*coords[base], times[base]) == (0.0, 0.0, 0.0)
        assert (*coords[partner], times[partner]) == (*h, u)


class TestJointCounts:
    MODEL = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0)
    PAIRS = (((0.0, 0.0), 0.0), ((1.0, 0.0), 0.0), ((0.0, 0.0), 1.0))
    BLOCK = np.array([
        [1.0, 2.0, 0.5],
        [0.5, 0.5, 3.0],
        [2.0, 1.0, 1.0],
        [0.9, 2.5, 0.4],
    ])

    @staticmethod
    def cells(site_tuples, thresholds):
        """``(sites, thresholds)`` of every (site tuple, threshold) cell, tuple-major."""
        sites = np.repeat(np.asarray(site_tuples), len(thresholds), axis=0)
        return sites, np.tile(np.asarray(thresholds, dtype=float), (len(site_tuples), 1))

    @staticmethod
    def scalar_counts(rows, sites, thresholds):
        counts = np.zeros(len(sites), dtype=np.int64)
        for values in rows:
            for ci, (cell_sites, cell_thresholds) in enumerate(zip(sites, thresholds)):
                if all(values[i] <= y for i, y in zip(cell_sites, cell_thresholds)):
                    counts[ci] += 1
        return counts

    def hand_block_counts(self, site_tuples, thresholds):
        """Counts of the hand-built block's rows 1-3, checked against the scalar loop."""
        sites, cell_thresholds = self.cells(site_tuples, thresholds)
        counts = _joint_counts(
            range(1, 4), make_block=lambda realizations: self.BLOCK[realizations],
            sites=sites, thresholds=cell_thresholds,
        )
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(
            counts, self.scalar_counts(self.BLOCK[1:4], sites, cell_thresholds))
        return counts.reshape(len(site_tuples), len(thresholds))

    def test_hand_built_block_with_ties(self):
        # each value of the block equals some threshold coordinate
        counts = self.hand_block_counts(
            [(0, 1), (0, 2), (1, 1)],
            [(1.0, 2.0), (0.5, 0.5), (2.0, 1.0), (1.0, 1.0), (3.0, 3.0)],
        )
        # pair (0, 1): row 1 sits exactly on (0.5, 0.5) and row 2 on (2.0, 1.0)
        np.testing.assert_array_equal(counts[0], [1, 1, 2, 1, 3])

    def test_three_site_cells(self):
        counts = self.hand_block_counts(
            [(0, 1, 2), (2, 0, 1), (1, 1, 0)],
            [(2.0, 2.5, 1.0), (0.5, 0.5, 3.0), (1.0, 1.0, 1.0), (3.0, 3.0, 3.0)],
        )
        # triple (0, 1, 2): rows 2 and 3 each touch (2.0, 2.5, 1.0); row 1 sits on (0.5, 0.5, 3.0)
        np.testing.assert_array_equal(counts[0], [2, 1, 0, 3])

    def test_block_helpers_of_both_constructions(self):
        # the block functions as _construction binds them
        grid, site_pairs = _measurement_grid(self.PAIRS)
        factor = rescaled_factor(self.MODEL, grid, 50)
        params = StormModelParams(np.eye(2), 1.0)
        cases = {
            "husler_reiss": partial(husler_reiss_block, factor, 50, MarginalKind.FRECHET, 9),
            "storm": partial(storm_block, params, grid, 9),
        }
        for name, make_block in cases.items():
            # one single-realization row per realization
            rows = np.concatenate([make_block([r]) for r in range(3, 11)])
            np.testing.assert_array_equal(make_block(range(3, 11)), rows, err_msg=name)
            # threshold 1 + pi sits exactly on the first row's values of pair pi
            thresholds = [(1.0, 1.0)] + [(rows[0, ia], rows[0, ib]) for ia, ib in site_pairs]
            sites, cell_thresholds = self.cells(site_pairs, thresholds)
            counts = _joint_counts(
                range(3, 11), make_block=make_block, sites=sites, thresholds=cell_thresholds,
            )
            np.testing.assert_array_equal(
                counts, self.scalar_counts(rows, sites, cell_thresholds), err_msg=name
            )
            counts = counts.reshape(len(site_pairs), len(thresholds))
            assert np.all(np.diagonal(counts[:, 1:]) >= 1), name


def _numbered_block(realizations, make_block):
    """The range handed in, its rows and the process that drew them."""
    return realizations, make_block(realizations), os.getpid()


@pytest.mark.parametrize("total, workers", [(1, 2), (4, 2), (5, 3), (37, 2)])
def test_map_blocks_ranges_and_pool(total, workers):
    grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
    factor = rescaled_factor(TestJointCounts.MODEL, grid, 20)
    make_block = partial(husler_reiss_block, factor, 20, MarginalKind.FRECHET, 5)
    func = partial(_numbered_block, make_block=make_block)
    pooled = _map_blocks(func, total, workers)
    assert len(pooled) == min(total, 8 * workers)
    # non-empty ranges whose indices, joined in order, are exactly 0..total-1
    assert all(isinstance(indices, range) and len(indices) > 0 for indices, _, _ in pooled)
    np.testing.assert_array_equal(np.concatenate([i for i, _, _ in pooled]), np.arange(total))
    # more than one range runs in worker processes, one range in this one
    pids = {pid for _, _, pid in pooled}
    assert (os.getpid() not in pids) if len(pooled) > 1 else (pids == {os.getpid()})
    serial = _map_blocks(func, total, 1)
    rows = np.concatenate([values for _, values, _ in pooled])
    np.testing.assert_array_equal(rows, np.concatenate([values for _, values, _ in serial]))
    np.testing.assert_array_equal(rows, make_block(range(total)))


def test_map_blocks_caps_pool_at_cpu_count(monkeypatch):
    # a fake pool records its size and runs the tasks here: no process starts
    sizes = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, iterable):
            return map(func, iterable)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli, "_WORKER_BLOCK", None)
    for cpus, processes in [(3, 3), (None, 1), (64, 40)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        ranges = _map_blocks(lambda r: list(r), 40, 5000)
        # every realization once, in order, in at most 8 ranges per process
        assert sum(ranges, []) == list(range(40))
        assert len(ranges) <= 8 * processes
        assert sizes.pop() == processes
    # the serial-or-pool choice still follows workers alone
    assert sum(_map_blocks(lambda r: list(r), 40, 1), []) == list(range(40))
    assert sizes == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "stormfields" in capsys.readouterr().out
