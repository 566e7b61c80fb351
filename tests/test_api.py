"""The public surface: the package's explicit ``__all__`` and the layers' own."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import stormfields

ROOT = Path(__file__).resolve().parents[1]

# Functions whose calls the benchmark's trace turns into per-layer metrics.
# The trace wraps only names in a layer module's ``__all__``, so a name
# dropped from there would silently read 0.
TRACED = {
    "gaussfield": ("build_covariance_matrix", "sample_replications"),
    "numerics": ("std_normal_cdf",),
    "maxstable": ("transform_marginal", "rescaled_factor", "simulate_storm_field", "storm_block"),
    "extremal": ("bivariate_cdf_hr", "bivariate_cdf_smith"),
    "streams": ("substream",),
}


def test_all_is_a_literal_list_of_resolving_names():
    tree = ast.parse((ROOT / "src" / "stormfields" / "__init__.py").read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]]
    assert isinstance(value, ast.List)
    assert all(isinstance(item, ast.Constant) for item in value.elts)
    assert len(set(stormfields.__all__)) == len(stormfields.__all__)
    for name in stormfields.__all__:
        assert getattr(stormfields, name) is not None


def test_readme_quick_tour_uses_only_public_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "stormfields"
                for alias in node.names}
    assert imported
    assert imported <= set(stormfields.__all__)


@pytest.mark.parametrize("layer", sorted(TRACED))
def test_traced_functions_stay_in_their_layer_all(layer):
    module = importlib.import_module(f"stormfields.{layer}")
    for name in TRACED[layer]:
        assert name in module.__all__
        assert getattr(module, name).__module__ == module.__name__
