"""The public surface that the README and ``neteffects.__all__`` promise."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import neteffects

README = Path(__file__).resolve().parents[1] / "README.md"

# The names the root exported while it listed them itself; row_col_summaries, an alias of
# DirectedWeightedNetwork.summaries, has left it.
LISTED_ROOT = [
    "DirectedWeightedNetwork", "EffectKind", "NodeSummaries", "from_edge_list", "read_edge_list",
    "EffectEstimate", "ReducedMoment", "QuadrupleSample", "mean_edge", "complete_estimate",
    "sample_quadruples", "reduced_estimate", "projection_variance", "DegeneracyDiagnosis",
    "TestReport", "LocalEffects", "diagnose_degeneracy", "test_effect", "local_effects",
    "SimulationSpec", "MonteCarloSummary", "generate", "monte_carlo", "NetworkEffectTest",
    "as_network", "NetworkEffectsError", "DuplicateEdgeError", "SelfLoopError",
    "NonFiniteWeightError", "TooFewNodesError", "UnsupportedEffectError", "ZeroVarianceError",
    "NonFiniteStatisticError", "InvalidSpecError",
]


def public_modules():
    """Each module of the package that declares ``__all__``."""
    modules = [importlib.import_module(f"neteffects.{info.name}")
               for info in pkgutil.iter_modules(neteffects.__path__)]
    return [module for module in modules if hasattr(module, "__all__")]


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_every_exported_name_resolves():
    missing = [name for name in neteffects.__all__ if not hasattr(neteffects, name)]
    assert missing == []
    assert len(set(neteffects.__all__)) == len(neteffects.__all__)


def test_the_root_is_the_union_of_its_modules_all():
    names = [name for module in public_modules() for name in module.__all__]
    twice = sorted({name for name in names if names.count(name) > 1})
    assert twice == []
    assert sorted(neteffects.__all__) == sorted(["__version__", *names])


def test_each_public_name_is_defined_where_it_is_listed():
    elsewhere = []
    for module in public_modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != module.__name__:
                elsewhere.append(f"{module.__name__}.{name}")
    assert elsewhere == []


def test_names_the_root_listed_resolve_to_their_home():
    moved = []
    for name in LISTED_ROOT:
        obj = getattr(neteffects, name)
        home = importlib.import_module(obj.__module__)
        if name not in home.__all__ or getattr(home, name) is not obj:
            moved.append(name)
    assert moved == []


def resolves(name: str) -> bool:
    """Whether a cited ``module.name``, ``Class.attribute`` or root name, each with or
    without a leading ``neteffects.``, names an object of the package."""
    path = name.split(".")
    if path[0] == "neteffects":
        path = path[1:]
    try:
        obj, path = importlib.import_module(f"neteffects.{path[0]}"), path[1:]
    except ModuleNotFoundError:
        obj = neteffects
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


@pytest.mark.parametrize("name, found", [
    ("neteffects.cli", True),
    ("neteffects.quadruple_kernel_values", True),
    ("network.SUMMARY_TILE", True),
    ("neteffects.no_such_name", False),
])
def test_a_citation_resolves_with_or_without_the_package_root(name, found):
    assert resolves(name) is found


def test_every_cited_code_name_resolves():
    # `module.name`, `neteffects.module.name`, `neteffects.name` or `Class.attribute`; other
    # libraries' names, such as `numpy.einsum` or `math.erfc`, are not checked
    cited = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)[`(]", README.read_text(encoding="utf-8"))
    assert "network.SUMMARY_TILE" in cited
    assert [name for name in cited
            if name.split(".")[0] not in ("numpy", "scipy", "math") and not resolves(name)] == []
