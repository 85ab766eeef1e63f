"""The public surface that the README and ``neteffects.__all__`` promise."""

import importlib
import re
from pathlib import Path

import neteffects

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_every_cited_code_name_resolves():
    # `module.name`, `neteffects.module.name` or `Class.attribute`; other
    # libraries' names, such as `numpy.einsum` or `math.erfc`, are not checked
    cited = re.findall(r"`(?:neteffects\.)?([A-Za-z_]\w*(?:\.\w+)+)[`(]",
                       README.read_text(encoding="utf-8"))
    assert "network.SUMMARY_TILE" in cited
    unresolved = []
    for name in cited:
        root, *path = name.split(".")
        if root in ("numpy", "scipy", "math"):
            continue
        try:
            obj = importlib.import_module(f"neteffects.{root}")
        except ModuleNotFoundError:
            obj = neteffects
            path = [root, *path]
        for attr in path:
            if not hasattr(obj, attr):
                unresolved.append(name)
                break
            obj = getattr(obj, attr)
    assert unresolved == []
