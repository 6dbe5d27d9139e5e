"""The package's export list, the public names the scalar reference uses, and the README layout."""

import ast
import re
import types
from pathlib import Path

import mwmlab


def test_all_is_sorted_and_names_every_public_object():
    public = {
        name
        for name, value in vars(mwmlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert mwmlab.__all__ == sorted(set(mwmlab.__all__))
    assert set(mwmlab.__all__) == public


def test_reference_imports_no_private_name():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    from_package = [name for name in names if name.split(".")[0] == "mwmlab"]
    assert from_package
    private = [n for n in from_package if any(p.startswith("_") for p in n.split("."))]
    assert private == []


def test_readme_layout_names_every_module():
    root = Path(__file__).parent.parent
    layout = (root / "README.md").read_text(encoding="utf-8").split("## Layout", 1)[1]
    block = layout.split("```")[1].split("src/mwmlab/\n", 1)[1]
    block = block[: re.search(r"^\S", block, re.M).start()]  # up to the next directory
    listed = re.findall(r"^  (\S+\.py) ", block, re.M)
    assert sorted(listed) == sorted(p.name for p in (root / "src" / "mwmlab").glob("*.py"))
