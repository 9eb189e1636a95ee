"""Every public name is read somewhere in the package: no API that only
tests call.

Every module declares its public names in ``__all__``, and each is checked
against the names the package's own code loads (``ast.Name``) or reads as
an attribute (``ast.Attribute``); so is every public method of each class
it exports, such as the ops of ``autodiff.Tape``. ``__init__.py`` only
re-exports, so it is neither checked nor counted as a reader. ``cli`` is
the entry point: its names are read by the console script, not by the
package, so it has no ``__all__``. The README's library layout table
lists exactly the package's modules.
"""

import ast
import re
from pathlib import Path

import pytest

import tsformer

PACKAGE_DIR = Path(tsformer.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def _public_names(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return None


def _names_read(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
READ = set().union(*(_names_read(tree) for tree in TREES.values()))


@pytest.mark.parametrize("module", sorted(m for m in TREES if m != "cli"))
def test_every_module_declares_its_public_names(module):
    assert _public_names(TREES[module]), f"tsformer.{module} has no __all__"


@pytest.mark.parametrize("module", sorted(m for m, tree in TREES.items() if _public_names(tree)))
def test_every_public_name_is_read_in_the_package(module):
    unread = [name for name in _public_names(TREES[module]) if name not in READ]
    assert unread == [], f"tsformer.{module} exports names nothing in the package reads"


@pytest.mark.parametrize("module", sorted(m for m, tree in TREES.items() if _public_names(tree)))
def test_every_public_method_is_read_in_the_package(module):
    tree = TREES[module]
    unread = [
        f"{cls.name}.{method.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in _public_names(tree)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and method.name not in READ
    ]
    assert unread == [], f"tsformer.{module} has methods nothing in the package calls"


def test_package_exports_every_public_name():
    # __init__ re-exports each module's __all__, all but fileio's
    missing = [f"{module}.{name}" for module in ("autodiff", "data", "errors", "model", "training")
               for name in _public_names(TREES[module]) if not hasattr(tsformer, name)]
    assert missing == []


def test_readme_layout_lists_exactly_the_modules():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library layout", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `tsformer\.(\w+)`", table, flags=re.MULTILINE)
    assert sorted(listed) == sorted(TREES)
