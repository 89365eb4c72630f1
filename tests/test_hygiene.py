"""Source hygiene: no module under src/, tests/ or demos/ imports a name it
never uses.  The scan is a stdlib AST walk, so it needs no linter.  An
import kept on purpose, such as a binding the benchmark tracer wraps, says
so with ``# noqa: F401`` on its line."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """The strings listed in __all__ assignments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            if bound == "*" or bound in used or "noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append(f"{alias.lineno}: {bound}")
    return unused


def test_scan_sees_the_tree():
    assert any(p.name == "kernels.py" for p in FILES)
    assert any(p.parent.name == "demos" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\n"
        "__all__ = ['loads']\nprint(dumps)\n",
        encoding="utf-8",
    )
    assert unused_imports(probe) == ["1: math"]
