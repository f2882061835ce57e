"""Module boundaries: no module reaches into another's private names."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpde"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from .{node.module} import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not offenders
