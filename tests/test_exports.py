"""The package namespace keeps every name the benchmark harness imports from it."""

import ast
import importlib.util
from pathlib import Path

import pyrseiz

SESSION = Path(__file__).resolve().parent.parent / "perfbench" / "session.py"


def test_namespace_exports_the_names_the_benchmark_session_imports():
    tree = ast.parse(SESSION.read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pyrseiz"
        for alias in node.names
    }
    assert {"predict_instance", "segment_testing", "cli"} <= names
    for name in sorted(names):
        found = hasattr(pyrseiz, name) or importlib.util.find_spec(f"pyrseiz.{name}")
        assert found, f"perfbench/session.py imports pyrseiz.{name}, which is gone"
