"""The package keeps every name the benchmark harness imports or wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pyrseiz

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SESSION = PERFBENCH / "session.py"
SPANS = PERFBENCH / "spans.py"

# Call sites the timing hooks still name but the program no longer has: the
# inference forward and the vote moved into ensemble.classify.
KNOWN_MISSING_HOOKS = {
    "pyrseiz.evaluation.forward",
    "pyrseiz.evaluation.majority_vote",
    "pyrseiz.cli.forward",
    "pyrseiz.cli.majority_vote",
}


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


def test_every_timing_hook_resolves_except_the_known_missing_ones():
    """A renamed adam_step, backward or update_running_stat would silently
    empty its span; the hooks must find every call site they wrap."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = spans._hooks(None, {})  # the tracer is only read when a wrapper runs
    assert any(attr == "adam_step" for _, attr, _, _ in hooks)
    missing = {
        f"{module}.{attr}"
        for module, attr, _, _ in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert missing == KNOWN_MISSING_HOOKS
