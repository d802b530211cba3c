"""The public API is what the package, the CLI, the benchmark, the demos and
the acceptance suite call: every name in `coxfield.__all__` must exist and
be used somewhere other than the unit tests."""

import ast
import importlib.util
from pathlib import Path

import coxfield

_ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(paths):
    # every Name, Attribute and import alias in the files under paths
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _tracer_attributes():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", _ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attr for _, attr, *_ in tracer.SITES}


def test_public_names_exist_and_have_callers():
    missing = [name for name in coxfield.__all__ if not hasattr(coxfield, name)]
    assert missing == []
    package = _ROOT / "src" / "coxfield"
    paths = [path for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((_ROOT / "demos").glob("*.py"))
    paths += sorted((_ROOT / "perfbench").glob("*.py"))
    paths.append(_ROOT / "tests" / "test_acceptance.py")
    used = _referenced_names(paths) | _tracer_attributes()
    assert sorted(set(coxfield.__all__) - used) == []
