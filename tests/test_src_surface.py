"""No test-only code in src/: every module-level function and class of
the gaternet package, and every non-dunder method of its classes, is
referenced by name somewhere in src/ or scripts/ outside its own
definition. Code that only tests (or the benchmark harness) call belongs
in tests/oracles.py, or nowhere."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "gaternet"

# Still named by bench/tracer.py's spans and test-only; removing them goes
# with replacing the tracer's monkeypatching by a hook in src/ (ROADMAP
# item 1), which changes bench/.
ALLOWED = {"layers.sigmoid", "model.spec_from_dict"}


def _definitions() -> dict[str, tuple[Path, ast.AST]]:
    """'module.name' or 'module.Class.method' -> (file, def node)."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs[f"{module}.{node.name}"] = (path, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        defs[f"{module}.{node.name}.{item.name}"] = (path, item)
    return defs


def _references() -> list[tuple[Path, int, str]]:
    """(file, line, identifier) for every name, attribute and imported
    name in src/ and scripts/."""
    refs = []
    for path in sorted([*REPO.glob("src/**/*.py"), *REPO.glob("scripts/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((path, node.lineno, a.name) for a in node.names)
    return refs


def _unreferenced() -> set[str]:
    refs = _references()
    missing = set()
    for qualname, (path, node) in _definitions().items():
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(name == node.name and not (p == path and line in inside)
                   for p, line, name in refs):
            missing.add(qualname)
    return missing


def test_every_definition_in_src_is_used_outside_tests():
    assert _unreferenced() - ALLOWED == set()


def test_allowlist_is_current():
    # an allowlisted name that is gone or now used must leave the list
    assert ALLOWED <= _definitions().keys()
    assert ALLOWED <= _unreferenced()
