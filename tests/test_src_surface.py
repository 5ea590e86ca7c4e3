"""No test-only code in src/: every module-level function and class of
the gaternet package, and every non-dunder method of its classes, is
referenced by name somewhere in src/ or scripts/ outside its own
definition, and every field of its dataclasses is read there. Code that
only tests (or the benchmark harness) call belongs in tests/oracles.py,
or nowhere; a result field that only tests read belongs nowhere."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "gaternet"

# Still named by bench/tracer.py's spans and test-only; removing them goes
# with replacing the tracer's monkeypatching by a hook in src/ (ROADMAP
# item 1), which changes bench/.
ALLOWED = {"layers.sigmoid", "model.spec_from_dict"}

# Dataclass fields read only outside src/ and scripts/. bench/ reads the
# gate bundle's hard gates (ROADMAP item 1 moves that read to a hook in
# src/); pca_reduce computes the basis anyway to project `reduced`, and
# the PCA tests check the projection against it.
ALLOWED_FIELDS = {"semhash.GateBundle.g_beta", "analyze.PCAResult.components"}


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields() -> dict[str, tuple[Path, ast.ClassDef]]:
    """'module.Class.field' -> (file, class node) for every annotated field
    of a @dataclass in the package."""
    fields = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        fields[f"{path.stem}.{node.name}.{item.target.id}"] = (
                            path, node)
    return fields


def _unread_fields() -> set[str]:
    """Fields that no attribute load in src/ or scripts/ reads, outside the
    class's own __post_init__ (validating a field is not using it). Reads
    match by name alone, so a field that shares its name with a read
    attribute of anything else counts as read."""
    loads = []
    for path in sorted([*REPO.glob("src/**/*.py"), *REPO.glob("scripts/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((path, node.lineno, node.attr))
    missing = set()
    for qualname, (path, cls) in _fields().items():
        name = qualname.rsplit(".", 1)[1]
        post_inits = [range(f.lineno, f.end_lineno + 1) for f in cls.body
                      if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
        if not any(attr == name and not (p == path and any(line in r for r in post_inits))
                   for p, line, attr in loads):
            missing.add(qualname)
    return missing


def test_every_definition_in_src_is_used_outside_tests():
    assert _unreferenced() - ALLOWED == set()


def test_allowlist_is_current():
    # an allowlisted name that is gone or now used must leave the list
    assert ALLOWED <= _definitions().keys()
    assert ALLOWED <= _unreferenced()


def test_every_dataclass_field_in_src_is_read_outside_tests():
    assert _unread_fields() - ALLOWED_FIELDS == set()


def test_field_allowlist_is_current():
    assert ALLOWED_FIELDS <= _fields().keys()
    assert ALLOWED_FIELDS <= _unread_fields()
