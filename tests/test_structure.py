"""Package structure: modules import only each other's public names."""

import ast
from pathlib import Path

import clockless

PACKAGE = Path(clockless.__file__).resolve().parent


def _declared_all(module: Path):
    """The literal ``__all__`` of a module file, or None when it has none."""
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return None


def _relative_imports():
    """(importing file, target module file, imported name) per relative import."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                target = PACKAGE / f"{node.module or '__init__'}.py"
                for alias in node.names:
                    yield path.name, target, alias.name


def test_relative_imports_found():
    assert any(name == "apply_matrix" for _, _, name in _relative_imports())


def test_no_private_cross_module_imports():
    private = [
        f"{src} imports {name} from {target.stem}"
        for src, target, name in _relative_imports()
        if name.startswith("_")
    ]
    assert private == []


def test_relative_imports_are_exported():
    missing = []
    for src, target, name in _relative_imports():
        exported = _declared_all(target)
        if exported is not None and name not in exported:
            missing.append(f"{src} imports {name}, absent from {target.stem}.__all__")
    assert missing == []


def _module_level_names(path: Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_size_limits_live_only_in_limits():
    strays = [
        f"{path.name} defines {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "limits.py"
        for name in _module_level_names(path)
        if name.endswith(("_CAP", "_BUDGET"))
    ]
    assert strays == []


def test_cli_leaves_the_numerics_to_the_library():
    # cli parses, echoes and writes; rotated forms, Pauli algebra, state
    # contractions and the choice of eigensolver are reached only through
    # library calls
    solvers = ("dense_spectrum", "low_spectrum", "ground_state", "solver_for")
    numeric = [
        f"cli imports {name} from {target.stem}"
        for src, target, name in _relative_imports()
        if src == "cli.py"
        and (
            target.stem in ("rotation", "pauli", "linalg")
            or target.stem == "spectral"
            and (name in solvers or name.startswith("require_"))
        )
    ]
    assert numeric == []


def test_terms_have_two_implementations_and_no_subclasses():
    # LocalTerm (a dense block) and DressedTerm (its factors) carry the one
    # term protocol; nothing derives from either
    terms = {"LocalTerm", "DressedTerm"}
    derived = [
        f"{path.name} defines {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and terms & {ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases}
    ]
    assert derived == []


def test_grid_states_are_built_only_in_peps():
    # PepsState is the one grid-state type (a faulted state is one with its
    # fault set), and only peps constructs it
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).rsplit(".", 1)[-1] == "PepsState"
                and path.name != "peps.py"
            ):
                strays.append(f"{path.name} constructs PepsState")
            if isinstance(node, ast.ClassDef) and node.name != "PepsState":
                fields = {
                    ast.unparse(item.target)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                }
                if {"amplitudes", "layout"} <= fields:
                    strays.append(f"{path.name} defines grid state {node.name}")
    assert strays == []
