"""Package structure: modules import only each other's public names, a
command reaches, and runs, every public definition, and a call sets every
default."""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import clockless
from clockless import cli, spectral
from clockless.io import write_circuit_json

PACKAGE = Path(clockless.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Public definitions no command reaches, each with the reason it stays.
UNREACHED_ALLOWED: dict[str, str] = {}

# Public members that the commands reach by name but never run, each with the
# reason it stays.
UNRUN_ALLOWED: dict[str, str] = {}

# Defaulted parameters of package functions that no package call sets, each
# with the reason the default stays a parameter.
_WITNESS = (
    "the witness register's state: commands run the all-zeros input, tests "
    "a random one"
)
_TOLERANCE = "a numerical tolerance that tests tighten or loosen"
UNSET_DEFAULTS_ALLOWED = {
    "cli.main(argv)": "None reads sys.argv, as the console script and "
    "python -m run it; tests pass the arguments",
    "fk.history_state(xi)": _WITNESS,
    "fk.swap_test_witness(xi)": _WITNESS,
    "soundness.build_combinatorial_state(xi)": _WITNESS,
    "pauli.word_decompose(tol)": _TOLERANCE,
    "soundness.extract_decomposition(tol)": _TOLERANCE,
    "soundness.run_suite(max_workers)": "only perfbench/tests/test_tracer.py "
    "sets it, to check the spans of worker threads; it goes with the thread "
    "pool in a benchmark change",
}


def _is_assignment(node, name: str) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets
    )


def _literal(path: Path, name: str):
    """The literal a file assigns to ``name`` at top level, or None."""
    for node in ast.parse(path.read_text()).body:
        if _is_assignment(node, name):
            return ast.literal_eval(node.value)
    return None


def _declared_all(module: Path):
    """The literal ``__all__`` of a module file, or None when it has none."""
    exported = _literal(module, "__all__")
    return None if exported is None else set(exported)


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
    solvers = ("dense_spectrum", "low_spectrum", "ground_certificate")
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


def _reached_definitions():
    """Every top-level def and class as ``(module, name)``, and the set of
    them reached by name from ``cli.main`` or a module's top-level code.

    A name resolves to a definition of its own module, to a name bound by a
    relative ``from .x import name``, or, as ``alias.name``, to a module
    bound by ``from . import x as alias``. A reached class reaches all its
    methods; ``__all__`` reaches nothing.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    definition = (ast.FunctionDef, ast.ClassDef)
    defs = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, definition)
    }
    names, modules = {}, {}
    for module, tree in trees.items():
        names[module], modules[module] = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[module][local] = alias.name
                    else:
                        names[module][local] = (node.module, alias.name)

    def references(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield names[module].get(sub.id, (module, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                if sub.value.id in modules[module]:
                    yield modules[module][sub.value.id], sub.attr

    todo = [("cli", "main")]
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, definition) or _is_assignment(node, "__all__")):
                todo.extend(references(module, node))
    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo.extend(references(key[0], defs[key]))
    return set(defs), reached


def _member_references(node):
    """Names ``node`` uses as an attribute or as a ``getattr`` string."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif (
            isinstance(sub, ast.Call)
            and ast.unparse(sub.func) == "getattr"
            and len(sub.args) > 1
            and isinstance(sub.args[1], ast.Constant)
        ):
            yield sub.args[1].value


def test_every_public_definition_is_reached_from_a_command():
    # a definition only tests call is dead weight; the allow-list names the
    # few kept anyway, and an allowed name that a command starts to reach
    # leaves the list. A public method or property of a public class is
    # reached when the package uses its name, outside its own body, as an
    # attribute or a getattr string; names match across classes, as a use
    # cannot tell which class it reaches
    defs, reached = _reached_definitions()
    unreached = [
        f"{module}.{name}"
        for module, name in defs - reached
        if not name.startswith("_")
    ]
    used = Counter(
        name
        for path in PACKAGE.glob("*.py")
        for name in _member_references(ast.parse(path.read_text()))
    )
    unreached += [
        qualified
        for qualified, node, _ in _functions()
        if qualified.count(".") == 2
        and used[node.name] <= Counter(_member_references(node))[node.name]
    ]
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)


def test_tracer_wraps_only_package_attributes():
    # a --trace run patches every WRAPPED name and fails on a missing one
    missing = []
    for module, dotted_names in _literal(TRACER, "WRAPPED").items():
        owner = importlib.import_module(f"{clockless.__name__}.{module}")
        for dotted in dotted_names:
            target = owner
            for part in dotted.split("."):
                target = getattr(target, part, None)
            if target is None:
                missing.append(f"{module}.{dotted}")
    assert missing == []


def _functions(private: bool = False):
    """``(qualified name, def node, bound leading parameters)`` of every
    public top-level function and public method of a public class, and with
    ``private`` of every top-level function and method."""

    def listed(name: str) -> bool:
        return private or name[0] != "_"

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and listed(node.name):
                yield f"{path.stem}.{node.name}", node, 0
            elif isinstance(node, ast.ClassDef) and listed(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and listed(item.name):
                        static = any(
                            ast.unparse(d) == "staticmethod"
                            for d in item.decorator_list
                        )
                        qualified = f"{path.stem}.{node.name}.{item.name}"
                        yield qualified, item, 0 if static else 1


def _defaulted(node):
    """``(position, name)`` of each parameter with a default; keyword-only
    parameters have position None."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first:], start=first):
        yield position, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _sets(call, position, name: str, bound: int) -> bool:
    """Whether a call sets the parameter: by keyword, by position, or
    through ``**kwargs``. A ``*args`` call counts its arguments before the
    star only: what the star unpacks is not read here, and counting it as
    setting every later parameter would hide one that no call sets."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    plain = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            break
        plain += 1
    return plain > position - bound


def test_a_starred_argument_sets_no_parameter():
    # the arguments before the star set their positions; what it unpacks
    # sets nothing, while ``**kwargs`` may set any keyword
    call = ast.parse("f(a, *rest, k=1)").body[0].value
    assert _sets(call, 0, "x", 0) and not _sets(call, 1, "y", 0)
    assert _sets(call, None, "k", 0) and not _sets(call, None, "z", 0)
    assert _sets(ast.parse("f(**options)").body[0].value, 3, "w", 0)


def test_every_defaulted_parameter_is_set_by_a_call():
    # a default that every caller keeps is a constant in disguise, and the
    # code only it reaches runs in tests alone. A call is matched by the
    # callee's bare name, so a same-named function can hide an unset
    # parameter but never report a set one
    calls = {}
    for path in PACKAGE.glob("*.py"):
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Call):
                callee = ast.unparse(sub.func).rsplit(".", 1)[-1]
                calls.setdefault(callee, []).append(sub)
    unset = sorted(
        f"{qualified}({name})"
        for qualified, node, bound in _functions(private=True)
        for position, name in _defaulted(node)
        if not any(
            _sets(call, position, name, bound) for call in calls.get(node.name, [])
        )
    )
    assert unset == sorted(UNSET_DEFAULTS_ALLOWED)


# One run of each command over the fixtures that takes every branch with a
# public callee: the dense and the iterative build with an export, default
# verify, a scan, every suite with a config file and a fault file, fk with
# its dense verifier check and an export, and swapqma.
COMMAND_RUNS = (
    ("build", "--circuit", "{id1}", "--mtx"),
    ("build", "--circuit", "{hcnot}"),
    ("verify",),
    ("scan", "--circuit", "{id1}", "--delta-grid", "0.3,0.7"),
    ("soundness", "--config", "{config}", "--fault-file", "{fault}"),
    ("fk", "--circuit", "{hcnot}", "--mtx"),
    ("swapqma", "--circuit", "{hcnot}"),
)


def _profiled(profile, fn, *args):
    sys.setprofile(profile)
    try:
        return fn(*args)
    finally:
        sys.setprofile(None)


def test_every_public_member_runs_under_a_command(
    tmp_path, monkeypatch, pin_cpus, identity1, hcnot
):
    # the run-time companion of the reachability test, which matches a
    # method by its bare name: each command runs in this process, with one
    # CPU so that fork_map makes no pool and with the dense solver cut
    # below hcnot's 10-qubit grid so that low_spectrum runs, and every
    # package function, method and property it calls is recorded
    pin_cpus(1)
    monkeypatch.setattr(spectral, "DENSE_QUBITS", 9)
    called = set()

    def profile(frame, event, arg):
        package, _, module = frame.f_globals.get("__name__", "").partition(".")
        if event == "call" and package == clockless.__name__:
            called.add(f"{module}.{frame.f_code.co_qualname}")

    # what a module calls as it loads runs before any command: its
    # top-level code runs again here, in a namespace of its own. A cached
    # function runs its body only on a miss, so every cache starts empty.
    for path in sorted(PACKAGE.glob("*.py")):
        name = f"{clockless.__name__}.{path.stem}"
        code = compile(path.read_text(), str(path), "exec")
        _profiled(profile, exec, code, {"__name__": name, "__package__": "clockless"})
        for value in vars(sys.modules.get(name, clockless)).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    names = ("id1", "hcnot", "config", "fault")
    files = {name: tmp_path / f"{name}.json" for name in names}
    write_circuit_json(files["id1"], identity1)
    write_circuit_json(files["hcnot"], hcnot)
    files["config"].write_text('{"instances": 2}')
    files["fault"].write_text('{"inputs": [0], "layers": [[], [0, 1]]}')
    for index, run in enumerate(COMMAND_RUNS):
        argv = [arg.format(**files) for arg in run]
        argv += ["--out", str(tmp_path / f"out{index}")]
        assert _profiled(profile, cli.main, argv) == 0, argv
    public = {qualified for qualified, _, _ in _functions()}
    allowed = set(UNREACHED_ALLOWED) | set(UNRUN_ALLOWED)
    unrun = sorted(public - called - allowed)
    assert unrun == [], f"public members no command runs: {unrun}"
    # an allowed name that a command starts to run leaves its list
    assert sorted(allowed & called) == []
