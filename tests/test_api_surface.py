"""Every top-level name in the package is used by the package itself.

A function that only tests call is a second copy of a kernel that the
commands already run, and it drifts from that kernel unnoticed; a constant
that nothing reads is a tolerance that no longer bounds anything. So each
``def``/``class`` and module-level assignment in ``src/kerrcat``, private
ones included (dunders aside), must be referenced by package code outside
its own definition: a private helper left behind when its caller goes
fails too. Tests reach
the physics through the kernels the commands use, or through
``tests/oracles.py``. Nor does the package hold an ``assert``, which
``python -O`` strips, or an exception type that it never raises.
"""

import ast
from collections import defaultdict
from pathlib import Path

import kerrcat

#: public names kept without a caller in the package, each with its reason
ALLOWED_UNUSED: dict[str, str] = {}

PATHS = sorted(Path(kerrcat.__file__).resolve().parent.glob("*.py"))
TREES = [ast.parse(path.read_text(), filename=str(path)) for path in PATHS]


def _definitions():
    """(name, node) for every top-level def, class or assigned name but dunders."""
    for tree in TREES:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            yield from ((name, node) for name in names if not name.startswith("__"))


def _unreferenced() -> set[str]:
    """Names that no bare name or attribute in package code uses outside their own body."""
    uses = defaultdict(set)
    for tree in TREES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].add(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].add(node)
    return {name for name, node in _definitions() if uses[name] <= set(ast.walk(node))}


def test_every_public_name_has_a_package_caller():
    public = {name for name in _unreferenced() if not name.startswith("_")}
    assert public - set(ALLOWED_UNUSED) == set()


def test_every_private_name_has_a_package_caller():
    # no allowlist: a private helper with no caller is dead code
    assert {name for name in _unreferenced() if name.startswith("_")} == set()


def test_no_assert_statements():
    # python -O strips asserts, so an invariant written as one is no check
    # at all; the package raises InvariantViolation or ValueError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in zip(PATHS, TREES)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_allowlist_is_current():
    # every entry still names a public definition without a caller; once
    # package code calls it, or it is deleted, the entry goes
    assert set(ALLOWED_UNUSED) <= _unreferenced()


def test_every_error_type_is_raised():
    # a type that nothing raises is an except clause and an exit code that
    # can never fire
    errors = TREES[[path.name for path in PATHS].index("errors.py")]
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for tree in TREES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert defined - raised == set()


def test_every_error_type_is_caught_only_by_main():
    # errors.py is the exit-code table: each type ends a run with its code in
    # cli.main, and a type caught anywhere else would turn a failure into data
    errors = TREES[[path.name for path in PATHS].index("errors.py")]
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    cli = TREES[[path.name for path in PATHS].index("cli.py")]
    main = next(node for node in cli.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = set(ast.walk(main))
    caught = defaultdict(list)
    for path, tree in zip(PATHS, TREES):
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, (ast.Name, ast.Attribute)):
                        where = "main" if node in in_main else f"{path.name}:{node.lineno}"
                        caught[getattr(name, "id", None) or name.attr].append(where)
    assert {name: caught[name] for name in defined} == {name: ["main"] for name in defined}


def test_propagator_sits_below_the_diagnostics():
    # lindblad returns states; the observables read from them (analysis) and
    # the commands that write them (cli) import lindblad, never the reverse
    tree = TREES[[path.name for path in PATHS].index("lindblad.py")]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert imported & {"analysis", "cli"} == set()


def test_detuning_is_multiplied_only_in_angles():
    # KerrSystem.angles reduces delta t once for both backends and validate; a
    # product of the detuning elsewhere would round each phase on its own
    angles = next(
        node for tree in TREES for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "KerrSystem"
        for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "angles"
    )
    inside = set(ast.walk(angles))
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in zip(PATHS, TREES)
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and any(isinstance(side, ast.Attribute) and side.attr == "detuning"
                for side in (node.left, node.right))
        and node not in inside
    ]
    assert found == []


def test_cli_turns_by_the_detuning_only_in_validate():
    # evolve and sweep run in the frame that rotates with the detuning, so
    # validate's revival and parity checks, lab-frame Q surfaces, are the only
    # command code that reads KerrSystem.angles
    cli = TREES[[path.name for path in PATHS].index("cli.py")]
    validate = next(node for node in cli.body
                    if isinstance(node, ast.FunctionDef) and node.name == "cmd_validate")
    inside = set(ast.walk(validate))
    reads = [node for node in ast.walk(cli)
             if isinstance(node, ast.Attribute) and node.attr == "angles"]
    assert reads and all(node in inside for node in reads), [node.lineno for node in reads]


def test_no_list_of_evolved_states():
    # lindblad.evolve yields one state at a time, so that a run holds one
    # block of them whatever its number of samples; an index or a len() of
    # its result needs them all kept
    def is_evolve(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) == "evolve" or getattr(node.func, "id", None) == "evolve"
        )

    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in zip(PATHS, TREES)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and is_evolve(node.value)
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("len", "list", "tuple")
        and any(is_evolve(arg) for arg in node.args)
    ]
    assert found == []


def test_time_rule_is_written_once():
    # fock.check_time holds the one comparison 0 <= t < inf and its message;
    # both backends, the diagnostics and the commands call it
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in zip(PATHS, TREES)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and [type(op) for op in node.ops] == [ast.LtE, ast.Lt]
        and isinstance(node.left, ast.Constant) and node.left.value == 0
        and getattr(node.comparators[-1], "attr", None) == "inf"
    ]
    assert len(found) == 1 and found[0].startswith("fock.py:"), found


def test_cli_leaves_alpha0_range_to_kerrsystem():
    # KerrSystem checks |alpha0| on construction, so a command that checked it
    # too would hold a second copy of the rule
    cli = TREES[[path.name for path in PATHS].index("cli.py")]
    names = {getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(cli)}
    assert "check_probe_range" not in names
