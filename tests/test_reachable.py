"""Every public function and class of the library is reached from a kind.

Reachability walks names over the module ASTs of the whole package,
subpackages included: it starts from everything `scenario`, `cli` and each
kind module (`stgames.kinds.<kind>`) mention and follows each top-level
definition or assignment it meets by name, in any module. Import
statements do not count as a mention, so a name re-exported from
`__init__.py` is not reached by that alone.

Every process compiles and imports each module it loads, so no module of
the library (bar `__init__.py`, which re-exports) imports a name it never
uses.

A name a kind does not reach is allowed only as a helper the test oracles
read, so every allowed name is read by some other test file.

Every option of a function a kind reaches, a parameter with a default, is
passed at some call in the package, so no option is kept that no input
sets.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stgames"

# no kind reaches these: small helpers the test oracles use
ALLOWED = {"in_core", "excess", "members", "best_responses"}

# options only callers outside the package set: tests and the benchmark
# call `main` in process with their own argument list
SET_OUTSIDE = {"cli.main(argv)"}


def _modules():
    """The package's module ASTs, keyed by dotted module path relative to
    the package (`scenario`, `kinds.coop`, `kinds`)."""
    trees = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        trees[".".join(parts)] = ast.parse(path.read_text())
    return trees


def _bindings(tree):
    """(name, statement) for each top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _mentions(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _reached(trees):
    """The names reached from `scenario`, `cli` and the kind modules."""
    defs = {}
    for tree in trees.values():
        for name, node in _bindings(tree):
            defs.setdefault(name, []).append(node)
    reached = set()
    kinds = [name for name in trees if name.startswith("kinds.")
             and not name.startswith("kinds._")]
    assert len(kinds) == 9
    todo = [trees["scenario"], trees["cli"], *(trees[name] for name in kinds)]
    while todo:
        for name in _mentions(todo.pop()):
            if name in defs and name not in reached:
                reached.add(name)
                todo.extend(defs[name])
    return reached


def test_every_public_name_is_reached_from_a_kind():
    trees = _modules()
    reached = _reached(trees)
    public = {node.name for tree in trees.values() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unreached = public - reached
    assert unreached - ALLOWED == set(), "wire these into a kind or delete them"
    # a name that a kind now reaches, or that is gone, leaves the list
    assert ALLOWED - unreached == set(), "drop these from ALLOWED"


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def test_every_option_of_a_reached_function_is_passed():
    trees = _modules()
    reached = _reached(trees)
    positional, keywords = {}, {}       # callee name -> what its calls pass
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = _callee(call.func)
                positional[name] = max(positional.get(name, 0), len(call.args))
                keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    unpassed = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") \
                    or node.name not in reached or node.name in ALLOWED:
                continue
            args = node.args
            params = args.posonlyargs + args.args
            options = [(k, a) for k, a in enumerate(params)
                       if k >= len(params) - len(args.defaults)]
            options += [(None, a) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None]
            for k, arg in options:
                by_position = k is not None and k < positional.get(node.name, 0)
                if not by_position and arg.arg not in keywords.get(node.name, ()):
                    unpassed.add(f"{module}.{node.name}({arg.arg})")
    assert unpassed - SET_OUTSIDE == set(), "pass these in a kind or delete them"
    assert SET_OUTSIDE - unpassed == set(), "drop these from SET_OUTSIDE"


def test_every_allowed_name_is_read_by_another_test():
    here = Path(__file__).resolve()
    read = set()
    for path in here.parent.glob("test_*.py"):
        if path != here:
            read.update(_mentions(ast.parse(path.read_text())))
    assert ALLOWED - read == set(), "no test reads these: delete them"


def _unused_imports(tree):
    """Names bound by an import statement that no expression reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    trees = _modules()
    assert "kinds._game" in trees
    unused = {f"{module}: {name}" for module, tree in trees.items() if module
              for name in _unused_imports(tree)}
    assert unused == set()
    # the check sees a leftover import
    assert _unused_imports(ast.parse("from __future__ import annotations\n"
                                     "import os.path\nfrom .lp import solve_lp as s\n")) \
        == {"os", "s"}
