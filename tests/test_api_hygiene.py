"""API hygiene of the kblab package, checked on its source with ast.

Every function parameter is read in its function's body, every dataclass
field or property is read as an attribute somewhere in the package, and every
module-level name a module assigns is read somewhere in the package. A
parameter the body never reads, or a field or constant nothing reads, is
either a copy of a value that has a home elsewhere or a value with no use.
R(t) is evaluated only in model.py, the home of the paths derived from it.

Reads are matched by attribute name, not by owner: ast does not know the type
of the object an attribute is read from, so a field counts as read when any
attribute of its name is read anywhere in the package. A field whose name
another record shares (``seed``, ``grid``, ``atoms``) passes on the other
record's reads; such fields are found only by reading the code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kblab"

# module-level names that describe the package rather than feed its code
MODULE_METADATA = {"__all__", "__version__"}


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _params(args: ast.arguments):
    named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [a.arg for a in named if a is not None]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _is_property(fn) -> bool:
    return any(getattr(dec, "id", None) == "property" for dec in fn.decorator_list)


def _attributes_read(trees):
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_parameter_is_read():
    unread = []
    for fname, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            unread += [f"{fname}: {name}({p})" for p in _params(fn.args) if p not in read]
    assert not unread, "parameters never read: " + ", ".join(unread)


def _record_members(trees):
    """(record, name) of every dataclass field and every property in the package."""
    members = []
    for tree in trees.values():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            members += [(cls.name, fn.name) for fn in cls.body
                        if isinstance(fn, ast.FunctionDef) and _is_property(fn)]
            if _is_dataclass(cls):
                members += [(cls.name, stmt.target.id) for stmt in cls.body
                            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return members


def test_every_record_field_and_property_is_read():
    trees = _trees()
    read = _attributes_read(trees)
    unread = [(cls, n) for cls, n in _record_members(trees) if n not in read]
    assert not unread, f"fields or properties never read in kblab: {sorted(unread)}"


def _names_read(trees):
    """Every name the package loads, reads as an attribute or imports from a module."""
    read = _attributes_read(trees)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def test_every_module_constant_is_read():
    trees = _trees()
    read = _names_read(trees)
    unread = []
    for fname, tree in trees.items():
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            unread += [f"{fname}: {node.id}" for target in targets for node in ast.walk(target)
                       if isinstance(node, ast.Name) and node.id not in read | MODULE_METADATA]
    assert not unread, "module-level names never read: " + ", ".join(unread)


def test_only_the_model_evaluates_r():
    # C^T R^-1 C, R^-1 and R^{1/2} are the model's derived paths, formed once
    # for a constant R; a module that evaluates R itself re-forms them per node
    calls = [f"{fname}:{node.lineno}" for fname, tree in _trees().items() if fname != "model.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "R_at"]
    assert not calls, "R_at called outside model.py: " + ", ".join(calls)


def test_only_the_runner_loads_writes_and_records():
    # every subcommand goes through cli._run, the one place that loads the
    # config, writes the tables and the manifest and maps a numerical failure
    tree = _trees()["cli.py"]
    runner = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_run")

    def calls(node):
        return sorted(getattr(call.func, "id", getattr(call.func, "attr", None))
                      for call in ast.walk(node) if isinstance(call, ast.Call))

    shared = {"_load_config", "write_table", "write_manifest"}
    assert shared <= set(calls(runner))
    assert [c for c in calls(tree) if c in shared] == [c for c in calls(runner) if c in shared]
