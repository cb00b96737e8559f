"""A frozen value is written only while it is built, by its own class.

``object.__setattr__`` gets round the read-only ``__setattr__`` of
``hilbert.Frozen``.  This test parses the package source and accepts the call
only in a method defined directly in a class body, writing that method's own
instance: its first parameter, or an instance it made with
``object.__new__`` of that parameter.  A memo another module keeps on
someone else's frozen object fails it.
"""

import ast
from pathlib import Path

import catalyx

SOURCES = sorted(Path(catalyx.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_call(node, owner, attr):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr and isinstance(node.func.value, ast.Name)
            and node.func.value.id == owner)


def _own_instances(fn):
    """The names ``fn`` may write: its first parameter and every name it
    binds to ``object.__new__(first parameter)``."""
    first = fn.args.posonlyargs + fn.args.args
    if not first:
        return set()
    own = {first[0].arg}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and _is_call(node.value, "object", "__new__")
                and [ast.unparse(a) for a in node.value.args] == [first[0].arg]):
            own.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return own


def _offences(path):
    module = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, FUNCTIONS)}

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if _is_call(child, "object", "__setattr__"):
                target = ast.unparse(child.args[0]) if child.args else ""
                if fn is None or id(fn) not in methods or target not in _own_instances(fn):
                    yield f"{module}:{child.lineno} writes {target}"
            yield from visit(child, child if isinstance(child, FUNCTIONS) else fn)

    yield from visit(tree, None)


def test_frozen_values_are_written_only_by_their_own_class():
    offences = [o for path in SOURCES for o in _offences(path)]
    assert offences == []


def test_the_guard_sees_a_write_from_outside(tmp_path):
    src = tmp_path / "memo.py"
    src.write_text(
        "class C:\n"
        "    def __init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        op = object.__new__(cls)\n"
        "        object.__setattr__(op, 'x', 2)\n"
        "        return op\n"
        "    def other(self, chan):\n"
        "        object.__setattr__(chan, 'x', 3)\n"
        "def memo(chan):\n"
        "    object.__setattr__(chan, 'x', 4)\n"
    )
    assert list(_offences(src)) == ["memo:10 writes chan", "memo:12 writes chan"]
