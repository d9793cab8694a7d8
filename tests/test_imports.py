"""Every name a module imports is used there or re-exported in its
``__all__``, every module-level private name is read somewhere in the
package, and every public name is read somewhere in the package or the
benchmark; an import or a helper nothing reads is dead weight that hides
real dependencies."""
import ast
import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qaoa_locality"
BENCHMARK = ROOT / "perfbench"

# A package __init__ imports names in order to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - used - _exported(tree))
    assert not unused, f"{path.name} imports {unused} but never uses them"


def _defined_names(node):
    # the names a module-level function, class or assignment defines
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _private_definitions(tree):
    # module-level names with one leading underscore; dunders such as
    # __all__ are the interpreter's
    for node in tree.body:
        yield from (
            n for n in _defined_names(node) if n.startswith("_") and not n.endswith("__")
        )


def unread_private_names(package):
    """Module-level private names of ``package`` that no module reads,
    either by name or as an attribute, as (file name, name) pairs."""
    defined, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, name) for name in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(file, name) for file, name in defined if name not in read]


def test_every_private_name_is_read():
    unread = unread_private_names(PACKAGE)
    assert not unread, f"module-level private names nothing reads: {unread}"


def test_an_unread_private_name_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n_used = 1\n\n\ndef _helper():\n    return _used\n\n\n"
        "class _Box:\n    pass\n\n\n__all__ = []\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from . import a\n\nx = a._Box\n", encoding="utf-8")
    assert unread_private_names(tmp_path) == [("a.py", "_LIMIT"), ("a.py", "_helper")]


def _reads(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unread_public_names(package, readers=()):
    """Names in the ``__all__`` of ``package``'s modules that nothing reads,
    as (file name, name) pairs. A read is a ``Name`` load or an attribute in
    a module of ``package`` outside the statement that defines the name; an
    ``__all__`` entry is a string and a re-export an import, so neither is a
    read. In the files of ``readers`` a string naming it counts as well, as
    a benchmark's tracer picks the functions it groups by name."""
    exported, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported += [(path.name, name) for name in sorted(_exported(tree))]
        for node in tree.body:
            read.update(set(_reads(node)) - set(_defined_names(node)))
    for path in readers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read.update(_reads(tree))
        read.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return [(file, name) for file, name in exported if name not in read]


def test_every_public_name_is_read():
    unread = unread_public_names(PACKAGE, sorted(BENCHMARK.glob("*.py")))
    assert not unread, f"public names nothing reads: {unread}"


def test_an_unread_public_name_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .a import Box, grow, helper, shown, tidy\n", encoding="utf-8"
    )
    # grow reads only itself, and the package names helper only in a string
    (package / "a.py").write_text(
        "__all__ = ['Box', 'grow', 'helper', 'shown', 'tidy', 'LIMIT']\n\nLIMIT = 3\n\n\n"
        "class Box:\n    pass\n\n\ndef grow(n):\n    return grow(n - 1) if n else Box()\n\n\n"
        "def helper():\n    return 'helper'\n\n\ndef shown():\n    pass\n\n\n"
        "def tidy():\n    return LIMIT\n",
        encoding="utf-8",
    )
    reader = tmp_path / "bench.py"
    reader.write_text("import pkg\n\nGROUPS = ('shown',)\npkg.tidy()\n", encoding="utf-8")
    assert unread_public_names(package) == [
        ("a.py", "grow"), ("a.py", "helper"), ("a.py", "shown"), ("a.py", "tidy")
    ]
    assert unread_public_names(package, [reader]) == [("a.py", "grow"), ("a.py", "helper")]


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def unread_dataclass_fields(package):
    """Fields of ``@dataclass`` classes in ``package`` that no module reads as
    an attribute, as (class name, field name) pairs; matched by name."""
    fields, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [
                    (node.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [(cls, name) for cls, name in fields if name not in read]


def test_every_dataclass_field_is_read():
    unread = unread_dataclass_fields(PACKAGE)
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_an_unread_dataclass_field_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass, field\n\n\n"
        "@dataclass(frozen=True)\nclass Box:\n    size: int\n    label: str = ''\n\n\n"
        "@dataclasses.dataclass\nclass Tag:\n    name: str\n    extra: list = field(default=None)\n\n\n"
        "class Plain:\n    note: str\n",
        encoding="utf-8",
    )
    # a store is not a read, and a plain class's annotations are not fields
    (tmp_path / "b.py").write_text(
        "from . import a\n\n\ndef f(box, tag):\n    box.label = tag.name\n    return box.size\n",
        encoding="utf-8",
    )
    assert unread_dataclass_fields(tmp_path) == [("Box", "label"), ("Tag", "extra")]


def int_coercions(package, skip=("cli.py",)):
    """Calls ``int(x)`` that coerce a function's own input, as (file name,
    function, name) triples, in every module of ``package`` but ``skip``.
    ``x`` is a parameter of the function that makes the call; in a public
    function or method it may also be a subscript of a parameter
    (``int(edge[0])``) or a name bound by iterating one (``for pair in
    edges``, ``int(b) for b in bits``), or a subscript of such a name.
    ``errors.integer`` is the one place that turns a checked count, degree,
    depth, radius or seed into an ``int``, ``errors.zero_one`` the one for
    bits, and ``graphs._edge`` the one for edge endpoints."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name in skip:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (path.name, func.name) == ("errors.py", "integer"):
                continue
            args = func.args
            inputs = {
                a.arg
                for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                if a is not None
            }
            public = not func.name.startswith("_") or func.name.endswith("__")
            if public:
                inputs |= {
                    name.id
                    for loop in ast.walk(func)
                    if isinstance(loop, (ast.For, ast.AsyncFor, ast.comprehension))
                    and isinstance(loop.iter, ast.Name)
                    and loop.iter.id in inputs
                    for name in ast.walk(loop.target)
                    if isinstance(name, ast.Name)
                }
            for call in ast.walk(func):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "int"
                    and call.args
                ):
                    continue
                arg = call.args[0]
                if public and isinstance(arg, ast.Subscript):
                    arg = arg.value
                if isinstance(arg, ast.Name) and arg.id in inputs:
                    found.append((path.name, func.name, arg.id))
    return found


def test_no_function_coerces_its_own_parameter_with_int():
    found = int_coercions(PACKAGE)
    assert not found, f"int() on a function's input, not errors.integer: {found}"


def test_an_int_coercion_of_a_parameter_is_caught(tmp_path):
    # a public function's subscripts of its parameters and the names its
    # loops and comprehensions bind from them are its input too; a private
    # helper is held only to its parameters themselves
    (tmp_path / "a.py").write_text(
        "def size(n, edge, *, trials=1):\n    m = int(edge[0])\n"
        "    return int(n) + int(m) + int(trials)\n\n\n"
        "def load(edges, bits, rows):\n"
        "    for pair in edges:\n        print(int(pair[1]))\n"
        "    for i, row in enumerate(rows):\n        print(int(row))\n"
        "    return [int(b) for b in bits]\n\n\n"
        "def _helper(k, edge):\n    return int(k) + int(edge[0]) + int(len(edge))\n\n\n"
        "class Box:\n    def grow(self, k):\n        return [int(k) for _ in range(2)]\n\n"
        "    def __post_init__(self):\n        return [int(x) for x in self.items]\n",
        encoding="utf-8",
    )
    (tmp_path / "cli.py").write_text("def read(text):\n    return int(text)\n", encoding="utf-8")
    assert sorted(int_coercions(tmp_path)) == [
        ("a.py", "_helper", "k"), ("a.py", "grow", "k"), ("a.py", "load", "b"),
        ("a.py", "load", "pair"), ("a.py", "size", "edge"), ("a.py", "size", "n"),
        ("a.py", "size", "trials"),
    ]


def test_the_package_exports_its_modules_public_names():
    """The package's public names, its submodules aside, are the union of
    the six layer modules' ``__all__`` and the two error types, each the
    object of its defining module; so the re-exports cannot drift from
    ``__all__``, and ``errors.integer`` and ``errors.zero_one`` stay out."""
    package = importlib.import_module("qaoa_locality")
    errors = importlib.import_module("qaoa_locality.errors")
    want = {"InputError": errors.InputError, "ResourceError": errors.ResourceError}
    for layer in ("graphs", "qaoa", "trees", "optimize", "experiments", "rng"):
        module = importlib.import_module(f"qaoa_locality.{layer}")
        want.update((name, getattr(module, name)) for name in module.__all__)
    got = {
        name: value
        for name, value in vars(package).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] is not want[name]] == []


def test_importing_the_package_leaves_the_command_line_out():
    """``import qaoa_locality`` loads neither the command-line module nor
    argparse, so changes there stay off every library caller's import."""
    code = (
        "import json, sys, qaoa_locality; print(json.dumps([qaoa_locality.__file__, "
        "sorted({'qaoa_locality.cli', 'argparse'} & set(sys.modules))]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    path, loaded = json.loads(proc.stdout)
    assert Path(path).parent == PACKAGE
    assert loaded == []


def test_the_command_line_does_not_load_argparse():
    code = (
        "import json, sys, qaoa_locality.cli as cli; "
        "print(json.dumps([cli.__file__, 'argparse' in sys.modules]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    path, loaded = json.loads(proc.stdout)
    assert Path(path).parent == PACKAGE
    assert loaded is False
