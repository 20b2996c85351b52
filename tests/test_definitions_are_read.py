"""Every top-level function and class in src/phasecond has a reader outside the tests.

A definition counts as read when the package, scripts/ or bench/ names it:
by a bare name in its own module outside its own body, by importing it from
its module, as an attribute of its module bound to a name
(`from . import tensor as T` then `T.affine`), or as a target of
`bench/spans.py`'s TARGETS, which wraps dotted names resolved at run time.
A definition that only tests read is code the program no longer runs.

Likewise every RunConfig field is read as an attribute (`config.hidden`)
somewhere in the package outside config.py, in scripts/ or in bench/: a field
that nothing reads is a setting that changes nothing.
"""

import ast
import glob
import importlib.util
import os
from dataclasses import fields

from phasecond.config import RunConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "phasecond")


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def own_reads(tree, name):
    """Whether the module reads `name` outside the body of its own definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == name:
            continue
        if any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
               for n in ast.walk(node)):
            return True
    return False


def package_module(node, in_package):
    """The phasecond module an ImportFrom names (None for the package itself), or False."""
    if node.level == 1 and in_package:
        return node.module
    if node.level == 0 and node.module and node.module.split(".")[0] == "phasecond":
        return node.module.partition(".")[2] or None
    return False


def external_reads(tree, in_package):
    """{(module, name)} that one file reads from phasecond modules by import or attribute."""
    reads, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = package_module(node, in_package)
            if module is False:
                continue
            for alias in node.names:
                if module is None:  # `from . import tensor as T`: a module bound to a name
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    reads.add((module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            reads.add((aliases[node.value.id], node.attr))
    return reads


def bench_targets():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, attr.split(".")[0]) for module, attr, *_ in spans.TARGETS}


def unread_definitions():
    modules = {os.path.basename(p)[:-3]: parse(p)
               for p in glob.glob(os.path.join(PACKAGE, "*.py"))}
    reads = bench_targets()
    for tree in modules.values():
        reads |= external_reads(tree, in_package=True)
    for pattern in ("scripts/*.py", "bench/*.py"):
        for path in glob.glob(os.path.join(ROOT, pattern)):
            reads |= external_reads(parse(path), in_package=False)
    unread = []
    for module, tree in sorted(modules.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and (module, node.name) not in reads and not own_reads(tree, node.name):
                unread.append(f"{module}.{node.name}")
    return unread


def attribute_reads(tree):
    """The attribute names a module reads (`x.name` loaded, not stored)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_config_fields():
    paths = [p for p in glob.glob(os.path.join(PACKAGE, "*.py"))
             if os.path.basename(p) != "config.py"]
    for pattern in ("scripts/*.py", "bench/*.py"):
        paths += glob.glob(os.path.join(ROOT, pattern))
    reads = set().union(*(attribute_reads(parse(path)) for path in paths))
    return [f.name for f in fields(RunConfig) if f.name not in reads]


def test_every_definition_in_the_package_has_a_reader_outside_the_tests():
    assert unread_definitions() == []


def test_the_scan_sees_each_kind_of_read():
    reads = external_reads(ast.parse(
        "from . import tensor as T\nfrom .pointer import GRUCell\nT.affine(x)\n"), True)
    assert reads == {("pointer", "GRUCell"), ("tensor", "affine")}
    reads = external_reads(ast.parse(
        "from phasecond import data\nfrom phasecond.cli import main\ndata.evaluate()\n"), False)
    assert reads == {("cli", "main"), ("data", "evaluate")}
    assert external_reads(ast.parse("from . import x\nx.y\n"), in_package=False) == set()
    tree = ast.parse("def f():\n    return f()\n\ndef g():\n    return 1\n\nh = g\n")
    assert not own_reads(tree, "f") and own_reads(tree, "g")
    assert ("tensor", "backward") in bench_targets()
    assert attribute_reads(ast.parse("cfg.hidden = cfg.seed\ngetattr(cfg, 'lr')\n")) == {"seed"}


def test_every_run_config_field_has_a_reader_outside_config_py():
    assert unread_config_fields() == []
