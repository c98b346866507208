"""The names ``bench/tracing.py`` reaches into the library for still exist.

The tracer rebinds library functions by name and reads attributes of
``Coring`` from outside the library, so a rename would break
``bench/run.py --trace 1`` without failing a library test.  This test reads
the tracer's source, and neither imports nor changes it.
"""

import ast
from pathlib import Path

from coring_lab import GF, algebra, bimodule, cli, comatrix, coring, definitions, linalg
from coring_lab import structure

from conftest import matrix_coring

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = {m.__name__.rsplit(".", 1)[1]: m
           for m in (algebra, bimodule, cli, comatrix, coring, definitions, linalg, structure)}
CORING_READS = ("square", "_square", "validation")


def _values(tree, node, name, parents):
    """The values the loop variable ``name`` takes at ``node``: from the
    nearest enclosing ``for`` over a literal or a module-level constant."""
    constants = {t.id: stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                 for t in stmt.targets if isinstance(t, ast.Name)}
    while node is not None:
        if isinstance(node, ast.For):
            targets = [node.target] if isinstance(node.target, ast.Name) else node.target.elts
            names = [t.id for t in targets]
            if name in names:
                source = node.iter
                if isinstance(source, ast.Name):
                    source = constants[source.id]
                items = ast.literal_eval(source)
                if len(names) == 1:
                    return list(items)
                return [item[names.index(name)] for item in items]
        node = parents.get(node)
    raise AssertionError(f"cannot resolve the rebind target {name!r}")


def rebind_targets():
    """Every (module, name) pair that ``Tracer.install`` rebinds."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "rebind":
            module, attr = node.args[0].id, node.args[1]
            if isinstance(attr, ast.Constant):
                targets.add((module, attr.value))
            else:
                targets.update((module, v) for v in _values(tree, node, attr.id, parents))
    return targets


def test_every_rebind_target_exists_in_the_library():
    targets = rebind_targets()
    assert len(targets) > 30
    missing = sorted(f"{module}.{name}" for module, name in targets
                     if not hasattr(MODULES[module], name))
    assert not missing


def test_the_coring_attributes_the_tracer_reads_exist():
    nodes = list(ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))))
    read = ({n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {n.value for n in nodes if isinstance(n, ast.Constant)})
    assert set(CORING_READS) <= read
    assert isinstance(coring.Coring.__dict__["square"], property)
    c = matrix_coring(2, GF(2))
    assert "_square" in vars(c)
    assert c.validation == "full"
