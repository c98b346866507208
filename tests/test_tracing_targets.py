"""The names ``bench/tracing.py`` reaches into the library for still exist,
and the traced worker runs.

The tracer rebinds library functions by name and reads attributes of
``Coring`` from outside the library, so a rename would break
``bench/run.py --trace 1`` without failing a library test.  The first tests
read the tracer's source, and neither import nor change it.  A rebinding can
also break only when it is called, so the last test runs
``bench/worker.py --trace 1`` in a subprocess on one case of each workload.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coring_lab import GF, algebra, bimodule, cli, comatrix, coring, definitions, linalg
from coring_lab import structure

from conftest import matrix_coring

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
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


def _tracing():
    sys.path.insert(0, str(TRACING.parent))
    try:
        import tracing
    finally:
        sys.path.remove(str(TRACING.parent))
    return tracing


def test_the_tracer_names_the_flags_of_the_flag_table():
    # the tracer keeps its own copy of the flag list, one span per flag
    assert _tracing().FLAGS == tuple(structure.FLAG_NAMES)


def test_the_tracer_names_the_transports_of_the_rule_table():
    # each transport is named once, inside its rule's lambda, and looked up in
    # ``structure`` when it runs, so the tracer's rebinding reaches it
    named = [name for *_, transport in structure._RULES if transport is not None
             for name in transport.__code__.co_names]
    assert sorted(named) == sorted(_tracing().TRANSPORTS)
    assert len(set(named)) == len(named)


@pytest.mark.parametrize("workload", ["analyze-fp", "construct-fp"])
def test_traced_worker_runs_a_case_and_reports_every_metric(tmp_path, workload):
    requests = [{"op": "case", "id": "bundled/gf2/matrix2/M", "cap": 60, "check": False},
                {"op": "spans", "path": str(tmp_path / "spans.jsonl.gz")}]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--root", str(ROOT),
         "--workload", workload, "--seed", "0", "--trace", "1"],
        input="".join(json.dumps(r) + "\n" for r in requests), capture_output=True,
        text=True, env=env, timeout=300, check=True)
    ready, case, spans = (json.loads(line) for line in proc.stdout.splitlines())
    assert ready["ready"]
    assert case["status"] == "ok", case
    assert set(_tracing().metric_names()) <= set(spans["metrics"])
    # the rebound Williard check and left dual ring ran, and were timed, in the case
    touched = {"analyze-fp": "structure.decider.williard.s", "construct-fp": "coring.dual_ring.s"}
    assert spans["metrics"][touched[workload]] > 0
    assert (tmp_path / "spans.jsonl.gz").is_file()
