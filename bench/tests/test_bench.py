"""Self-tests of the benchmark.

    python3 -m pytest bench/tests -q
"""

import gzip
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DATA = ROOT / "src" / "coring_lab" / "data"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_texts(workload):
    assert corpus.build_texts(workload, 3, DATA) == corpus.build_texts(workload, 3, DATA)


def test_other_seed_flips_signs_not_the_case_set():
    a = corpus.build_texts("analyze-fp", 0, DATA)
    b = corpus.build_texts("analyze-fp", 1, DATA)
    assert sorted(a) == sorted(b)
    changed = [cid for cid in a if a[cid] != b[cid]]
    assert changed and all(cid.startswith("recipe/") for cid in changed)
    for cid in changed:
        # same zero pattern, so every elimination takes the same pivots
        for action in ("left_action", "right_action"):
            zero_a, zero_b = (np.array(json.loads(t[0])["bimodules"]["M"][action]) == 0
                              for t in (a[cid], b[cid]))
            assert np.array_equal(zero_a, zero_b), cid


def test_default_seed_gives_the_acceptance_modules():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from random_modules import random_projective_bimodule
    finally:
        sys.path.remove(str(ROOT / "tests"))

    for index in range(corpus.RECIPE_COUNT["analyze-fp"]):
        want = random_projective_bimodule(index)
        got = corpus.recipe_module(index, 0)
        assert np.array_equal(want.left_action, got.left_action), index
        assert np.array_equal(want.right_action, got.right_action), index
    assert corpus.case_ids("analyze-fp", 0)[-1] == \
        f"recipe/{corpus.RECIPE_COUNT['analyze-fp'] - 1}"


def test_texts_load_as_the_generated_module():
    from coring_lab import QQ
    from coring_lab.definitions import loads

    module = corpus.recipe_module(5, 2, rational=True)
    loaded = loads(corpus.bimodule_text(module)).bimodules["M"]
    assert loaded.field == QQ
    assert np.array_equal(loaded.left_action, module.left_action)
    assert np.array_equal(loaded.right_action, module.right_action)


# -- classification --------------------------------------------------------------


def _one_case(workload, cid, cap):
    session = run.Session(workload, 0, trace=False, cap=cap)
    try:
        return session.case(cid)
    finally:
        session.close()


def test_classifier_on_one_case_of_each_kind():
    assert _one_case("analyze-fp", "ladder/gf2/k^3", 60)["status"] == "size_error"
    assert _one_case("analyze-fp", "recipe/0", 60)["status"] == "too_large"
    assert _one_case("analyze-fp", "ladder/gf2/k^2", 0.01)["status"] == "timeout"
    ok = _one_case("analyze-fp", "bundled/gf2/dual-numbers/M", 60)
    assert ok["status"] == "ok" and ok["witnesses_ok"] is True


def test_classifier_on_exceptions():
    import worker
    from coring_lab.errors import CoringAxiomError, DefinitionError, TooLargeToValidateError

    assert worker.classify(TooLargeToValidateError("x")) == "too_large"
    assert worker.classify(CoringAxiomError(
        "carrier dimension 81 too large for a dense tensor-square presentation")) == "size_error"
    assert worker.classify(CoringAxiomError("counit not left-linear")) == "error"
    assert worker.classify(MemoryError()) == "memory"
    assert worker.classify(DefinitionError("x")) == "error"


# -- checks against the answer tables ---------------------------------------------


def test_flag_mismatch_is_wrong_and_inconclusive_is_not():
    expected = {"flags": {"williard": "true", "m_frobenius": "inconclusive"}}
    assert run.check({"flags": {"williard": "true", "m_frobenius": "false"}}, expected) == "ok"
    assert run.check({"flags": {"williard": "inconclusive", "m_frobenius": "true"}},
                     expected) == "ok"
    assert run.check({"flags": {"williard": "false", "m_frobenius": "true"}},
                     expected) == "wrong"
    assert run.check({"flags": {}, "witnesses_ok": False}, None) == "wrong"
    assert run.check({"dims": {"comatrix": 4}}, {"dims": {"comatrix": 9}}) == "wrong"


def test_answer_table_agrees_with_known_answers():
    cases = run.load_answers("analyze-fp")
    ladder = [cid for cid in cases if cid.startswith("ladder/")]
    assert ladder, "the table holds no k^n case"
    for cid in ladder:
        assert set(cases[cid]["flags"].values()) == {"true"}, cid
    # acceptance criterion 8: coseparable comatrix coring, M not separable
    dual = cases["bundled/gf2/dual-numbers/M"]["flags"]
    assert dual["m_separable"] == "false"
    assert dual["comatrix_coseparable"] == "true"
    assert dual["b_s_faithfully_flat"] == "false"


# -- statistics -----------------------------------------------------------------------


def test_percentile_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.above(values, run.percentile(values, 90)) == 10
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    for n in range(100, 140):
        assert run.above(range(n), run.percentile(range(n), 90)) >= 10


def test_pass_percentile_ignores_a_slow_pass():
    def one_pass(scale):
        return [{"status": "ok", "charged_s": scale * t} for t in range(1, 21)] + [
            {"status": "timeout", "charged_s": 9.0}]

    passes = [one_pass(1.0), one_pass(1.0), one_pass(3.0)]
    assert run.pass_percentile(passes, 90, 9.0) == 18
    assert run.pass_percentile(passes, 50, 9.0) == 10
    assert run.pass_percentile([[{"status": "error", "charged_s": 9.0}]], 90, 9.0) == 9.0
    assert run.above_p90(passes, 9.0) == 2 + 2 + 14  # 3 * t > 18 for t = 7..20


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [("root", 0.0, 10.0, None, "x"), ("a", 1.0, 4.0, 0, "x"),
             ("c", 2.0, 3.0, 1, "x"), ("b", 5.0, 9.0, 0, "x")]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_traced_worker_reports_every_per_layer_metric(tmp_path):
    session = run.Session("construct-fp", 0, trace=True)
    try:
        reply = session.case("bundled/gf2/matrix2/M")
        assert reply["status"] == "ok"
        path = tmp_path / "spans.jsonl.gz"
        metrics = session.worker.request({"op": "spans", "path": str(path)}, 60)["metrics"]
    finally:
        session.close()
    assert set(metrics) == set(tracing.metric_names())
    assert metrics["comatrix.context_iso.calls"] == 1
    assert metrics["coring.sweedler.calls"] >= 1
    assert metrics["fields.fp.matmul.madds"] > 0
    with gzip.open(path, "rt") as fh:
        names = {json.loads(line)[0] for line in fh}
    assert {"case", "check", "definitions.loads", "cli.construct_doc"} <= names
