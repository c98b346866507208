import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coring_lab import GF, QQ, bimodule, cli, coring, structure
from coring_lab.cli import main, report_document, verify_report_witnesses
from coring_lab.comatrix import (
    comatrix_data,
    context_from_bimodule,
    context_from_morita,
    context_iso,
    left_dual_anti_iso,
)
from coring_lab.coring import sweedler_coring
from coring_lab.definitions import DefinitionFile, _parse_tensor, bundled_path, load, loads
from coring_lab.errors import (DefinitionError, InternalInconsistencyError, NotProjectiveError,
                               TooLargeToValidateError)
from coring_lab.linalg import rank
from coring_lab.bimodule import endomorphism_algebra, right_dual
from coring_lab.structure import (_RULES, WITNESS_PARTS, bimodule_tower, dual_evaluation,
                                  iota_from_frobenius)

from conftest import (MALFORMED_DEFINITIONS, bundled_text_over, non_generator_summand,
                      trivial_bimodule)
from coproduct_oracle import context_delta_amb
from random_modules import random_projective_bimodule


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_bundled_file(capsys):
    code, out, err = run_cli(capsys, "validate", str(bundled_path("matrix2")))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["bimodules"] == {"M": 2}


def test_validate_missing_file_exits_one(capsys):
    code, out, err = run_cli(capsys, "validate", "/tmp/never-there.json")
    assert code == 1
    assert "error" in err


def test_analyze_unknown_bimodule_exits_one(capsys):
    code, out, err = run_cli(capsys, "analyze", str(bundled_path("matrix2")),
                             "--bimodule", "Q")
    assert code == 1


def test_analyze_text_report(capsys):
    code, out, err = run_cli(capsys, "analyze", str(bundled_path("regular-module")),
                             "--bimodule", "M", "--format", "text")
    assert code == 0
    assert "m_separable" in out
    assert "implication audit" in out
    assert "elapsed" in err  # timing goes to stderr, never into the report


def test_analyze_json_reports_are_byte_identical(capsys):
    args = ("analyze", str(bundled_path("dual-numbers")), "--bimodule", "M",
            "--seed", "7", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["flags"]["m_separable"] == "false"
    assert doc["flags"]["comatrix_coseparable"] == "true"
    assert doc["flags"]["b_s_faithfully_flat"] == "false"


def test_seed_changes_no_exact_flags(capsys):
    args = lambda s: ("analyze", str(bundled_path("matrix2")), "--bimodule", "M",
                      "--seed", s, "--format", "json")
    _, out1, _ = run_cli(capsys, *args("1"))
    _, out2, _ = run_cli(capsys, *args("2"))
    flags1 = json.loads(out1)["flags"]
    flags2 = json.loads(out2)["flags"]
    assert flags1 == flags2


def test_seed_env_variable_is_default(capsys, monkeypatch):
    monkeypatch.setenv("CORING_LAB_SEED", "5")
    code, out, err = run_cli(capsys, "analyze", str(bundled_path("matrix2")),
                             "--bimodule", "M", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 5


def assert_one_error_line(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors_exit_one_with_one_error_line(capsys):
    path = str(bundled_path("matrix2"))
    for argv in (["analyze", path], ["analyze", path, "--bimodule", "M", "--seed", "x"],
                 ["construct", path, "--what", "nothing", "--name", "M"], ["unknown"], []):
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
    code, out, err = run_cli(capsys, "analyze", path)
    assert err == "error: the following arguments are required: --bimodule\n"


def test_a_bad_seed_variable_is_an_input_error_of_analyze(capsys, monkeypatch):
    monkeypatch.setenv("CORING_LAB_SEED", "x")
    path = str(bundled_path("matrix2"))
    code, out, err = run_cli(capsys, "analyze", path, "--bimodule", "M")
    assert_one_error_line(code, out, err)
    assert "invalid int value: 'x'" in err
    # an explicit seed overrides the variable, and the other commands take none
    code, out, _ = run_cli(capsys, "analyze", path, "--bimodule", "M", "--seed", "3",
                           "--format", "json")
    assert code == 0 and json.loads(out)["seed"] == 3
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 0 and json.loads(out)["status"] == "ok"
    code, _, _ = run_cli(capsys, "construct", path, "--what", "comatrix", "--name", "M")
    assert code == 0


@pytest.mark.parametrize("field", [2, 0], ids=["GF(2)", "QQ"])
def test_a_negative_seed_is_a_usage_error(capsys, monkeypatch, tmp_path, field):
    # the random searches take non-negative seeds only; over QQ a negative
    # one reached them and ended in a traceback, over GF(2) it was accepted
    path = tmp_path / "matrix2.json"
    path.write_text(bundled_text_over("matrix2", field), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path), "--bimodule", "M", "--seed", "-1")
    assert_one_error_line(code, out, err)
    assert "seed must be non-negative" in err
    monkeypatch.setenv("CORING_LAB_SEED", "-1")
    code, out, err = run_cli(capsys, "analyze", str(path), "--bimodule", "M")
    assert_one_error_line(code, out, err)
    assert "seed must be non-negative" in err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: coring-lab" in capsys.readouterr().out


def test_construct_comatrix(capsys):
    code, out, _ = run_cli(capsys, "construct", str(bundled_path("matrix2")),
                           "--what", "comatrix", "--name", "M")
    assert code == 0
    doc = json.loads(out)
    assert doc["carrier_dim"] == 4
    assert doc["validation"] == "full"


def test_construct_sweedler(capsys):
    code, out, _ = run_cli(capsys, "construct", str(bundled_path("product-field")),
                           "--what", "sweedler", "--name", "diagonal")
    assert code == 0
    assert json.loads(out)["carrier_dim"] == 4


def test_construct_context_coring_from_morita(capsys):
    code, out, _ = run_cli(capsys, "construct", str(bundled_path("morita-rows-cols")),
                           "--what", "context-coring", "--name", "rows-cols")
    assert code == 0
    assert json.loads(out)["carrier_dim"] == 4


def test_construct_dual_ring(capsys):
    code, out, _ = run_cli(capsys, "construct", str(bundled_path("matrix2")),
                           "--what", "dual-ring", "--name", "M")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4
    assert doc["unit"] == ["1 mod 2", "0 mod 2", "0 mod 2", "1 mod 2"]


def construct_documents(m):
    """What `coring-lab construct` builds for a bimodule M, in the order of
    the construction workload of the benchmark: the comatrix coring, the
    left dual ring, the Sweedler coring of B -> End_A(M), then the context
    isomorphism and the dual-ring anti-isomorphism."""
    fld = m.field
    deffile = DefinitionFile(fld, bimodules={"M": m})
    ciso = context_iso(context_from_bimodule(m))
    anti = left_dual_anti_iso(m)
    return [cli.cmd_construct(deffile, "comatrix", "M"),
            cli.cmd_construct(deffile, "dual-ring", "M"),
            cli._coring_document(sweedler_coring(endomorphism_algebra(m).b_to_s), "sweedler",
                                 "M", fld),
            {"forward": cli._serialize_array(fld, ciso.forward.matrix),
             "backward": cli._serialize_array(fld, ciso.backward.matrix)},
            {"forward": cli._serialize_array(fld, anti.forward),
             "backward": cli._serialize_array(fld, anti.backward)}]


# recipe modules whose Sweedler coring (d = 40) exceeds the square's limit;
# recorded when the corings were first written as their contexts, with
# every entry but the pairs equal to the documents checked by the dense
# product checks with the limit lifted to 100
CONSTRUCT_PINS = {
    0: "674a050d6f74b6ccfeae5ccca166127b06ded1092115348d4f765673bf153efb",
    9: "b411f03f9d9cc0ab3a9ad6b62b9678d980be3f69f7693283ad1663ac8cceca34",
}


@pytest.mark.parametrize("recipe", sorted(CONSTRUCT_PINS))
def test_construct_documents_of_recipes_beyond_the_square_limit_match_their_pins(recipe):
    docs = construct_documents(random_projective_bimodule(recipe))
    comatrix, ring, sweedler, ciso, anti = docs
    assert (comatrix["carrier_dim"], ring["dim"], sweedler["carrier_dim"]) == (10, 10, 40)
    assert (len(ciso["forward"]), len(ciso["forward"][0])) == (10, 10)
    assert (len(anti["forward"]), len(anti["forward"][0])) == (10, 10)
    assert comatrix["validation"] == sweedler["validation"] == "full"
    out = "".join(json.dumps(d, indent=1, sort_keys=True) + "\n" for d in docs)
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_PINS[recipe]


# sha256 of json.dumps of the d^2 x d "coproduct_representative" that
# `construct` wrote for each coring before it wrote the context in its
# place, recorded from those documents
REPRESENTATIVE_PINS = {
    "bundled/dual-numbers/M/comatrix": "cca43503200afaa9a43b5e02baed40b69e955f4f14bf9e8016f2999a5ec58428",
    "bundled/dual-numbers/M/sweedler": "cca43503200afaa9a43b5e02baed40b69e955f4f14bf9e8016f2999a5ec58428",
    "bundled/matrix2/M/comatrix": "f7453e76b61b147882368b20e4d99a8d14b919e00415544f403bfa0199274a42",
    "bundled/matrix2/M/sweedler": "619605e4a0f1c87767cec427dcdf9198f116025c32a996e20b2d8633a1ad84f1",
    "bundled/morita-rows-cols/cols/comatrix": "cca43503200afaa9a43b5e02baed40b69e955f4f14bf9e8016f2999a5ec58428",
    "bundled/morita-rows-cols/cols/sweedler": "293f845a362d3362abd1bc69d6cbf83e6cda7e2232bf07a563d17e3c49a73ecc",
    "bundled/morita-rows-cols/rows/comatrix": "0d6e5490cb322ca89346475e3b0f92f825d4323ed5389e53591ac6510799d2ce",
    "bundled/morita-rows-cols/rows/sweedler": "cca43503200afaa9a43b5e02baed40b69e955f4f14bf9e8016f2999a5ec58428",
    "bundled/morita-rows-cols/rows-cols/context-coring": "293f845a362d3362abd1bc69d6cbf83e6cda7e2232bf07a563d17e3c49a73ecc",
    "bundled/product-field/M/comatrix": "f7453e76b61b147882368b20e4d99a8d14b919e00415544f403bfa0199274a42",
    "bundled/product-field/M/sweedler": "d8ab1159d2ceb1b51fee1b324356c4dc43f62af900aea33843024dd71396c2f3",
    "bundled/regular-module/M/comatrix": "5c78ab22b0a8ac625dd1589f43d7249479f65c4d2772aa36fba89dc6959cbd4c",
    "bundled/regular-module/M/sweedler": "f9bef4b1cea3e3a0b95fddf732f84d1d3e2bfb6233eb2a060f331428156ab3e3",
    "recipe/0/comatrix": "18575190fdd4f916d2bced63d546ffe38991799796f3a57185c857eed2854819",
    "recipe/0/sweedler": "e6c5a4f2d69644dc96857bc8ef8465d05a6f2251e06e6c72dc8cad62b21665a2",
    "recipe/7/comatrix": "fb8bf25b17e9126a94d36b093d4b7c3019de97c508909b07fce6a20c912c67a8",
    "recipe/7/sweedler": "c43f8e50fda4333e0a7202d93dfb013e5c9f1b79641c3b8838266ed1820d076c",
    "recipe/9/comatrix": "14aea34c684d5c837cb450857949c0efee4b1694a4e6a3e511d1e6a47c49ea57",
    "recipe/9/sweedler": "9fdabfc0134badaefd0e41a9af78248e24d3644ab25e17e9c112d2c730d50b0f",
    "k^3/GF(2)/comatrix": "cbd66aef60459810f38c83620ba5024d678e78d4d473b4777a84ea7d9be19522",
    "k^3/GF(2)/sweedler": "3facd3444626706a22bc237d3ad3244680387ead7dee606a3e9fc62ef653460f",
    "k^3/GF(3)/comatrix": "54639f07a1f72a214f581d46597aeb4cf41c212f71cb211c23423f03cdcd1797",
    "k^3/GF(3)/sweedler": "70d05c8dda983ac6e4683b1877d310149c421c38db7ea0a18766a4b7d41ba8a3",
}


def pinned_coring(key):
    """The coring of a key of ``REPRESENTATIVE_PINS`` and its document, built
    the way `coring-lab construct` builds it."""
    family, source, *name, what = key.split("/")
    if family == "bundled":
        deffile, name = load(bundled_path(source)), name[0]
    else:
        module = (random_projective_bimodule(int(source)) if family == "recipe"
                  else trivial_bimodule(GF(int(source[3:-1])), 3))
        deffile, name = DefinitionFile(module.field, bimodules={"M": module}), "M"
    if what == "comatrix":
        c = comatrix_data(deffile.bimodules[name]).coring
    elif what == "sweedler":
        c = sweedler_coring(endomorphism_algebra(deffile.bimodules[name]).b_to_s)
    else:
        c = context_from_morita(deffile.morita[name])
    doc = (cli._coring_document(c, what, name, deffile.field) if what == "sweedler"
           else cli.cmd_construct(deffile, what, name))
    return c, doc


@pytest.mark.parametrize("key", sorted(REPRESENTATIVE_PINS))
def test_the_pairs_of_a_construct_document_rebuild_its_old_representative(key):
    """The document writes the pairs of tau(1) where it wrote the d^2 x d
    representative coproduct; rebuilt from the written pairs through the
    oracle, the representative is the one written before, byte for byte."""
    c, doc = pinned_coring(key)
    assert "coproduct_representative" not in doc
    ts, fld = c.carrier_tensor, c.field
    assert doc["carrier_dim"] == c.dim and len(doc["tau_pairs"]) == len(c.tau_pairs)
    pairs = [(_parse_tensor(fld, pair["m"], (ts.right_factor.dim,), "m"),
              _parse_tensor(fld, pair["n"], (ts.left_factor.dim,), "n"))
             for pair in doc["tau_pairs"]]
    assert _parse_tensor(fld, doc["counit"], c.counit_mat.shape, "counit").tolist() \
        == c.counit_mat.tolist()
    rep = cli._serialize_array(fld, context_delta_amb(ts, pairs))
    assert hashlib.sha256(json.dumps(rep).encode()).hexdigest() == REPRESENTATIVE_PINS[key]


# the d = 256 Sweedler corings of the benchmark: M = k^4 over k, and the
# recipe modules 2 and 8, each with S = End_A(M) = M_4(k)
LARGE_SWEEDLER_MODULES = {
    "k^4/GF(2)": lambda: trivial_bimodule(GF(2), 4),
    "k^4/GF(3)": lambda: trivial_bimodule(GF(3), 4),
    "recipe/2": lambda: random_projective_bimodule(2),
    "recipe/8": lambda: random_projective_bimodule(8),
}


@pytest.mark.parametrize("case", sorted(LARGE_SWEEDLER_MODULES))
def test_the_constructions_of_a_d256_sweedler_coring_are_written_small(case):
    """M = k^4 as a right module and S = M_4(k): the comatrix coring and the
    dual ring have dimension 16, the Sweedler coring S (x)_B S dimension 256,
    and the documents stay far below the size of a d^2-row array."""
    docs = construct_documents(LARGE_SWEEDLER_MODULES[case]())
    comatrix, ring, sweedler, ciso, anti = docs
    assert (comatrix["carrier_dim"], ring["dim"], sweedler["carrier_dim"]) == (16, 16, 256)
    assert (len(ciso["forward"]), len(ciso["forward"][0])) == (16, 16)
    assert (len(anti["forward"]), len(anti["forward"][0])) == (16, 16)
    assert len(sweedler["tau_pairs"]) == 1
    out = "".join(json.dumps(d, indent=1, sort_keys=True) + "\n" for d in docs)
    assert len(out.encode()) < 256 * 1024


def count_context_checks(monkeypatch):
    """Record every call of the context-diagram check."""
    calls = []
    check = coring.check_context_diagrams

    def counting(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(coring, "check_context_diagrams", counting)
    return calls


def canonical_context_file():
    """matrix2 with the canonical context of M = k^2 as a contexts entry."""
    doc = json.loads(bundled_path("matrix2").read_text())
    doc["bimodules"]["Mstar"] = {"left": "k", "right": "k",
                                 "left_action": [[[1, 0], [0, 1]]],
                                 "right_action": [[[1, 0]], [[0, 1]]]}
    doc["contexts"] = {"canonical": {"n": "Mstar", "m": "M", "sigma": [[1, 0, 0, 1]],
                                     "tau": [[1], [0], [0], [1]]}}
    return json.dumps(doc)


def test_each_context_is_checked_once(monkeypatch):
    calls = count_context_checks(monkeypatch)
    deffile = loads(canonical_context_file())
    assert cli.cmd_construct(deffile, "context-coring", "canonical")["carrier_dim"] == 4
    assert len(calls) == 1  # at load time; construct reads the loaded coring

    deffile = load(bundled_path("morita-rows-cols"))
    assert len(calls) == 1
    cli.cmd_construct(deffile, "context-coring", "rows-cols")
    assert len(calls) == 2

    m = load(bundled_path("matrix2")).bimodules["M"]
    coring_of_m = comatrix_data(m).coring
    assert len(calls) == 3
    assert context_from_bimodule(m) is coring_of_m
    context_iso(context_from_bimodule(m))
    assert len(calls) == 3


@pytest.mark.parametrize("case", ["bundled/gf2/matrix2/M", "recipe/1"])
def test_m_tensor_its_dual_is_never_presented(case, monkeypatch):
    m = (load(bundled_path("matrix2")).bimodules["M"] if case.startswith("bundled")
         else random_projective_bimodule(1))
    presented = []
    tensor_over = bimodule.tensor_over

    def recording(x, y):
        presented.append((x, y))
        return tensor_over(x, y)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "coring_lab" and getattr(mod, "tensor_over", None) is tensor_over:
            monkeypatch.setattr(mod, "tensor_over", recording)
    report_document(DefinitionFile(m.field, bimodules={"M": m}), "M", 0)
    construct_documents(m)
    dual = right_dual(m)
    assert any(x is dual and y is m for x, y in presented)  # M^* (x)_B M is presented
    assert not any(x is m and y is dual for x, y in presented)


def per_element_texts(field, arr):
    arr = np.asarray(arr)
    if arr.ndim == 1:
        return [field.format_scalar(v) for v in arr]
    return [[field.format_scalar(v) for v in row] for row in arr]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2**31 - 1), QQ], ids=str)
@pytest.mark.parametrize("shape", [(0,), (7,), (0, 3), (3, 0), (1, 1), (4, 6)])
def test_serialized_arrays_match_the_per_element_texts(field, shape):
    rng = np.random.default_rng(sum(shape))
    arr = field.random(rng, shape)
    if field is QQ and arr.size:
        arr[np.unravel_index(0, shape)] = Fraction(-3, 7)
    texts = cli._serialize_array(field, arr)
    assert texts == per_element_texts(field, arr)
    assert json.dumps(texts) == json.dumps(per_element_texts(field, arr))
    if field is QQ:  # Fractions of the same values, apart or mixed with the ints
        fractions = np.array([Fraction(v) for v in arr.reshape(-1)], dtype=object).reshape(shape)
        mixed = np.where(rng.random(shape) < 0.5, arr, fractions)
        for other in (fractions, mixed):
            assert cli._serialize_array(field, other) == texts


def test_construct_unknown_name_exits_one(capsys):
    code, out, err = run_cli(capsys, "construct", str(bundled_path("matrix2")),
                             "--what", "comatrix", "--name", "nope")
    assert code == 1


@pytest.mark.parametrize("name", ["matrix2", "dual-numbers", "product-field",
                                  "morita-rows-cols", "regular-module"])
def test_witnesses_reverify_on_reload(name):
    deffile = load(bundled_path(name))
    for bim_name in deffile.bimodules:
        from coring_lab.bimodule import dual_basis

        if dual_basis(deffile.bimodules[bim_name]) is None:
            continue
        doc = report_document(deffile, bim_name, seed=0)
        round_tripped = json.loads(json.dumps(doc, sort_keys=True))
        assert verify_report_witnesses(deffile, round_tripped)


@pytest.mark.parametrize("defect", [
    lambda f_mat: [f_mat[0], f_mat[1][:-1]],  # ragged rows
    lambda f_mat: [f_mat[0]],  # a row short of the (dim P, dim P) shape
    lambda f_mat: [f_mat[0], ["x"] + f_mat[1][1:]],  # a scalar that does not parse
    lambda f_mat: [f_mat[0], [True] + f_mat[1][1:]],  # a JSON true, not an integer
], ids=["ragged", "wrong-shape", "bad-scalar", "boolean-scalar"])
def test_malformed_witness_is_a_definition_error(defect):
    deffile = load(bundled_path("regular-module"))
    doc = json.loads(json.dumps(report_document(deffile, "M", seed=0)))
    wit = doc["witnesses"]["comatrix_coseparable"]
    wit["f"] = defect(wit["f"])
    with pytest.raises(DefinitionError, match="comatrix_coseparable.f"):
        verify_report_witnesses(deffile, doc)


@pytest.mark.parametrize("doc", MALFORMED_DEFINITIONS.values(), ids=MALFORMED_DEFINITIONS.keys())
def test_malformed_definition_file_exits_one(capsys, tmp_path, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", [{}, 5], ids=["empty-object", "not-an-object"])
def test_malformed_witness_entry_is_a_definition_error(entry):
    deffile = load(bundled_path("regular-module"))
    doc = json.loads(json.dumps(report_document(deffile, "M", seed=0)))
    doc["witnesses"]["comatrix_coseparable"] = entry
    with pytest.raises(DefinitionError, match="comatrix_coseparable"):
        verify_report_witnesses(deffile, doc)


@pytest.mark.parametrize("key", ["comatrix_coseparable.f", "sweedler_coseparable.f",
                                 "comatrix_frobenius.f", "comatrix_frobenius.invariant",
                                 "sweedler_frobenius.f", "sweedler_frobenius.invariant"])
def test_tampered_transported_witness_fails_reverification(key):
    # each cointegral and Frobenius system is written as its map f of P and
    # checked on f; the transported ones are re-derived from these
    deffile = load(bundled_path("product-field"))
    doc = json.loads(json.dumps(report_document(deffile, "M", seed=0)))
    assert verify_report_witnesses(deffile, doc)
    fld = deffile.field
    key, _, part = key.partition(".")
    entries = doc["witnesses"][key][part]
    _bump(fld, entries if isinstance(entries[0], list) else [entries], 0, 0)
    assert not verify_report_witnesses(deffile, doc)


def _bump(fld, entries, i, j):
    entries[i][j] = fld.format_scalar(fld.asarray([fld.parse_scalar(entries[i][j]) + 1])[0])


@pytest.mark.parametrize("key", ["comatrix_cosplit", "sweedler_cosplit"])
def test_tampered_cosplit_section_fails_reverification(key):
    deffile = load(bundled_path("product-field"))
    doc = json.loads(json.dumps(report_document(deffile, "M", seed=0)))
    assert verify_report_witnesses(deffile, doc)
    fld = deffile.field
    tower = bimodule_tower(deffile.bimodules["M"])
    c = tower.comatrix.coring if key == "comatrix_cosplit" else tower.sweedler
    section = doc["witnesses"][key]["section"]
    # move section(a_0) by an element of the kernel of eps: eps o section is
    # still the identity, so eps(section(1)) = 1, but section is not A-linear
    row = next(r for r in range(c.dim) if not c.counit_mat[:, r].any())
    _bump(fld, section, row, 0)
    tampered = _parse_tensor(fld, section, (c.dim, c.base.dim), key)
    assert np.array_equal(fld.matmul(c.counit_mat, tampered), fld.eye(c.base.dim))
    assert not verify_report_witnesses(deffile, doc)
    _bump(fld, section, row, 0)
    assert verify_report_witnesses(deffile, doc)
    _bump(fld, section, 0, 0)  # now eps o section is not the identity
    assert not verify_report_witnesses(deffile, doc)


def product_field_with_its_dual():
    """The bundled product-field file plus D = M^*, an (A, k)-bimodule:
    the evaluations of M^* (x) *M^* and of D (x) *D have kernels that
    contain coordinate vectors, and A is not the field."""
    doc = json.loads(bundled_path("product-field").read_text(encoding="utf-8"))
    dual = right_dual(load(bundled_path("product-field")).bimodules["M"])
    doc["bimodules"]["D"] = {"left": "A", "right": "k",
                             "left_action": dual.left_action.tolist(),
                             "right_action": dual.right_action.tolist()}
    return loads(json.dumps(doc))


@pytest.mark.parametrize("subject,key", [("D", "m_separable"), ("M", "mstar_separable")])
def test_tampered_separability_splitting_fails_reverification(subject, key):
    deffile = product_field_with_its_dual()
    doc = json.loads(json.dumps(report_document(deffile, subject, seed=0)))
    assert verify_report_witnesses(deffile, doc)
    fld, module = deffile.field, deffile.bimodules[subject]
    ts, evaluation = dual_evaluation(module if key == "m_separable" else right_dual(module))
    eye = fld.eye(evaluation.shape[0])
    splitting = doc["witnesses"][key]["splitting"]

    def evaluated():
        return fld.matmul(evaluation, _parse_tensor(fld, splitting, (ts.dim, len(eye)), key))

    # move nu(b_0) by an element of the kernel of the evaluation: the
    # evaluation of nu is still the identity, but nu is not B-linear
    row = next(r for r in range(ts.dim) if not evaluation[:, r].any())
    _bump(fld, splitting, row, 0)
    assert np.array_equal(evaluated(), eye)
    assert not verify_report_witnesses(deffile, doc)
    _bump(fld, splitting, row, 0)
    assert verify_report_witnesses(deffile, doc)
    row = next(r for r in range(ts.dim) if evaluation[:, r].any())
    _bump(fld, splitting, row, 0)  # now the evaluation of nu is not the identity
    assert not np.array_equal(evaluated(), eye)
    assert not verify_report_witnesses(deffile, doc)


def _frobenius_report():
    deffile = load(bundled_path("product-field"))
    doc = json.loads(json.dumps(report_document(deffile, "M", seed=0)))
    assert verify_report_witnesses(deffile, doc)
    return deffile, doc


@pytest.mark.parametrize("key,part", [("m_frobenius", "theta"), ("extension_frobenius", "iso")])
def test_tampered_frobenius_isomorphism_fails_reverification(key, part):
    deffile, doc = _frobenius_report()
    fld = deffile.field
    entries = doc["witnesses"][key][part]
    # an invertible map that is not a bimodule map, then the zero map, a
    # bimodule map that is not invertible
    _bump(fld, entries, 0, 1)
    assert rank(fld, _parse_tensor(fld, entries, (2, 2), key)) == 2
    assert not verify_report_witnesses(deffile, doc)
    _bump(fld, entries, 0, 1)
    assert verify_report_witnesses(deffile, doc)
    _bump(fld, entries, 0, 0)
    _bump(fld, entries, 1, 1)
    assert not verify_report_witnesses(deffile, doc)


def test_tampered_williard_isomorphism_fails_reverification():
    m = non_generator_summand(GF(2))
    deffile = DefinitionFile(m.field, bimodules={"P1": m})
    doc = json.loads(json.dumps(report_document(deffile, "P1", seed=0)))
    assert doc["witnesses"]["williard"] == {"iso": [["1 mod 2"]]}
    assert verify_report_witnesses(deffile, doc)
    _bump(deffile.field, doc["witnesses"]["williard"]["iso"], 0, 0)  # the zero map
    assert not verify_report_witnesses(deffile, doc)


def test_theta_is_checked_once_for_its_flag_and_its_transport(monkeypatch):
    deffile, doc = _frobenius_report()
    assert "m_frobenius" in doc["witnesses"]
    module = deffile.bimodules["M"]
    checked = []
    original = bimodule.BimoduleMap.is_invertible

    def counting(self):
        if self.source is right_dual(module):
            checked.append(self.target)
        return original(self)

    monkeypatch.setattr(bimodule.BimoduleMap, "is_invertible", counting)
    assert verify_report_witnesses(deffile, doc)
    assert checked == [bimodule.left_dual(module)]


def test_a_witness_with_no_check_is_a_definition_error():
    deffile, doc = _frobenius_report()
    doc["witnesses"]["b_s_faithfully_flat"] = {"proof": [["1 mod 2"]]}
    with pytest.raises(DefinitionError, match="b_s_faithfully_flat has no check"):
        verify_report_witnesses(deffile, doc)


# -- the format, the flags and the re-derived transports ----------------------


@pytest.mark.parametrize("value", [None, 1, 2, "3", 4],
                         ids=["format-1", "one", "two", "text", "four"])
def test_a_report_of_another_format_is_a_definition_error(value):
    # a report of format 1 had no format entry and wrote gamma in place of f
    deffile, doc = _frobenius_report()
    if value is None:
        del doc["format"]
        for key in ("comatrix_coseparable", "sweedler_coseparable"):
            doc["witnesses"][key] = {"cointegral": doc["witnesses"][key].pop("f")}
    else:
        doc["format"] = value
    with pytest.raises(DefinitionError, match="report format"):
        verify_report_witnesses(deffile, doc)


@pytest.mark.parametrize("key,entries", [
    ("comatrix_coseparable", lambda f_mat: {"cointegral": f_mat}),
    ("comatrix_frobenius", lambda f_mat: {"gamma": f_mat, "invariant": ["1 mod 2"] * 4}),
    ("sweedler_frobenius", lambda f_mat: {"f": f_mat, "gamma": f_mat,
                                          "invariant": ["1 mod 2"] * 4}),
], ids=["cointegral", "gamma", "gamma-beside-f"])
def test_a_gamma_entry_is_a_definition_error(key, entries):
    deffile, doc = _frobenius_report()
    doc["witnesses"][key] = entries(doc["witnesses"][key]["f"])
    with pytest.raises(DefinitionError, match=f"witness {key} must have the entries"):
        verify_report_witnesses(deffile, doc)


def test_a_format_2_report_is_a_definition_error():
    # format 2 wrote iota, the matrix of the transport from theta
    deffile, doc = _frobenius_report()
    module = deffile.bimodules["M"]
    theta = _parse_tensor(deffile.field, doc["witnesses"]["m_frobenius"]["theta"], (2, 2), "theta")
    iota = iota_from_frobenius(module, bimodule.BimoduleMap(
        right_dual(module), bimodule.left_dual(module), theta, _validate=False))
    doc["format"] = 2
    doc["witnesses"]["iota"] = {"matrix": cli._serialize_array(deffile.field, iota)}
    with pytest.raises(DefinitionError, match="report format 2 is not 3"):
        verify_report_witnesses(deffile, doc)


@pytest.mark.parametrize("key", ["sweedler_cosplit_lift", "comatrix_cointegral_constructed",
                                 "sweedler_cointegral_lift", "sweedler_frobenius_lift", "iota"])
def test_a_transported_copy_is_a_definition_error(key):
    # format 3 writes no transport; the checker re-derives them
    deffile, doc = _frobenius_report()
    doc["witnesses"][key] = doc["witnesses"]["sweedler_cosplit"]
    with pytest.raises(DefinitionError, match=f"{key} has no check"):
        verify_report_witnesses(deffile, doc)


def _dual_numbers_report():
    deffile = load(bundled_path("dual-numbers"))
    doc = json.loads(json.dumps(report_document(deffile, "M", seed=0)))
    assert verify_report_witnesses(deffile, doc)
    return deffile, doc


def test_a_flipped_flag_fails_reverification():
    # two false flags called true, with no witness for either
    deffile, doc = _dual_numbers_report()
    assert doc["flags"]["m_separable"] == doc["flags"]["m_frobenius"] == "false"
    doc["flags"]["m_separable"] = doc["flags"]["m_frobenius"] = "true"
    assert not verify_report_witnesses(deffile, doc)


@pytest.mark.parametrize("key", ["comatrix_coseparable", "comatrix_frobenius", "sweedler_cosplit",
                                 "mstar_separable"])
def test_a_dropped_witness_fails_reverification(key):
    deffile, doc = _dual_numbers_report()
    del doc["witnesses"][key]
    assert not verify_report_witnesses(deffile, doc)


@pytest.mark.parametrize("value", ["false", "inconclusive"])
@pytest.mark.parametrize("key", ["comatrix_coseparable", "m_frobenius"])
def test_a_witness_under_a_flag_that_is_not_true_fails_reverification(key, value):
    deffile, doc = _frobenius_report()
    doc["flags"][key] = value
    assert not verify_report_witnesses(deffile, doc)


@pytest.mark.parametrize("flags", [
    None, [], {}, lambda flags: {k: v for k, v in flags.items() if k != "williard"},
    lambda flags: {**flags, "williard": True}, lambda flags: {**flags, "extra": "true"},
    lambda flags: {**flags, "m_separable": [1]}, lambda flags: {**flags, "m_separable": {}},
], ids=["missing", "list", "empty", "one-short", "not-a-text", "one-over", "a-list-value",
        "an-object-value"])
def test_malformed_flags_are_a_definition_error(flags):
    deffile, doc = _frobenius_report()
    if flags is None:
        del doc["flags"]
    else:
        doc["flags"] = flags(doc["flags"]) if callable(flags) else flags
    with pytest.raises(DefinitionError, match="'flags' object"):
        verify_report_witnesses(deffile, doc)


def test_a_bare_williard_is_true_only_for_a_generator():
    # bundled matrix2 generates, so the williard decider writes no iso; the
    # non-generator summand P1 needs its iso
    deffile = load(bundled_path("matrix2"))
    doc = json.loads(json.dumps(report_document(deffile, "M", seed=0)))
    assert doc["flags"]["williard"] == "true" and "williard" not in doc["witnesses"]
    assert verify_report_witnesses(deffile, doc)
    m = non_generator_summand(GF(2))
    deffile = DefinitionFile(m.field, bimodules={"P1": m})
    doc = json.loads(json.dumps(report_document(deffile, "P1", seed=0)))
    assert verify_report_witnesses(deffile, doc)
    del doc["witnesses"]["williard"]
    assert not verify_report_witnesses(deffile, doc)


# premise -> the transports the checker re-derives from its witness, as
# ``structure._RULES`` names them inside its lambdas
TRANSPORTS = {}
for _, _, _hyps, _, _transport in _RULES:
    if _transport is not None:
        TRANSPORTS.setdefault(_hyps[0], []).extend(_transport.__code__.co_names)


def count_transports(monkeypatch):
    # patched where the lambdas of the rule table look them up
    calls = {name: [] for name in sum(TRANSPORTS.values(), [])}
    for name in calls:
        def counted(*args, name=name, original=getattr(structure, name)):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(structure, name, counted)
    return calls


def test_the_checker_rederives_each_transport_once(monkeypatch):
    deffile, doc = _frobenius_report()
    calls = count_transports(monkeypatch)
    assert verify_report_witnesses(deffile, doc)
    assert {name: len(args) for name, args in calls.items()} == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("premise", sorted(TRANSPORTS))
def test_a_transport_from_a_tampered_premise_fails_the_report(premise, monkeypatch):
    deffile, doc = _frobenius_report()
    calls = count_transports(monkeypatch)
    part = WITNESS_PARTS[premise][0]
    _bump(deffile.field, doc["witnesses"][premise][part], 0, 0)
    assert not verify_report_witnesses(deffile, doc)
    # a transport runs only from a witness that passes its own check, and
    # from no other rule's transport: the others each run once
    assert {name: len(args) for name, args in calls.items()} == {
        name: 0 if name in TRANSPORTS[premise] else 1 for name in calls}


@pytest.mark.parametrize("error", [InternalInconsistencyError, NotProjectiveError])
@pytest.mark.parametrize("transport", sorted(sum(TRANSPORTS.values(), [])))
def test_a_failing_transport_fails_the_report(transport, error, monkeypatch):
    deffile, doc = _frobenius_report()

    def failing(*args):
        raise error(f"{transport} fails")

    monkeypatch.setattr(structure, transport, failing)
    assert not verify_report_witnesses(deffile, doc)


@pytest.mark.parametrize("conclusion", ["sweedler_cosplit", "comatrix_coseparable",
                                        "sweedler_coseparable", "comatrix_frobenius",
                                        "sweedler_frobenius"])
def test_a_transport_refutes_a_false_conclusion(conclusion):
    # the flag and its witness both dropped: a transport proves it true (for
    # comatrix_frobenius, iota from a theta that passes its check)
    deffile, doc = _frobenius_report()
    del doc["witnesses"][conclusion]
    doc["flags"][conclusion] = "false"
    assert not verify_report_witnesses(deffile, doc)
    doc["flags"][conclusion] = "inconclusive"  # claims nothing
    assert verify_report_witnesses(deffile, doc)


# sha256 of `coring-lab analyze --format json` on the bundled bimodules over
# GF(2), in report format 3.  Reports are byte-identical across changes that
# do not change the mathematics; a change that moves a witness updates these
# pins and says why.  ``test_report_content`` holds the gammas of format 1.
ANALYZE_JSON_SHA256 = {
    ("matrix2", "M"): "eeadc3fc8f2e0f47bea4825650c1d3b2885cb7e300001f1b55821c8d77de2f74",
    ("dual-numbers", "M"): "eafb28ff8496057d723b07495a3d6281ecef1c44431a1d83d819c27a86326315",
    ("product-field", "M"): "dc151ef79cce7ff2191efb553dbee15dd17b0587160c58a80f6492dfe2e915a0",
    ("morita-rows-cols", "cols"):
        "793aae86e0b41fdb48549626b1010e76d01b1f668d267ec216312a99801757b7",
    ("morita-rows-cols", "rows"):
        "80e5cb3b78d2becb48a3fe2de2141b1ed5fbaee80206717b420018f25a5d6917",
    ("regular-module", "M"): "6f144bfd138e898de8bfa62d0436352588b90805de26864a66e6dfaf0f958532",
}


@pytest.mark.parametrize("fname,bimodule", sorted(ANALYZE_JSON_SHA256))
def test_analyze_json_reports_match_their_pins(capsys, fname, bimodule):
    code, out, _ = run_cli(capsys, "analyze", str(bundled_path(fname)), "--bimodule", bimodule,
                           "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_JSON_SHA256[fname, bimodule]


# the same reports with the bundled files re-declared over QQ, where integral
# values are Python ints and the others Fractions: the bytes do not depend on
# that representation
ANALYZE_QQ_JSON_SHA256 = {
    ("matrix2", "M"): "d792f4277580da62bf0e06079026d9dc97c76c66fbbfd9177ca10e8f502fd45c",
    ("dual-numbers", "M"): "ed9500c9206a684e1aaffa08a02fa9c7bf7c001cb2fef645e2fc19c9056e04e8",
    ("product-field", "M"): "efaa14848d8d2164eb099c2092046d3d9582460a9dfe0dbdc0465694b5df2953",
    ("morita-rows-cols", "cols"):
        "14f4c3a67ffa36b19bb614217ac879766c4e0045bcc6a9b22043d3fc9c5c2eb4",
    ("morita-rows-cols", "rows"):
        "78343933acaf01d495125059e52d0cf45ebe4971a2086de24c9532cb9b25a82d",
    ("regular-module", "M"): "5a8048eb6e73628621051fd8965488e9d66f527f73ce63e0cf9d617233cbc222",
}


@pytest.mark.parametrize("fname,bimodule", sorted(ANALYZE_QQ_JSON_SHA256))
def test_analyze_json_reports_over_q_match_their_pins(capsys, tmp_path, fname, bimodule):
    path = tmp_path / f"{fname}.json"
    path.write_text(bundled_text_over(fname, 0), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--bimodule", bimodule,
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["field"] == {"characteristic": 0}
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_QQ_JSON_SHA256[fname, bimodule]


# recipe module 7 was first decided when the intertwiner systems were solved
# by successive restriction: its flags are those of the dense oracle (the
# stacked solver with no time cap) and its report has that solver's bytes
RECIPE_7_FALSE_FLAGS = {"m_separable", "comatrix_coseparable", "extension_split",
                        "sweedler_coseparable"}
RECIPE_7_SHA256 = "664c570c754a006b1ac30d076b505de9977ced802bbf0125794077f34c7e4c44"


def test_first_decision_of_recipe_7_matches_the_dense_oracle():
    m = random_projective_bimodule(7)
    deffile = DefinitionFile(m.field, bimodules={"M": m})
    out = json.dumps(report_document(deffile, "M", seed=0), indent=1, sort_keys=True)
    doc = json.loads(out)
    assert len(doc["flags"]) == 13
    assert doc["flags"] == {flag: "false" if flag in RECIPE_7_FALSE_FLAGS else "true"
                            for flag in doc["flags"]}
    assert verify_report_witnesses(deffile, doc)
    assert hashlib.sha256(out.encode()).hexdigest() == RECIPE_7_SHA256


# recipe modules 0 and 9 stop at the square's limit on their Sweedler
# coring (d = 40); with the limit lifted to 40 their flags are those the
# dense oracle recorded, pinned before they are first decided
DENSE_ORACLE_FALSE_FLAGS = {
    0: set(),
    9: {"m_frobenius", "comatrix_frobenius", "extension_frobenius", "sweedler_frobenius",
        "b_s_faithfully_flat"},
}


@pytest.mark.parametrize("recipe", sorted(DENSE_ORACLE_FALSE_FLAGS))
def test_recipes_beyond_the_square_limit_match_the_dense_oracle(monkeypatch, recipe):
    monkeypatch.setattr(coring, "_SQUARE_DIM_LIMIT", 40)
    m = random_projective_bimodule(recipe)
    deffile = DefinitionFile(m.field, bimodules={"M": m})
    doc = json.loads(json.dumps(report_document(deffile, "M", seed=0), indent=1, sort_keys=True))
    assert len(doc["flags"]) == 13
    assert doc["flags"] == {flag: "false" if flag in DENSE_ORACLE_FALSE_FLAGS[recipe] else "true"
                            for flag in doc["flags"]}
    assert verify_report_witnesses(deffile, doc)


def test_tampered_split_retraction_fails_reverification():
    deffile = load(bundled_path("product-field"))
    doc = json.loads(json.dumps(report_document(deffile, "M", seed=0)))
    assert verify_report_witnesses(deffile, doc)
    _bump(deffile.field, doc["witnesses"]["extension_split"]["retraction"], 0, 0)
    assert not verify_report_witnesses(deffile, doc)


def test_capacity_limit_exits_three(capsys, monkeypatch):
    def refuse(*args):
        raise TooLargeToValidateError("carrier dimension 81 too large")

    monkeypatch.setattr(cli, "report_document", refuse)
    code, out, err = run_cli(capsys, "analyze", str(bundled_path("matrix2")), "--bimodule", "M")
    assert code == 3
    assert out == ""
    assert err.startswith("capacity: carrier dimension 81 too large")


def test_the_capacity_line_names_the_pre_cointegral_space(capsys, monkeypatch):
    # with the limit at 3, the corings of matrix2 (d = 4 and 16) are refused
    monkeypatch.setattr(coring, "_SQUARE_DIM_LIMIT", 3)
    code, out, err = run_cli(capsys, "analyze", str(bundled_path("matrix2")), "--bimodule", "M")
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert re.fullmatch(r"capacity: carrier dimension (4|16) is above 3, the limit of the "
                        r"pre-cointegral space", line)


def test_console_script_entry_point():
    # the child imports the package from this checkout's src, as pytest does
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "coring_lab.cli", "validate", str(bundled_path("matrix2"))],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "ok"
