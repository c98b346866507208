"""The content of format-3 reports: each cointegral and Frobenius gamma is
written as its map f of P, each witness once, and no transported witness.

``gamma_pins.json`` holds the sha256 of every gamma entry that the reports of
format 1 wrote on the field tensor square, for the 24 decided cases of the
analyze-fp benchmark workload at seed 0 and the six bundled modules over QQ.
Format 2 wrote f in its place and dropped the transported copies but iota,
and format 3 drops iota too; the checker re-derives every transport.
Expanded by the oracle (``gamma_oracle.expand``), each f of a report, and
each transport of the report's witnesses, gives back the pinned bytes: the
content did not move with the format.
"""

import hashlib
import json
from pathlib import Path

import pytest

from coring_lab import GF, coring as coring_module
from coring_lab.bimodule import BimoduleMap, regular_bimodule
from coring_lab.cli import _serialize_array, report_document, verify_report_witnesses
from coring_lab.coring import Cointegral, FrobeniusSystem
from coring_lab.definitions import DefinitionFile, _parse_tensor, loads
from coring_lab.structure import (
    WITNESS_PARTS,
    bimodule_tower,
    cointegral_from_separability,
    dual_evaluation,
    lift_cointegral,
    lift_frobenius_system,
)

from conftest import bundled_text_over, trivial_bimodule
from gamma_oracle import expand
from random_modules import random_projective_bimodule

GAMMA_PINS = json.loads((Path(__file__).parent / "gamma_pins.json").read_text())
BUNDLED = {"matrix2": ["M"], "dual-numbers": ["M"], "product-field": ["M"],
           "morita-rows-cols": ["cols", "rows"], "regular-module": ["M"]}
FIELD_TAGS = {"gf2": 2, "gf3": 3, "qq": 0}


def case_file(case):
    """(definition file, bimodule name) of a case id of ``gamma_pins.json``."""
    family, _, rest = case.partition("/")
    if family == "bundled":
        tag, fname, name = rest.split("/")
        return loads(bundled_text_over(fname, FIELD_TAGS[tag])), name
    if family == "ladder":
        tag, kn = rest.split("/")
        m = trivial_bimodule(GF(FIELD_TAGS[tag]), int(kn[2:]))
    else:
        m = random_projective_bimodule(int(rest))
    return DefinitionFile(m.field, bimodules={"M": m}), "M"


def printed_report(deffile, name):
    return json.loads(json.dumps(report_document(deffile, name, seed=0), indent=1,
                                 sort_keys=True))


def test_the_pins_cover_the_decided_cases():
    bundled = [f"bundled/{tag}/{fname}/{n}" for tag in FIELD_TAGS
               for fname, names in BUNDLED.items() for n in names]
    ladder = [f"ladder/{tag}/k^{n}" for tag in ("gf2", "gf3") for n in (1, 2)]
    recipes = [f"recipe/{i}" for i in (1, 3, 4, 5, 6, 7, 10, 11)]
    assert sorted(GAMMA_PINS) == sorted(bundled + ladder + recipes)
    assert len(GAMMA_PINS) == 24 + 6


@pytest.mark.parametrize("case", sorted(GAMMA_PINS))
def test_each_witness_is_written_once_and_each_f_expands_to_its_pinned_gamma(case):
    deffile, name = case_file(case)
    doc = printed_report(deffile, name)
    assert doc["format"] == 3
    assert verify_report_witnesses(deffile, doc)
    wit, fld = doc["witnesses"], deffile.field
    # each witness once, under its true flag, and no transport
    assert {key: sorted(parts) for key, parts in wit.items()} == {
        key: sorted(WITNESS_PARTS[key]) for key in wit}
    assert set(wit) <= {
        flag for flag, value in doc["flags"].items() if value == "true"}
    module = deffile.bimodules[name]
    tower = bimodule_tower(module)

    def parsed(key, part, shape):
        return _parse_tensor(fld, wit[key][part], shape, key)

    def f_of(key, c):
        q = c.middle.space.dim
        return parsed(key, "f", (q, q))

    def sha(witness):
        gamma = expand(witness.coring, witness.f_mat[None])[0]
        return hashlib.sha256(json.dumps(_serialize_array(fld, gamma)).encode()).hexdigest()

    gammas, systems = {}, {}
    for which, c in (("comatrix", tower.comatrix.coring), ("sweedler", tower.sweedler)):
        if f"{which}_coseparable" in wit:
            ci = Cointegral(c, f_of(f"{which}_coseparable", c))
            gammas[f"{which}_coseparable.cointegral"] = sha(ci)
        if f"{which}_frobenius" in wit:
            systems[which] = FrobeniusSystem(c, f_of(f"{which}_frobenius", c), parsed(
                f"{which}_frobenius", "invariant", (c.dim,)))
            gammas[f"{which}_frobenius.gamma"] = sha(systems[which])
    # the transports that format 1 wrote and the checker now re-derives
    if "m_separable" in wit:
        ts = dual_evaluation(module)[0]
        nu = BimoduleMap(regular_bimodule(module.left_alg), ts.space,
                         parsed("m_separable", "splitting", (ts.dim, module.left_alg.dim)),
                         _validate=False)
        constructed = cointegral_from_separability(module, nu)
        gammas["comatrix_cointegral_constructed.gamma"] = sha(constructed)
        gammas["sweedler_cointegral_lift.gamma"] = sha(lift_cointegral(module, constructed))
    # format 1 wrote the lift when m_frobenius and comatrix_frobenius were true
    if doc["flags"]["m_frobenius"] == doc["flags"]["comatrix_frobenius"] == "true":
        gammas["sweedler_frobenius_lift.gamma"] = sha(
            lift_frobenius_system(module, systems["comatrix"]))
    assert gammas == GAMMA_PINS[case]


def test_the_k3_report_is_small_and_verifies(monkeypatch):
    """k^3 over GF(2), with the refusal lifted to its Sweedler carrier
    (d = 81): format 1 wrote 2.6 MB, mostly the Sweedler gammas on the field
    tensor square; f on P = S is 9 x 9.  All 13 flags are true, as they
    are for every k^n."""
    monkeypatch.setattr(coring_module, "_SQUARE_DIM_LIMIT", 81)
    deffile = DefinitionFile(GF(2), bimodules={"M": trivial_bimodule(GF(2), 3)})
    out = json.dumps(report_document(deffile, "M", seed=0), indent=1, sort_keys=True)
    assert len(out.encode()) < 100_000
    doc = json.loads(out)
    assert doc["flags"] == {flag: "true" for flag in doc["flags"]} and len(doc["flags"]) == 13
    assert verify_report_witnesses(deffile, doc)
