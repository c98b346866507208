"""Edge behavior: degenerate tensor quotients, rational-field analysis end
to end, and a rationals definition file driven through the CLI."""

import json

import numpy as np

from coring_lab import GF, QQ
from coring_lab.algebra import direct_product
from coring_lab.bimodule import Bimodule, dual_basis, tensor_over
from coring_lab.cli import main, verify_report_witnesses
from coring_lab.definitions import load
from coring_lab.structure import analyze

from conftest import field_algebra, trivial_bimodule

F2 = GF(2)


def idempotent_summand(field, which):
    kk = direct_product(field_algebra(field), field_algebra(field))
    k = field_algebra(field)
    lam = field.eye(1)[None, :, :]
    rho = field.zeros((1, 2, 1))
    rho[0, which, 0] = 1
    return Bimodule(k, kk, lam, rho, name=f"P{which + 1}")


def test_orthogonal_summands_tensor_to_zero():
    p1 = idempotent_summand(F2, 0)
    # view P2 with the product algebra on the left so the middle matches
    kk = direct_product(field_algebra(F2), field_algebra(F2))
    lam = F2.zeros((2, 1, 1))
    lam[1, 0, 0] = 1  # e_2 acts as identity, e_1 as zero
    rho = F2.eye(1)[:, None, :]
    p2_left = Bimodule(kk, field_algebra(F2), lam, rho, name="P2 as left module")
    ts = tensor_over(p1, p2_left)
    assert ts.dim == 0
    ts.space.validate()
    assert ts.pure(F2.asarray([1]), F2.asarray([1])).shape == (0,)


def test_summand_is_projective_but_not_free():
    p1 = idempotent_summand(F2, 0)
    db = dual_basis(p1)
    assert db is not None and db.verify()


def test_analyze_over_the_rationals():
    report = analyze(trivial_bimodule(QQ, 2), seed=0)
    # exact deciders are definite over Q
    assert report.flags["m_separable"] is True
    assert report.flags["comatrix_cosplit"] is True
    assert report.flags["comatrix_coseparable"] is True
    assert report.flags["extension_split"] is True
    assert report.flags["b_s_faithfully_flat"] is True
    # randomized searches either find an isomorphism or stay inconclusive
    assert report.flags["m_frobenius"] in (True, None)
    assert all(e.status in {"holds", "vacuous", "skipped_inconclusive"}
               for e in report.implication_audit)


def test_rational_definition_file_through_the_cli(tmp_path, capsys):
    doc = {
        "field": {"characteristic": 0},
        "algebras": {"k": {"structure": [[["1"]]], "unit": ["1"]}},
        "bimodules": {"M": {
            "left": "k", "right": "k",
            "left_action": [[["1", "0"], ["0", "1"]]],
            "right_action": [[["1", "0"]], [["0", "1"]]],
        }},
    }
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--bimodule", "M", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["field"]["characteristic"] == 0
    assert out["flags"]["m_separable"] == "true"
    # witnesses serialize rationals as scalar texts that parse back to
    # themselves, and the checker accepts the printed report
    f_mat = out["witnesses"]["comatrix_coseparable"]["f"]
    flat = [v for row in f_mat for v in row]
    assert all(isinstance(v, str) for v in flat)
    assert all(QQ.format_scalar(QQ.parse_scalar(v)) == v for v in flat)
    assert verify_report_witnesses(load(path), out)


def test_dim_zero_quotient_solicits_no_errors_in_hom():
    from coring_lab.bimodule import hom_bimodule

    p1 = idempotent_summand(F2, 0)
    p2 = idempotent_summand(F2, 1)
    assert hom_bimodule(p1, p2) == []
