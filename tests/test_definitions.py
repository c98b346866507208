import json

import numpy as np
import pytest

from coring_lab.definitions import BUNDLED_NAMES, bundled_path, load, loads
from coring_lab.errors import DefinitionError

from conftest import MALFORMED_DEFINITIONS
from coproduct_oracle import delta_amb


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_bundled_corpus_loads(name):
    deffile = load(bundled_path(name))
    assert deffile.bimodules
    for bim in deffile.bimodules.values():
        bim.validate()


def test_missing_file_is_an_input_error():
    with pytest.raises(DefinitionError, match="no such file"):
        load("/nonexistent/definitely-not-here.json")


def test_unresolved_algebra_reference():
    doc = {
        "field": {"characteristic": 2},
        "algebras": {"A": {"structure": [[[1]]], "unit": [1]}},
        "bimodules": {"M": {"left": "Z", "right": "A",
                            "left_action": [[[1]]], "right_action": [[[1]]]}},
    }
    with pytest.raises(DefinitionError, match="unresolved algebra reference 'Z'"):
        loads(json.dumps(doc))


def test_nonassociative_structure_constants_name_the_algebra():
    # basis {1, u, v} with u.u = v, u.v = 1, v.u = 0: (uu)u != u(uu)
    structure = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    doc = {
        "field": {"characteristic": 2},
        "algebras": {"bad": {"structure": structure, "unit": [1, 0, 0]}},
    }
    with pytest.raises(DefinitionError, match="algebra 'bad'"):
        loads(json.dumps(doc))


def test_scalar_with_wrong_modulus_is_rejected():
    doc = {
        "field": {"characteristic": 2},
        "algebras": {"A": {"structure": [[["1 mod 5"]]], "unit": [1]}},
    }
    with pytest.raises(DefinitionError, match="bad scalar"):
        loads(json.dumps(doc))


def test_ragged_tensor_is_rejected():
    doc = {
        "field": {"characteristic": 2},
        "algebras": {"A": {"structure": [[[1], [1, 0]]], "unit": [1]}},
    }
    with pytest.raises(DefinitionError):
        loads(json.dumps(doc))


def test_rational_file_with_string_scalars():
    doc = {
        "field": {"characteristic": 0},
        "algebras": {"A": {"structure": [[["3/3"]]], "unit": ["1"]}},
    }
    deffile = loads(json.dumps(doc))
    assert deffile.algebras["A"].dim == 1


def test_morita_surjectivity_data_round_trip():
    deffile = load(bundled_path("morita-rows-cols"))
    md = deffile.morita["rows-cols"]
    from coring_lab.comatrix import context_from_morita

    ctx = context_from_morita(md)
    assert ctx is not None
    assert ctx.dim == 4


def test_context_entry_parses_and_validates():
    base = json.loads(bundled_path("matrix2").read_text())
    # the canonical context of M = k^2: sigma is evaluation, tau the identity
    base["bimodules"]["Mstar"] = {
        "left": "k", "right": "k",
        "left_action": [[[1, 0], [0, 1]]],
        "right_action": [[[1, 0]], [[0, 1]]],
    }
    base["contexts"] = {
        "canonical": {
            "n": "Mstar", "m": "M",
            "sigma": [[1, 0, 0, 1]],
            "tau": [[1], [0], [0], [1]],
        }
    }
    deffile = loads(json.dumps(base))
    assert "canonical" in deffile.contexts


def test_context_entry_carries_the_coefficients_of_tau():
    # over GF(3), (2 sigma, 2 tau) is a context as (sigma, tau) is, since
    # 2 * 2 = 1; the pairs read off tau(1) must carry its coefficient 2
    def context(scale):
        base = json.loads(bundled_path("matrix2").read_text())
        base["field"]["characteristic"] = 3
        base["bimodules"]["Mstar"] = {
            "left": "k", "right": "k",
            "left_action": [[[1, 0], [0, 1]]],
            "right_action": [[[1, 0]], [[0, 1]]],
        }
        base["contexts"] = {"c": {"n": "Mstar", "m": "M", "sigma": [[scale, 0, 0, scale]],
                                  "tau": [[scale], [0], [0], [scale]]}}
        return loads(json.dumps(base)).contexts["c"]

    plain, scaled = context(1), context(2)
    f = scaled.field
    assert [f.asarray(2 * m_vec).tolist() for m_vec, _ in plain.tau_pairs] \
        == [m_vec.tolist() for m_vec, _ in scaled.tau_pairs]
    assert np.array_equal(delta_amb(scaled), f.asarray(2 * delta_amb(plain)))
    assert np.array_equal(scaled.counit_mat, f.asarray(2 * plain.counit_mat))


def test_broken_context_is_rejected():
    base = json.loads(bundled_path("matrix2").read_text())
    base["bimodules"]["Mstar"] = {
        "left": "k", "right": "k",
        "left_action": [[[1, 0], [0, 1]]],
        "right_action": [[[1, 0]], [[0, 1]]],
    }
    base["contexts"] = {
        "broken": {
            "n": "Mstar", "m": "M",
            "sigma": [[1, 0, 0, 1]],
            "tau": [[0], [0], [0], [0]],
        }
    }
    with pytest.raises(DefinitionError, match="context 'broken'"):
        loads(json.dumps(base))


@pytest.mark.parametrize("doc", MALFORMED_DEFINITIONS.values(), ids=MALFORMED_DEFINITIONS.keys())
def test_malformed_document_is_a_definition_error(doc):
    with pytest.raises(DefinitionError):
        loads(json.dumps(doc))


@pytest.mark.parametrize("key, message", [
    ("characteristic-false", "must be a non-negative integer"),
    ("characteristic-true", "must be a non-negative integer"),
    ("boolean-scalar", "scalar True must be an int or string"),
])
def test_json_booleans_are_rejected_as_numbers(key, message):
    with pytest.raises(DefinitionError, match=message):
        loads(json.dumps(MALFORMED_DEFINITIONS[key]))
