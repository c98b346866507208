"""Seeded property tests over the random projective-bimodule population."""

import numpy as np
import pytest

from coring_lab.bimodule import (
    dual_basis,
    endomorphism_algebra,
    right_dual,
    tensor_over,
)
from coring_lab.comatrix import comatrix_data, left_dual_anti_iso
from coring_lab.coring import left_dual_ring

from conftest import canonical_identification_oracle
from random_modules import random_projective_bimodule

SEEDS = range(0, 30)


@pytest.mark.parametrize("seed", SEEDS)
def test_dual_basis_identity_holds(seed):
    m = random_projective_bimodule(seed)
    db = dual_basis(m)
    assert db is not None and db.verify()


@pytest.mark.parametrize("seed", SEEDS)
def test_tensor_with_dual_has_endomorphism_dimension(seed):
    m = random_projective_bimodule(seed)
    ts = tensor_over(m, right_dual(m))
    end = endomorphism_algebra(m)
    assert ts.dim == end.algebra.dim


@pytest.mark.parametrize("seed", range(0, 12))
def test_canonical_identification_round_trips(seed):
    canonical_identification_oracle(random_projective_bimodule(seed))


@pytest.mark.parametrize("seed", range(0, 12))
def test_left_dual_ring_of_random_comatrix_coring_is_associative(seed):
    m = random_projective_bimodule(seed)
    coring = comatrix_data(m).coring
    ring = left_dual_ring(coring)  # Algebra validation runs at construction
    assert np.array_equal(ring.field.matmul(ring.structure[0], ring.field.eye(ring.dim)),
                          ring.structure[0])
    assert ring.dim >= 1


@pytest.mark.parametrize("seed", range(0, 12))
def test_anti_isomorphism_on_random_modules(seed):
    m = random_projective_bimodule(seed)
    anti = left_dual_anti_iso(m)
    assert anti.dual_ring.dim == anti.endos.dim
