import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from coring_lab import GF, QQ
from coring_lab.algebra import AlgebraMap
from coring_lab.errors import DimensionMismatchError, FieldMismatchError
from coring_lab.fields import Field, PrimeField, _contraction_plan
from coring_lab.linalg import QuotientPresentation, _kernel, _solve, rank, rref

from conftest import field_algebra, fraction_free_rref
from coproduct_oracle import section_matrix
from rref_oracle import loop_rref
from tensor_oracle import presentation_from_surjection

F2 = GF(2)
F3 = GF(3)


def test_prime_field_rejects_composite_and_huge():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)


def test_products_at_the_largest_accepted_prime_are_exact():
    p = 2**31 - 1
    big = GF(p)
    top = np.full((1, 4), p - 1, dtype=np.int64)
    assert big.matmul(top, top.T).tolist() == [[4]]  # (p - 1)**2 = 1 mod p
    rng = np.random.default_rng(0)
    a, b = big.random(rng, (6, 7)), big.random(rng, (7, 3))
    exact = a.astype(object) @ b.astype(object) % p
    assert np.array_equal(big.matmul(a, b), exact)
    a, b = big.random(rng, (3, 4, 5)), big.random(rng, (5, 4, 2))
    for axes in (0, 1, ([2], [0]), ([1, 2], [1, 0])):
        exact = np.tensordot(a.astype(object), b.astype(object), axes) % p
        assert np.array_equal(big.tensordot(a, b, axes), exact), axes


# Contractions of length 64 with more than 2**18 entries in the product, with
# the axes given as an int, as lists and as bare ints.  At each prime the
# contraction length decides the route: float BLAS while 64 * (p - 1)**2 is
# below 2**53, int64 while it is below 2**63, Python ints above.
TENSORDOT_FORMS = {
    "int": ((16, 8, 8), (8, 8, 16), 2),
    "lists": ((16, 8, 8), (8, 16, 8), ([1, 2], [0, 2])),
    "bare ints": ((64, 64), (64, 64), (1, 0)),
}
TENSORDOT_ROUTES = {  # route: (prime, the method only that route calls)
    "float BLAS": (8388593, "_from_floats"),
    "int64": (134217689, None),
    "Python ints": (2**31 - 1, "_via_python_ints"),
}


@pytest.mark.parametrize("form", sorted(TENSORDOT_FORMS))
@pytest.mark.parametrize("route", sorted(TENSORDOT_ROUTES))
def test_tensordot_is_exact_on_each_route(route, form, monkeypatch):
    p, marker = TENSORDOT_ROUTES[route]
    a_shape, b_shape, axes = TENSORDOT_FORMS[form]
    bound = {"float BLAS": (0, 2**53), "int64": (2**53, 2**63), "Python ints": (2**63, None)}
    low, high = bound[route]
    assert low <= 64 * (p - 1) ** 2 and (high is None or 64 * (p - 1) ** 2 < high)
    taken = []

    def spy(name):
        original = getattr(PrimeField, name)

        def recording(self, *args):
            taken.append(name)
            return original(self, *args)
        return recording

    for name in ("_from_floats", "_via_python_ints"):
        monkeypatch.setattr(PrimeField, name, spy(name))
    field = GF(p)
    rng = np.random.default_rng(p % 1000)
    a, b = field.random(rng, a_shape), field.random(rng, b_shape)
    assert a.size * b.size > 2**18
    exact = np.tensordot(a.astype(object), b.astype(object), axes) % p
    assert np.array_equal(field.tensordot(a, b, axes), exact)
    assert taken == ([marker] if marker else [])



# The contractions of the plan oracle, (a shape, b shape, axes): the axes as
# an int, as single- and multi-axis lists, as tuples, negative and as bare
# ints; zero-size dimensions, as in the (0, dim A, dim M) stacks of
# right_dual; and operands on both sides of the BLAS threshold, where
# a.size * b.size passes 2**16.
PLAN_CASES = {
    "int 0": ((2, 3), (4,), 0),
    "int 1": ((2, 3, 4), (4, 5), 1),
    "int 2": ((3, 4, 5), (4, 5, 2), 2),
    "single-axis lists": ((3, 4, 5), (6, 4), ([1], [1])),
    "multi-axis lists": ((3, 4, 5), (5, 2, 4), ([1, 2], [2, 0])),
    "tuples": ((3, 4, 5), (5, 2, 4), ((2, 1), (0, 2))),
    "negative": ((3, 4, 5), (5, 4, 2), ([-1, -2], [0, -2])),
    "bare ints": ((4, 6), (3, 6), (1, 1)),
    "every axis": ((3, 4), (3, 4), ([0, 1], [0, 1])),
    "zero-size stack": ((0, 3, 4), (3, 5), ([1], [0])),
    "zero-size contraction": ((3, 0), (0, 5), ([1], [0])),
    "zero-size free axis": ((2, 3), (3, 0), 1),
    "large int": ((16, 8, 8), (8, 8, 16), 2),
    "large lists": ((16, 8, 8), (8, 16, 8), ([1, 2], [0, 2])),
    "large negative": ((32, 12), (12, 40), ([-1], [-2])),
    "large zero-size stack": ((0, 16, 16), (16, 16, 64), ([1, 2], [0, 1])),
}
LARGE = {"large int", "large lists", "large negative"}


def assert_reduced_tensordot(field, a, b, axes):
    p = field.characteristic
    exact = np.tensordot(a.astype(object), b.astype(object), axes) % p
    got = field.tensordot(a, b, axes)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.shape == np.shape(exact) and np.array_equal(got, exact)
    assert got.size == 0 or 0 <= got.min() <= got.max() < p


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_planned_tensordot_matches_numpy_on_object_arrays(p, case):
    a_shape, b_shape, axes = PLAN_CASES[case]
    field = GF(p)
    rng = np.random.default_rng(p % 1000)
    a, b = field.random(rng, a_shape), field.random(rng, b_shape)
    assert (a.size * b.size > 2**16) == (case in LARGE)
    assert_reduced_tensordot(field, a, b, axes)


def test_equal_shapes_with_other_axes_never_share_a_plan():
    shape = (3, 3, 3)
    contractions = ([([i], [j]) for i in range(3) for j in range(3)]
                    + [([0, 1], [0, 1]), ([0, 1], [1, 0]), ([1, 0], [0, 1]), ([2, 0], [1, 2])])
    plans = [_contraction_plan(shape, shape, tuple(map(tuple, axes))) for axes in contractions]
    assert len(set(plans)) == len(contractions)
    assert _contraction_plan.cache_info().maxsize is not None
    rng = np.random.default_rng(5)
    a, b = F3.random(rng, shape), F3.random(rng, shape)
    for axes in contractions + contractions[::-1]:  # each shape pair recurs with other axes
        assert_reduced_tensordot(F3, a, b, axes)


# (shape, rank of a product making it deficient, or None for a random one)
RREF_LOOP_CASES = {
    "full square": ((7, 7), None),
    "wide": ((4, 9), None),
    "tall": ((9, 4), None),
    "deficient square": ((8, 8), 3),
    "deficient wide": ((5, 11), 2),
    "deficient tall": ((12, 6), 4),
    "all-zero": ((5, 6), 0),
    "empty rows": ((0, 4), None),
    "empty columns": ((4, 0), None),
    "empty": ((0, 0), None),
}


def rref_case_matrix(field, rng, case):
    """A random matrix of one of the kinds of ``RREF_LOOP_CASES``."""
    shape, rank_ = RREF_LOOP_CASES[case]
    draw = (lambda s: rational_matrix(rng, s)) if field == QQ else (lambda s: field.random(rng, s))
    if rank_ is None:
        return draw(shape)
    return field.matmul(draw((shape[0], rank_)), draw((rank_, shape[1])))


@pytest.mark.parametrize("case", sorted(RREF_LOOP_CASES))
@pytest.mark.parametrize("field", [F2, F3, GF(2**31 - 1), QQ], ids=repr)
def test_rref_matches_the_loop_oracle(field, case):
    for seed in range(4):
        a = rref_case_matrix(field, np.random.default_rng(seed), case)
        expected, expected_pivots = loop_rref(field, a)
        red, pivots = rref(field, a)
        assert pivots == expected_pivots
        assert red.shape == expected.shape and red.dtype == expected.dtype
        assert Field.equal(red, expected)


def test_scalar_round_trip():
    assert F3.parse_scalar("2 mod 3") == 2
    assert F3.format_scalar(5) == "2 mod 3"
    assert QQ.parse_scalar("3/7") == Fraction(3, 7)
    assert QQ.format_scalar(Fraction(6, 4)) == "3/2"
    with pytest.raises(ValueError):
        F3.parse_scalar("1 mod 5")


def test_field_mismatch_is_refused():
    with pytest.raises(FieldMismatchError):
        AlgebraMap(field_algebra(F2), field_algebra(F3), [[1]])


def test_solve_identity_returns_rhs():
    b = F2.asarray([[1], [0]])
    assert np.array_equal(_solve(F2, F2.eye(2), b), b)


def test_solve_inconsistent_row_over_f2():
    assert _solve(F2, [[1, 1], [0, 0]], [[1], [1]]) is None


def test_solve_inverts_over_q():
    x = _solve(QQ, [[2]], [[1]])
    assert x[0, 0] == Fraction(1, 2)


def test_solve_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        _solve(F2, [[1, 0]], [[1], [0]])


def test_kernel_of_identity_is_empty():
    assert _kernel(F3, F3.eye(3)) == []


def test_kernel_of_zero_matrix_is_standard_basis():
    basis = _kernel(F2, np.zeros((3, 3), dtype=int))
    assert len(basis) == 3
    assert np.array_equal(np.stack(basis), np.eye(3, dtype=int))


def test_kernel_hand_example_over_f2():
    basis = _kernel(F2, [[1, 1]])
    assert len(basis) == 1
    assert list(basis[0]) == [1, 1]


def cokernel(field, a):
    """target / image(a): the quotient by the row span of a.T."""
    a = field.asarray(a)
    return QuotientPresentation.from_relations(field, a.shape[0], a.T)


def test_cokernel_of_identity_is_zero():
    assert cokernel(F2, F2.eye(2)).quotient_dim == 0


def test_cokernel_of_zero_map():
    pres = cokernel(F2, np.zeros((3, 2), dtype=int))
    assert pres.quotient_dim == 3
    assert np.array_equal(pres.projection, np.eye(3, dtype=int))


def test_cokernel_rank_count_over_f2():
    pres = cokernel(F2, [[1], [1]])
    assert pres.quotient_dim == 1
    assert np.all(pres.projection @ np.array([[1], [1]]) % 2 == 0)


@pytest.mark.parametrize("field,seed", [(F2, 0), (F3, 1), (QQ, 2)])
def test_solve_round_trip_on_random_solvable_systems(field, seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        m, n, k = rng.integers(1, 6, size=3)
        a = field.random(rng, (m, n))
        b = field.matmul(a, field.random(rng, (n, k)))
        x = _solve(field, a, b)
        assert x is not None
        assert Field.equal(field.matmul(a, x), b)


@pytest.mark.parametrize("field,seed", [(F2, 3), (F3, 4), (QQ, 5)])
def test_rank_nullity(field, seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        m, n = rng.integers(1, 7, size=2)
        a = field.random(rng, (m, n))
        assert rank(field, a) + len(_kernel(field, a)) == n


@pytest.mark.parametrize("field,seed", [(F2, 6), (F3, 7), (QQ, 8)])
def test_quotient_presentation_round_trip(field, seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        r = int(rng.integers(0, n + 1))
        rels = field.random(rng, (r, n))
        pres = QuotientPresentation.from_relations(field, n, rels)
        pq = field.matmul(pres.projection, section_matrix(pres))
        assert np.array_equal(pq, field.eye(pres.quotient_dim))
        # projection annihilates exactly the relation span: it annihilates
        # the relations, and its kernel has the dimension of their span
        assert not np.any(field.matmul(pres.projection, field.asarray(rels).T.reshape(n, -1)))
        assert rank(field, pres.projection) == pres.quotient_dim
        assert pres.quotient_dim == n - rank(field, rels)
        # section then projection differs from identity only by relations,
        # which is by the kernel of the projection
        defect = field.asarray(field.matmul(section_matrix(pres), pres.projection) - field.eye(n))
        assert not np.any(field.matmul(pres.projection, defect))


@pytest.mark.parametrize("field,seed", [(F2, 9), (F3, 10), (QQ, 11)])
def test_quotient_projection_is_the_kernel_basis_of_the_relations(field, seed):
    """The projection rows are the kernel basis of the relations, the
    section picks the free columns, and on them the reduced echelon rows of
    the relations are minus the projection at the pivot columns."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        rels = field.random(rng, (int(rng.integers(0, n + 1)), n))
        pres = QuotientPresentation.from_relations(field, n, rels)
        kernel = _kernel(field, rels)
        assert Field.equal(pres.projection, field.asarray(np.reshape(kernel, (-1, n))))
        if kernel:
            assert not np.any(field.matmul(rels, pres.projection.T) != 0)
        red, pivots = rref(field, rels)
        free = sorted(set(range(n)) - {c for _, c in pivots})
        assert Field.equal(section_matrix(pres), field.eye(n)[:, free])
        rest = [c for _, c in pivots]
        assert Field.equal(red[:len(pivots)][:, free],
                           field.asarray(-pres.projection[:, rest].T))
        for f, v in zip(free, kernel):  # the kernel vectors entry by entry
            expected = field.zeros(n)
            expected[f] = 1
            for r, c in pivots:
                expected[c] = -red[r, f]
            assert Field.equal(v, field.asarray(expected))


@pytest.mark.parametrize("field,seed", [(F2, 12), (F3, 13), (QQ, 14)])
def test_a_presentation_is_the_identity_on_its_free_columns(field, seed):
    """From relations, the free columns are those off the pivots of the
    relations; from a surjection, those of the columns outside the span of
    the later ones.  The projection is the identity on them."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        rels = field.random(rng, (int(rng.integers(0, n + 1)), n))
        pres = QuotientPresentation.from_relations(field, n, rels)
        pivots = {c for _, c in rref(field, rels)[1]}
        assert pres.free.tolist() == [c for c in range(n) if c not in pivots]
        assert Field.equal(pres.projection[:, pres.free], field.eye(pres.quotient_dim))
        onto = field.random(rng, (int(rng.integers(1, n + 1)), n))
        if rank(field, onto) < len(onto):
            continue
        pres = presentation_from_surjection(field, onto)
        later = [rank(field, onto[:, c:]) for c in range(n)] + [0]
        assert pres.free.tolist() == [c for c in range(n) if later[c] > later[c + 1]]
        assert Field.equal(pres.projection[:, pres.free], field.eye(len(onto)))


def test_a_presentation_holds_no_relation_rows():
    """A presentation of a large square holds only its projection and
    free columns, and no relation rows."""
    assert [f.name for f in dataclasses.fields(QuotientPresentation)] == [
        "field", "ambient_dim", "quotient_dim", "projection", "free"]


def test_rref_is_deterministic_first_pivot():
    red, pivots = rref(F3, [[0, 2, 1], [1, 1, 2]])
    assert pivots == [(0, 0), (1, 1)]
    assert red.tolist() == [[1, 0, 0], [0, 1, 2]]


def test_rref_over_q_with_fractional_pivots():
    # pivots 1/2 and 3; by hand: R1 *= 2, R2 /= 3, R1 -= 2 R2
    red, pivots = rref(QQ, [[Fraction(1, 2), 1, 1], [0, 3, 1]])
    assert pivots == [(0, 0), (1, 1)]
    assert red.tolist() == [[1, 0, Fraction(4, 3)], [0, 1, Fraction(1, 3)]]


def rational_matrix(rng, shape, denominators=(1, 2, 3, 5, 7)):
    """Random rationals with small numerators and the given denominators;
    every entry a Fraction, integral ones included."""
    nums = rng.integers(-6, 7, size=shape).reshape(-1)
    dens = rng.choice(denominators, size=shape).reshape(-1)
    arr = np.empty(len(nums), dtype=object)
    arr[:] = [Fraction(int(n), int(d)) for n, d in zip(nums, dens)]
    return arr.reshape(shape)


def with_zero_and_duplicated_rows(rng):
    a = rational_matrix(rng, (4, 6))
    rows = np.concatenate([a, QQ.zeros((2, 6)), a[[1, 3]], 3 * a[[0]]])
    return rows[rng.permutation(len(rows))]


def integral_as_ints(a):
    """The same matrix with its integral entries held as Python ints."""
    out = np.empty(a.shape, dtype=object)
    out.reshape(-1)[:] = [v.numerator if v.denominator == 1 else v for v in a.reshape(-1)]
    return out


RREF_ORACLE_CASES = {
    "fractional-5x5": lambda rng: rational_matrix(rng, (5, 5)),
    "fractional-4x7": lambda rng: rational_matrix(rng, (4, 7)),
    "fractional-8x3": lambda rng: rational_matrix(rng, (8, 3)),
    "zero-and-duplicated-rows": with_zero_and_duplicated_rows,
    "rank-2-product-6x5": lambda rng: QQ.matmul(rational_matrix(rng, (6, 2)),
                                                rational_matrix(rng, (2, 5))),
    "rank-3-product-7x7": lambda rng: QQ.matmul(rational_matrix(rng, (7, 3)),
                                                rational_matrix(rng, (3, 7))),
    "integral-entries-as-fractions": lambda rng: rational_matrix(rng, (5, 6), (1, 1, 1, 2)),
    "integral-entries-as-ints":
        lambda rng: integral_as_ints(rational_matrix(rng, (5, 6), (1, 1, 1, 2))),
    "0x4": lambda rng: QQ.zeros((0, 4)),
    "4x0": lambda rng: QQ.zeros((4, 0)),
    "0x0": lambda rng: QQ.zeros((0, 0)),
    "zero-3x3": lambda rng: QQ.zeros((3, 3)),
}


@pytest.mark.parametrize("case", sorted(RREF_ORACLE_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rref_over_q_matches_the_fraction_free_oracle(case, seed):
    a = RREF_ORACLE_CASES[case](np.random.default_rng(seed))
    expected, expected_pivots = fraction_free_rref(a)
    red, pivots = rref(QQ, a)
    assert pivots == expected_pivots
    assert red.shape == a.shape and red.dtype == object
    assert Field.equal(red, expected)
    assert all(type(v) in (int, Fraction) for v in red.reshape(-1))


def test_the_rationals_create_integral_values_as_ints():
    assert {type(v) for v in QQ.zeros((2, 3)).reshape(-1)} == {int}
    assert {type(v) for v in QQ.eye(3).reshape(-1)} == {int}
    assert type(QQ.parse_scalar("4/2")) is int and QQ.parse_scalar("4/2") == 2
    assert type(QQ.parse_scalar(-3)) is int
    assert QQ.parse_scalar("-3/6") == Fraction(-1, 2)
    assert type(QQ.inv_scalar(Fraction(1, 3))) is int and QQ.inv_scalar(Fraction(1, 3)) == 3
    assert type(QQ.inv_scalar(-1)) is int and QQ.inv_scalar(-1) == -1
    assert QQ.inv_scalar(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv_scalar(0)
