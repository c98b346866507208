"""Finite-dimensional associative unital algebras given by structure constants.

The structure tensor uses the convention ``b_i * b_j = sum_k c[i, j, k] b_k``.
Every algebra is validated eagerly at construction: all later theorems
assume associativity and the unit laws, so bad input must fail here.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import AlgebraAxiomError, DimensionMismatchError, FieldMismatchError
from .fields import Field
from .linalg import _kernel

__all__ = [
    "Algebra",
    "AlgebraMap",
    "new_algebra",
    "matrix_algebra",
    "opposite",
    "direct_product",
    "check_algebra_map",
    "center_basis",
]


def _memo(fn):
    """Memoize ``fn(m)``, a ``None`` result too, on the bimodule, algebra
    map or coring ``m`` itself: the value lives exactly as long as ``m``, so
    a process that analyses many modules keeps none of them alive."""

    @functools.wraps(fn)
    def memoized(m):
        if fn not in m._memo:
            m._memo[fn] = fn(m)
        return m._memo[fn]

    return memoized


class Algebra:
    """A validated finite-dimensional algebra over an exact field."""

    def __init__(self, field: Field, structure, unit, name: str = "", _validate: bool = True):
        self.field = field
        self.structure = field.asarray(structure)
        self.unit = field.asarray(unit)
        self.name = name
        if self.structure.ndim != 3 or len(set(self.structure.shape)) != 1:
            raise AlgebraAxiomError(f"structure tensor must be cubic, got {self.structure.shape}")
        self.dim = self.structure.shape[0]
        if self.unit.shape != (self.dim,):
            raise AlgebraAxiomError(f"unit must have length {self.dim}, got {self.unit.shape}")
        # left_mult[i] is the matrix of x -> b_i * x, right_mult[j] of x -> x * b_j
        self.left_mult = np.swapaxes(self.structure, 1, 2)
        self.right_mult = self.structure.transpose(1, 2, 0)
        if _validate:
            self._validate()

    def _validate(self) -> None:
        c, f = self.structure, self.field
        lhs = f.tensordot(c, c, ([2], [0]))  # (b_i b_j) b_k
        rhs = np.moveaxis(f.tensordot(c, c, ([2], [1])), 2, 0)  # b_i (b_j b_k)
        if not Field.equal(lhs, rhs):
            i, j, k = np.argwhere(lhs != rhs)[0][:3]
            raise AlgebraAxiomError(f"non-associative triple (b_{i}, b_{j}, b_{k})")
        eye = f.eye(self.dim)
        left_unit = f.tensordot(self.unit, c, ([0], [0]))
        if not Field.equal(left_unit, eye):
            j = int(np.argwhere(left_unit != eye)[0][0])
            raise AlgebraAxiomError(f"unit law fails on the left at basis index {j}")
        right_unit = f.tensordot(self.unit, c, ([0], [1]))
        if not Field.equal(right_unit, eye):
            j = int(np.argwhere(right_unit != eye)[0][0])
            raise AlgebraAxiomError(f"unit law fails on the right at basis index {j}")

    def mult(self, x, y):
        """Product of two coordinate vectors."""
        f = self.field
        x, y = f.asarray(x), f.asarray(y)
        return f.tensordot(y, f.tensordot(x, self.structure, ([0], [0])), ([0], [0]))

    def left_mult_matrix(self, x):
        """Matrix of y -> x * y."""
        return self.field.tensordot(self.field.asarray(x), self.left_mult, ([0], [0]))

    def right_mult_matrix(self, y):
        """Matrix of x -> x * y."""
        return self.field.tensordot(self.field.asarray(y), self.right_mult, ([0], [0]))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and Field.equal(self.structure, other.structure)
            and Field.equal(self.unit, other.unit)
        )

    def __repr__(self):
        label = self.name or "Algebra"
        return f"{label}(dim={self.dim}, field={self.field})"


def new_algebra(field: Field, structure, unit, name: str = "") -> Algebra:
    """Validate and wrap a structure-constant tensor."""
    return Algebra(field, structure, unit, name=name)


def matrix_algebra(n: int, field: Field, name: str = "") -> Algebra:
    """M_n(k) on the basis E_ij (row-major), unit = sum of E_ii."""
    if n < 1:
        raise ValueError("matrix algebra needs n >= 1")
    d = n * n
    c = field.zeros((d, d, d))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        c[i * n + j, k * n + l, i * n + l] = 1
    unit = field.zeros(d)
    for i in range(n):
        unit[i * n + i] = 1
    return Algebra(field, c, unit, name=name or f"M{n}")


def opposite(a: Algebra) -> Algebra:
    """Same space, reversed product."""
    return Algebra(
        a.field,
        a.structure.transpose(1, 0, 2).copy(),
        a.unit,
        name=f"{a.name}^op" if a.name else "",
        _validate=False,
    )


def direct_product(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise product algebra with unit (1, 1)."""
    a.field.check_same(b.field)
    f = a.field
    d = a.dim + b.dim
    c = f.zeros((d, d, d))
    c[: a.dim, : a.dim, : a.dim] = a.structure
    c[a.dim :, a.dim :, a.dim :] = b.structure
    unit = f.zeros(d)
    unit[: a.dim] = a.unit
    unit[a.dim :] = b.unit
    name = f"{a.name}x{b.name}" if a.name and b.name else ""
    return Algebra(f, c, unit, name=name, _validate=False)


class AlgebraMap:
    """A linear map between algebras; columns are images of source basis vectors."""

    def __init__(self, source: Algebra, target: Algebra, matrix):
        source.field.check_same(target.field)
        self.source = source
        self.target = target
        self.matrix = source.field.asarray(matrix)
        self._memo: dict = {}  # values of the ``_memo`` functions of this map
        if self.matrix.ndim != 2:
            raise DimensionMismatchError(f"matrix must be 2-D, got shape {self.matrix.shape}")
        if self.matrix.shape != (target.dim, source.dim):
            raise FieldMismatchError(
                f"matrix shape {self.matrix.shape} does not map "
                f"dim {source.dim} into dim {target.dim}"
            )

    def __call__(self, x):
        return self.source.field.matmul(self.matrix, self.source.field.asarray(x))

    def __repr__(self):
        return f"AlgebraMap({self.source!r} -> {self.target!r})"


@_memo
def check_algebra_map(f: AlgebraMap) -> bool:
    """True iff f is multiplicative on all basis pairs and preserves the unit."""
    fld = f.source.field
    fm = f.matrix
    # products of images: sum_{u,v} fm[u,i] fm[v,j] c_target[u,v,k]
    t1 = fld.tensordot(fm, f.target.structure, ([0], [0]))  # (i, v, k)
    images = fld.tensordot(fm, t1, ([0], [1])).transpose(1, 0, 2)  # (i, j, k)
    mapped = fld.tensordot(f.source.structure, fm, ([2], [1]))  # (i, j, k)
    if not Field.equal(images, mapped):
        return False
    return Field.equal(fld.matmul(fm, f.source.unit), f.target.unit)


def identity_map(a: Algebra) -> AlgebraMap:
    return AlgebraMap(a, a, a.field.eye(a.dim))


def center_basis(a: Algebra) -> list[np.ndarray]:
    """Basis of {z : z b_i = b_i z for all i}."""
    rows = np.concatenate([a.right_mult[i] - a.left_mult[i] for i in range(a.dim)])
    return _kernel(a.field, a.field.asarray(rows))
