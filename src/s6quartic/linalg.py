"""Exact dense linear algebra over Q(w) for small matrices.

Everything here runs fraction-free of floating point: Gaussian elimination
with exact field division, reduced row echelon form for spaces of linear
forms, and Gram matrices of quadratic forms.  The record of a set of values
of the family parameter t lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .eisenstein import Eisenstein, ZERO
from .poly import NVARS, Polynomial

DIMENSION_CAP = 16


class Matrix:
    """Immutable dense matrix with Eisenstein entries, capped at 16x16."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        coerced = tuple(
            tuple(Eisenstein.coerce(e) for e in row) for row in rows
        )
        if not coerced or not coerced[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(coerced[0])
        if any(len(row) != width for row in coerced):
            raise ValueError("ragged rows")
        if len(coerced) > DIMENSION_CAP or width > DIMENSION_CAP:
            raise ValueError(
                f"matrix {len(coerced)}x{width} exceeds the "
                f"{DIMENSION_CAP}x{DIMENSION_CAP} cap"
            )
        self.rows = coerced
        self.nrows = len(coerced)
        self.ncols = width

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        return Matrix(
            [
                [
                    sum(
                        (self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)),
                        ZERO,
                    )
                    for j in range(other.ncols)
                ]
                for i in range(self.nrows)
            ]
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def rank(self) -> int:
        """Row rank by Gaussian elimination; the pivot in each column is the
        first nonzero entry scanning top to bottom, columns left to right."""
        _, pivots = _row_reduce([list(r) for r in self.rows])
        return len(pivots)

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        )
        return f"Matrix[{body}]"


def _row_reduce(rows):
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref_linear_forms(forms: Sequence[Polynomial]) -> list:
    """Reduced echelon basis of the span of homogeneous degree-1 forms.

    Pivot coefficients are scaled to 1 and eliminated from the other rows,
    so two form lists span the same hyperplane system iff their outputs are
    identical lists.
    """
    rows = []
    for form in forms:
        if form.is_zero():
            continue
        if form.degree() != 1 or not form.is_homogeneous():
            raise ValueError(f"not a homogeneous linear form: {form}")
        rows.append(
            [form.coefficient(_unit_monomial(i)) for i in range(NVARS)]
        )
    if not rows:
        return []
    reduced, pivots = _row_reduce(rows)
    basis = []
    for row in reduced[: len(pivots)]:
        terms = {
            _unit_monomial(i): c for i, c in enumerate(row) if c
        }
        basis.append(Polynomial(terms))
    return basis


def _unit_monomial(i: int):
    return tuple(1 if j == i else 0 for j in range(NVARS))


def gram_matrix(quadric: Polynomial, variables: Sequence[int]) -> Matrix:
    """Symmetric Gram matrix M with q = x^T M x on the listed variables.

    Diagonal entries are the square coefficients; off-diagonal entries are
    half the mixed coefficients.  The quadric must be homogeneous of degree
    2 and involve only the listed variables.
    """
    vars_ = list(variables)
    if len(set(vars_)) != len(vars_):
        raise ValueError("variables must be distinct")
    if not quadric.is_zero():
        if quadric.degree() != 2 or not quadric.is_homogeneous():
            raise ValueError("gram_matrix needs a homogeneous quadratic")
        if not quadric.variables_used() <= set(vars_):
            raise ValueError("quadric uses variables outside the given list")
    n = len(vars_)
    half = Fraction(1, 2)
    entries = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mono = [0] * NVARS
            mono[vars_[a]] += 1
            mono[vars_[b]] += 1
            coeff = quadric.coefficient(tuple(mono))
            entries[a][b] = coeff if a == b else coeff * half
    return Matrix(entries)


# -- sets of family parameters ------------------------------------------------

class TSolutionSet(NamedTuple):
    """A set of rational values of the family parameter t.

    kind is one of "all" (every rational t), "finite" (the listed values),
    or "empty".
    """

    kind: str
    values: tuple = ()

    @classmethod
    def finite(cls, values) -> "TSolutionSet":
        vals = tuple(sorted(set(Fraction(v) for v in values)))
        if not vals:
            return EMPTY
        return cls("finite", vals)

    @property
    def is_all(self) -> bool:
        return self.kind == "all"

    def __str__(self):
        if self.kind == "finite":
            return "{" + ", ".join(str(v) for v in self.values) + "}"
        return "all-t" if self.is_all else "empty"


ALL_T = TSolutionSet("all")
EMPTY = TSolutionSet("empty")
