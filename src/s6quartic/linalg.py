"""Exact dense linear algebra over Q(w) for small matrices.

Everything here is exact.  One fraction-free elimination over Z[w] on
plain int pairs gives ranks and, back-substituted over the field, reduced
row echelon forms for spaces of linear forms; Gram matrices of quadratic
forms come from their coefficients.  The record of a set of values of the
family parameter t lives here too.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .eisenstein import Eisenstein, ZERO, _cleared, _make, _pair_mul
from .poly import NVARS, Polynomial

DIMENSION_CAP = 16

_UNIT_MONOMIALS = tuple(
    tuple(int(j == i) for j in range(NVARS)) for i in range(NVARS)
)


class Matrix:
    """Immutable dense matrix with Eisenstein entries, capped at 16x16."""

    __slots__ = ("rows",)

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

    def rank(self) -> int:
        """Row rank: the pivot count of the fraction-free echelon form of
        the rows, each cleared of its denominators."""
        return len(_echelon([_cleared(row) for row in self.rows]))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        )
        return f"Matrix[{body}]"


def _echelon(rows) -> list:
    """Fraction-free echelon form over Z[w], in place; returns the pivot
    columns.

    Each entry is an (a, b) int pair meaning a + b*w.  The pivot in each
    column is the first nonzero entry at or below the current row.  Every
    update e*pivot - f*g of a lower row is divided exactly by the previous
    pivot (Bareiss, Math. Comp. 22, 1968), so each entry stays a minor of
    the input and its size grows linearly with the step count; without
    that division a 16x16 matrix of 4-bit entries reaches entries of over
    a million bits.
    """
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    # The previous pivot c + d*w.  Dividing by it is multiplying by its
    # conjugate (c - d) - d*w and dividing by its norm c^2 - cd + d^2, or
    # just dividing by c when it is rational.
    c, d = 1, 0
    r = 0
    for col in range(ncols):
        pivot_row = next(
            (i for i in range(r, nrows) if rows[i][col] != (0, 0)), None
        )
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        conjugate = (c - d, -d)
        divisor = c * c - c * d + d * d if d else c
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[col]
            for j in range(col + 1, ncols):
                ea, eb = _pair_mul(row[j], pivot[col])
                fa, fb = _pair_mul(f, pivot[j])
                x, y = ea - fa, eb - fb
                if d:
                    x, y = _pair_mul((x, y), conjugate)
                row[j] = (x // divisor, y // divisor)
            row[col] = (0, 0)
        pivots.append(col)
        c, d = pivot[col]
        r += 1
        if r == nrows:
            break
    return pivots


def rref_linear_forms(forms: Sequence[Polynomial]) -> list:
    """Reduced echelon basis of the span of homogeneous degree-1 forms.

    Pivot coefficients are scaled to 1 and eliminated from the other rows,
    so two form lists span the same hyperplane system iff their outputs are
    identical lists.  The echelon form is fraction-free; only its pivot
    rows are back-substituted over the field, from the bottom up.
    """
    rows = []
    for form in forms:
        if form.is_zero():
            continue
        if form.degree() != 1 or not form.is_homogeneous():
            raise ValueError(f"not a homogeneous linear form: {form}")
        rows.append(
            _cleared([form.coefficient(unit) for unit in _UNIT_MONOMIALS])
        )
    if not rows:
        return []
    pivots = _echelon(rows)
    reduced = [[_make(a, b, 1) for a, b in row] for row in rows[: len(pivots)]]
    for k in reversed(range(len(pivots))):
        col = pivots[k]
        scale = reduced[k][col].inverse()
        pivot_row = reduced[k] = [e * scale for e in reduced[k]]
        for i in range(k):
            f = reduced[i][col]
            if f:
                reduced[i] = [a - f * b for a, b in zip(reduced[i], pivot_row)]
    return [
        Polynomial({unit: c for unit, c in zip(_UNIT_MONOMIALS, row) if c})
        for row in reduced
    ]


def gram_matrix(quadric: Polynomial, variables: Sequence[int]) -> Matrix:
    """Symmetric Gram matrix M with q = x^T M x on the listed variables.

    Diagonal entries are the square coefficients; off-diagonal entries are
    half the mixed coefficients.  The quadric must be homogeneous of degree
    2 and involve only the listed variables.
    """
    vars_ = list(variables)
    if len(set(vars_)) != len(vars_):
        raise ValueError("variables must be distinct")
    for index in vars_:
        if not 0 <= index < NVARS:
            raise ValueError(f"variable index {index} out of range")
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

class TSolutionSet(namedtuple("TSolutionSet", "kind values", defaults=((),))):
    """A set of rational values of the family parameter t.

    kind is one of "all" (every rational t), "finite" (the listed values),
    or "empty".
    """

    __slots__ = ()

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
