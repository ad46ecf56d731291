"""Unit tests for exact ranks, quadratic forms, and parameter sets.

The package ranks and reduces by fraction-free elimination over Z[w];
row_reduce below, plain Gauss-Jordan elimination with field division, is
the oracle it is compared with.  gram_entries below halves the mixed
coefficients over the field; its matrices are the oracle for gram_rank,
which ranks twice the Gram matrix in int pairs.
"""

import random
import time
from fractions import Fraction

import pytest

from s6quartic import (
    OMEGA,
    Eisenstein,
    Polynomial,
    gram_rank,
    parse_polynomial,
)
from s6quartic.eisenstein import _cleared
from s6quartic.poly import NVARS, X
from s6quartic.linalg import (
    ALL_T,
    EMPTY,
    TSolutionSet,
    _echelon,
    rref_linear_forms,
)

X0, X1, X2, X3, X4, X5 = X
W = OMEGA


def row_reduce(rows):
    """In-place reduced row echelon form over the field; returns (rows,
    pivot columns).  The pivot in each column is the first nonzero entry
    at or below the current row."""
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
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


def oracle_rank(rows) -> int:
    return len(row_reduce([list(r) for r in rows])[1])


def rank(rows) -> int:
    """The package's rank: the pivot count of its elimination on the rows."""
    return len(_echelon([_cleared(map(Eisenstein.coerce, r)) for r in rows]))


def oracle_rref(rows) -> list:
    reduced, pivots = row_reduce([list(r) for r in rows])
    return [
        sum((c * X[i] for i, c in enumerate(row) if c), Polynomial.zero())
        for row in reduced[: len(pivots)]
    ]


def frac_det4(rows) -> Eisenstein:
    """Determinant by cofactor expansion, independent of the rank code."""

    n = len(rows)
    if n == 1:
        return Eisenstein.coerce(rows[0][0])
    total = Eisenstein(0)
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        sign = Eisenstein(1) if j % 2 == 0 else Eisenstein(-1)
        total = total + sign * rows[0][j] * frac_det4(minor)
    return total


def gram_entries(quadric, variables) -> list:
    """The symmetric M with q = x^T M x: square coefficients on the
    diagonal, half the mixed coefficients off it."""
    rows = []
    for a in variables:
        row = []
        for b in variables:
            mono = [0] * NVARS
            mono[a] += 1
            mono[b] += 1
            coeff = quadric.coefficient(mono)
            row.append(coeff if a == b else coeff * Fraction(1, 2))
        rows.append(row)
    return rows


class TestMatrix:
    def test_identity_and_transpose(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
        # Row rank equals column rank.
        for rows in ([[1, 2, 3], [4, 5, 6]], [[1, W, 0], [W, W * W, 0]]):
            assert rank(list(zip(*rows))) == rank(rows)

    def test_rank(self):
        assert rank([[int(i == j) for j in range(4)] for i in range(4)]) == 4
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[1, W], [W, W * W]]) == 1
        assert rank([[1, 0], [W, 1]]) == 2

    def test_rank_matches_the_oracle_on_products_of_controlled_rank(self):
        # An n x k times k x m product has rank at most k; its entries are
        # non-integral, with denominators 1, 2, 3 and 7.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        sizes = st.integers(1, 7)

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
        @hypothesis.given(sizes, sizes, sizes, st.integers(0, 2**32))
        def check(n, k, m, seed):
            rng = random.Random(seed)

            def entry():
                den = rng.choice((1, 1, 2, 3, 7))
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                return Eisenstein(Fraction(a, den), Fraction(b, den))

            left = [[entry() for _ in range(k)] for _ in range(n)]
            right = [[entry() for _ in range(m)] for _ in range(k)]
            rows = [
                [
                    sum((a * r[c] for a, r in zip(row, right)), Eisenstein(0))
                    for c in range(m)
                ]
                for row in left
            ]
            assert rank(rows) == oracle_rank(rows) <= k
            # The same rows cut or padded to six columns, as linear forms.
            coefficients = [(row + [Eisenstein(0)] * 6)[:6] for row in rows]
            forms = [
                sum((c * x for c, x in zip(row, X)), Polynomial.zero())
                for row in coefficients
            ]
            assert rref_linear_forms(forms) == oracle_rref(coefficients)

        check()

    def test_rank_of_a_16x16_matrix_with_30_bit_entries(self):
        # Cross-multiplying rows without dividing by the previous pivot
        # grows these entries past two million bits; Bareiss keeps them
        # minors of the input, a few hundred bits.
        rng = random.Random(16)

        def big():
            return rng.getrandbits(30) - 2**29

        rows = [[Eisenstein(big(), big()) for _ in range(16)] for _ in range(14)]
        rows.append([W * e for e in rows[3]])
        rows.append([-e for e in rows[11]])
        rng.shuffle(rows)
        start = time.perf_counter()
        pivots = rank(rows)
        assert time.perf_counter() - start < 5
        assert pivots == oracle_rank(rows) == 14

    def test_rank_of_gradient_configuration(self):
        # At (1, 1, w, w, w^2, w^2) on the t = 6 member the quartic gradient
        # is a scalar multiple of the all-ones row, so the 2 x 6 matrix of
        # both has rank 1.
        ones = [Eisenstein(1)] * 6
        grad = [Eisenstein(24)] * 6
        assert rank([ones, grad]) == 1


class TestRref:
    def test_plane_image_basis(self):
        # Images of the two distinguished plane forms under the order-4
        # coordinate permutation, fed in scrambled order.
        forms = [
            parse_polynomial("x4 + x2 + x5"),
            parse_polynomial("x3 + x0 + x1"),
        ]
        basis = rref_linear_forms(forms)
        assert [str(f) for f in basis] == ["x0 + x1 + x3", "x2 + x4 + x5"]

    def test_span_invariance(self):
        forms = [X0 + X1, X1 + X2]
        scaled = [W * (X1 + X2), (X0 + X1) + (X1 + X2)]
        assert rref_linear_forms(forms) == rref_linear_forms(scaled)

    def test_zero_forms_skipped_and_dependent_forms_collapse(self):
        from s6quartic import Polynomial

        basis = rref_linear_forms([Polynomial.zero(), X0, 2 * X0])
        assert basis == [X0]

    def test_rejects_non_linear(self):
        with pytest.raises(ValueError):
            rref_linear_forms([X0**2])
        with pytest.raises(ValueError):
            rref_linear_forms([X0 + 1])

    def test_pivot_leading_coefficients_are_one(self):
        basis = rref_linear_forms([3 * X1 + X4, W * X0])
        for form in basis:
            assert form.leading_coefficient() == Eisenstein(1)


class TestGramMatrix:
    # Each quadric with its variables and the rank of its Gram matrix.  The
    # squares of linear forms and the degenerate w quadric have a rank that
    # a Gram matrix without the doubled diagonal gets wrong.
    CASES = (
        ("(x0 + x1)^2", [0, 1], 1),
        ("(x0 - w*x2 + 2*x3)^2", [0, 1, 2, 3], 1),
        ("(w*x1 + x4)^2", [1, 4, 5], 1),
        ("(w*x1 + x4)^2 + w^2*x5^2", [5, 1, 4], 2),
        ("x1*x4 + w*x5^2 - 1/2*x1^2", [1, 4, 5], 3),
        ("x2*x3", [2, 3], 2),
        ("0", [0, 1, 2], 0),
        ("0", [3], 0),
    )

    def test_small_example(self):
        q = X0**2 + X0 * X1 + 3 * X1**2
        half = Fraction(1, 2)
        assert gram_entries(q, [0, 1]) == [[1, half], [half, 3]]
        assert gram_rank(q, [0, 1]) == 2

    @pytest.mark.parametrize("text, variables, expected", CASES)
    def test_rank_matches_the_oracle(self, text, variables, expected):
        quadric = parse_polynomial(text)
        gram = gram_entries(quadric, variables)
        assert oracle_rank(gram) == expected
        assert gram_rank(quadric, variables) == expected

    def test_rank_matches_the_oracle_on_sums_of_squares(self):
        # A sum of k squares of linear forms has rank at most k.
        rng = random.Random(23)

        def entry():
            return Eisenstein(rng.randint(-3, 3), rng.randint(-3, 3))

        for _ in range(200):
            variables = rng.sample(range(NVARS), rng.randint(1, NVARS))
            k = rng.randint(0, 4)
            quadric = Polynomial.zero()
            for _ in range(k):
                terms = (entry() * X[v] for v in variables)
                form = sum(terms, Polynomial.zero())
                quadric = quadric + entry() * form**2
            gram = gram_entries(quadric, variables)
            assert gram_rank(quadric, variables) == oracle_rank(gram) <= k

    def test_validation(self):
        with pytest.raises(ValueError):
            gram_rank(X0**3, [0])
        with pytest.raises(ValueError):
            gram_rank(X0**2 + X1, [0, 1])
        with pytest.raises(ValueError):
            gram_rank(X0**2, [0, 0])
        with pytest.raises(ValueError):
            gram_rank(X0 * X1, [0])
        with pytest.raises(ValueError, match="out of range"):
            gram_rank(X0 * X5, [0, 5, -1])
        with pytest.raises(ValueError, match="out of range"):
            gram_rank(X0**2, [0, 6])
        with pytest.raises(ValueError, match="at least one variable"):
            gram_rank(Polynomial.zero(), [])

    def test_conjugate_quadrics_have_full_rank(self):
        from s6quartic import QUADRIC_PAIR

        w2 = W * W
        expected = [
            [
                [1, 0, Fraction(1, 2), 0],
                [0, W, 0, W / 2],
                [Fraction(1, 2), 0, 1, 0],
                [0, W / 2, 0, W],
            ],
            [
                [1, 0, Fraction(1, 2), 0],
                [0, w2, 0, w2 / 2],
                [Fraction(1, 2), 0, 1, 0],
                [0, w2 / 2, 0, w2],
            ],
        ]
        dets = [
            Eisenstein(Fraction(-9, 16), Fraction(-9, 16)),
            Eisenstein(0, Fraction(9, 16)),
        ]
        for quadric, matrix, det in zip(QUADRIC_PAIR, expected, dets):
            gram = gram_entries(quadric, [0, 1, 2, 3])
            assert gram == matrix
            assert frac_det4(matrix) == det
            assert det != Eisenstein(0)
            assert oracle_rank(gram) == gram_rank(quadric, [0, 1, 2, 3]) == 4


class TestSolutionSets:
    def test_finite_constructor_sorts_and_dedupes(self):
        s = TSolutionSet.finite([Fraction(2), Fraction(1, 2), Fraction(2)])
        assert s.values == (Fraction(1, 2), Fraction(2))
        assert str(s) == "{1/2, 2}"

    def test_finite_reads_family_parameters(self):
        assert TSolutionSet.finite([6, Fraction(6)]).values == (Fraction(6),)
        # 0.1 would be read as 3602879701896397/36028797018963968 and "6"
        # as a number from its text.
        for bad in (0.1, "6"):
            with pytest.raises(TypeError):
                TSolutionSet.finite([bad])

    def test_finite_empty_is_empty(self):
        assert TSolutionSet.finite([]) is EMPTY or TSolutionSet.finite([]) == EMPTY

    def test_strings(self):
        assert str(ALL_T) == "all-t"
        assert str(EMPTY) == "empty"
        assert str(TSolutionSet.finite([Fraction(6)])) == "{6}"
