"""Two registry checks re-derived in sympy, outside the package's field.

The package computes over Q(w) with its own Eisenstein and Polynomial.
Here sympy redoes two of the section 2 claims with w = (-1 + sqrt(-3))/2:

* smooth-quadrics: the 4x4 Gram matrices of QUADRIC_PAIR on x0..x3 have
  rank 4 over Q(sqrt(-3)), the ranks gram_rank reports;
* factorization: the t = 6 member, built here from its definition
  6*p4 - p2^2 and restricted to the plane x5 = -x0 - x2, x4 = -x1 - x3,
  equals c*q1*q2 expanded, with c the scalar the check reports (8).

The module skips where sympy is absent; the package's test extra does not
install it.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from s6quartic import QUADRIC_PAIR, RunConfig, gram_rank, run_checks
from s6quartic.poly import NVARS
from s6quartic.varieties import restriction_factorization_check

XS = sympy.symbols(f"x0:{NVARS}")
SQRT_M3 = sympy.sqrt(-3)
W = (-1 + SQRT_M3) / 2
FIELD = sympy.QQ.algebraic_field(SQRT_M3)


def to_sympy(poly):
    """The package polynomial as a sympy expression in XS, each
    coefficient re + om*w read from its Fraction components."""
    return sympy.Add(
        *(
            (sympy.Rational(c.re.numerator, c.re.denominator)
             + sympy.Rational(c.om.numerator, c.om.denominator) * W)
            * sympy.Mul(*(x**e for x, e in zip(XS, mono)))
            for mono, c in poly.terms.items()
        )
    )


def field_rank(matrix) -> int:
    """Exact rank over Q(sqrt(-3)), with no zero test on radicals."""
    domain_matrix = sympy.polys.matrices.DomainMatrix.from_Matrix(matrix)
    return domain_matrix.convert_to(FIELD).rank()


def gram(q):
    """The symmetric 4x4 matrix M with q = x^T M x on x0..x3."""
    return sympy.hessian(sympy.expand(q), XS[:4]) / 2


def test_the_quadrics_are_the_papers():
    """q1, q2 = F + w*B, F + w^2*B with F = x0^2 + x0*x2 + x2^2 and
    B = x1^2 + x1*x3 + x3^2."""
    x0, x1, x2, x3 = XS[:4]
    front = x0**2 + x0 * x2 + x2**2
    back = x1**2 + x1 * x3 + x3**2
    for q, w in zip(QUADRIC_PAIR, (W, W**2)):
        assert sympy.expand(to_sympy(q) - (front + w * back)) == 0
    # The rank is not vacuous: F alone has rank 2 on x0..x3.
    assert field_rank(gram(front)) == 2


def test_gram_ranks_match_sympy():
    ranks = [field_rank(gram(to_sympy(q))) for q in QUADRIC_PAIR]
    assert ranks == [4, 4]
    assert ranks == [gram_rank(q, (0, 1, 2, 3)) for q in QUADRIC_PAIR]
    (record,) = run_checks(RunConfig(selected_checks=("smooth-quadrics",)))
    assert record.details == {"gram_ranks": ranks}


def test_the_t6_restriction_is_the_reported_multiple_of_the_product():
    t = 6
    p2 = sum(x**2 for x in XS)
    p4 = sum(x**4 for x in XS)
    x0, x1, x2, x3 = XS[:4]
    restricted = (t * p4 - p2**2).subs(
        {XS[5]: -x0 - x2, XS[4]: -x1 - x3}, simultaneous=True
    )
    (record,) = run_checks(RunConfig(selected_checks=("factorization",)))
    scalar = restriction_factorization_check(Fraction(t))
    assert record.details == {"factors": True, "scalar": str(scalar)} == {
        "factors": True,
        "scalar": "8",
    }
    q1, q2 = map(to_sympy, QUADRIC_PAIR)
    assert sympy.expand(restricted - sympy.Rational(str(scalar)) * q1 * q2) == 0
    # The product is not zero, so no other scalar works.
    assert sympy.expand(restricted - 7 * q1 * q2) != 0
