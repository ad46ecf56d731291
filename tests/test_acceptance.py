"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the criterion lines.

Criteria 1-11 drive the registered verification checks and pin their full
result payloads.  Criterion 12 runs seven randomized property suites of at
least 1000 cases each with the fixed seed recorded below.
"""

import random
from fractions import Fraction

import pytest

from s6quartic import (
    H_SHIFT,
    OMEGA,
    TAU,
    Eisenstein,
    PermGroup,
    Polynomial,
    RunConfig,
    divide_exact,
    orbit_and_stabilizer,
    parse_polynomial,
    run_checks,
)
from s6quartic.eisenstein import ONE, ZERO
from s6quartic.poly import NVARS, X, format_polynomial
from test_parsing import parse_field_element
from s6quartic.linalg import Matrix
from s6quartic.perms import Permutation
from s6quartic.checks import S_SWAP
from test_geometry_oracle import partial_derivative

SEED = 20260814
CASES = 1000


@pytest.fixture(scope="module")
def records():
    """One full registry run shared by the per-criterion tests."""
    return {r.check_id: r for r in run_checks(RunConfig())}


def _report(number: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS")


def _passed(records, check_id):
    record = records[check_id]
    assert record.status == "pass", record.details
    return record.details


def test_criterion_01_group_structure(records):
    def body():
        details = _passed(records, "group-structure")
        assert details["group_order"] == 20
        assert details["translation_order"] == 5
        assert details["complement_order"] == 4
        assert details["semidirect"] is True
        assert details["normal_subgroup_orders"] == [1, 5, 10, 20]

    _report(1, "group-structure", body)


def test_criterion_02_membership_truth_table(records):
    def body():
        details = _passed(records, "lemma-2-1")
        assert details["expected"] == [True, False, True, False]
        assert details["q1"] == details["expected"]
        assert details["q2"] == details["expected"]

    _report(2, "lemma-2-1", body)


def test_criterion_03_translate_hit_set(records):
    def body():
        details = _passed(records, "lemma-2-2")
        expected_pairs = [
            (0, 0),
            (0, 2),
            (1, 1),
            (1, 2),
            (3, 0),
            (3, 3),
            (4, 0),
            (4, 2),
        ]
        assert len(details["expected_pairs"]) == 8
        assert [tuple(p) for p in details["expected_pairs"]] == expected_pairs
        assert details["q1_hit_pairs"] == details["expected_pairs"]
        assert details["q2_hit_pairs"] == details["expected_pairs"]
        assert details["q1_bullets"] == [True] * 4
        assert details["q2_bullets"] == [True] * 4

    _report(3, "lemma-2-2", body)


def test_criterion_04_divisor_incidence(records):
    def body():
        details = _passed(records, "divisor-incidence")
        assert details["orbit_size"] == 10
        assert details["stabilizer_order"] == 2
        assert details["hit_count"] == 8
        assert details["distinct_through_point"] == 4
        assert details["multiplicities"] == [2, 2, 2, 2]

    _report(4, "divisor-incidence", body)


def test_criterion_05_singular_orbits_and_nodes(records):
    def body():
        orbits = _passed(records, "sing-orbits")
        assert orbits["orbit_sizes"] == [30, 10]
        assert orbits["all_singular"] is True
        assert orbits["disjoint"] is True
        nodes = _passed(records, "node-types")
        assert nodes["points"] == 40
        assert nodes["node_count"] == 40

    _report(5, "sing-orbits + node-types", body)


def test_criterion_06_smooth_quadrics(records):
    def body():
        details = _passed(records, "smooth-quadrics")
        assert details["gram_ranks"] == [4, 4]

    _report(6, "smooth-quadrics", body)


def test_criterion_07_restriction_factorization(records):
    def body():
        details = _passed(records, "factorization")
        assert details["factors"] is True
        assert details["scalar"] == "8"

    _report(7, "factorization", body)


def test_criterion_08_irreducible_degrees(records):
    def body():
        details = _passed(records, "irrep-degrees")
        assert details["degrees"] == [1, 1, 1, 1, 4]

    _report(8, "irrep-degrees", body)


def test_criterion_09_special_parameter_values(records):
    def body():
        details = _passed(records, "special-t")
        assert details["cube_root_point"] == "all-t"
        assert details["sign_point"] == "{6}"

    _report(9, "special-t", body)


def test_criterion_10_scan_smoke(records):
    def body():
        details = _passed(records, "scan-smoke")
        assert details["t6_count"] == 10
        assert details["t6_matches_sign_orbit"] is True
        assert details["t7_count"] == 0

    _report(10, "scan-smoke", body)


def test_criterion_11_no_singular_points_on_special_plane(records):
    def body():
        details = _passed(records, "h-invariant-p3")
        assert details["points_checked"] == 40
        assert details["violations"] == []

    _report(11, "h-invariant-p3", body)


# -- criterion 12: randomized property suites ------------------------------


def _random_rational(rng, span=8):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _random_field_element(rng):
    return Eisenstein(_random_rational(rng), _random_rational(rng))


def _random_nonzero_field_element(rng):
    while True:
        value = _random_field_element(rng)
        if value != ZERO:
            return value


def _random_monomial(rng, degree):
    exponents = [0] * NVARS
    for _ in range(degree):
        exponents[rng.randrange(NVARS)] += 1
    return tuple(exponents)


def _random_polynomial(rng, max_terms=4, max_degree=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = _random_monomial(rng, rng.randint(0, max_degree))
        terms[mono] = _random_field_element(rng)
    return Polynomial(terms)


def _random_nonzero_polynomial(rng, max_terms=4, max_degree=3):
    while True:
        p = _random_polynomial(rng, max_terms, max_degree)
        if not p.is_zero():
            return p


def _random_homogeneous(rng, degree, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[_random_monomial(rng, degree)] = _random_field_element(rng)
    return Polynomial(terms)


def _random_point(rng):
    return [_random_field_element(rng) for _ in range(NVARS)]


def _random_s6_element(rng):
    images = list(range(1, NVARS + 1))
    rng.shuffle(images)
    return Permutation(images)


def _suite_field_axioms(rng):
    for _ in range(CASES):
        a = _random_field_element(rng)
        b = _random_field_element(rng)
        c = _random_field_element(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a * a.conjugate() == Eisenstein(a.norm())
        if a != ZERO:
            assert a * a.inverse() == ONE
            if b != ZERO:
                assert (a / b) * b == a


def _suite_euler_identity(rng):
    for _ in range(CASES):
        degree = rng.randint(1, 4)
        p = _random_homogeneous(rng, degree)
        total = Polynomial.zero()
        for i in range(NVARS):
            total = total + X[i] * partial_derivative(p, i)
        assert total == degree * p


def _suite_action_composition(rng):
    for _ in range(CASES):
        gamma = _random_s6_element(rng)
        delta = _random_s6_element(rng)
        p = _random_polynomial(rng)
        step_by_step = p.apply_permutation(delta.index_map()).apply_permutation(
            gamma.index_map()
        )
        assert step_by_step == p.apply_permutation((gamma * delta).index_map())

        point = _random_point(rng)
        mapping = gamma.index_map()
        moved_point = [ZERO] * NVARS
        for i in range(NVARS):
            moved_point[mapping[i]] = point[i]
        moved_poly = p.apply_permutation(mapping)
        assert moved_poly.evaluate(moved_point) == p.evaluate(point)


def _suite_orbit_stabilizer(rng):
    pool = [
        PermGroup([Permutation.identity(5)], 5),
        PermGroup.generate([S_SWAP]),
        PermGroup.generate([TAU]),
        PermGroup.generate([H_SHIFT]),
        PermGroup.generate([H_SHIFT, TAU**2]),
        PermGroup.generate([TAU, H_SHIFT]),
    ]
    symbols = ("a", "b")
    for _ in range(CASES):
        group = rng.choice(pool)
        if rng.random() < 0.5:
            x = rng.randint(1, 5)
            orbit, stab = orbit_and_stabilizer(group, x, lambda p, y: p(y))
        else:
            labeled = tuple(rng.choice(symbols) for _ in range(5))
            orbit, stab = orbit_and_stabilizer(
                group,
                labeled,
                lambda p, tup: tuple(tup[p.inverse()(i) - 1] for i in range(1, 6)),
            )
        assert len(orbit) * stab.order == group.order


def _suite_rank_congruence(rng):
    values = [-2, -1, 0, 0, 1, 2]

    def entry():
        return Eisenstein(rng.choice(values), rng.choice(values))

    def product(left, right):
        return [
            [sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*right)]
            for row in left
        ]

    for case in range(CASES):
        n = rng.randint(1, 4)
        a = [[entry() for _ in range(n)] for _ in range(n)]
        # A unit-triangular change of basis is always invertible, so
        # transpose-conjugation must preserve rank exactly; alternate
        # between lower and upper factors across cases.
        low = case % 2 == 0
        change = [
            [
                Eisenstein(1)
                if i == j
                else (entry() if (i > j) == low and i != j else ZERO)
                for j in range(n)
            ]
            for i in range(n)
        ]
        congruent = product(product(list(zip(*change)), a), change)
        assert Matrix(congruent).rank() == Matrix(a).rank()


def _suite_parser_round_trip(rng):
    for _ in range(CASES):
        p = _random_polynomial(rng)
        assert parse_polynomial(format_polynomial(p)) == p
        e = _random_field_element(rng)
        assert parse_field_element(str(e)) == e


def _suite_exact_division(rng):
    for _ in range(CASES):
        f = _random_polynomial(rng, max_terms=3, max_degree=3)
        g = _random_nonzero_polynomial(rng, max_terms=3, max_degree=3)
        assert divide_exact(f * g, g) == f


PROPERTY_SUITES = (
    _suite_field_axioms,
    _suite_euler_identity,
    _suite_action_composition,
    _suite_orbit_stabilizer,
    _suite_rank_congruence,
    _suite_parser_round_trip,
    _suite_exact_division,
)


def test_criterion_12_property_suites():
    def body():
        for offset, suite in enumerate(PROPERTY_SUITES):
            suite(random.Random(SEED + offset))

    _report(12, "property-suites", body)
