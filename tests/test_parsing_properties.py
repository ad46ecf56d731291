"""Property tests for the expression grammar, run when hypothesis is present.

Fuzzed text over the grammar's characters, plus a few non-ASCII look-alikes,
must parse or raise ParseError and nothing else; so must constant-only text
with stacked, multi-digit exponents; formatted polynomials must parse back
to themselves.
"""

import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from s6quartic import (
    Eisenstein,
    ParseError,
    Polynomial,
    parse_point_coordinates,
    parse_polynomial,
)
from s6quartic.poly import NVARS, format_polynomial
from s6quartic.parsing import parse_scalar_list
from test_parsing import parse_field_element

# The grammar's characters, a name that is not a variable (y), and
# non-ASCII characters that Python would call digits, letters or spaces.
ALPHABET = "0123456789xwy+-*/^()[], " + "\u00b2\u0663\uff11\u00e9\u00a0"

PARSERS = (
    parse_polynomial,
    parse_field_element,
    parse_scalar_list,
    parse_point_coordinates,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_arbitrary_text_raises_only_parse_error(text):
    # Stacked or multi-digit exponents can ask for numbers of millions of
    # digits within the term cap, so the fuzzer keeps exponents small.
    assume(text.count("^") <= 2 and not re.search(r"\^\s*[0-9]{2}", text))
    for parse in PARSERS:
        try:
            parse(text)
        except ParseError:
            pass


# Constant-only text: without a variable every power is a folded constant,
# which the parser's bit bound keeps small however the exponents stack.
constant_atoms = st.one_of(
    st.integers(0, 99).map(str), st.sampled_from(["w", "(1/3)", "(2+w)"])
)
constant_exprs = st.recursive(
    constant_atoms,
    lambda inner: st.one_of(
        st.builds(
            "({}{}{})".format, inner, st.sampled_from("+-*/"), inner
        ),
        st.builds("{}^{}".format, inner, st.integers(0, 1000)),
    ),
    max_leaves=6,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.one_of(
        st.text(alphabet="0123456789w+-*/^() ", max_size=30), constant_exprs
    )
)
def test_constant_text_with_stacked_exponents_raises_only_parse_error(text):
    try:
        parse_field_element(text)
    except ParseError:
        pass


rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
coefficients = st.builds(Eisenstein, rationals, rationals)
monomials = st.tuples(*[st.integers(0, 4)] * NVARS)
polynomials = st.dictionaries(monomials, coefficients, max_size=8).map(Polynomial)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(polynomials)
def test_format_then_parse_round_trips(p):
    assert parse_polynomial(format_polynomial(p)) == p
