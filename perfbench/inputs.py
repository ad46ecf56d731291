"""Seeded inputs for the benchmark workloads.

Everything here is plain Python with no import of the package under test:
the package only ever receives the generated text (eval-mix) or the
generated parameter values (scan-sweep).  Op ``i`` of a run with seed
``s`` draws from its own ``random.Random`` stream, so the same seed gives
the same inputs whatever the machine speed and however many ops a run
completes.

Expression trees are tuples:

    ("var", i)            x_i
    ("const", a, b)       the field constant a + b*w (a, b Fractions)
    ("add" | "sub" | "mul", left, right)
    ("div", left, const)  division by a nonzero constant node
    ("neg", inner)
    ("pow", inner, e)     e a positive int
"""

from __future__ import annotations

import random
from fractions import Fraction

NVARS = 6

SCAN_ALPHABETS = ("pm1", "zero_pm1", "cube_roots")
# Integer parameters at which the {0, 1, -1} alphabet has singular points.
SPECIAL_INTEGER_T = (2, 4, 6)

# One eval-mix op: SMALL_PER_BATCH calculator-style expressions plus one
# power expansion per (terms, exponent) entry, about 1 s in all.  The
# schedule is fixed so every op does about the same work; only the
# coefficients, the variables and the point vary with the seed.  It
# repeats so that no single expansion's coefficients dominate an op.
SMALL_PER_BATCH = 200
POWER_SCHEDULE = ((3, 8), (3, 6), (4, 5), (4, 7), (5, 4), (6, 3), (7, 2), (7, 3)) * 2

def stream(workload: str, seed: int, op_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{op_index}")


# -- scan-sweep -----------------------------------------------------------------


def scan_params(seed: int, op_index: int) -> tuple:
    """t = 6, a fresh integer outside {2, 4, 6}, a fresh non-integer rational."""
    rng = stream("scan-sweep", seed, op_index)
    integer_t = rng.choice(
        [t for t in range(-60, 61) if t not in SPECIAL_INTEGER_T]
    )
    while True:
        q = rng.randint(2, 9)
        p = rng.randint(-200, 200)
        rational_t = Fraction(p, q)
        if rational_t.denominator != 1:
            break
    return (Fraction(6), Fraction(integer_t), rational_t)


# -- eval-mix -------------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    """Half small integers, half non-integral rationals; never zero."""
    if rng.random() < 0.5:
        return Fraction(rng.choice([v for v in range(-9, 10) if v]))
    while True:
        value = Fraction(rng.randint(-20, 20), rng.randint(2, 9))
        if value.denominator != 1:
            return value


def _constant(rng: random.Random):
    """A nonzero field constant; about a quarter carry a w part."""
    if rng.random() < 0.25:
        real = _rational(rng) if rng.random() < 0.5 else Fraction(0)
        return ("const", real, _rational(rng))
    return ("const", _rational(rng), Fraction(0))


def _small(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.55:
            return ("var", rng.randrange(NVARS))
        if roll < 0.85:
            return _constant(rng)
        return ("const", Fraction(0), Fraction(1))
    kind = rng.choice(("add", "add", "sub", "mul", "mul", "pow", "div", "neg"))
    if kind in ("add", "sub", "mul"):
        return (kind, _small(rng, depth - 1), _small(rng, depth - 1))
    if kind == "pow":
        return ("pow", _small(rng, depth - 2), rng.randint(2, 3))
    if kind == "div":
        return ("div", _small(rng, depth - 1), _constant(rng))
    return ("neg", _small(rng, depth - 1))


def _linear_power(rng: random.Random, nterms: int, exponent: int):
    """(c_1*x_i1 + ... + c_k*x_ik [+ c_0])^exponent with nterms terms."""
    nvars = min(nterms, NVARS)
    variables = rng.sample(range(NVARS), nvars)
    total = None
    for i in variables:
        term = ("mul", _constant(rng), ("var", i))
        total = term if total is None else ("add", total, term)
    if nterms > nvars:
        total = ("add", total, _constant(rng))
    return ("pow", total, exponent)


def _point(rng: random.Random) -> tuple:
    """Six coordinates as (a, b) pairs; about half are non-integral."""
    coords = []
    for _ in range(NVARS):
        roll = rng.random()
        if roll < 0.1:
            coords.append((Fraction(0), Fraction(0)))
        elif roll < 0.3:
            coords.append((_rational(rng), _rational(rng)))
        else:
            coords.append((_rational(rng), Fraction(0)))
    return tuple(coords)


def eval_batch(seed: int, op_index: int) -> list:
    """[(tree, point)] for one op: the small expressions, then the powers."""
    rng = stream("eval-mix", seed, op_index)
    pairs = [(_small(rng, 4), _point(rng)) for _ in range(SMALL_PER_BATCH)]
    for nterms, exponent in POWER_SCHEDULE:
        pairs.append((_linear_power(rng, nterms, exponent), _point(rng)))
    return pairs


# -- text rendering (the grammar of `s6quartic eval`) ---------------------------


def constant_text(a: Fraction, b: Fraction) -> str:
    if b == 0:
        return str(a) if a >= 0 and a.denominator == 1 else f"({a})"
    wpart = "w" if abs(b) == 1 else f"{abs(b)}*w"
    if a == 0:
        return "w" if b == 1 else f"({'' if b > 0 else '-'}{wpart})"
    return f"({a} {'+' if b > 0 else '-'} {wpart})"


def expression_text(node) -> str:
    kind = node[0]
    if kind == "var":
        return f"x{node[1]}"
    if kind == "const":
        return constant_text(node[1], node[2])
    if kind == "neg":
        return f"(-{expression_text(node[1])})"
    if kind == "pow":
        return f"({expression_text(node[1])}^{node[2]})"
    symbol = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[kind]
    return f"({expression_text(node[1])}{symbol}{expression_text(node[2])})"


def point_text(point) -> str:
    return "[" + ", ".join(constant_text(a, b) for a, b in point) + "]"
