"""Reference answers computed without the package under test.

Field elements of Q(w), w^2 + w + 1 = 0, are plain (a, b) pairs of
Fractions meaning a + b*w.  The eval-mix answer evaluates the generated
expression tree directly at the point; the scan-sweep answer uses the
closed form of the family Q = t*p4 - p2^2 (pk = sum of x_i^k) on the
hyperplane sum x_i = 0: a point is singular iff Q = 0 and the gradient
4t*x_i^3 - 4*p2*x_i is proportional to (1, ..., 1), i.e. all its entries
are equal.  The verify-cold answer is a stored reference file.

Results are rendered exactly as the command line prints them, so a
check compares the text a user would see.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
W = (Fraction(0), Fraction(1))

ALPHABETS = {
    "pm1": (ONE, (Fraction(-1), Fraction(0))),
    "zero_pm1": (ZERO, ONE, (Fraction(-1), Fraction(0))),
    "cube_roots": (ONE, W, (Fraction(-1), Fraction(-1))),
}

VERIFY_REFERENCE = Path(__file__).resolve().parent / "reference" / "verify.jsonl"


# -- Q(w) pair arithmetic --------------------------------------------------------


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def mul(x, y):
    a, b = x
    c, d = y
    # (a + b w)(c + d w) = ac + (ad + bc) w + bd w^2 and w^2 = -1 - w
    return (a * c - b * d, a * d + b * c - b * d)


def inverse(x):
    a, b = x
    norm = a * a - a * b + b * b
    if norm == 0:
        raise ZeroDivisionError("inverse of zero in Q(w)")
    # the conjugate of a + b w is (a - b) - b w
    return ((a - b) / norm, -b / norm)


def power(x, e: int):
    result = ONE
    for _ in range(e):
        result = mul(result, x)
    return result


def scale(x, q):
    return (x[0] * q, x[1] * q)


def text(x) -> str:
    """The printed form of a field element, as `s6quartic eval` prints it."""
    a, b = x
    if b == 0:
        return str(a)
    wpart = "w" if b == 1 else "-w" if b == -1 else f"{b}*w"
    if a == 0:
        return wpart
    return f"{a} {'-' if b < 0 else '+'} {wpart.lstrip('-')}"


# -- eval-mix ---------------------------------------------------------------------


def evaluate(node, point):
    kind = node[0]
    if kind == "var":
        return point[node[1]]
    if kind == "const":
        return (node[1], node[2])
    if kind == "neg":
        return sub(ZERO, evaluate(node[1], point))
    if kind == "pow":
        return power(evaluate(node[1], point), node[2])
    left = evaluate(node[1], point)
    right = evaluate(node[2], point)
    if kind == "add":
        return add(left, right)
    if kind == "sub":
        return sub(left, right)
    if kind == "mul":
        return mul(left, right)
    return mul(left, inverse(right))


def eval_answers(batch) -> list:
    return [text(evaluate(tree, point)) for tree, point in batch]


# -- scan-sweep -------------------------------------------------------------------


def _normalized(coords):
    pivot = next(c for c in coords if c != ZERO)
    if pivot == ONE:
        return tuple(coords)
    inv = inverse(pivot)
    return tuple(mul(inv, c) for c in coords)


def add_all(values):
    total = ZERO
    for v in values:
        total = add(total, v)
    return total


def point_text(coords) -> str:
    return "[" + " : ".join(text(c) for c in coords) + "]"


@lru_cache(maxsize=None)
def _on_hyperplane(alphabet: str) -> tuple:
    """Projectively distinct alphabet points with sum 0, sorted, each with
    the t-independent data (x_i, x_i^3, p2, p4) of the singularity test."""
    letters = ALPHABETS[alphabet]
    points = {
        _normalized(tup)
        for tup in product(letters, repeat=6)
        if any(c != ZERO for c in tup)
    }
    data = []
    for p in sorted(points):
        if add_all(p) != ZERO:
            continue
        squares = [mul(x, x) for x in p]
        cubes = tuple(mul(s, x) for s, x in zip(squares, p))
        p4 = add_all(mul(s, s) for s in squares)
        data.append((p, cubes, add_all(squares), p4))
    return tuple(data)


def is_singular(t: Fraction, coords, cubes, p2, p4) -> bool:
    """Q = t*p4 - p2^2 = 0 and 4t*x_i^3 - 4*p2*x_i equal for every i."""
    if sub(scale(p4, t), mul(p2, p2)) != ZERO:
        return False
    grad = {sub(scale(c, t), mul(p2, x)) for c, x in zip(cubes, coords)}
    return len(grad) == 1


@lru_cache(maxsize=None)
def scan_answer(t: Fraction, alphabet: str) -> list:
    """Printed lines of `s6quartic scan --t T --alphabet NAME`."""
    return [
        point_text(p)
        for p, cubes, p2, p4 in _on_hyperplane(alphabet)
        if is_singular(t, p, cubes, p2, p4)
    ]


# -- verify-cold ------------------------------------------------------------------


def load_verify_reference() -> list:
    with open(VERIFY_REFERENCE, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def verify_records(stdout: str) -> list:
    """The JSON records of `verify --format json` with `elapsed` removed."""
    records = []
    for line in stdout.splitlines():
        record = json.loads(line)
        record.pop("elapsed", None)
        records.append(record)
    return records
