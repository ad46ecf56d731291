"""The deterministic work of a default verify, of sixteen scans and of
nine parsed expansions, pinned.

A profile hook counts the calls of a few functions by their code object,
so a call is seen whichever module it comes from.  The counts are taken in
a fresh interpreter, where no cache is warm, and each scan starts from an
empty table of singular loci, so that no count depends on what ran before
it.  They are compared exactly with
`tests/reference/work-verify.json`, `work-scan.json` and `work-eval.json`.
A change that changes a count updates those files and gives the reason.
In an expansion, `product` counts the packed products and squares of
`poly._product` and `poly._square`, and `term_products` the term products
they make: len(left) * len(right) per product, T(T + 1)/2 per square of
T terms.
`pair_mul` counts the int-pair products of `eisenstein._pair_mul`, where
the scans, the node test and the Gram rank multiply; `keys` and `squares`
count the calls of `varieties._scaled` and `varieties._squares`, which
multiply int pairs inline.  `coordinate_keys` and `coordinate_texts`
count the calls of `Eisenstein.sort_key` and `Eisenstein.__str__`, which
a point makes per coordinate the first time its sort key or its text is
read.  `echelon_bits` is the
bit length of the widest entry that `linalg._echelon` leaves in a verify:
without its exact Bareiss division the entries grow exponentially.

    PYTHONPATH=src python tests/test_work_counts.py          # print the counts
    PYTHONPATH=src python tests/test_work_counts.py --write  # store them
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
# Two special members, a generic one, and t = 4, where the scan enumerates.
SCAN_T_VALUES = (Fraction(6), Fraction(7), Fraction(10, 7), Fraction(4))
# One expansion per (terms, exponent) shape of the benchmark's eval-mix
# schedule, with fixed coefficients, and a power of the zero polynomial.
EVAL_TEXTS = (
    "(1/2*x0 + w*x1 - 3*x2)^8",
    "(2*x3 - 5/3*x4 + (1 + w)*x5)^6",
    "(x0 + 7/2*x1 - w*x2 + 4*x3)^5",
    "(-3/4*x1 + x2 + 2*w*x4 - 6*x5)^7",
    "(x0 - x1 + 5/2*x2 + (3 - 2*w)*x3 + 9*x4)^4",
    "(2*x0 + x1 - 1/3*x2 + x3 + w*x4 - 8*x5)^3",
    "(x0 + 2*x1 + 3*x2 + 4*x3 + 5*x4 + 6*x5 + 7/5)^2",
    "(1/2*x0 - x1 + w*x2 + 3*x3 - 2/7*x4 + x5 - (1 - w))^3",
    "(x1 - x1)^2",
)


def _counted(run, targets: dict) -> tuple:
    """run()'s result and the number of calls of each function in targets."""
    names = {fn.__code__: name for name, fn in targets.items()}
    counts = dict.fromkeys(targets, 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


def _expansions(run) -> tuple:
    """run()'s result, the calls of poly._product and poly._square
    ("product") and the term products they make ("term_products"):
    len(left) * len(right) per product, T(T + 1)/2 per square of T terms.
    """
    from s6quartic import poly

    product, square = poly._product, poly._square
    counts = {"product": 0, "term_products": 0}

    def counted_product(left, right):
        counts["product"] += 1
        counts["term_products"] += len(left) * len(right)
        return product(left, right)

    def counted_square(pairs):
        counts["product"] += 1
        counts["term_products"] += len(pairs) * (len(pairs) + 1) // 2
        return square(pairs)

    poly._product, poly._square = counted_product, counted_square
    try:
        return run(), counts
    finally:
        poly._product, poly._square = product, square


def _widest_echelon_entry(run) -> tuple:
    """run()'s result and the largest bit length of any entry, a or b of
    a + b*w, in the rows that linalg._echelon leaves, over all its calls.

    varieties imports _echelon by name, so both modules' names are wrapped.
    """
    from s6quartic import linalg, varieties

    echelon = linalg._echelon
    widest = 0

    def wrapped(rows):
        nonlocal widest
        pivots = echelon(rows)
        bits = (abs(x).bit_length() for row in rows for pair in row for x in pair)
        widest = max(widest, *bits)
        return pivots

    linalg._echelon = varieties._echelon = wrapped
    try:
        return run(), widest
    finally:
        linalg._echelon = varieties._echelon = echelon


def measure() -> dict:
    from s6quartic import DEFAULT_ALPHABETS, Eisenstein
    from s6quartic import RunConfig, all_passed, run_checks, scan_alphabet, varieties
    from s6quartic import Polynomial, eisenstein, parse_polynomial, perms

    # Every point the package derives is wrapped by one _point call (the
    # public constructor is not called after import); "keys" counts the
    # normalizations, one _scaled call per key or per distinct value of an
    # orbit's tuple.
    work = {
        "points_built": varieties._point,
        "additions": Eisenstein.__add__,
        "keys": varieties._scaled,
        "squares": varieties._squares,
        "coordinate_keys": Eisenstein.sort_key,
        "coordinate_texts": Eisenstein.__str__,
    }
    calls = (
        "act_on_variety",
        "is_singular_on_family",
        "is_node",
        "projective_orbit",
        "canonicalize",
    )
    verify_targets = {
        **{name: getattr(varieties, name) for name in calls},
        **work,
        "multiplications": Eisenstein.__mul__,
        "pair_mul": eisenstein._pair_mul,
        "validated_permutations": perms.Permutation.__init__,
        "polynomial_mul": Polynomial.__mul__,
    }
    (records, verify), widest = _widest_echelon_entry(
        lambda: _counted(lambda: run_checks(RunConfig()), verify_targets)
    )
    verify["echelon_bits"] = widest
    assert all_passed(records)
    # A scan at t = 4 runs a Jacobian test ("tests") per head whose sixth
    # coordinate is a letter, and scales each singular tuple once per
    # distinct nonzero value.  Elsewhere it tests no tuple: it builds the
    # locus of its member's class, cleared before each scan.
    scan_work = {**work, "tests": varieties._singular, "pair_mul": eisenstein._pair_mul}
    scans = []
    for t in SCAN_T_VALUES:
        for name in sorted(DEFAULT_ALPHABETS):
            varieties._LOCI.clear()
            found, scan = _counted(
                lambda: scan_alphabet(t, DEFAULT_ALPHABETS[name]), scan_work
            )
            scans.append({"t": str(t), "alphabet": name, **scan, "found": len(found)})
    eval_targets = {
        "mul": Polynomial.__mul__,
        "reduced": eisenstein._reduced,
        "pair_mul": eisenstein._pair_mul,
    }
    evals = []
    for text in EVAL_TEXTS:
        (result, counts), products = _expansions(
            lambda: _counted(lambda: parse_polynomial(text), eval_targets)
        )
        evals.append({"text": text, **counts, **products, "terms": len(result.terms)})
    return {"verify": verify, "scan": scans, "eval": evals}


@lru_cache(maxsize=1)
def fresh_measurement() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return json.loads(result.stdout)


def test_default_verify_work_matches_reference():
    stored = json.loads((REFERENCE / "work-verify.json").read_text())
    assert fresh_measurement()["verify"] == stored


def test_scan_work_matches_reference():
    stored = json.loads((REFERENCE / "work-scan.json").read_text())
    assert fresh_measurement()["scan"] == stored


def test_eval_work_matches_reference():
    stored = json.loads((REFERENCE / "work-eval.json").read_text())
    assert fresh_measurement()["eval"] == stored


if __name__ == "__main__":
    counts = measure()
    if sys.argv[1:] == ["--write"]:
        for key, value in counts.items():
            text = json.dumps(value, indent=2) + "\n"
            (REFERENCE / f"work-{key}.json").write_text(text)
    else:
        print(json.dumps(counts))
