"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from s6quartic import Eisenstein, Polynomial
from s6quartic.checks import REGISTRY_CHECK_IDS
from s6quartic.cli import main
from test_checks import WIDE_ALPHABET

REFERENCE = Path(__file__).resolve().parent / "reference"


class TestVerifyCommand:
    def test_single_check_json(self, capsysbinary):
        code = main(["verify", "--check", "lemma-2-1", "--format", "json"])
        out, err = capsysbinary.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["check_id"] == "lemma-2-1"
        assert record["status"] == "pass"
        assert record["paper_anchor"] == "Lemma 2.1"

    def test_full_run_text(self, capsys):
        code = main(["verify"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert f"{len(REGISTRY_CHECK_IDS)}/{len(REGISTRY_CHECK_IDS)} checks passed" in out
        for cid in REGISTRY_CHECK_IDS:
            assert cid in out

    def test_repeatable_check_flag(self, capsysbinary):
        code = main(
            [
                "verify",
                "--check",
                "special-t",
                "--check",
                "smooth-quadrics",
                "--format",
                "json",
            ]
        )
        out, _ = capsysbinary.readouterr()
        ids = [json.loads(line)["check_id"] for line in out.splitlines()]
        assert code == 0
        assert ids == ["smooth-quadrics", "special-t"]

    def test_failing_cap_gives_exit_1(self, capsys):
        code = main(
            ["verify", "--check", "scan-todd", "--alphabet", WIDE_ALPHABET]
        )
        out, _ = capsys.readouterr()
        assert code == 1
        assert "error" in out
        assert "scan space 15^6 exceeds the cap 10000000" in out

    def test_unknown_check_gives_exit_2(self, capsys):
        code = main(["verify", "--check", "bogus"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "error: unknown check ids: bogus" in err

    def test_a_check_repeated_in_both_spellings_runs_once(self, capsysbinary):
        code = main(
            ["verify", "--check", "special-t", "--check=special-t", "--format",
             "json"]
        )
        out, _ = capsysbinary.readouterr()
        assert code == 0
        assert [json.loads(line)["check_id"] for line in out.splitlines()] == [
            "special-t"
        ]

    def test_check_id_with_a_leading_dash_is_a_config_error(self, capsys):
        # '-x' is the value of --check; no check has that id.
        code = main(["verify", "--check", "-x"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "error: unknown check ids: -x" in err

    def test_t_flag_reaches_exploratory_scan(self, capsysbinary):
        code = main(
            ["verify", "--check", "scan-todd", "--t", "7", "--format", "json"]
        )
        out, _ = capsysbinary.readouterr()
        record = json.loads(out.splitlines()[0])
        assert code == 0
        assert record["details"]["per_t"] == {"7": {"found": 0, "nodes": 0}}

    # Both members have the cube-root orbit; t = 6 has the sign orbit too.
    NEGATIVE_T = {
        "-3/2": {"found": 30, "nodes": 30},
        "6": {"found": 40, "nodes": 40},
    }

    def scan_todd_per_t(self, capsysbinary, *t_flags):
        code = main(
            ["verify", "--check", "scan-todd", *t_flags, "--t", "6",
             "--alphabet", "sixth_roots", "--format", "json"]
        )
        out, _ = capsysbinary.readouterr()
        assert code == 0
        return json.loads(out.splitlines()[0])["details"]["per_t"]

    def test_negative_fraction_t_after_a_space(self, capsysbinary):
        """The word after a value-taking option is its value, even when it
        starts with '-'."""
        per_t = self.scan_todd_per_t(capsysbinary, "--t", "-3/2")
        assert per_t == self.NEGATIVE_T

    def test_negative_fraction_t_after_an_equals_sign(self, capsysbinary):
        per_t = self.scan_todd_per_t(capsysbinary, "--t=-3/2")
        assert per_t == self.NEGATIVE_T

    @pytest.mark.parametrize(
        "alphabet,found", [("sixth_roots", 40), ("[1, -1, w]", 10)]
    )
    def test_alphabet_flag_reaches_exploratory_scan(
        self, capsysbinary, alphabet, found
    ):
        code = main(
            ["verify", "--check", "scan-todd", "--t", "6", "--alphabet",
             alphabet, "--format", "json"]
        )
        out, _ = capsysbinary.readouterr()
        record = json.loads(out.splitlines()[0])
        assert code == 0
        assert record["details"] == {
            "alphabet": alphabet,
            "per_t": {"6": {"found": found, "nodes": found}},
        }

    @pytest.mark.parametrize("alphabet", ["[w w]", "[]", "nope"])
    def test_bad_alphabet_is_the_error_scan_prints(self, capsys, alphabet):
        code = main(["scan", "--t", "6", "--alphabet", alphabet])
        _, scan_err = capsys.readouterr()
        assert code == 2
        assert scan_err.startswith("error: ")
        code = main(["verify", "--check", "scan-todd", "--alphabet", alphabet])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == scan_err

    def test_retired_config_flag_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nchecks = special-t\n")
        with pytest.raises(SystemExit) as info:
            main(["verify", "--config", str(path)])
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        assert "unrecognized arguments: --config" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--check", "scan-smoke", "--cap", "10"],
            ["scan", "--t", "6", "--alphabet", "pm1", "--cap", "5"],
        ],
        ids=["verify", "scan"],
    )
    def test_retired_cap_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        assert "unrecognized arguments: --cap" in err


class TestScanCommand:
    def test_named_alphabet(self, capsys):
        code = main(["scan", "--t", "6", "--alphabet", "pm1"])
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 10
        assert "[1 : 1 : 1 : -1 : -1 : -1]" in lines
        assert "found 10 singular point(s)" in err

    def test_inline_alphabet(self, capsys):
        code = main(["scan", "--t", "6", "--alphabet", "[1, -1]"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert len(out.splitlines()) == 10

    def test_empty_result(self, capsys):
        code = main(["scan", "--t", "7", "--alphabet", "pm1"])
        out, err = capsys.readouterr()
        assert code == 0
        assert out == ""
        assert "found 0 singular point(s)" in err

    def test_rational_t(self, capsys):
        code = main(["scan", "--t", "13/2", "--alphabet", "pm1"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == ""

    def test_unknown_alphabet(self, capsys):
        code = main(["scan", "--t", "6", "--alphabet", "nope"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "error:" in err

    def test_bad_t(self, capsys):
        code = main(["scan", "--t", "six", "--alphabet", "pm1"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "bad rational" in err

    def test_missing_t_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scan", "--t", "--alphabet", "pm1"])
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        assert "argument --t: expected one argument" in err

    def test_cap_exceeded(self, capsys):
        code = main(["scan", "--t", "6", "--alphabet", WIDE_ALPHABET])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: scan space 15^6 exceeds the cap 10000000\n"


class TestEvalCommand:
    def test_polynomial_at_point(self, capsys):
        code = main(
            ["eval", "--poly", "(x0 + w*x1)^2", "--point", "[1, w, 0, 0, 0, 0]"]
        )
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.strip() == "-1 - w"

    def test_coordinates_used_literally(self, capsys):
        # Coordinates are not rescaled before evaluation: doubling the
        # input multiplies a quartic value by 16.
        base = ["eval", "--poly", "x0^4"]
        assert main(base + ["--point", "[1, 0, 0, 0, 0, 0]"]) == 0
        one = capsys.readouterr().out.strip()
        assert main(base + ["--point", "[2, 0, 0, 0, 0, 0]"]) == 0
        sixteen = capsys.readouterr().out.strip()
        assert (one, sixteen) == ("1", "16")

    @pytest.mark.parametrize(
        "poly, value", [("-x0^2", "-1"), ("-w", "-w"), ("-x1 + 2", "2")]
    )
    def test_negated_poly_after_a_space(self, capsys, poly, value):
        """The word after --poly is its value, although it starts with
        '-'."""
        code = main(["eval", "--poly", poly, "--point", "[1, 0, 0, 0, 0, 0]"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == value + "\n"

    def test_parse_error(self, capsys):
        code = main(["eval", "--poly", "x0 +", "--point", "[1, 0, 0, 0, 0, 0]"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "unexpected token" in err

    def test_bad_point(self, capsys):
        code = main(["eval", "--poly", "x0", "--point", "[1, 2]"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "exactly 6 coordinates" in err


# Help and usage errors as printed at COLUMNS=80; help goes to stdout with
# exit 0, a usage error to stderr with exit 2.
HELP_PAGES = [
    ([], "help.txt"),
    (["verify"], "help-verify.txt"),
    (["scan"], "help-scan.txt"),
    (["eval"], "help-eval.txt"),
]
USAGE_ERRORS = [
    ([], "usage-no-command.txt"),
    (["verify", "--format", "yaml"], "usage-verify-format-yaml.txt"),
    (["scan", "--t", "6"], "usage-scan-no-alphabet.txt"),
    (["verify", "--config", "run.ini"], "usage-verify-config.txt"),
    (["scan", "--t", "--alphabet", "pm1"], "usage-scan-t-no-value.txt"),
]


class TestUsage:
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def exits(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        return (info.value.code, *capsys.readouterr())

    @pytest.mark.parametrize(
        "command, reference", HELP_PAGES, ids=[name for _, name in HELP_PAGES]
    )
    def test_help_matches_reference(self, command, reference, capsys):
        page = (REFERENCE / reference).read_text()
        for flag in ("--help", "-h"):
            assert self.exits([*command, flag], capsys) == (0, page, "")

    @pytest.mark.parametrize(
        "argv, reference", USAGE_ERRORS, ids=[name for _, name in USAGE_ERRORS]
    )
    def test_usage_error_matches_reference(self, argv, reference, capsys):
        message = (REFERENCE / reference).read_text()
        assert self.exits(argv, capsys) == (2, "", message)

    def test_help_after_a_command_and_its_options(self, capsys):
        page = (REFERENCE / "help-scan.txt").read_text()
        assert self.exits(["scan", "--t", "6", "-h"], capsys) == (0, page, "")

    def test_unambiguous_prefixes_name_their_options(self, capsys):
        code = main(["scan", "--alph", "pm1", "--t=6"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == (REFERENCE / "scan-t6-pm1.txt").read_text()
        code, out, err = self.exits(
            ["eval", "--po", "x0", "--point", "[1, 0, 0, 0, 0, 0]"], capsys
        )
        assert (code, out) == (2, "")
        assert err.endswith(
            "error: ambiguous option: --po could match --poly, --point\n"
        )

    def test_unrecognized_words_are_listed_in_order(self, capsys):
        code, out, err = self.exits(
            ["verify", "stray", "--check", "special-t", "-x", "--"], capsys
        )
        assert (code, out) == (2, "")
        assert err.endswith("s6quartic: error: unrecognized arguments: stray -x --\n")

    def test_unknown_command(self, capsys):
        code, out, err = self.exits(["foo"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "usage: s6quartic [-h] {verify,scan,eval} ...\n"
            "s6quartic: error: argument command: invalid choice: 'foo' "
            "(choose from 'verify', 'scan', 'eval')\n"
        )


class TestEntryPoints:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "s6quartic", "verify", "--check", "smooth-quadrics"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "smooth-quadrics" in result.stdout

    def test_scan_into_a_closed_pipe_exits_quietly(self):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("pipe capacity cannot be set on this platform")
        read_fd, write_fd = os.pipe()
        # One 4096-byte page holds less than the scan's 5,220 bytes, so the
        # scan is still writing when the reader closes after one line.
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        # Unbuffered stdout (python -u) drops the rest of a short write to a
        # closed pipe instead of raising, so the child runs buffered, as it
        # does by default.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "s6quartic", "scan", "--t", "0",
             "--alphabet", "sixth_roots"],
            stdout=write_fd,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_fd)
        first = os.read(read_fd, 128).split(b"\n")[0]
        os.close(read_fd)
        _, err = proc.communicate(timeout=60)
        assert first == b"[1 : -1 - w : -1 - w : w : w : 1]"
        assert b"Traceback" not in err
        assert err == b""
        assert proc.returncode == 1


class TestHostileInput:
    def test_deeply_nested_poly_is_a_clean_error(self, capsys):
        poly = "(" * 5000 + "x0" + ")" * 5000
        code = main(["eval", "--poly", poly, "--point", "[1, 0, 0, 0, 0, 0]"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: parentheses nested deeper than")
        assert "Traceback" not in err

    # (x0 + ... + x5 + 1)^8 has 3,003 terms and the top exponent 8 in every
    # variable.  At the six coordinates (3 + w)/p^k its rows of coordinate
    # powers take 8 * (sum of the coordinate widths) bits.
    DENSE = "(x0 + x1 + x2 + x3 + x4 + x5 + 1)^8"
    PRIMES = (2**61 - 1, 2**59 - 55, 2**57 - 13, 2**55 - 55, 2**53 - 111, 2**51 - 129)

    def dense_point(self, k):
        return "[" + ", ".join(f"(3 + w)/{p}^{k}" for p in self.PRIMES) + "]"

    def test_evaluation_past_the_row_bound_is_refused(self, capsys):
        # Unbounded, this evaluation ran for more than 90 s.
        code = main(["eval", "--poly", self.DENSE, "--point", self.dense_point(100)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == (
            "error: evaluation exceeds 65536 bits "
            "(268800 bits of coordinate powers)\n"
        )

    def test_evaluation_under_the_row_bound_prints_its_value(self, capsys):
        # 26,880 bits of rows: evaluated, and printed past the default
        # limit on decimal digits.
        coords = [Eisenstein(Fraction(3, p**10), Fraction(1, p**10))
                  for p in self.PRIMES]
        expected = (sum(coords, Eisenstein(1))) ** 8
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code = main(["eval", "--poly", self.DENSE, "--point", self.dense_point(10)])
            out, err = capsys.readouterr()
            assert (code, err) == (0, "")
            assert out == f"{expected}\n"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_a_wide_coordinate_that_no_term_raises_is_evaluated(self, capsys):
        # The degree times the widest coordinate is 200 * 55,001 bits, but
        # no term holds x1, so its row holds only x1^0.
        point = "[1, 2^1000^55, 0, 0, 0, 0]"
        code = main(["eval", "--poly", "x0^200", "--point", point])
        assert (code, *capsys.readouterr()) == (0, "1\n", "")

    def test_a_wide_common_denominator_is_refused_before_evaluating(
        self, capsys, monkeypatch
    ):
        # Each coefficient 1/p^1000 has 60,000 bits, but over the 80 largest
        # primes below 2^60 their common denominator has 4.8 million.  (A
        # base-2 Fermat test passes no composite in this range.)  Unbounded,
        # the evaluation ran 105 s, and the value was then too large to print.
        primes = [
            n for n in range(2**60 - 1, 2**60 - 10**4, -2) if pow(2, n - 1, n) == 1
        ][:80]
        poly = "+".join(f"x0^{k}/{p}^1000" for k, p in enumerate(primes, 1))

        def evaluate(*args):
            raise AssertionError("evaluated")

        monkeypatch.setattr(Polynomial, "evaluate", evaluate)
        code = main(["eval", "--poly", poly, "--point", "[1, 0, 0, 0, 0, 0]"])
        assert (code, *capsys.readouterr()) == (
            2,
            "",
            "error: evaluation exceeds 65536 bits "
            "(the common denominator of the coefficients)\n",
        )

    def test_huge_expansion_is_a_clean_error(self, capsys):
        poly = "(x0+x1+x2+x3+x4+x5+w)^60"
        code = main(["eval", "--poly", poly, "--point", "[1, 0, 0, 0, 0, 0]"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: expansion exceeds")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["eval", "--poly", "x0²", "--point", "[1, 2, 3, 4, 5, 6]"],
                "error: unexpected character '²' (at position 2)",
            ),
            (
                ["eval", "--poly", "x0", "--point", "[1,2,3,4,5,²]"],
                "error: unexpected character '²' (at position 11)",
            ),
            (
                ["scan", "--t", "6", "--alphabet", "[²]"],
                "error: bad alphabet list: unexpected character '²' "
                "(at position 1)",
            ),
            (
                # Arabic-Indic three is a Unicode digit but not a grammar one,
                # so this is not x3.
                ["eval", "--poly", "x٣", "--point", "[1, 2, 3, 4, 5, 6]"],
                "error: unknown name 'x' (at position 0)",
            ),
            (
                ["eval", "--poly", "1" + "0" * 5000, "--point", "[1, 0, 0, 0, 0, 0]"],
                "error: integer literal too long (5001 digits) (at position 0)",
            ),
            (
                ["eval", "--poly", "x0^1000", "--point", "[100000, 1, 1, 1, 1, 1]"],
                "error: result too large to print (more than "
                f"{sys.get_int_max_str_digits()} digits)",
            ),
            (
                ["eval", "--poly", "(1/3)^1000^1000^10", "--point", "[1,0,0,0,0,0]"],
                "error: constant exceeds 65536 bits (at position 10)",
            ),
            (
                # Fraction would build a 33-million-bit int for this.
                ["scan", "--t", "1e10000000", "--alphabet", "pm1"],
                "error: bad rational '1e10000000': "
                "exponent notation is not accepted",
            ),
            (
                ["verify", "--check", "scan-todd", "--t", "2E3"],
                "error: bad rational '2E3': exponent notation is not accepted",
            ),
            (
                # Unbounded, the hundred factors took seconds to fold.
                ["eval", "--poly", "*".join(["3^1000^41"] * 100),
                 "--point", "[1,0,0,0,0,0]"],
                "error: constant exceeds 65536 bits (at position 9)",
            ),
            (
                ["eval", "--poly", "x0*" + "*".join(["3^1000^41"] * 100),
                 "--point", "[1,0,0,0,0,0]"],
                "error: constant exceeds 65536 bits (at position 12)",
            ),
            (
                # Unbounded, this power took 21 s to expand.
                ["eval", "--poly", "(x0+3^1000^41)^32", "--point", "[1,0,0,0,0,0]"],
                "error: constant exceeds 65536 bits (at position 14)",
            ),
            (
                # Unbounded, this sum over the first 32 odd primes took over
                # a minute to fold.
                ["eval", "--poly", "+".join(
                    f"1/{p}^1000^{65536 // ((p**1000).bit_length() + 2)}"
                    for p in range(3, 138)
                    if all(p % d for d in range(2, p))
                ), "--point", "[1,0,0,0,0,0]"],
                "error: constant exceeds 65536 bits (at position 11)",
            ),
            (
                # Unbounded, evaluating this degree 10^9 power took over 30 s.
                ["eval", "--poly", "x0^1000^1000^1000", "--point", "[1,1,1,1,1,1]"],
                "error: degree exceeds 1000 (at position 7)",
            ),
            (
                # Unbounded, this degree 10^6 power ended in a MemoryError.
                ["eval", "--poly", "x0^1000^1000", "--point", "[2,1,1,1,1,1]"],
                "error: degree exceeds 1000 (at position 7)",
            ),
            (
                # Unbounded, the powers of this 65,001-bit coordinate ended in
                # a MemoryError.
                ["eval", "--poly", "x0^1000", "--point", "[2^1000^65,1,1,1,1,1]"],
                "error: evaluation exceeds 65536 bits "
                "(65001000 bits of coordinate powers)",
            ),
            (
                ["eval", "--poly", "x0^300", "--point", "[2^1000^65,1,1,1,1,1]"],
                "error: evaluation exceeds 65536 bits "
                "(19500300 bits of coordinate powers)",
            ),
            (
                # Fraction reads Arabic-Indic three as 3.
                ["scan", "--t", "\u0663", "--alphabet", "sixth_roots"],
                "error: bad rational '\u0663': "
                "only ASCII digits without '_' are accepted",
            ),
            (
                ["verify", "--check", "scan-todd", "--t", "\uff16"],
                "error: bad rational '\uff16': "
                "only ASCII digits without '_' are accepted",
            ),
            (
                ["scan", "--t", "1_000", "--alphabet", "pm1"],
                "error: bad rational '1_000': "
                "only ASCII digits without '_' are accepted",
            ),
            (
                # Fraction's own message was 'Fraction(3, 0)'.
                ["scan", "--t", "3/0", "--alphabet", "pm1"],
                "error: bad rational '3/0': zero denominator",
            ),
            (
                ["verify", "--check", "scan-todd", "--t", "7/00"],
                "error: bad rational '7/00': zero denominator",
            ),
            (
                # int() refused this with advice to raise its digit limit.
                # The message echoes the first 32 characters alone.
                ["scan", "--t", "1" + "0" * 4999, "--alphabet", "pm1"],
                f"error: bad rational '1{'0' * 31}'… (5000 chars): "
                "literal too long (5000 digits)",
            ),
            (
                ["verify", "--check", "scan-todd", "--t", "0." + "3" * 5000],
                f"error: bad rational '0.{'3' * 30}'… (5002 chars): "
                "literal too long (5000 digits)",
            ),
            (
                ["scan", "--t", "-" + "1" * 40 + "/0", "--alphabet", "pm1"],
                f"error: bad rational '-{'1' * 31}'… (43 chars): "
                "zero denominator",
            ),
        ],
    )
    def test_non_ascii_and_oversized_numbers_are_clean_errors(
        self, capsys, argv, message
    ):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == message + "\n"
