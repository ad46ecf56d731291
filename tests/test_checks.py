"""Unit tests for the verification harness: registry, config, reports."""

import json
import sys
from fractions import Fraction

import pytest

from s6quartic import (
    DEFAULT_ALPHABETS,
    Eisenstein,
    OMEGA,
    RunConfig,
    all_passed,
    emit_report,
    run_checks,
)
from s6quartic import checks, perms, varieties
from s6quartic.checks import (
    ALL_CHECK_IDS,
    REGISTRY_CHECK_IDS,
    CheckRecord,
    ConfigError,
    alphabet_letters,
)

# Fifteen letters: the smallest alphabet whose scan space, 15^6, exceeds
# SCAN_CAP, so a scan over it is refused before any work is done.
WIDE_ALPHABET = "[0,1,-1,2,-2,3,-3,4,-4,5,-5,6,-6,7,-7]"

EXPECTED_DETAILS = {
    "group-structure": {
        "complement_order": 4,
        "group_order": 20,
        "normal_subgroup_orders": [1, 5, 10, 20],
        "semidirect": True,
        "translation_order": 5,
    },
    "lemma-2-1": {
        "expected": [True, False, True, False],
        "q1": [True, False, True, False],
        "q2": [True, False, True, False],
    },
    "lemma-2-2": {
        "expected_pairs": [
            [0, 0],
            [0, 2],
            [1, 1],
            [1, 2],
            [3, 0],
            [3, 3],
            [4, 0],
            [4, 2],
        ],
        "q1_bullets": [True, True, True, True],
        "q1_hit_pairs": [
            [0, 0],
            [0, 2],
            [1, 1],
            [1, 2],
            [3, 0],
            [3, 3],
            [4, 0],
            [4, 2],
        ],
        "q2_bullets": [True, True, True, True],
        "q2_hit_pairs": [
            [0, 0],
            [0, 2],
            [1, 1],
            [1, 2],
            [3, 0],
            [3, 3],
            [4, 0],
            [4, 2],
        ],
    },
    "divisor-incidence": {
        "distinct_through_point": 4,
        "hit_count": 8,
        "multiplicities": [2, 2, 2, 2],
        "orbit_size": 10,
        "stabilizer": ["[1, 2, 3, 4, 5]", "[2, 1, 5, 4, 3]"],
        "stabilizer_order": 2,
    },
    "smooth-quadrics": {"gram_ranks": [4, 4]},
    "factorization": {"factors": True, "scalar": "8"},
    "sing-orbits": {"all_singular": True, "disjoint": True, "orbit_sizes": [30, 10]},
    "node-types": {"node_count": 40, "points": 40},
    "s-fixes-q1": {"fixes_quadric": True, "moves_base_point": True},
    "irrep-degrees": {"degrees": [1, 1, 1, 1, 4]},
    "h-invariant-p3": {"points_checked": 40, "violations": []},
    "special-t": {"cube_root_point": "all-t", "sign_point": "{6}"},
    "scan-smoke": {"t6_count": 10, "t6_matches_sign_orbit": True, "t7_count": 0},
}

EXPECTED_ANCHORS = {
    "group-structure": "§2.2",
    "lemma-2-1": "Lemma 2.1",
    "lemma-2-2": "Lemma 2.2",
    "divisor-incidence": "Eq. (2.2)",
    "smooth-quadrics": "§2.3",
    "factorization": "§2.1",
    "sing-orbits": "§2.3",
    "node-types": "Example 1.2",
    "s-fixes-q1": "§2.3",
    "irrep-degrees": "Lemma not-gl-3",
    "h-invariant-p3": "§3",
    "special-t": "§1",
    "scan-smoke": "Example 1.2",
}


@pytest.fixture(scope="module")
def full_run():
    return run_checks(RunConfig())


@pytest.fixture(scope="module")
def full_json(full_run):
    report = emit_report(full_run, "structured")
    return [json.loads(line) for line in report.decode("utf-8").splitlines()]


class TestRegistryRun:
    def test_every_registered_check_passes(self, full_run):
        assert [r.check_id for r in full_run] == list(REGISTRY_CHECK_IDS)
        assert all(r.status == "pass" for r in full_run)
        assert all_passed(full_run)

    def test_exploratory_check_not_in_default_run(self, full_run):
        assert "scan-todd" not in {r.check_id for r in full_run}
        assert "scan-todd" in ALL_CHECK_IDS

    def test_frozen_details(self, full_json):
        assert len(full_json) == len(EXPECTED_DETAILS)
        for rec in full_json:
            assert rec["details"] == EXPECTED_DETAILS[rec["check_id"]]

    def test_frozen_anchors(self, full_json):
        for rec in full_json:
            assert rec["paper_anchor"] == EXPECTED_ANCHORS[rec["check_id"]]

    def test_record_shape(self, full_run):
        rec = full_run[0]
        assert isinstance(rec, CheckRecord)
        assert rec.status in ("pass", "fail", "error")
        assert isinstance(rec.elapsed, int)
        assert rec.elapsed >= 0

    def test_selection_runs_in_registry_order(self):
        cfg = RunConfig(selected_checks=("special-t", "lemma-2-1", "special-t"))
        records = run_checks(cfg)
        assert [r.check_id for r in records] == ["lemma-2-1", "special-t"]

    def test_single_check_details_match_full_run(self, full_json):
        by_id = {rec["check_id"]: rec["details"] for rec in full_json}
        for cid in ("lemma-2-1", "smooth-quadrics", "irrep-degrees", "special-t"):
            solo = run_checks(RunConfig(selected_checks=(cid,)))
            solo_json = json.loads(emit_report(solo, "structured").decode())
            assert solo_json["details"] == by_id[cid]

    def test_runs_are_deterministic(self, full_json):
        again = run_checks(RunConfig())
        stripped = []
        for line in emit_report(again, "structured").decode().splitlines():
            rec = json.loads(line)
            rec.pop("elapsed")
            stripped.append(rec)
        baseline = []
        for rec in full_json:
            rec = dict(rec)
            rec.pop("elapsed")
            baseline.append(rec)
        assert stripped == baseline


class TestExploratoryScan:
    def test_vacuous_parameters_still_pass(self):
        cfg = RunConfig(
            selected_checks=("scan-todd",),
            t_values=(Fraction(10), Fraction(7)),
        )
        (record,) = run_checks(cfg)
        assert record.status == "pass"
        assert record.details == {
            "alphabet": "pm1",
            "per_t": {"10": {"found": 0, "nodes": 0}, "7": {"found": 0, "nodes": 0}},
        }

    def test_productive_parameters_find_nodes(self):
        cfg = RunConfig(selected_checks=("scan-todd",), t_values=(Fraction(6),))
        (record,) = run_checks(cfg)
        assert record.status == "pass"
        assert record.details["per_t"] == {"6": {"found": 10, "nodes": 10}}

    def test_repeated_t_is_scanned_once(self, monkeypatch):
        calls = []
        scan = checks.scan_alphabet

        def counting(t, *args):
            calls.append(t)
            return scan(t, *args)

        monkeypatch.setattr(checks, "scan_alphabet", counting)
        cfg = RunConfig(
            selected_checks=("scan-todd",),
            t_values=(Fraction(6), Fraction(12, 2), Fraction(3, 2), 6),
        )
        (record,) = run_checks(cfg)
        assert calls == [Fraction(6), Fraction(3, 2)]
        assert record.details["per_t"] == {
            "6": {"found": 10, "nodes": 10},
            "3/2": {"found": 0, "nodes": 0},
        }

    def test_exploratory_after_registry_checks(self):
        cfg = RunConfig(
            selected_checks=("scan-todd", "group-structure"),
            t_values=(Fraction(7),),
        )
        records = run_checks(cfg)
        assert [r.check_id for r in records] == ["group-structure", "scan-todd"]


class TestErrorContainment:
    def test_one_failing_check_does_not_poison_others(self):
        cfg = RunConfig(
            selected_checks=("scan-todd", "special-t"), scan_alphabet=WIDE_ALPHABET
        )
        records = run_checks(cfg)
        by_id = {r.check_id: r for r in records}
        assert by_id["special-t"].status == "pass"
        assert by_id["scan-todd"].status == "error"
        assert by_id["scan-todd"].details == {
            "error": "ValueError: scan space 15^6 exceeds the cap 10000000"
        }
        assert not all_passed(records)

    @pytest.mark.parametrize("t", [0.1, 6.0, "6"], ids=repr)
    def test_float_or_text_parameter_is_an_error_record(self, t):
        cfg = RunConfig(selected_checks=("scan-todd",), t_values=(Fraction(6), t))
        (record,) = run_checks(cfg)
        assert record.status == "error"
        assert record.details == {
            "error": f"TypeError: a family parameter is an int or Fraction, not {t!r}"
        }


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"selected_checks": ("bogus",)}, "unknown check ids: bogus"),
            (
                {"selected_checks": ("scan-todd", "zeta", "bogus")},
                "unknown check ids: bogus, zeta",
            ),
            (
                {"selected_checks": ("scan-todd",), "t_values": ()},
                "t_values must be nonempty",
            ),
            (
                {"scan_alphabet": "[1, x0]"},
                "bad alphabet list: list entries must be constants",
            ),
            ({"scan_alphabet": "missing"}, "unknown alphabet 'missing'"),
            (
                {"selected_checks": ("special-t", "scan-todd"), "t_values": ()},
                "t_values must be nonempty",
            ),
            ({"scan_alphabet": "[w w]"}, "bad alphabet list: expected ']'"),
            ({"scan_alphabet": "[]"}, "bad alphabet list: empty list"),
        ],
    )
    def test_invalid_configs_rejected(self, overrides, message):
        cfg = RunConfig(**overrides)
        with pytest.raises(ConfigError) as info:
            run_checks(cfg)
        assert message in str(info.value)

    def test_empty_t_values_only_matter_to_the_scan(self):
        # The default selection is the registry, which never reads t_values.
        records = run_checks(RunConfig(t_values=()))
        assert [r.check_id for r in records] == list(REGISTRY_CHECK_IDS)
        assert {r.status for r in records} == {"pass"}

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_default_alphabets(self):
        assert DEFAULT_ALPHABETS["pm1"] == (1, -1)
        assert DEFAULT_ALPHABETS["zero_pm1"] == (0, 1, -1)
        assert len(DEFAULT_ALPHABETS["cube_roots"]) == 3
        assert len(DEFAULT_ALPHABETS["sixth_roots"]) == 6

    def test_run_config_fields(self):
        assert RunConfig._fields == (
            "selected_checks",
            "t_values",
            "scan_alphabet",
        )

    def test_run_config_defaults(self):
        cfg = RunConfig()
        assert cfg.selected_checks == ()
        assert cfg.t_values == (Fraction(6),)
        assert cfg.scan_alphabet == "pm1"

    def test_run_config_is_immutable(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.scan_alphabet = "zero_pm1"
        assert cfg._replace(scan_alphabet="zero_pm1").scan_alphabet == "zero_pm1"
        assert cfg == RunConfig()

    def test_inline_scan_alphabet(self):
        assert alphabet_letters(" [1, w] ") == (Eisenstein(1), OMEGA)
        assert alphabet_letters("cube_roots") is DEFAULT_ALPHABETS["cube_roots"]
        cfg = RunConfig(selected_checks=("scan-todd",), scan_alphabet="[1, w]")
        (record,) = run_checks(cfg)
        assert record.status == "pass"
        assert record.details == {
            "alphabet": "[1, w]",
            "per_t": {"6": {"found": 0, "nodes": 0}},
        }


class TestReports:
    def fabricated(self):
        return [
            CheckRecord(
                check_id="lemma-2-1",
                paper_anchor="Lemma 2.1",
                status="pass",
                details={"q1": [True]},
                elapsed=3,
            ),
            CheckRecord(
                check_id="special-t",
                paper_anchor="§1",
                status="fail",
                details={"sign_point": "{7}"},
                elapsed=1,
            ),
        ]

    def test_structured_bytes(self):
        report = emit_report(self.fabricated(), "structured")
        assert isinstance(report, bytes)
        lines = report.decode("ascii").splitlines()
        assert len(lines) == 2
        assert '"status":"pass"' in lines[0]
        assert '"check_id":"lemma-2-1"' in lines[0]
        # Non-ASCII anchors are escaped, keeping the stream pure ASCII.
        assert "\\u00a7" in lines[1]

    def test_structured_keys_sorted_and_compact(self):
        line = emit_report(self.fabricated(), "structured").decode().splitlines()[0]
        keys = list(json.loads(line))
        assert keys == sorted(keys)
        assert ": " not in line and ", " not in line

    def test_byte_stability(self):
        assert emit_report(self.fabricated(), "structured") == emit_report(
            self.fabricated(), "structured"
        )
        assert emit_report(self.fabricated(), "text") == emit_report(
            self.fabricated(), "text"
        )

    def test_structured_empty(self):
        assert emit_report([], "structured") == b""

    def test_text_table(self):
        text = emit_report(self.fabricated(), "text").decode("utf-8")
        lines = text.splitlines()
        assert lines[0].split() == ["CHECK", "ANCHOR", "STATUS", "ELAPSED"]
        assert set(lines[1]) == {"-"}
        assert "lemma-2-1" in lines[2]
        assert "1/2 checks passed" in text
        # Failing records carry a detail line.
        assert "sign_point" in text

    def test_text_empty(self):
        text = emit_report([], "text").decode("utf-8")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("CHECK")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")


class TestColdRunWork:
    """The deterministic work of one default run with the checks' caches
    empty: each group action is computed once and no S6 is built."""

    def test_each_group_action_is_computed_once(self, monkeypatch):
        counts = {"act_on_variety": 0, "canonicalize": 0, "Permutation": 0}
        group_orders = []

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        # act_on_variety is imported by name into other modules; replace it
        # wherever it is bound.
        original = varieties.act_on_variety
        wrapped = counting("act_on_variety", original)
        for name, module in list(sys.modules.items()):
            if name.startswith("s6quartic") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapped)
        monkeypatch.setattr(
            varieties,
            "canonicalize",
            counting("canonicalize", varieties.canonicalize),
        )
        monkeypatch.setattr(
            perms.Permutation,
            "__init__",
            counting("Permutation", perms.Permutation.__init__),
        )
        group_init = perms.PermGroup.__init__

        def recording_group_init(self, elements, degree):
            group_init(self, elements, degree)
            group_orders.append(self.order)

        monkeypatch.setattr(perms.PermGroup, "__init__", recording_group_init)
        for value in list(vars(checks).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()

        assert all_passed(run_checks(RunConfig()))
        assert counts["act_on_variety"] <= 41
        assert counts["canonicalize"] <= 30
        assert counts["Permutation"] <= 300
        assert 720 not in group_orders
