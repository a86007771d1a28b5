import json
from pathlib import Path

import pytest

from conhist.cli import main
from conhist.famspec import scenario_to_famspec
from conhist.scenarios import build_hardy

DATA = Path(__file__).parent / "data"

MINIMAL = """
space q dim 2
ket up in q = [1, 0]
ket plus in q = [0.70710678118654752, 0.70710678118654752]
ket minus in q = [0.70710678118654752, -0.70710678118654752]
unitary idq on q = [1 0 0 1]
proj pplus on q = span(plus)
proj pminus on q = span(minus)
decomp xbasis on q = {pplus, pminus}
times tg = [0, 1, 2]
family split times tg initial up {
  at 0: identity
  at 1: xbasis
  at 2: xbasis
} steps { idq idq }
"""

EVENTS_OK = {
    "events": [
        {
            "id": "src",
            "regions": [
                {"cells": [0], "surface": {"xs": [-10, 10], "ts": [0, 0]}}
            ],
        },
        {
            "id": "det",
            "regions": [
                {"cells": [2], "surface": {"xs": [-10, 10], "ts": [5, 5]}}
            ],
        },
    ]
}

EVENTS_BAD = {
    "events": [
        {
            "id": "psi-flat",
            "regions": [
                {"cells": [11], "surface": {"xs": [-20, 20], "ts": [1, 1]}},
                {"cells": [13], "surface": {"xs": [-20, 20], "ts": [1, 1]}},
            ],
        },
        {
            "id": "psi-boosted",
            "regions": [
                {"cells": [10], "surface": {"xs": [-20, 20], "ts": [-24.2, 7.8]}},
                {"cells": [14], "surface": {"xs": [-20, 20], "ts": [-24.2, 7.8]}},
            ],
        },
    ]
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_consistent_family_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--scenario", "spin-half", "--family", "F1")
        assert code == 0
        assert "consistent" in out

    def test_inconsistent_family_exit_one_with_pair(self, capsys):
        code, out, _ = run(
            capsys, "check", "--scenario", "spin-half", "--family", "F1-remerge"
        )
        assert code == 1
        assert "INCONSISTENT" in out
        assert "violation" in out

    def test_missing_family_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "--scenario", "spin-half")
        assert code == 2

    def test_unknown_family_is_input_error(self, capsys):
        code, _, err = run(capsys, "check", "--scenario", "spin-half", "--family", "nope")
        assert code == 3
        assert "available" in err

    def test_famspec_file_source(self, capsys, tmp_path):
        path = tmp_path / "doc.fam"
        path.write_text(MINIMAL)
        code, out, _ = run(capsys, "check", "--file", str(path), "--family", "split")
        assert code == 0

    def test_exported_hardy_file_matches_the_built_in(self, capsys, tmp_path):
        scn = build_hardy()
        path = tmp_path / "hardy.fam"
        path.write_text(scenario_to_famspec(scn))
        for family in sorted(scn.families):
            for command in ("check", "probs"):
                argv = [command, "--family", family, "--format", "json"]
                code, out, err = run(capsys, *argv, "--scenario", "hardy")
                file_code, file_out, file_err = run(capsys, *argv, "--file", str(path))
                assert (file_code, file_err) == (code, err)
                if command == "probs" and code == 1:  # an inconsistent family is refused
                    assert file_out == out == ""
                else:
                    assert json.loads(file_out)["results"] == json.loads(out)["results"]

    def test_parse_error_exit_three(self, capsys, tmp_path):
        path = tmp_path / "bad.fam"
        path.write_text("space q dim 2\nunitary u on q = [1 0 0 2]\n")
        code, _, err = run(capsys, "check", "--file", str(path), "--family", "split")
        assert code == 3
        assert "non-unitary" in err

    def test_oversized_family_exit_three(self, capsys):
        # 2^19 histories, over the enumeration cap: an input error, not a verdict
        path = DATA / "too_many_histories.fam"
        code, out, err = run(capsys, "check", "--file", str(path), "--family", "big")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "524288 histories" in err

    def test_tolerance_flags_change_verdict(self, capsys):
        code, _, _ = run(capsys, "check", "--scenario", "hardy", "--family", "blocker")
        assert code == 1
        code, _, _ = run(
            capsys, "check", "--scenario", "hardy", "--family", "blocker",
            "--tol-rel", "10.0",
        )
        assert code == 0

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-12", "tiny"])
    def test_bad_tolerance_is_usage_error(self, capsys, flag, value):
        # a NaN threshold would make every overlap comparison false
        code, out, err = run(
            capsys, "check", "--scenario", "hardy", "--family", "blocker", f"{flag}={value}"
        )
        assert code == 2
        assert out == ""
        assert flag in err


class TestProbs:
    def test_hardy_event_query(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--scenario", "hardy", "--family", "unitary-output",
            "--event", "e,ebar",
        )
        assert code == 0
        assert "0.0833333333333333" in out

    def test_event_query_under_custom_tolerances(self, capsys):
        # blocker is inconsistent at the default tolerances but passes at
        # --tol-abs 1; the event is summed over the table just printed.
        code, out, _ = run(
            capsys, "probs", "--scenario", "hardy", "--family", "blocker",
            "--tol-abs", "1", "--event", "e", "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        rows = [r["probability"] for r in results["probabilities"] if "e" in r["history"]]
        assert len(rows) >= 2
        [event] = results["events"]
        assert event["labels"] == ["e"]
        assert event["probability"] == pytest.approx(sum(rows), rel=1e-12)

    def test_epr_f4_quarter_rows(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--scenario", "epr", "--family", "F4", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        probs = [e["probability"] for e in report["results"]["probabilities"]]
        quarters = [p for p in probs if abs(p - 0.25) < 1e-9]
        assert len(quarters) == 4

    def test_inconsistent_family_refused(self, capsys):
        code, _, err = run(
            capsys, "probs", "--scenario", "spin-half", "--family", "F1-remerge"
        )
        assert code == 1
        assert "single framework rule" in err

    def test_conditional_query(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--scenario", "spin-half", "--family", "G1",
            "--target", "t3=x+X", "--given", "t5=x+X+",
        )
        assert code == 0
        assert "= 1" in out

    def test_results_json_deterministic(self, capsys):
        argv = ["probs", "--scenario", "hardy", "--family", "unitary-output",
                "--format", "json"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        r1 = out1[out1.index('"results"'):out1.index('"wall_time_s"')]
        r2 = out2[out2.index('"results"'):out2.index('"wall_time_s"')]
        assert code1 == code2 == 0
        assert r1 == r2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--scenario", "epr", "--family", "F1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("history,probability")
        assert any("0.5" in line for line in lines[1:])


class TestCompat:
    def test_kinematic_pair(self, capsys):
        code, out, _ = run(capsys, "compat", "--scenario", "spin-half", "F1", "F2")
        assert code == 1
        assert "kinematic-incompatible" in out

    def test_identical(self, capsys):
        code, out, _ = run(capsys, "compat", "--scenario", "spin-half", "F1", "F1")
        assert code == 0
        assert "identical" in out

    def test_dynamic_pair_from_file(self, capsys, tmp_path):
        text = MINIMAL + """
proj pup on q = span(up)
ket down in q = [0, 1]
proj pdown on q = span(down)
decomp zbasis on q = {pup, pdown}
family fmid times tg initial up {
  at 0: identity
  at 1: xbasis
  at 2: identity
} steps { idq idq }
family flate times tg initial up {
  at 0: identity
  at 1: identity
  at 2: zbasis
} steps { idq idq }
"""
        path = tmp_path / "doc.fam"
        path.write_text(text)
        code, out, _ = run(capsys, "compat", "--file", str(path), "fmid", "flate")
        assert code == 1
        assert "dynamic-incompatible" in out

    def test_mismatched_dynamics_is_input_error(self, capsys, tmp_path):
        text = MINIMAL + """
unitary flip on q = [0 1 1 0]
times tg2 = [0, 1]
family other times tg2 initial up {
  at 0: identity
  at 1: xbasis
} steps { flip }
"""
        path = tmp_path / "doc.fam"
        path.write_text(text)
        code, _, err = run(capsys, "compat", "--file", str(path), "split", "other")
        assert code == 3
        assert "different dynamics" in err


class TestScenario:
    @pytest.mark.parametrize("name", ["spin-half", "epr", "hardy"])
    def test_suite_passes(self, capsys, name):
        code, out, _ = run(capsys, "scenario", name, "--suite")
        assert code == 0
        assert "FAIL" not in out
        assert "[paper]" in out

    def test_summary_mode(self, capsys):
        code, out, _ = run(capsys, "scenario", "hardy")
        assert code == 0
        assert "families" in out

    def test_unknown_scenario(self, capsys):
        code, _, err = run(capsys, "scenario", "nope", "--suite")
        assert code == 3
        assert "available" in err

    def test_json_suite_report(self, capsys):
        code, out, _ = run(capsys, "scenario", "epr", "--suite", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["results"]["passed"] is True
        assert all(c["passed"] for c in report["results"]["checks"])


class TestEmbed:
    def test_embedding_success(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(EVENTS_OK))
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 0
        assert "surface" in out

    def test_embedding_failure_names_witness(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(EVENTS_BAD))
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 1
        assert "psi-" in out

    def test_bad_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "embed", str(path))
        assert code == 3

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(EVENTS_OK))
        code, out, _ = run(capsys, "embed", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["embedded"] is True
        assert len(report["results"]["foliation"]["surfaces"]) == 2
