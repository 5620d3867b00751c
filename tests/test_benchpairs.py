"""``tools/benchpairs.py``'s result parsing and pair summary on synthetic
result lines; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_SPEC = importlib.util.spec_from_file_location("benchpairs", _SCRIPT)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)

METRICS = [
    {"name": "step_ms", "unit": "ms", "better": "lower"},
    {"name": "rate", "unit": "1/s", "better": "higher"},
]


def result(correct=True, failed=0, **values) -> dict:
    metrics = {name: {"value": value, "unit": "x"} for name, value in values.items()}
    return {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}


def line_for(name: str, pairs) -> str:
    (line,) = [l for l in benchpairs.summarize(pairs, METRICS) if l.startswith(name)]
    return line


def test_parse_result_reads_last_line():
    out = "perfbench track-paper\nmetric step_ms = 1\n" + json.dumps(result(step_ms=1.5)) + "\n\n"
    assert benchpairs.metric_value(benchpairs.parse_result(out), "step_ms") == 1.5
    assert benchpairs.parse_result("perfbench: no operation completed\n") is None
    assert benchpairs.parse_result("") is None
    assert benchpairs.parse_result('{"correct": true}') is None


def test_claim_holds_when_nine_of_ten_win_beyond_the_parent_spread():
    # Parent 100..109 (quartiles 102.25 and 106.75); the change is 10 ms
    # lower in nine pairs and ties the first, so its median is 95.5.
    pairs = [(result(step_ms=100.0 + i), result(step_ms=90.0 + i if i else 100.0))
             for i in range(10)]
    line = line_for("step_ms", pairs)
    assert "parent 104.5 (quartiles 102.25 106.75)" in line
    assert "change 95.5 (quartiles 93.25 97.75)" in line
    assert "change won 9 of 10 pairs" in line
    assert "median gain +9 against parent IQR 4.5" in line
    assert "claim holds" in line


def test_claim_needs_nine_tenths_of_the_pairs():
    pairs = [(result(step_ms=100.0), result(step_ms=80.0 if i < 8 else 120.0)) for i in range(10)]
    line = line_for("step_ms", pairs)
    assert "change won 8 of 10 pairs" in line
    assert "claim does not hold" in line


def test_claim_needs_a_gap_beyond_the_parent_spread():
    # The change wins every pair by 1, but the parent's own runs spread by 4.5.
    pairs = [(result(step_ms=100.0 + i), result(step_ms=99.0 + i)) for i in range(10)]
    line = line_for("step_ms", pairs)
    assert "change won 10 of 10 pairs" in line
    assert "claim does not hold" in line


def test_higher_is_better_counts_the_other_way():
    pairs = [(result(rate=1.0), result(rate=2.0)) for _ in range(10)]
    assert "change won 10 of 10 pairs" in line_for("rate", pairs)
    assert "change won 0 of 10 pairs" in line_for("step_ms", [
        (result(step_ms=1.0), result(step_ms=2.0)) for _ in range(10)
    ])


def test_pairs_without_the_metric_are_left_out():
    pairs = [(result(step_ms=2.0), result(step_ms=1.0)), (None, result(step_ms=1.0)),
             (result(step_ms=2.0), result(step_ms=None))]
    assert "change won 1 of 1 pairs" in line_for("step_ms", pairs)
    assert line_for("rate", pairs) == "rate: no pair has it"


def test_problems_name_every_bad_run():
    pairs = [(result(step_ms=1.0), result(step_ms=1.0)),
             (None, result(correct=False, step_ms=1.0)),
             (result(failed=2, step_ms=1.0), result(step_ms=1.0))]
    assert benchpairs.problems(pairs) == [
        "pair 1 parent: no result",
        "pair 1 change: correct=False failed=0",
        "pair 2 parent: correct=True failed=2",
    ]


def test_sides_alternate():
    assert [benchpairs.SIDES[benchpairs.first_side(i)] for i in range(4)] == [
        "parent", "change", "parent", "change"
    ]


def test_pairs_must_be_positive():
    with pytest.raises(SystemExit):
        benchpairs.parse_args(["a", "b", "--workload", "track-paper", "--pairs", "0"])
