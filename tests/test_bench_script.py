"""scripts/bench.py's summary of paired runs, on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_script", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _pairs(metric, parent, tree):
    return [{"parent": {"metrics": {metric: p}}, "tree": {"metrics": {metric: t}}}
            for p, t in zip(parent, tree)]


def test_step_s_is_lower_is_better_with_a_bound():
    assert bench.END_TO_END["step_s"]["better"] == "lower"
    assert bench.END_TO_END["step_s"]["bound"] == 0.25


def test_winners_ties_and_a_gap_past_the_parent_iqr():
    s = bench.summarize(_pairs("step_s", [2.0, 2.1, 1.9, 2.0, 2.2],
                               [1.5, 2.1, 1.6, 1.4, 2.3]))["step_s"]
    assert s["winners"] == ["tree", "tie", "tree", "tree", "parent"]
    assert (s["tree_wins"], s["pairs"]) == (3, 5)
    assert s["parent"]["median"] == 2.0 and s["tree"]["median"] == 1.6
    assert s["parent"]["iqr"] == pytest.approx(0.1)
    assert s["gap_exceeds_parent_iqr"] and s["within_bound"]
    assert s["median_change"] == pytest.approx(-0.2)


def test_a_gap_inside_the_parent_iqr_is_no_gain():
    s = bench.summarize(_pairs("step_s", [1.0, 2.0, 3.0], [1.9, 1.9, 1.9]))["step_s"]
    assert s["winners"] == ["parent", "tree", "tree"]
    assert not s["gap_exceeds_parent_iqr"] and s["within_bound"]


@pytest.mark.parametrize("tree_median, within", [
    (2.4, True),
    (2.5, True),    # exactly 25% worse: not worse by more than the bound
    (2.52, False),
])
def test_within_bound_allows_the_declared_share_of_the_parent_median(tree_median,
                                                                     within):
    s = bench.summarize(_pairs("step_s", [2.0] * 3, [tree_median] * 3))["step_s"]
    assert s["tree_wins"] == 0 and not s["gap_exceeds_parent_iqr"]
    assert s["within_bound"] is within


def test_a_metric_missing_from_a_pair_is_left_out():
    pairs = _pairs("step_s", [1.0, 1.0], [0.9, 0.9])
    del pairs[1]["tree"]["metrics"]["step_s"]
    assert bench.summarize(pairs) == {}
