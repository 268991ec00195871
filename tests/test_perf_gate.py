"""Unit tests for perf_report: row summary, pairing, merge rule and the
CI scaling-regression gate."""

import sys
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "benchmarks")
)

from perf_report import (  # noqa: E402
    REGRESSION_TOLERANCE,
    Case,
    check_scaling_regression,
    measure,
    merged,
    paired,
    summarize,
)

ROW_KEYS = ["name", "family", "layer", "unit", "median", "q1", "q3",
            "min", "repeats", "target"]


def _row(name, value, unit="us/access", family="scaling"):
    return {"name": name, "family": family, "unit": unit, "min": value}


def _report(rows):
    """An envelope of scaling us/access rows given as ``{name: min}``."""
    return {"rows": [_row(name, us) for name, us in rows.items()]}


def test_summary_statistics_from_fixed_samples():
    case = Case("substrate", "x", "sim", "s", None)
    row = summarize(case, [5.0, 1.0, 4.0, 2.0, 3.0])
    assert list(row) == ROW_KEYS
    assert (row["median"], row["q1"], row["q3"], row["min"]) == (
        3.0, 2.0, 4.0, 1.0)
    assert row["repeats"] == 5 and row["target"] is None
    even = summarize(case, [4.0, 1.0, 3.0, 2.0], target=0.02)
    assert (even["median"], even["q1"], even["q3"]) == (2.5, 1.75, 3.25)
    assert even["target"] == 0.02
    once = summarize(case, [7])
    assert [once[k] for k in ("median", "q1", "q3", "min", "repeats")] == [
        7, 7, 7, 7, 1]


def test_paired_alternates_sides_and_ratios_per_pair():
    calls = []

    def stub(label, values):
        samples = iter(values)

        def run():
            calls.append(label)
            return next(samples)
        return Case("telemetry", label, "telemetry", "s", run)

    a = stub("a", [2.0, 4.0, 5.0])
    b = stub("b", [3.0, 2.0, 10.0])
    side_a, side_b, ratio = paired(a, b, 3, "b_vs_a", target=0.02)
    assert calls == ["a", "b", "b", "a", "a", "b"]
    assert (side_a["name"], side_a["median"]) == ("a", 4.0)
    assert (side_b["name"], side_b["median"]) == ("b", 3.0)
    # Per-pair b/a = 1.5, 0.5, 2.0; a ratio of the medians would be 0.75.
    assert ratio["name"] == "b_vs_a" and ratio["unit"] == "ratio"
    assert (ratio["median"], ratio["min"], ratio["repeats"]) == (1.5, 0.5, 3)
    assert ratio["target"] == 0.02 and list(ratio) == ROW_KEYS


def test_measure_filters_families_and_derives_flatness():
    runs = []

    def case(family, name, value, repeats=None):
        def run():
            runs.append(name)
            return value
        return Case(family, name, "cluster", "us/access", run, repeats)

    table = [
        case("scaling", "working_set_32n_8000_pages", 8.0),
        case("scaling", "working_set_32n_1000000_pages", 10.0),
        case("scaling", "heat_memory_200k_pages", 100, repeats=1),
        case("substrate", "page_access_path", 1.0),
    ]
    rows = {row["name"]: row for row in measure(table, ("scaling",), 3)}
    assert "page_access_path" not in runs
    assert runs.count("heat_memory_200k_pages") == 1
    assert rows["working_set_32n_8000_pages"]["repeats"] == 3
    flat = rows["working_set_flatness"]
    assert (flat["median"], flat["repeats"], flat["unit"]) == (
        1.25, 1, "ratio")
    assert "hot_access_node_flatness" not in rows


def test_merge_keeps_rows_of_families_not_measured():
    prior = [_row("a", 1.0, family="substrate"),
             _row("b", 2.0, family="scaling"),
             _row("c", 3.0, family="telemetry")]
    fresh = [_row("c", 4.0, family="telemetry"),
             _row("d", 5.0, family="telemetry")]
    rows = merged(prior, fresh)
    assert [(r["name"], r["min"]) for r in rows] == [
        ("a", 1.0), ("b", 2.0), ("c", 4.0), ("d", 5.0)]


def test_gate_passes_within_tolerance():
    committed = _report({
        "hot_access_16_nodes": 10.0,
        "hot_access_64_nodes": 12.0,
    })
    measured = _report({
        "hot_access_16_nodes": 10.0 * (1.0 + REGRESSION_TOLERANCE) - 0.01,
        "hot_access_64_nodes": 11.0,  # improvement
    })
    assert check_scaling_regression(measured, committed) == []


def test_gate_flags_regressed_rows():
    committed = _report({
        "hot_access_16_nodes": 10.0,
        "hot_access_64_nodes": 12.0,
    })
    measured = _report({
        "hot_access_16_nodes": 13.0,
        "hot_access_64_nodes": 12.5,
    })
    failures = check_scaling_regression(measured, committed)
    assert failures == [("hot_access_16_nodes", 10.0, 13.0)]


def test_gate_skips_rows_missing_from_either_side():
    committed = {"rows": [
        _row("hot_access_256_nodes", 20.0),
        _row("working_set_flatness", 0.95, unit="ratio"),  # no us row
    ]}
    measured = {"rows": [
        # 512 row is new — absent from the committed report.
        _row("hot_access_512_nodes", 999.0),
        _row("working_set_flatness", 2.0, unit="ratio"),
        _row("heat_memory_200k_pages", 1, unit="bytes"),
    ]}
    assert check_scaling_regression(measured, committed) == []


def test_gate_normalizes_uniform_machine_slowdown():
    # Same shape, uniformly 40% slower (a slower CI machine): the
    # median ratio cancels the speed difference and the gate passes.
    values = {
        "hot_access_16_nodes": 5.0,
        "hot_access_64_nodes": 7.0,
        "mixed_access_32n_8000_pages": 7.0,
        "working_set_32n_8000_pages": 8.0,
    }
    measured = _report({k: v * 1.4 for k, v in values.items()})
    assert check_scaling_regression(measured, _report(values)) == []


def test_gate_catches_single_row_regression_on_slow_machine():
    # Four rows 30% slower (machine), one row 80% slower (a real
    # regression): normalization cancels the 30% and flags the spike.
    values = {
        "hot_access_16_nodes": 5.0,
        "hot_access_64_nodes": 7.0,
        "hot_access_256_nodes": 13.0,
        "mixed_access_32n_8000_pages": 7.0,
        "working_set_32n_8000_pages": 8.0,
    }
    slow = {k: v * 1.3 for k, v in values.items()}
    slow["hot_access_256_nodes"] = 13.0 * 1.8
    failures = check_scaling_regression(_report(slow), _report(values))
    assert failures == [("hot_access_256_nodes", 13.0, 13.0 * 1.8)]


def test_gate_absolute_fallback_below_three_rows():
    # With fewer than three comparable rows there is no meaningful
    # median; the comparison is absolute, so a uniform slowdown fails.
    committed = _report({
        "hot_access_16_nodes": 5.0,
        "hot_access_64_nodes": 7.0,
    })
    measured = _report({
        "hot_access_16_nodes": 7.0,
        "hot_access_64_nodes": 9.8,
    })
    failures = check_scaling_regression(measured, committed)
    assert len(failures) == 2


def test_gate_tolerance_parameter():
    committed = _report({"row": 10.0})
    measured = _report({"row": 10.5})
    assert check_scaling_regression(
        measured, committed, tolerance=0.01
    ) == [("row", 10.0, 10.5)]
    assert check_scaling_regression(
        measured, committed, tolerance=0.10
    ) == []
