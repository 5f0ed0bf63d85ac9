"""The ``python -m repro bench --check`` gate and its committed baselines."""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.bench import CHECK_TOLERANCE, SUITES, check_against_baseline, run_suite

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _payload(**metrics: dict) -> dict:
    return {"suite": "demo", "metrics": metrics}


BASELINE = _payload(a={"ops_per_s": 1000.0}, b={"ops_per_s": 10.0})
FLOOR = 1000.0 * (1.0 - CHECK_TOLERANCE)


def test_check_reports_a_breach_just_below_the_floor():
    current = _payload(a={"ops_per_s": FLOOR * 0.999}, b={"ops_per_s": 10.0})
    problems = check_against_baseline(current, BASELINE)
    assert len(problems) == 1 and problems[0].startswith("demo.a:")


def test_check_passes_just_above_the_floor():
    current = _payload(a={"ops_per_s": FLOOR * 1.001}, b={"ops_per_s": 10.0})
    assert check_against_baseline(current, BASELINE) == []


def test_check_reports_a_vanished_metric():
    current = _payload(a={"ops_per_s": 1000.0})
    assert check_against_baseline(current, BASELINE) == [
        "demo.b: metric disappeared"
    ]


def test_check_ignores_a_new_metric():
    current = _payload(
        a={"ops_per_s": 1000.0}, b={"ops_per_s": 10.0}, c={"ops_per_s": 1.0}
    )
    assert check_against_baseline(current, BASELINE) == []


@pytest.mark.parametrize("name", ["b", "c"])
def test_check_fails_on_a_false_correctness_flag(name):
    # A False flag fails whether or not the metric has a baseline yet;
    # True flags and non-boolean fields never do.
    current = _payload(
        a={"ops_per_s": 1000.0, "jobs": 2, "identical_to_serial": True},
        b={"ops_per_s": 10.0},
    )
    current["metrics"][name] = {"ops_per_s": 10.0, "audit_ok": False}
    assert check_against_baseline(current, BASELINE) == [
        f"demo.{name}.audit_ok is False"
    ]


def test_every_suite_has_a_committed_baseline_and_nothing_else():
    names = {
        os.path.basename(p)[len("BENCH_"):-len(".json")]
        for p in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
    }
    assert names == set(SUITES)


def test_kernel_suite_emits_exactly_the_baselined_metrics():
    with open(os.path.join(REPO_ROOT, "BENCH_kernel.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    payload = run_suite("kernel", repeat=1)
    assert payload["suite"] == "kernel"
    assert set(payload["metrics"]) == set(baseline["metrics"])
    for m in payload["metrics"].values():
        assert m["ops_per_s"] == pytest.approx(m["n_ops"] / m["wall_s"])
