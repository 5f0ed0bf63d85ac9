"""Self-tests of the end-to-end benchmark (smoke-size runs).

Run from the repository root::

    python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402

workloads = run.import_program()

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

#: Smoke sizes: items per untraced run, items per traced pass.
SMOKE = {
    "content-hyperspectral": (3, 2),
    "content-movie": (3, 2),
    "campaign-file": (3, 3),
    "campaign-stream": (3, 3),
}


@pytest.fixture(scope="module")
def setups():
    made = {}
    yield lambda name: made.setdefault(name, run.setup(name))
    for _, workdir, _ in made.values():
        run.shutil.rmtree(workdir, ignore_errors=True)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"][1] == "e2ebench/run.py"


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run_reports_every_metric_and_matches_references(name, setups):
    wl, _, refs = setups(name)
    n_items, n_traced = SMOKE[name]
    res = run.measure(wl, 1, 60.0, refs, max_items=n_items)
    assert len(res.items) == n_items
    assert res.failed == 0, [r.error for r in res.items]
    res.metrics["setup_s"] = (0.5, "s")
    line = json.loads(run.result_line(res, run.declared_metrics(False)))
    assert line["correct"] and line["attempted"] == n_items and line["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0

    traced = run.measure_traced(wl, 1, 0.0, refs, trace_items=n_traced)
    assert traced.failed == 0, [r.error for r in traced.items]
    line = json.loads(run.result_line(traced, run.declared_metrics(True)))
    for m in SPEC["per_layer"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(run.LAYER_METRICS) <= set(traced.metrics)


@pytest.mark.parametrize("name", ["content-hyperspectral", "content-movie"])
def test_content_layer_self_times_add_up_to_item_time(name, setups):
    wl, _, refs = setups(name)
    res = run.measure_traced(wl, 2, 0.0, refs, trace_items=2)
    # Every "_s" metric is a self time except sim.run_s (inclusive).
    layer_s = sum(v for k, (v, unit) in res.metrics.items() if unit == "s" and k != "sim.run_s")
    traced = [r.ref_s for r in res.items[2:]]
    assert layer_s == pytest.approx(sum(traced) / 2, rel=1e-3)
    assert res.metrics["item.unattributed_s"][0] < 0.1 * layer_s


def test_tampered_reference_fails_the_item_without_crashing(setups):
    wl, _, refs = setups("campaign-file")
    keys = wl.keys(4)
    first = next(keys)
    tampered = dict(refs, **{first: "0" * 24})
    res = run.measure(wl, 4, 60.0, tampered, max_items=2)
    assert len(res.items) == 2
    assert res.items[0].error.startswith("output digest")
    assert res.items[1].error is None
    line = json.loads(run.result_line(res, ["item_s.p50"]))
    assert line == {
        "correct": False,
        "attempted": 2,
        "failed": 1,
        "metrics": {"item_s.p50": line["metrics"]["item_s.p50"]},
    }


def test_exception_in_an_item_counts_as_a_failure(setups, monkeypatch):
    wl, _, refs = setups("content-hyperspectral")
    calls = []

    def broken(*args, **kwargs):
        calls.append(1)
        raise ValueError("injected")

    monkeypatch.setattr(workloads.repro.emd, "write_emd", broken)
    res = run.measure(wl, 5, 60.0, refs, max_items=2)
    assert len(calls) == 2 and res.failed == 2
    assert all("injected" in r.error for r in res.items)


def test_two_runs_on_one_seed_repeat_digests_and_counts(setups):
    wl, _, refs = setups("campaign-stream")
    a = run.measure_traced(wl, 7, 0.0, refs, trace_items=3)
    b = run.measure_traced(wl, 7, 0.0, refs, trace_items=3)
    assert [r.digest for r in a.items] == [r.digest for r in b.items]
    counts = [k for k, (_, unit) in a.metrics.items() if unit in ("count", "MB")]
    assert counts and all(a.metrics[k] == b.metrics[k] for k in counts)


def _program_bindings() -> dict:
    """Every module global and class attribute of the loaded program."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, raw in list(vars(value).items()):
                    out[(mod_name, key, attr)] = raw
    return out


def test_wrappers_are_removed_after_the_traced_run(setups):
    wl, _, refs = setups("content-movie")
    before = _program_bindings()
    run.measure_traced(wl, 3, 0.0, refs, trace_items=1)
    after = _program_bindings()
    assert {k for k in before if after.get(k) is not before[k]} == set()
