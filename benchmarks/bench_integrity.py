"""Integrity cost on the hot chunk path.

The claim: **enabled verification is cheap** — the same 800-chunk
stream delivery with per-chunk digests costs < 10% extra wall-clock
over plain delivery.  ``python -m repro bench integrity`` records both
throughputs; the ratio bound lives here only, because on a small shared
machine the same-run ratio is too noisy for the ``--check`` gate.
That disabled integrity builds no machinery and that corruption
campaigns audit clean are tier-1 tests (``tests/test_integrity.py``).
"""

from __future__ import annotations

import time

from repro.bench import _stream_delivery

from conftest import report


def _best_wall(fn, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_integrity_stream_overhead(benchmark, output_dir):
    plain_fn = _stream_delivery(50, 16)
    verified_fn = _stream_delivery(50, 16, verified=True)
    # Warm-up outside the timed region.
    plain_fn()
    verified_fn()

    plain = _best_wall(plain_fn)
    verified = _best_wall(verified_fn)
    benchmark(verified_fn)

    overhead = 100.0 * (verified - plain) / plain
    lines = [
        f"plain delivery (800 chunks):    {plain * 1e3:.1f} ms (best of 5)",
        f"verified delivery (800 chunks): {verified * 1e3:.1f} ms (best of 5)",
        f"per-chunk digest overhead: {overhead:+.1f}%",
    ]
    report("bench_integrity_overhead", lines, output_dir)
    # Verification on the hot chunk path stays under 10% of plain
    # delivery cost.
    assert verified < plain * 1.10
