"""Tests for the kernel's split queue: lanes, calendar buckets, fast drain.

The kernel keeps one *logical* total order — ``(time, priority, seq)``
under fifo, ``(time, priority, -seq)`` under lifo.  Under fifo it stores
entries in three physical structures (immediate lanes, per-timestamp
timer buckets, and an exotic heap); under lifo everything sits on the
heap.  These tests pin the seams between them: underflowing delays,
mid-drain scheduling and cancellation, exotic priorities mixed into
bucket drains, compaction while a bucket is being read, and the
fired-condition callback detach — plus a property test against a
single-heap reference model.
"""

from __future__ import annotations

import gc
import heapq
import itertools

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.core import NORMAL, URGENT
from repro.sim.core import _defuse_stale


def _tag(order, name):
    return lambda _event, _o=order, _n=name: _o.append(_n)


def test_underflow_delay_routes_to_immediate_lane():
    """A positive delay too small to advance a large ``now`` fires at the
    current timestamp, ordered by sequence exactly like a zero delay."""
    for tiebreak, expected in (("fifo", ["a", "b", "c"]), ("lifo", ["c", "b", "a"])):
        env = Environment(initial_time=1e16, tiebreak=tiebreak)
        order = []
        env.timeout(0.0).callbacks.append(_tag(order, "a"))
        tiny = env.timeout(1e-3)  # 1e16 + 1e-3 == 1e16: underflows
        assert tiny.delay > 0 and env.now + tiny.delay == env.now
        tiny.callbacks.append(_tag(order, "b"))
        env.timeout(0.0).callbacks.append(_tag(order, "c"))
        env.run()
        assert order == expected, tiebreak


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_repeated_timestamps_keep_seq_order(tiebreak):
    """Timer buckets group equal target times; within one bucket the
    tie-break governs, across buckets time does."""
    env = Environment(tiebreak=tiebreak)
    order = []
    layout = [(2.0, "a"), (1.0, "b"), (2.0, "c"), (1.0, "d"), (3.0, "e"), (1.0, "f")]
    for delay, name in layout:
        env.timeout(delay).callbacks.append(_tag(order, name))
    env.run()
    by_time = {1.0: ["b", "d", "f"], 2.0: ["a", "c"], 3.0: ["e"]}
    expected = []
    for t in sorted(by_time):
        expected += by_time[t] if tiebreak == "fifo" else by_time[t][::-1]
    assert order == expected


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_mid_drain_zero_delay_preemption(tiebreak):
    """A zero-delay event scheduled from inside a bucket drain fires at
    the same timestamp: after remaining bucket entries under fifo,
    before them under lifo (newest-first)."""
    env = Environment(tiebreak=tiebreak)
    order = []

    def first(_event):
        order.append("first")
        env.timeout(0.0).callbacks.append(_tag(order, "injected"))

    a = env.timeout(1.0)
    b = env.timeout(1.0)
    (a if tiebreak == "fifo" else b).callbacks.append(first)
    (b if tiebreak == "fifo" else a).callbacks.append(_tag(order, "second"))
    env.run()
    if tiebreak == "fifo":
        assert order == ["first", "second", "injected"]
    else:
        assert order == ["first", "injected", "second"]


def test_mid_drain_exotic_priority_is_seen():
    """An exotic-priority event scheduled at ``now`` from inside a bucket
    drain still respects the priority order: NORMAL entries already in
    the bucket (priority 1) fire before the priority-2 straggler."""
    env = Environment()
    order = []
    straggler = env.event()

    def first(_event):
        order.append("first")
        straggler._ok = True
        straggler._value = None
        env.schedule(straggler, delay=0.25, priority=2)

    env.timeout(1.0).callbacks.append(first)
    env.timeout(1.0).callbacks.append(_tag(order, "second"))
    env.timeout(1.25).callbacks.append(_tag(order, "timer"))
    straggler.callbacks.append(_tag(order, "exotic"))
    env.run()
    # At t=1.25 the NORMAL timer (priority 1) precedes the exotic
    # (priority 2) even though the exotic was scheduled first.
    assert order == ["first", "second", "timer", "exotic"]


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_underflowed_urgent_preempts_bucket_remainder(tiebreak):
    """An URGENT delay that underflows the clock addition lands on the
    heap at ``now``; scheduled mid-bucket, it fires before the bucket's
    remainder (a fast drain that only resumes the bucket spins forever
    on it) and keeps its seq order against delay-0 URGENT lane events."""
    env = Environment(initial_time=1e6, tiebreak=tiebreak)
    order = []

    def first(_event):
        order.append("first")
        assert env.now + 1e-12 == env.now
        for name, delay in (("u1", 0.0), ("u2", 1e-12), ("u3", 0.0)):
            ev = env.event()
            ev._ok, ev._value = True, None
            env.schedule(ev, delay=delay, priority=URGENT)
            ev.callbacks.append(_tag(order, name))

    a = env.timeout(1.0)
    b = env.timeout(1.0)
    (a if tiebreak == "fifo" else b).callbacks.append(first)
    (b if tiebreak == "fifo" else a).callbacks.append(_tag(order, "second"))
    env.run()
    urgent = ["u1", "u2", "u3"] if tiebreak == "fifo" else ["u3", "u2", "u1"]
    assert order == ["first", *urgent, "second"]


def test_mid_drain_urgent_preempts_bucket_remainder():
    """A delay-0 URGENT event scheduled by a bucket entry drained inside
    the fast loop fires before that bucket's remaining timers."""
    env = Environment()
    order = []

    def second(_event):
        order.append("second")
        ev = env.event()
        ev._ok, ev._value = True, None
        env.schedule(ev, priority=URGENT)
        ev.callbacks.append(_tag(order, "urgent"))

    env.timeout(1.0).callbacks.append(_tag(order, "first"))
    env.timeout(1.0).callbacks.append(second)
    env.timeout(1.0).callbacks.append(_tag(order, "third"))
    env.run()
    assert order == ["first", "second", "urgent", "third"]


def test_urgent_lane_precedes_normal_at_same_tick():
    env = Environment()
    order = []
    ev = env.event()
    ev.callbacks.append(_tag(order, "urgent"))

    def proc(env):
        yield env.timeout(1.0)
        order.append("normal-a")
        ev.succeed()  # URGENT: jumps ahead of the pending same-tick timer
        yield env.timeout(0.0)
        order.append("normal-b")

    env.process(proc(env))
    env.timeout(1.0).callbacks.append(_tag(order, "bucket-peer"))
    env.run()
    # bucket-peer's timer was created before the process first ran, so
    # it leads the t=1 bucket; the succeed() then jumps the URGENT lane
    # ahead of the process's own zero-delay NORMAL continuation.
    assert order == ["bucket-peer", "normal-a", "urgent", "normal-b"]


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_cancel_inside_current_bucket(tiebreak):
    """Cancelling a not-yet-drained entry of the *currently draining*
    bucket suppresses it."""
    env = Environment(tiebreak=tiebreak)
    order = []
    timers = [env.timeout(1.0) for _ in range(3)]
    victim = timers[2 if tiebreak == "fifo" else 0]

    def first(_event):
        order.append("first")
        env.cancel(victim)

    head = timers[0 if tiebreak == "fifo" else 2]
    head.callbacks.append(first)
    for i, t in enumerate(timers):
        if t is not head and t is not victim:
            t.callbacks.append(_tag(order, f"t{i}"))
    victim.callbacks.append(_tag(order, "victim"))
    env.run()
    assert order == ["first", "t1"]
    assert env.now == 1.0


def test_mass_cancel_compacts_every_structure():
    """Cancelling most of a large mixed population triggers compaction
    (including mid-drain) and the survivors still fire in order."""
    env = Environment()
    order = []
    keep = []
    doomed = []
    for i in range(200):
        t = env.timeout(1.0 + (i % 5))
        if i % 10 == 0:
            t.callbacks.append(_tag(order, i))
            keep.append(i)
        else:
            doomed.append(t)

    def killer(env):
        yield env.timeout(0.5)
        for t in doomed:
            env.cancel(t)
        # Compaction ran (possibly several times); at most a small
        # sub-threshold residue of tombstones may remain.
        assert env._cancelled_count <= 8

    env.process(killer(env))
    env.run()
    assert order == sorted(keep, key=lambda i: (1.0 + (i % 5), i))


def test_peek_skips_cancelled_bucket_heads():
    env = Environment()
    early = env.timeout(1.0)
    env.timeout(2.0)
    assert env.peek() == 1.0
    env.cancel(early)
    assert env.peek() == 2.0
    env.run()
    assert env.now == 2.0


def test_fired_condition_detaches_from_pending_timers():
    """Once an AnyOf fires, its long-lived constituents must not keep a
    reference to the condition (or its result dict) alive: the ``_check``
    callback is swapped for the module-level defuser."""
    env = Environment()

    def proc(env):
        short = env.timeout(1.0)
        long = env.timeout(1000.0)
        cond = env.any_of([short, long])
        yield cond
        assert short in cond.value
        # The pending timer now holds only the shared defuser — no bound
        # method pinning the condition.
        assert long.callbacks == [_defuse_stale]
        assert not any(getattr(cb, "__self__", None) is cond for cb in long.callbacks)

    env.process(proc(env))
    env.run(until=2.0)
    gc.collect()  # the detach must not have corrupted anything the
    env.run(until=1001.0)  # late timer still needs to drain cleanly
    assert env.now == 1001.0


def test_run_fast_disabled_by_trace_hook():
    """Attaching a trace hook must route through the instrumented step
    path — the hook sees every dispatch, in order."""
    env = Environment()
    seen = []
    env._trace_hook = lambda now, prio, event: seen.append(
        (now, prio, type(event).__name__)
    )

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(0.0)

    env.process(proc(env))
    env.run()
    assert [s for s in seen if s[2] == "Timeout"] == [
        (1.0, NORMAL, "Timeout"),
        (1.0, NORMAL, "Timeout"),
    ]
    assert seen[0][1] == URGENT  # process-init event


def test_exotic_priorities_total_order():
    """Priorities outside {URGENT, NORMAL} disable the fast drain but
    keep the exact (time, priority, seq) order."""
    env = Environment()
    order = []
    spec = [(1.0, 3, "late-exotic"), (1.0, 2, "exotic"), (2.0, 2, "next-tick")]
    for delay, prio, name in spec:
        ev = env.event()
        ev._ok = True
        ev._value = None
        ev.callbacks.append(_tag(order, name))
        env.schedule(ev, delay=delay, priority=prio)
    env.timeout(1.0).callbacks.append(_tag(order, "normal"))
    env.run()
    assert order == ["normal", "exotic", "late-exotic", "next-tick"]


# -- reference-order property --------------------------------------------------

#: Delays mix zero, repeated values and, at ``initial_time=1e6``, a
#: positive delay that underflows the clock addition (``1e6 + 1e-12 ==
#: 1e6``); priorities mix URGENT, NORMAL and exotic values.
_DELAYS = [0.0, 1e-12, 0.5, 1.0, 1.0, 2.0]
_PRIOS = [-1, URGENT, NORMAL, 2]
_MODES = ["timeout", "succeed", "schedule"]


def _normalize(delay, prio, mode):
    """The (delay, priority) a scheduling call of ``mode`` really uses."""
    if mode == "timeout":
        return delay, NORMAL
    if mode == "succeed":
        return 0.0, NORMAL
    return delay, prio


# Children are delay-0 (or underflowing) events scheduled from a firing
# callback, weighted toward ``schedule``: the only mode that reaches the
# urgent lane and the heap.
_child = st.tuples(
    st.sampled_from([0.0, 0.0, 1e-12]),
    st.sampled_from(_PRIOS),
    st.sampled_from(_MODES + ["schedule"]),
)
_op = st.fixed_dictionaries(
    {
        "spec": st.tuples(
            st.sampled_from(_DELAYS), st.sampled_from(_PRIOS), st.sampled_from(_MODES)
        ),
        "children": st.lists(_child, max_size=3),
        "cancel_upfront": st.booleans(),
        "cancels": st.one_of(st.none(), st.integers(min_value=0, max_value=39)),
    }
)


def _reference(t0, ops, lifo):
    """Single-heap model: dispatch order of the script under
    ``(time, priority, +/-seq)``."""
    heap, order, fired = [], [], set()
    counter = itertools.count()
    now = t0

    def push(name, spec):
        delay, prio = _normalize(*spec)
        k = next(counter)
        heapq.heappush(heap, (now + delay, prio, -k if lifo else k, name))

    for i, op in enumerate(ops):
        push(i, op["spec"])
    cancelled = {i for i, op in enumerate(ops) if op["cancel_upfront"]}
    while heap:
        now, _, _, name = heapq.heappop(heap)
        if name in cancelled:
            continue
        fired.add(name)
        order.append((now, name))
        if isinstance(name, int):
            for j, spec in enumerate(ops[name]["children"]):
                push((name, j), spec)
            victim = ops[name]["cancels"]
            if victim is not None and victim < len(ops) and victim not in fired:
                cancelled.add(victim)
    return order


def _kernel(t0, ops, tiebreak, stepping):
    env = Environment(initial_time=t0, tiebreak=tiebreak)
    order, events = [], {}

    def fire(name):
        order.append((env.now, name))
        if isinstance(name, int):
            for j, spec in enumerate(ops[name]["children"]):
                make((name, j), spec)
            victim = ops[name]["cancels"]
            if victim is not None and victim < len(ops):
                if not events[victim].processed:
                    env.cancel(events[victim])

    def make(name, spec):
        delay, prio = _normalize(*spec)
        mode = spec[2]
        if mode == "timeout":
            ev = env.timeout(delay)
        else:
            ev = env.event()
            if mode == "succeed":
                ev.succeed()
            else:
                ev._ok, ev._value = True, None
                env.schedule(ev, delay=delay, priority=prio)
        ev.callbacks.append(lambda _e, n=name: fire(n))
        events[name] = ev

    for i, op in enumerate(ops):
        make(i, op["spec"])
    for i, op in enumerate(ops):
        if op["cancel_upfront"]:
            env.cancel(events[i])
    if stepping:
        while env._has_pending():
            env.step()
            assert env._n_pending() - env._cancelled_count == env._live
    else:
        env.run()
    assert env._live == 0
    return order


@seed(20231112)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.0, 1e6]), st.lists(_op, min_size=2, max_size=40))
def test_dispatch_order_matches_single_heap_reference(t0, ops):
    for tiebreak in ("fifo", "lifo"):
        expected = _reference(t0, ops, lifo=tiebreak == "lifo")
        for stepping in (False, True):
            got = _kernel(t0, ops, tiebreak, stepping)
            assert got == expected, (tiebreak, stepping)
