"""Per-layer attribution for the traced run.

The traced run installs wrappers around the program's public entry
points (listed in :data:`LAYERS`), records one span per call, and
removes every wrapper again before any untraced timing.  Nothing in
``src/repro`` is modified: classes get their attribute swapped, and a
module-level function is swapped in every ``repro.*`` module that binds
it (``from .x import f`` copies the reference, so patching only the
defining module would miss callers).

A span is ``[name, start, end, parent, item]``.  Spans nest strictly
(one thread, call-stack discipline), so a span's *self* time is its
duration minus the durations of its direct children, and the self times
of all spans under an item span add up to that item's time.

Spans use the same clock as the untimed run's items: CPU time of this
process (see :data:`clock`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

ITEM = "item"


def clock() -> float:
    """The benchmark's one clock: CPU seconds of this process (user +
    system, all threads) plus its reaped child processes.

    On a shared virtual machine, wall time also counts the slices the
    hypervisor gives other guests (steal); item wall times swung by 30%
    between runs.  With one client in one process and BLAS pinned to one
    thread, an item's CPU time is the wall time it takes on a core of its
    own, less any blocking I/O.  Parallel threads or reaped workers add
    their CPU time, so parallelism cannot look like a saving; a worker
    pool that outlives the run is not seen (judge it on the wall figures).
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _acquired(c: Counter, args, kwargs, result) -> None:
    c["instrument.mb"] += result[0].data.nbytes / 1e6


def _written(c: Counter, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    c["emd.written_mb"] += os.path.getsize(path) / 1e6


def _opened(c: Counter, args, kwargs, result) -> None:
    c.open_files.append(args[0])  # the H5LiteFile instance (``self``)


def _detected(c: Counter, args, kwargs, result) -> None:
    c["analysis.frames"] += len(result)
    c["analysis.detections"] += sum(len(frame) for frame in result)


def _polled(c: Counter, args, kwargs, result) -> None:
    c["flows.polls"] += 1
    c["flows.polls_terminal"] += result.state.terminal


def _arrived(c: Counter, args, kwargs, result) -> None:
    c["stream.chunks"] += 1
    c["stream.chunks_accepted"] += result == "accepted"


def _calls(counter: str) -> Callable:
    def hook(c: Counter, args, kwargs, result) -> None:
        c[counter] += 1

    return hook


#: layer -> (entry points, count hook).  A target is ``module:attr`` for a
#: module-level function or ``module:Class.method`` for a method.
LAYERS: dict[str, tuple[tuple[str, ...], Optional[Callable]]] = {
    "instrument.acquire": (
        (
            "repro.instrument.microscope:PicoProbe.acquire_hyperspectral",
            "repro.instrument.microscope:PicoProbe.acquire_spatiotemporal",
        ),
        _acquired,
    ),
    "emd.write": (("repro.emd.emdfile:write_emd",), _written),
    "emd.open": (("repro.emd.h5lite:H5LiteFile.__init__",), _opened),
    "emd.read": (
        (
            "repro.emd.h5lite:Dataset.read",
            "repro.emd.h5lite:Dataset.view",
            "repro.emd.emdfile:EmdFile.metadata",
        ),
        None,
    ),
    "analysis.reduce": (
        (
            "repro.analysis.hyperspectral:sum_spectrum",
            "repro.analysis.hyperspectral:intensity_map",
            "repro.analysis.hyperspectral:identify_elements",
        ),
        None,
    ),
    "analysis.cast": (("repro.analysis.video:movie_to_uint8",), None),
    "analysis.detect": (("repro.analysis.detection:BlobDetector.detect_movie",), _detected),
    "viz.svg": (
        (
            "repro.analysis.hyperspectral:intensity_figure_svg",
            "repro.analysis.hyperspectral:spectrum_figure_svg",
        ),
        None,
    ),
    "viz.annotate": (("repro.analysis.video:annotate_video",), None),
    "analysis.search_doc": (("repro.analysis.metadata:build_search_document",), None),
    "search.ingest": (("repro.search.index:SearchIndex.ingest",), _calls("search.docs")),
    "search.query": (("repro.search.index:SearchIndex.query",), None),
    "portal.render": (
        (
            "repro.portal.portal:Portal.render_record",
            "repro.portal.portal:Portal.render_index",
        ),
        None,
    ),
    "sim.run": (("repro.sim.core:Environment.run",), None),
    "flows.run_flow": (("repro.flows.service:FlowsService.run_flow",), _calls("flows.runs")),
    # The flow executor polls each step through its action provider's
    # ``status`` (which reads the service's task record), not through the
    # services' client-facing ``get_task``.
    "flows.poll": (
        (
            "repro.flows.providers:TransferActionProvider.status",
            "repro.flows.providers:ComputeActionProvider.status",
            "repro.flows.providers:SearchIngestActionProvider.status",
        ),
        _polled,
    ),
    "transfer.submit": (
        ("repro.transfer.service:TransferService.submit",),
        _calls("transfer.tasks"),
    ),
    "compute.submit": (
        ("repro.compute.service:ComputeService.submit",),
        _calls("compute.tasks"),
    ),
    "emd.metadata_json": (
        (
            "repro.emd.schema:AcquisitionMetadata.to_json",
            "repro.emd.schema:AcquisitionMetadata.from_json",
        ),
        _calls("emd.metadata_json_calls"),
    ),
    "net.route": (("repro.net.topology:Topology.route",), _calls("net.routes")),
    "net.rates": (("repro.net.fabric:max_min_fair_rates",), _calls("net.rate_solves")),
    "stream.arrived": (("repro.stream.receiver:StreamReceiver.arrived",), _arrived),
    "integrity.check": (
        (
            "repro.integrity.ledger:IntegrityLedger.attest",
            "repro.integrity.ledger:IntegrityLedger.verify_read",
            "repro.integrity.ledger:IntegrityLedger.check_publishable",
        ),
        _calls("integrity.calls"),
    ),
}

#: Self-time metrics reported per layer (``emd.open`` reads the file
#: footer, so it is reported as part of ``emd.read_s``).
_REPORTED_AS = {"emd.open": "emd.read"}


class Counts(Counter):
    """Call counts plus the h5lite handles opened during the traced pass."""

    def __init__(self) -> None:
        super().__init__()
        self.open_files: list = []


class Tracer:
    """Installs the layer wrappers and records spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = Counts()
        self.item: Optional[int] = None
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.item])
        self._stack.append(idx)
        self.spans[idx][1] = clock()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{fn.__qualname__} is a generator; a span would end at creation")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------------
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("wrappers are already installed")
        try:
            for name, (targets, hook) in LAYERS.items():
                for target in targets:
                    self._patch(name, target, hook)
        except BaseException:
            self.uninstall()  # never leave a partial set of wrappers behind
            raise

    def _patch(self, name: str, target: str, hook: Optional[Callable]) -> None:
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, (classmethod, staticmethod)):
                new: Any = type(raw)(self._wrap(name, raw.__func__, hook))
            else:
                new = self._wrap(name, raw, hook)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
            return
        fn = getattr(module, attr)
        new = self._wrap(name, fn, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, key, fn))
                    setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- attribution ------------------------------------------------------------
    def self_times(self) -> dict[tuple[str, Optional[int]], float]:
        """Self seconds per (layer, item).  ``sim.run+`` also carries the
        inclusive time of ``sim.run`` (its self time is the kernel's own)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, Optional[int]], float] = defaultdict(float)
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            out[_REPORTED_AS.get(name, name), item] += (end - start) - child[i]
            if name == "sim.run":
                out["sim.run+", item] += end - start
        return dict(out)

    def take_read_stats(self) -> None:
        """Fold the ``read_stats`` of every h5lite handle opened since the
        last call into the counts."""
        for f in self.counts.open_files:
            stats = f.read_stats
            self.counts["emd.read_blocks"] += stats["block_reads"]
            self.counts["emd.read_payload_mb"] += stats["payload_bytes"] / 1e6
            self.counts["emd.read_raw_mb"] += stats["raw_bytes"] / 1e6
        self.counts.open_files.clear()

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the spans as Chrome ``trace_event`` JSON (complete events;
        timestamps are microseconds of the CPU clock)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"item": item, "parent": parent},
            }
            for name, start, end, parent, item in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "metadata": metadata}, fh)
