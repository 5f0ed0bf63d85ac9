"""End-to-end benchmark: file-to-portal content path and simulated campaigns.

Run one workload from the root of a checkout::

    python3 e2ebench/run.py --workload content-hyperspectral --seed 1 --seconds 18 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
timed with no wrapper installed; with ``--trace 1`` they are its
per-layer metrics, from alternating untraced and traced passes over a
fixed prefix of the item list.  Lines before it (prefixed ``#``) carry
the run stamp, a readable summary, and in a traced run every per-layer
figure.  See README.md for the workloads and metrics.

``--make-refs`` regenerates ``refs.json`` (the reference digest of every
pool item); only a change that means to alter the program's outputs
should ever do that.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: one client, one item
# at a time, on a small shared box.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Optional  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs.json")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")

from layers import ITEM, Tracer, clock  # noqa: E402

#: Setups measured per untraced run (each in a fresh interpreter); the
#: reported ``setup_s`` is their median.
SETUP_REPEATS = 3

#: CPU seconds the reference kernel takes at reference speed (its median on a
#: 2-vCPU Xeon VM, numpy 2.4).  Every reported time is scaled by
#: ``REF_KERNEL_S / median(nearby reference kernel CPU times)``.
REF_KERNEL_S = 0.030
#: CPU seconds between reference samples during a run (~6% of the run).
REF_EVERY_S = 0.5
#: Samples on each side of an item that set its scale.
REF_WINDOW = 3


class BenchError(Exception):
    """The benchmark cannot run here (no program source, unknown workload)."""


def import_program() -> Any:
    """Import the workloads against this checkout's ``src/repro``, never an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise BenchError(f"repro imported from {repro.__file__}, not from {SRC}")
    import workloads

    return workloads


def load_refs() -> dict[str, dict[str, str]]:
    try:
        with open(REFS, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read reference digests: {exc}") from None


# -- one item ----------------------------------------------------------------------


@dataclass
class ItemRecord:
    key: str
    cpu_s: float
    wall_s: float
    #: CPU clock when the item started, and its CPU time at reference speed.
    started: float = 0.0
    ref_s: float = 0.0
    digest: Optional[str] = None
    mb: float = 0.0
    sim_s: float = 0.0
    error: Optional[str] = None


def run_item(wl, j: int, key: str, refs: dict, tracer=None) -> ItemRecord:
    """Run, time and check one item.  A raise or a mismatch fails the item;
    it never aborts the run.  With a ``tracer``, the item is one span and its
    public-state counts are added to the tracer's."""
    from workloads import digest

    rec = ItemRecord(key=key, cpu_s=0.0, wall_s=0.0)
    outcome = None
    span = tracer.open(ITEM) if tracer is not None else None
    t0, w0 = clock(), time.perf_counter()
    rec.started = t0
    try:
        outcome = wl.run(j, key)
        if wl.check_timed:
            rec.digest = digest(outcome.summary)
    except Exception:  # an item failure is a result, not a crash
        rec.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    finally:
        rec.cpu_s, rec.wall_s = clock() - t0, time.perf_counter() - w0
        if span is not None:
            tracer.close(span)
    if outcome is not None:
        rec.mb, rec.sim_s = outcome.mb, outcome.sim_s
        if rec.digest is None:
            rec.digest = digest(outcome.summary)
        if outcome.problems:
            rec.error = "; ".join(outcome.problems)
        elif rec.digest != refs.get(key):
            rec.error = f"output digest {rec.digest} != reference {refs.get(key)}"
        if tracer is not None:
            wl.harvest(outcome.raw, tracer.counts)
    try:
        wl.cleanup(j, key)
    except OSError as exc:
        rec.error = rec.error or f"cleanup: {exc}"
    return rec


# -- runs ----------------------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    seed: int
    items: list[ItemRecord] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.items if r.error is not None)


class Speed:
    """The machine's current speed, from a fixed reference kernel sampled
    between items.

    On a shared virtual machine the CPU time of a fixed piece of work
    drifts by up to a third over minutes (neighbours' load on shared
    cores and caches).  The reference kernel is a fixed mix of the kinds of
    work the program does (interpreted Python, numpy sort/FFT/matmul, zlib,
    JSON) and shares no code with the program, so dividing by its time in
    the same run removes the drift and leaves the program's own cost.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random(64 * 1024)
        self._b = rng.random((96, 96))
        self._blob = (np.arange(200_000, dtype=np.float64) % 97).tobytes()
        self.samples: list[float] = []
        self.taken_at: list[float] = []
        self._next = 0.0

    def sample(self) -> None:

        t0 = clock()
        table: dict[int, int] = {}
        for i in range(20_000):
            table[i % 1000] = table.get(i % 1000, 0) + i
        for _ in range(4):
            np.sort(self._a)
            np.fft.rfft(self._a)
            self._b @ self._b
        zlib.compress(self._blob, 6)
        json.dumps(table)
        self.samples.append(clock() - t0)
        self.taken_at.append(t0)
        self._next = clock() + REF_EVERY_S

    def every(self) -> None:
        """Take a sample when one is due."""
        if clock() >= self._next:
            self.sample()

    def scale_at(self, t: float) -> float:
        """Multiply a CPU time measured at CPU clock ``t`` by this to get
        reference seconds: the speed drifts within a run too, so each item
        is scaled by the samples nearest to it."""
        i = bisect.bisect(self.taken_at, t)
        window = self.samples[max(0, i - REF_WINDOW) : i + REF_WINDOW]
        return REF_KERNEL_S / statistics.median(window)

    def rescale(self, items: list[ItemRecord]) -> None:
        for rec in items:
            rec.ref_s = rec.cpu_s * self.scale_at(rec.started)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def measure(
    wl,
    seed: int,
    seconds: float,
    refs: dict,
    max_items: Optional[int] = None,
    speed: Optional[Speed] = None,
) -> RunResult:
    """The untraced closed loop: items one after another until ``seconds``
    of CPU time have passed (at least one item)."""
    speed = speed or Speed()
    res = RunResult(wl.name, seed)
    wl.begin_pass()
    deadline = clock() + seconds
    for j, key in enumerate(wl.keys(seed)):
        if res.items and (clock() >= deadline or j == max_items):
            break
        speed.every()
        res.items.append(run_item(wl, j, key, refs))
    speed.sample()
    speed.rescale(res.items)
    times = [r.ref_s for r in res.items]
    busy = sum(times)
    p90 = percentile(times, 90)
    res.metrics = {
        "item_s.p50": (percentile(times, 50), "s"),
        "item_s.p90": (p90, "s"),
        "items_per_s": (len(times) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    mb = sum(r.mb for r in res.items)
    sim_s = sum(r.sim_s for r in res.items)
    cpu = [r.cpu_s for r in res.items]
    res.notes = {
        "items": len(times),
        "items_beyond_p90": sum(1 for t in times if t > p90),
        "error_rate": res.failed / len(times),
        "content_mb_per_s": mb / busy if mb else None,
        "sim_speedup": sim_s / busy if sim_s else None,
        "ref_samples": len(speed.samples),
        "ref_kernel_s.median": statistics.median(speed.samples),
        "item_cpu_s.p50": percentile(cpu, 50),
        "item_wall_s.p50": percentile([r.wall_s for r in res.items], 50),
        "wall_per_cpu": sum(r.wall_s for r in res.items) / sum(cpu),
    }
    return res


#: Per-layer metrics, in report order: name -> unit.
LAYER_METRICS: dict[str, str] = {
    "instrument.acquire_s": "s",
    "instrument.mb": "MB",
    "emd.write_s": "s",
    "emd.written_mb": "MB",
    "emd.read_s": "s",
    "emd.read_blocks": "count",
    "emd.read_raw_mb": "MB",
    "emd.read_payload_mb": "MB",
    "analysis.reduce_s": "s",
    "analysis.cast_s": "s",
    "analysis.detect_s": "s",
    "analysis.frames": "count",
    "analysis.detections": "count",
    "viz.svg_s": "s",
    "viz.annotate_s": "s",
    "analysis.search_doc_s": "s",
    "search.ingest_s": "s",
    "search.docs": "count",
    "search.query_s": "s",
    "portal.render_s": "s",
    "sim.run_s": "s",
    "sim.unattributed_s": "s",
    "flows.runs": "count",
    "flows.run_flow_s": "s",
    "flows.polls": "count",
    "flows.poll_s": "s",
    "flows.poll_useful_ratio": "ratio",
    "transfer.tasks": "count",
    "transfer.submit_s": "s",
    "compute.tasks": "count",
    "compute.submit_s": "s",
    "compute.cold_starts": "count",
    "emd.metadata_json_s": "s",
    "emd.metadata_json_calls": "count",
    "net.route_s": "s",
    "net.routes": "count",
    "net.rates_s": "s",
    "net.rate_solves": "count",
    "stream.arrived_s": "s",
    "stream.chunks": "count",
    "stream.chunk_useful_ratio": "ratio",
    "stream.naks": "count",
    "stream.retransmits": "count",
    "stream.renegotiations": "count",
    "integrity.check_s": "s",
    "integrity.calls": "count",
    "integrity.repairs": "count",
    "integrity.quarantined": "count",
    "integrity.silent": "count",
    "chaos.injections": "count",
    "item.unattributed_s": "s",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def measure_traced(
    wl,
    seed: int,
    seconds: float,
    refs: dict,
    trace_items: Optional[int] = None,
    trace_path: Optional[str] = None,
    stamp: Optional[dict] = None,
    speed: Optional[Speed] = None,
) -> RunResult:
    """Alternate untraced and traced passes over the first ``trace_items``
    items until ``seconds`` have passed (at least one pair).

    Self times are means per item over every traced pass, scaled like item
    times; counts are the totals of the first traced pass (they repeat
    exactly); the tracing overhead compares the median item times of the
    two kinds of pass.  Wrappers are installed only for the traced passes.
    """
    speed = speed or Speed()
    n = trace_items or wl.trace_items
    keys = list(itertools.islice(wl.keys(seed), n))
    res = RunResult(wl.name, seed)
    untraced: list[ItemRecord] = []
    traced: list[ItemRecord] = []
    # Per traced pass: self seconds by (span name, item), and the pass's items.
    pass_self: list[tuple[dict, list[ItemRecord]]] = []
    counts: Optional[Counter] = None
    deadline = clock() + seconds
    while not pass_self or clock() < deadline:
        wl.begin_pass()
        for j, key in enumerate(keys):
            speed.every()
            untraced.append(run_item(wl, j, key, refs))
        tracer = Tracer()
        wl.begin_pass()
        recs = []
        tracer.install()
        try:
            for j, key in enumerate(keys):
                speed.every()  # the reference kernel calls no wrapped code
                tracer.item = j
                recs.append(run_item(wl, j, key, refs, tracer=tracer))
                tracer.take_read_stats()
        finally:
            tracer.uninstall()
        traced.extend(recs)
        pass_self.append((tracer.self_times(), recs))
        if counts is None:
            counts, first = Counter(tracer.counts), tracer
    speed.sample()
    if trace_path is not None:
        first.write_chrome_trace(trace_path, dict(stamp or {}, items=keys))
    speed.rescale(untraced + traced)
    res.items = untraced + traced

    self_s: Counter = Counter()
    for by_item, recs in pass_self:
        for (name, j), secs in by_item.items():
            self_s[name] += secs * recs[j].ref_s / recs[j].cpu_s
    per_item = 1.0 / len(traced)
    item_s = sum(r.ref_s for r in traced)
    m: dict[str, float] = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "s":
            m[name] = self_s.get(name[: -len("_s")], 0.0) * per_item
        elif unit in ("count", "MB"):
            m[name] = counts.get(name, 0)
    m["sim.run_s"] = self_s.get("sim.run+", 0.0) * per_item
    m["sim.unattributed_s"] = self_s.get("sim.run", 0.0) * per_item
    m["item.unattributed_s"] = self_s.get(ITEM, 0.0) * per_item
    m["flows.poll_useful_ratio"] = _ratio(counts["flows.polls_terminal"], counts["flows.polls"])
    m["stream.chunk_useful_ratio"] = _ratio(
        counts["stream.chunks_accepted"], counts["stream.chunks_sent"]
    )
    m["trace.unattributed_frac"] = self_s.get(ITEM, 0.0) / item_s
    m["trace.overhead_frac"] = (
        statistics.median(r.ref_s for r in traced) / statistics.median(r.ref_s for r in untraced)
        - 1.0
    )
    res.metrics = {name: (m[name], LAYER_METRICS[name]) for name in LAYER_METRICS}
    res.notes = {
        "trace_items": n,
        "traced_passes": len(pass_self),
        "error_rate": res.failed / len(res.items),
        "ref_kernel_s.median": statistics.median(speed.samples),
    }
    return res


def _ratio(num: float, den: float) -> Optional[float]:
    """``num/den``, or None for a layer that made no attempts."""
    return num / den if den else None


# -- set-up --------------------------------------------------------------------------


def setup(workload: str):
    """Everything before the first item can start: imports, work dir,
    references, and the workload's own set-up (detector calibration)."""
    workloads = import_program()
    wl = workloads.make(workload)
    if wl is None:
        raise BenchError(f"unknown workload {workload!r}; known: {sorted(workloads.WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    refs = load_refs().get(workload, {})
    wl.setup(workdir)
    return wl, workdir, refs


def measure_setup(workload: str, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median CPU time a fresh interpreter spends from its start until its
    set-up is ready (each probe reports its own process CPU time): returns
    (reference seconds, raw CPU seconds).  The probes are scaled by
    reference samples taken around them, not by the run's."""
    speed = Speed()
    samples = []
    for _ in range(repeats):
        speed.sample()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            out, _ = proc.communicate(timeout=120)
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise BenchError(f"set-up probe for {workload} failed (exit {proc.returncode})")
        samples.append(float(words[1]))
    speed.sample()
    raw = statistics.median(samples)
    return raw * REF_KERNEL_S / statistics.median(speed.samples), raw


# -- stamp -----------------------------------------------------------------------------


def stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Which code ran where: commit (when the checkout is a git tree), a
    digest of the program source, machine, library versions, thread pins."""
    import networkx
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_ENV},
    }


# -- reference digests -------------------------------------------------------------------


def make_refs(names: list[str]) -> None:
    """Recompute the reference digest of every pool item of ``names``."""
    from workloads import digest

    refs = load_refs()
    for name in names:
        wl, workdir, _ = setup(name)
        try:
            wl.begin_pass()
            table = {}
            for j, key in enumerate(wl.pool()):
                outcome = wl.run(j, key)
                if outcome.problems:
                    raise BenchError(f"{name} {key}: {outcome.problems}")
                table[key] = digest(outcome.summary)
                wl.cleanup(j, key)
            refs[name] = table
            print(f"{name}: {len(table)} reference digests", file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


# -- command line -------------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[str]:
    """The metric names BENCHMARK.json declares for this kind of run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(res: RunResult, names: list[str]) -> str:
    return json.dumps(
        {
            "correct": res.failed == 0,
            "attempted": len(res.items),
            "failed": res.failed,
            "metrics": {
                name: {"value": res.metrics[name][0], "unit": res.metrics[name][1]}
                for name in names
            },
        }
    )


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--make-refs", action="store_true")
    args = ap.parse_args(argv)

    try:
        if args.make_refs:
            workloads = import_program()
            make_refs([args.workload] if args.workload else list(workloads.WORKLOADS))
            return 0
        if not args.workload:
            ap.error("--workload is required")
        wl, workdir, refs = setup(args.workload)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(f"ready {clock()!r}", flush=True)
            return 0
        if not refs:
            print(f"e2ebench: no reference digests for {args.workload}", file=sys.stderr)
            return 2
        names = declared_metrics(bool(args.trace))
        info = stamp(args.workload, args.seed, args.seconds, bool(args.trace))
        speed = Speed()
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            res = measure_traced(
                wl, args.seed, args.seconds, refs, trace_path=trace_path, stamp=info, speed=speed
            )
        else:
            setup_s, setup_cpu_s = measure_setup(args.workload)
            res = measure(wl, args.seed, args.seconds, refs, speed=speed)
            res.metrics["setup_s"] = (setup_s, "s")
            res.notes["setup_cpu_s"] = setup_cpu_s
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# stamp " + json.dumps(info))
    print("# notes " + json.dumps(res.notes))
    for rec in res.items:
        if rec.error is not None:
            print(f"# failed item {rec.key}: {rec.error}")
    if args.trace:
        print("# layers " + json.dumps({k: [v, u] for k, (v, u) in res.metrics.items()}))
    print(result_line(res, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
