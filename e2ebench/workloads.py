"""The four benchmark workloads: what one item is, and how its output is checked.

Every item is drawn from a fixed pool of item keys, and the pool has a
committed reference digest per key (``refs.json``), so every item of
every seed is checked against a reference.  The workload seed picks
which pool items a run sees and in what order (a seeded shuffle); the
program only receives the generated inputs (acquisition seeds, use
cases, chaos plans).

Content items run the real bytes path on one acquisition: instrument →
h5lite EMD file → analysis → search document → search index → portal
page.  Campaign items run one simulated hour through
``repro.core.run_campaign`` (or its chaos and integrity runners).
"""

from __future__ import annotations

import hashlib
import html
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

import repro.chaos
import repro.core
import repro.core.extensions  # noqa: F401  (lazily imported by run_campaign)
import repro.core.functions
import repro.emd
import repro.instrument
import repro.integrity
import repro.portal
import repro.search
import repro.stream  # noqa: F401  (lazily imported by stream-mode campaigns)
from repro.analysis import LabelingSpec, calibrate, hand_label, split_9_3_1
from repro.rng import RngRegistry

#: Laptop-scale item sizes: each content item takes ~0.1 s on a 2-core
#: x86 box, so an 18 s run gives the >=100 items a p90 needs.
HYPER_SHAPE = (32, 32)
HYPER_CHANNELS = 512
MOVIE_SPEC = repro.instrument.MovieSpec(
    n_frames=4, shape=(128, 128), n_particles=5, radius_range=(4.0, 9.0)
)

#: The detector is tuned once, offline, on a fixed labelled movie (the
#: paper fine-tunes its model before the campaign), so every workload
#: seed runs the same operating point.
CALIBRATION_SEED = 20230601
CALIBRATION_SPEC = repro.instrument.MovieSpec(
    n_frames=30, shape=(128, 128), n_particles=5, radius_range=(4.0, 9.0)
)

#: Use-case rotation of campaign-stream: 2:1 hyperspectral to
#: spatiotemporal, so every seed runs the same mix and neither p50 nor p90
#: falls on the boundary between the two kinds.
USE_CASE_MIX = ("hyperspectral", "hyperspectral", "spatiotemporal")
#: Chaos plan rotation of campaign-stream.
STREAM_PLANS = ("clean", "degraded-net", "corruption")


def digest(summary: Any) -> str:
    """Stable digest of an item's checked output."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


@dataclass
class Outcome:
    """What one item produced."""

    #: JSON-able output whose digest is compared with the reference.
    summary: Any
    #: Invariant violations found while checking (each one fails the item).
    problems: list[str] = field(default_factory=list)
    #: Acquired tensor megabytes (content items).
    mb: float = 0.0
    #: Simulated seconds completed (campaign items).
    sim_s: float = 0.0
    #: The program's result object, for public-state counts in a traced pass.
    raw: Any = None


def _shuffled(pool: list[str], salt: str, seed: int) -> Iterator[str]:
    order = list(pool)
    random.Random(f"{salt}:{seed}").shuffle(order)
    return itertools.cycle(order)


class Workload:
    name = ""
    #: Items per pass of the traced run (a fixed prefix of the item list).
    trace_items = 0
    #: True when the item's wall time includes checking its summary
    #: (campaigns: "until its summary has been checked").
    check_timed = False

    def setup(self, workdir: str) -> None:
        self.workdir = workdir

    def begin_pass(self) -> None:
        """Reset per-pass state (each traced/untraced pass starts fresh)."""

    def pool(self) -> list[str]:
        raise NotImplementedError

    def keys(self, seed: int) -> Iterator[str]:
        return _shuffled(self.pool(), self.name, seed)

    def run(self, j: int, key: str) -> Outcome:
        raise NotImplementedError

    def cleanup(self, j: int, key: str) -> None:
        """Remove the item's files (outside the timed region)."""

    def harvest(self, raw: Any, counts: Any) -> None:
        """Add public-state counts of one item's result (traced pass)."""


# -- content ---------------------------------------------------------------------


class _Content(Workload):
    """The real-bytes path of one acquisition, from instrument to portal page."""

    pool_size = 256
    trace_items = 24

    def begin_pass(self) -> None:
        self.index = repro.search.SearchIndex("e2ebench")
        self.portal = repro.portal.Portal(self.index)

    def pool(self) -> list[str]:
        return [str(k) for k in range(self.pool_size)]

    def _paths(self, key: str) -> tuple[str, str]:
        stem = os.path.join(self.workdir, f"k{int(key):04d}")
        return stem + ".emd", stem

    def run(self, j: int, key: str) -> Outcome:
        path, outdir = self._paths(key)
        probe = repro.instrument.PicoProbe(RngRegistry(seed=int(key)), operator="e2ebench")
        doc, mb = self._acquire_and_analyze(probe, int(key), path, outdir)
        subject = f"item-{j:06d}"
        self.index.ingest(subject, doc)
        page = self.portal.render_record(subject)
        listing = self.portal.render_index()
        problems = self._problems(doc)
        if html.escape(doc["title"], quote=False) not in page:
            problems.append("record page lacks the record title")
        if f"Experiments ({len(self.index)})" not in listing:
            problems.append("index page does not list every record")
        # Host paths are the only run-dependent part of a search document.
        text = json.dumps(doc, sort_keys=True).replace(self.workdir, "<work>")
        return Outcome(summary=self._summary(json.loads(text)), problems=problems, mb=mb)

    def _problems(self, doc: dict) -> list[str]:
        return []

    def cleanup(self, j: int, key: str) -> None:
        path, outdir = self._paths(key)
        os.remove(path)
        shutil.rmtree(outdir, ignore_errors=True)


class ContentHyperspectral(_Content):
    """EDS cube → zlib EMD → reductions and SVG plots → growing index → page."""

    name = "content-hyperspectral"

    def _acquire_and_analyze(self, probe, key, path, outdir):
        signal, _ = probe.acquire_hyperspectral(
            shape=HYPER_SHAPE, n_channels=HYPER_CHANNELS, acquired_at=60.0 * key
        )
        repro.emd.write_emd(path, signal, compression="zlib")
        doc = repro.core.functions.analyze_hyperspectral_file(path, outdir)
        return doc, signal.data.nbytes / 1e6

    def _summary(self, doc: dict) -> dict:
        return {"document": doc, "detected_elements": doc["detected_elements"]}


class ContentMovie(_Content):
    """Nanoparticle movie → uncompressed EMD → detection and annotation → page."""

    name = "content-movie"

    def setup(self, workdir: str) -> None:
        super().setup(workdir)
        probe = repro.instrument.PicoProbe(RngRegistry(seed=CALIBRATION_SEED), operator="e2ebench")
        signal, truth = probe.acquire_spatiotemporal(CALIBRATION_SPEC)
        labeled = hand_label(truth, LabelingSpec(every_nth=5), rng=np.random.default_rng(1))
        train, _, _ = split_9_3_1(labeled)
        self.params, _ = calibrate(
            [signal.data[lf.frame_index] for lf in train],
            [lf.boxes for lf in train],
            thresholds=(4.0, 9.0, 14.0),
            radius_scales=(1.85, 2.0),
        )

    def _acquire_and_analyze(self, probe, key, path, outdir):
        signal, _ = probe.acquire_spatiotemporal(MOVIE_SPEC, acquired_at=60.0 * key)
        repro.emd.write_emd(path, signal)
        doc = repro.core.functions.analyze_spatiotemporal_file(
            path,
            outdir,
            detector_params=self.params,
            confidence_threshold=self.params.operating_confidence,
        )
        return doc, signal.data.nbytes / 1e6

    def _summary(self, doc: dict) -> dict:
        return {"document": doc, "detections_per_frame": doc["particle_counts"]}

    def _problems(self, doc: dict) -> list[str]:
        n = len(doc["particle_counts"])
        if n != MOVIE_SPEC.n_frames:
            return [f"detections for {n} of {MOVIE_SPEC.n_frames} frames"]
        return []


# -- campaigns -------------------------------------------------------------------------


def _rotation_keys(kinds: tuple[tuple[str, ...], ...], pool_size: int, salt: str, seed: int):
    """Keys ``kind/c`` for a fixed rotation of item kinds; each kind walks
    its own seeded shuffle of ``pool_size`` campaign seeds."""
    walks: dict[tuple[str, ...], Iterator[str]] = {}
    for kind in itertools.cycle(kinds):
        if kind not in walks:
            pool = [str(c) for c in range(pool_size)]
            walks[kind] = _shuffled(pool, f"{salt}:{'/'.join(kind)}", seed)
        yield "/".join(kind + (next(walks[kind]),))


class CampaignFile(Workload):
    """One clean 1-hour file-mode campaign; checks its Table 1 row."""

    name = "campaign-file"
    trace_items = 30
    check_timed = True
    # An 18 s run holds ~90 hyperspectral and ~180 spatiotemporal
    # campaigns; with 32 per use case every run sees each of them several
    # times, so which campaigns a seed draws barely moves the figures.
    pool_size = 32
    # 1:2 hyperspectral:spatiotemporal.  At 2:1 the p50 fell at the 25th
    # percentile of the hyperspectral costs, where they rise steeply from a
    # low tail (55-90 ms) to their mode (~105 ms), and swung by 10-20%
    # between runs.  At 1:2, p50 sits inside the narrow spatiotemporal
    # band and p90 at the 70th percentile of the hyperspectral mode.
    kinds = (("hyperspectral",), ("spatiotemporal",), ("spatiotemporal",))

    def pool(self) -> list[str]:
        return [f"{uc}/{c}" for (uc,) in sorted(set(self.kinds)) for c in range(self.pool_size)]

    def keys(self, seed: int) -> Iterator[str]:
        return _rotation_keys(self.kinds, self.pool_size, self.name, seed)

    def run(self, j: int, key: str) -> Outcome:
        use_case, c = key.split("/")
        result = repro.core.run_campaign(use_case, seed=int(c))
        row = result.table1()
        # The run in flight when the hour ends stays ACTIVE; none may fail.
        failed = [r.run_id for r in result.runs if r.status.value == "FAILED"]
        problems = [f"flow runs failed: {failed}"] if failed or row.total_runs < 1 else []
        return Outcome(
            summary=row.__dict__,
            problems=problems,
            sim_s=result.testbed.env.now,
            raw=result,
        )

    def harvest(self, raw: Any, counts: Any) -> None:
        counts["compute.cold_starts"] += raw.testbed.polaris.cold_starts


class CampaignStream(Workload):
    """One 1-hour stream-mode campaign under a rotating chaos plan; checks
    its session summaries and, under corruption, the integrity audit."""

    name = "campaign-stream"
    trace_items = 9
    check_timed = True
    # One campaign's cost varies by ~15% (IQR) with its campaign seed, and a
    # 18 s run holds only ~32 campaigns.  With 4 campaigns per plan and use
    # case every run covers them all (hyperspectral ones twice), so p50 and
    # p90 measure the program, not which campaigns the workload seed drew.
    pool_size = 4
    kinds = tuple((plan, uc) for uc in USE_CASE_MIX for plan in STREAM_PLANS)

    def pool(self) -> list[str]:
        return [
            f"{plan}/{uc}/{c}"
            for plan, uc in sorted(set(self.kinds))
            for c in range(self.pool_size)
        ]

    def keys(self, seed: int) -> Iterator[str]:
        return _rotation_keys(self.kinds, self.pool_size, self.name, seed)

    def run(self, j: int, key: str) -> Outcome:
        plan, use_case, c = key.split("/")
        report = None
        if plan == "clean":
            result = repro.core.run_campaign(use_case, seed=int(c), ingest="stream")
        elif plan == "corruption":
            result, report = repro.integrity.run_integrity_campaign(
                plan, use_case=use_case, seed=int(c), ingest="stream"
            )
        else:
            result = repro.chaos.run_chaos_campaign(
                plan, use_case=use_case, seed=int(c), ingest="stream"
            )
        sessions = [
            [
                s.status,
                s.total_chunks,
                s.chunks_sent,
                s.naks,
                s.retransmits,
                s.renegotiations,
                s.duplicates,
                s.gaps,
                s.end_to_end_s,
            ]
            for s in result.stream_sessions
        ]
        problems = []
        if not sessions:
            problems.append("no stream sessions")
        summary: dict[str, Any] = {"sessions": sessions}
        if result.chaos is not None:
            summary["injections"] = len(result.chaos.injections)
        if report is not None:
            summary["audit"] = report.by_resolution()
            if not report.ok:
                problems.append(
                    f"integrity audit: {len(report.silent)} silent, "
                    f"{len(report.unresolved_paths)} unresolved, "
                    f"{len(report.publish_violations)} publish violations"
                )
        return Outcome(
            summary=summary,
            problems=problems,
            sim_s=result.testbed.env.now,
            raw=(result, report),
        )

    def harvest(self, raw: Any, counts: Any) -> None:
        result, report = raw
        counts["compute.cold_starts"] += result.testbed.polaris.cold_starts
        for s in result.stream_sessions:
            counts["stream.chunks_sent"] += s.chunks_sent
            counts["stream.naks"] += s.naks
            counts["stream.retransmits"] += s.retransmits
            counts["stream.renegotiations"] += s.renegotiations
        if result.chaos is not None:
            counts["chaos.injections"] += len(result.chaos.injections)
        if result.ledger is not None:
            counts["integrity.repairs"] += len(result.ledger.repairs)
            counts["integrity.quarantined"] += len(result.ledger.quarantined)
        if report is not None:
            counts["integrity.silent"] += len(report.silent)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ContentHyperspectral, ContentMovie, CampaignFile, CampaignStream)
}


def make(name: str) -> Optional[Workload]:
    cls = WORKLOADS.get(name)
    return cls() if cls is not None else None
