"""Import budget of the campaign and content paths.

The DES campaign path (file and stream ingest, chaos, integrity) and the
hyperspectral content path need numpy alone: scipy loads at the first
blob detection or track assignment, networkx is a test oracle only, and
the lint engine loads when a sanitizer report is rendered.  The movie
content path needs scipy for detection but nothing else.  No product
path loads the frozen loop references in ``instrument/_loops.py`` and
``analysis/_loops.py``, which exist only for the identity tests and
``repro bench dataplane``.  Each case runs in a fresh interpreter so
modules imported by other tests cannot hide a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Frozen loop references: test and bench oracles, never product code.
ORACLES = ("repro.instrument._loops", "repro.analysis._loops")
#: Module prefixes the movie content path must never load.
FORBIDDEN_WITH_SCIPY = ("networkx", "repro.lint") + ORACLES
#: Module prefixes the campaign and hyperspectral paths must never load.
FORBIDDEN = ("scipy",) + FORBIDDEN_WITH_SCIPY


def _run_fresh(code: str, tmp_path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_campaign_and_hyperspectral_paths_load_no_heavy_modules(tmp_path):
    out = _run_fresh(
        f"""
        import sys

        import repro, repro.core, repro.chaos, repro.integrity, repro.stream
        from repro.core.functions import analyze_hyperspectral_file
        from repro.emd import write_emd
        from repro.instrument import PicoProbe
        from repro.rng import RngRegistry

        result = repro.core.run_campaign("hyperspectral", duration_s=300.0, seed=1)
        assert result.runs, "file-mode campaign ran no flows"
        chaos = repro.chaos.run_chaos_campaign(
            "degraded-net", use_case="hyperspectral", duration_s=300.0,
            seed=1, ingest="stream",
        )
        assert chaos.stream_sessions, "stream-mode chaos campaign streamed nothing"
        _, report = repro.integrity.run_integrity_campaign(
            "corruption", use_case="hyperspectral", duration_s=300.0, seed=1,
        )
        assert report.ok, "integrity audit failed"

        signal, _ = PicoProbe(RngRegistry(seed=3)).acquire_hyperspectral(
            shape=(32, 32), n_channels=256
        )
        write_emd("cube.emd", signal, compression="zlib")
        doc = analyze_hyperspectral_file("cube.emd", "out")
        assert doc["detected_elements"], "no elements identified"

        loaded = sorted(m for m in sys.modules if m.startswith({FORBIDDEN!r}))
        print("LOADED", loaded)
        """,
        tmp_path,
    )
    assert "LOADED []" in out, out


def test_content_movie_path_loads_no_oracle(tmp_path):
    out = _run_fresh(
        f"""
        import sys

        from repro.core.functions import analyze_spatiotemporal_file
        from repro.emd import write_emd
        from repro.instrument import MovieSpec, PicoProbe
        from repro.rng import RngRegistry

        spec = MovieSpec(n_frames=4, shape=(96, 96), n_particles=3,
                         radius_range=(4.0, 8.0))
        signal, _ = PicoProbe(RngRegistry(seed=3)).acquire_spatiotemporal(spec)
        write_emd("movie.emd", signal)
        doc = analyze_spatiotemporal_file("movie.emd", "out")
        assert doc["mean_particle_count"] > 0, "no particles counted"

        loaded = sorted(m for m in sys.modules if m.startswith({FORBIDDEN_WITH_SCIPY!r}))
        print("LOADED", loaded)
        print("SCIPY", "scipy.ndimage" in sys.modules)
        """,
        tmp_path,
    )
    assert "LOADED []" in out, out
    assert "SCIPY True" in out, out


def test_blob_detector_is_first_scipy_user(tmp_path):
    out = _run_fresh(
        """
        import sys

        import numpy as np

        from repro.analysis import BlobDetector

        assert "scipy" not in sys.modules
        yy, xx = np.mgrid[:64, :64]
        frame = 100.0 * np.exp(-((yy - 30.0) ** 2 + (xx - 22.0) ** 2) / 18.0)
        dets = BlobDetector().detect(frame)
        assert dets, "no blob detected"
        best = max(dets, key=lambda d: d.confidence)
        print("CENTER", round(best.center[0]), round(best.center[1]))
        print("SCIPY", "scipy.ndimage" in sys.modules)
        """,
        tmp_path,
    )
    assert "CENTER 22 30" in out, out
    assert "SCIPY True" in out, out
