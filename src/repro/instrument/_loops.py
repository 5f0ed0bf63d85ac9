"""Reference loop implementation of the phantom particle mask.

The pre-vectorization full-frame soft-disk loop, kept verbatim as the
*numeric ground truth* for the windowed :func:`.phantoms.particle_mask`:

* ``tests/test_dataplane_identity.py`` asserts the vectorized output
  is bit-for-bit equal to it across seeds;
* ``repro bench dataplane`` times both and reports the speedup.

Movie synthesis has no reference: it is itself the per-frame loop.
Not exported; product code must not load this module
(``tests/test_import_budget.py``).
"""

from __future__ import annotations

import numpy as np

from .phantoms import Particle


def _soft_disk_loops(
    shape: tuple[int, int], row: float, col: float, radius: float, softness: float = 1.0
) -> np.ndarray:
    """Pre-PR ``_soft_disk``: full-frame distance transform per particle."""
    rr = np.arange(shape[0], dtype=np.float64)[:, None]
    cc = np.arange(shape[1], dtype=np.float64)[None, :]
    d = np.sqrt((rr - row) ** 2 + (cc - col) ** 2)
    return np.clip((radius - d) / max(softness, 1e-6) + 0.5, 0.0, 1.0)


def particle_mask_loops(
    shape: tuple[int, int], particles: "list[Particle]"
) -> np.ndarray:
    """Pre-PR ``particle_mask``: one full-frame soft disk per particle."""
    out = np.zeros(shape, dtype=np.float64)
    for p in particles:
        out += _soft_disk_loops(shape, p.row, p.col, p.radius)
    return out
