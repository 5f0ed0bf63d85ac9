"""Spatiotemporal movie synthesis: gold nanoparticles in Brownian motion.

The paper's second use case is a 600-frame movie of gold nanoparticles
moving on a carbon background (Sec. 3.2).  This module simulates particle
trajectories (Brownian diffusion + slow drift, reflective boundaries) and
renders detector-count frames: bright Gaussian blobs on a noisy support
film, stored float64 exactly as the paper's EMD files are (the expensive
fp64→uint8 cast in the conversion step is then faithful).

Rendering is windowed and per frame (:func:`render_frame`): each
particle touches only a local ±3σ patch, so cost scales with particle
area, not frame area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from .phantoms import Particle

__all__ = ["MotionModel", "MovieSpec", "simulate_trajectories", "render_frame", "generate_movie"]


@dataclass(frozen=True)
class MotionModel:
    """Brownian + drift kinematics in pixels/frame."""

    diffusion_px: float = 1.5  # per-axis std of the Brownian step
    drift_px: tuple[float, float] = (0.05, 0.02)  # (row, col) per frame
    margin_px: float = 4.0  # reflective wall inset


@dataclass(frozen=True)
class MovieSpec:
    """Geometry and radiometry of a synthetic movie."""

    n_frames: int = 600
    shape: tuple[int, int] = (640, 640)
    n_particles: int = 20
    radius_range: tuple[float, float] = (6.0, 14.0)
    background_level: float = 120.0  # mean carbon-support counts
    background_noise: float = 12.0  # gaussian read noise std
    particle_peak: float = 2400.0  # peak counts at particle center
    motion: MotionModel = field(default_factory=MotionModel)

    def __post_init__(self) -> None:
        lo, hi = self.radius_range
        numbers = (*self.shape, self.n_frames, self.n_particles, lo, hi,
                   self.background_level, self.background_noise, self.particle_peak)
        if not (
            all(math.isfinite(v) for v in numbers)
            and min(*self.shape, self.n_frames, self.n_particles) >= 1
            and 0 < lo <= hi
            and self.particle_peak > 0
            and self.background_noise >= 0
        ):
            raise ReproError(f"invalid movie spec: {self}")


def simulate_trajectories(
    spec: MovieSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(positions, radii)``: positions is (T, N, 2) float64
    (row, col), radii is (N,).  Walls reflect; radii are constant."""
    h, w = spec.shape
    m = spec.motion
    radii = rng.uniform(*spec.radius_range, size=spec.n_particles)
    lo = m.margin_px + radii  # per-particle wall inset
    hi_r = h - m.margin_px - radii
    hi_c = w - m.margin_px - radii
    if (hi_r <= lo).any() or (hi_c <= lo).any():
        raise ReproError(f"frame {spec.shape} too small for radii up to {radii.max():.1f}")

    pos = np.empty((spec.n_frames, spec.n_particles, 2), dtype=np.float64)
    pos[0, :, 0] = rng.uniform(lo, hi_r)
    pos[0, :, 1] = rng.uniform(lo, hi_c)
    steps = rng.normal(0.0, m.diffusion_px, size=(spec.n_frames - 1, spec.n_particles, 2))
    steps[..., 0] += m.drift_px[0]
    steps[..., 1] += m.drift_px[1]
    for t in range(1, spec.n_frames):
        p = pos[t - 1] + steps[t - 1]
        # Reflect off per-particle walls (one bounce is enough for small steps).
        p[:, 0] = np.where(p[:, 0] < lo, 2 * lo - p[:, 0], p[:, 0])
        p[:, 0] = np.where(p[:, 0] > hi_r, 2 * hi_r - p[:, 0], p[:, 0])
        p[:, 1] = np.where(p[:, 1] < lo, 2 * lo - p[:, 1], p[:, 1])
        p[:, 1] = np.where(p[:, 1] > hi_c, 2 * hi_c - p[:, 1], p[:, 1])
        pos[t] = p
    return pos, radii


def render_frame(
    shape: tuple[int, int],
    centers: np.ndarray,
    radii: np.ndarray,
    spec: MovieSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render one float64 frame: noisy background + Gaussian particles."""
    h, w = shape
    frame = rng.normal(spec.background_level, spec.background_noise, size=shape)
    for (row, col), r in zip(centers, radii):
        sigma = r / 1.8
        half = int(np.ceil(3 * sigma))
        r0, r1 = max(int(row) - half, 0), min(int(row) + half + 1, h)
        c0, c1 = max(int(col) - half, 0), min(int(col) + half + 1, w)
        if r1 <= r0 or c1 <= c0:
            continue
        rr = np.arange(r0, r1, dtype=np.float64)[:, None]
        cc = np.arange(c0, c1, dtype=np.float64)[None, :]
        blob = np.exp(-0.5 * (((rr - row) ** 2 + (cc - col) ** 2) / sigma**2))
        frame[r0:r1, c0:c1] += spec.particle_peak * blob
    np.clip(frame, 0.0, None, out=frame)
    return frame


def generate_movie(
    spec: MovieSpec, rng: "np.random.Generator | None" = None
) -> tuple[np.ndarray, list[list[Particle]]]:
    """Simulate and render a full movie.

    Returns ``(movie, truth)`` where ``movie`` is (T, H, W) float64 and
    ``truth[t]`` lists the ground-truth :class:`Particle` records for
    frame ``t`` (bounding boxes at ±radius around each center).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    pos, radii = simulate_trajectories(spec, rng)
    movie = np.empty((spec.n_frames, *spec.shape), dtype=np.float64)
    for t in range(spec.n_frames):
        movie[t] = render_frame(spec.shape, pos[t], radii, spec, rng)
    radii_list = radii.tolist()
    truth: list[list[Particle]] = [
        [
            Particle(row=rc[0], col=rc[1], radius=rad, element="Au")
            for rc, rad in zip(frame_pos, radii_list)
        ]
        for frame_pos in pos.tolist()
    ]
    return movie, truth
