"""Hyperspectral reductions: the Sec. 3.1 analysis.

Two reductions drive the Fig. 2 portal page:

* the **intensity image** — "a sum along the spectroscopy dimension to
  compute the intensity of the sample at each pixel" (Fig. 2A);
* the **sum spectrum** — "the entire sample's spectrum by summing the
  image over each of the pixel dimensions" (Fig. 2B), which "conveys
  information about the aggregate atomic composition".

On top of those we identify elements by matching spectrum peaks against
the characteristic-line table (what the paper's portal lists as "the
atomic composition of the sample").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ReproError
from ..instrument.xray import ELEMENT_LINES
from ..viz import apply_colormap, encode_png, image_figure, line_chart

__all__ = [
    "intensity_map",
    "sum_spectrum",
    "identify_elements",
    "ElementHit",
    "intensity_figure_svg",
    "spectrum_figure_svg",
]


def _check_cube(cube: np.ndarray) -> np.ndarray:
    cube = np.asarray(cube)
    if cube.ndim != 3:
        raise ReproError(f"hyperspectral cube must be 3-D (H, W, E), got {cube.shape}")
    return cube


def intensity_map(cube: np.ndarray) -> np.ndarray:
    """Sum along the spectral axis → H×W intensity image (Fig. 2A)."""
    return _check_cube(cube).sum(axis=2)


def sum_spectrum(cube: np.ndarray) -> np.ndarray:
    """Sum over both pixel axes → E-length spectrum (Fig. 2B)."""
    return _check_cube(cube).sum(axis=(0, 1))


@dataclass(frozen=True)
class ElementHit:
    """One identified element with its matched line evidence."""

    element: str
    line_label: str
    line_energy_ev: float
    peak_energy_ev: float
    prominence: float  # peak counts above local continuum


#: Flat characteristic-line table (element, label, energy) in
#: ``ELEMENT_LINES`` iteration order, built lazily once: peak→line
#: matching is then a single broadcast |ΔE| matrix instead of a
#: per-peak × per-element × per-line Python scan.  ``argmin`` takes the
#: first minimal entry, which is exactly the scan's strict-``<``
#: first-wins tie-break over the same ordering.
_LINE_TABLE: "tuple[tuple[str, ...], tuple[str, ...], np.ndarray] | None" = None


def _line_table() -> "tuple[tuple[str, ...], tuple[str, ...], np.ndarray]":
    global _LINE_TABLE
    if _LINE_TABLE is None:
        elements: list[str] = []
        labels: list[str] = []
        line_energies: list[float] = []
        for element, lines in ELEMENT_LINES.items():
            for line in lines:
                elements.append(element)
                labels.append(line.label)
                line_energies.append(line.energy_ev)
        _LINE_TABLE = (
            tuple(elements),
            tuple(labels),
            np.asarray(line_energies, dtype=np.float64),
        )
    return _LINE_TABLE


#: Window cells (spectrum length x median width) up to which numpy's
#: O(n*w) partition computes the continuum.  Beyond it, scipy's O(n log w)
#: median filter is imported at first use: at 4096 channels it is ~10x
#: faster per call.  Spectra up to 1247 channels, the 1024-channel default
#: included, stay on numpy and never load scipy.
_NUMPY_MEDIAN_MAX_CELLS = 1 << 16


def _median_nearest(x: np.ndarray, width: int) -> np.ndarray:
    """``ndimage.median_filter(x, size=width, mode="nearest")`` for odd
    ``width``.  The numpy path takes the middle order statistic of each
    edge-padded window: selection only, so the result is exact."""
    if x.size * width > _NUMPY_MEDIAN_MAX_CELLS:
        from scipy import ndimage

        return ndimage.median_filter(x, size=width, mode="nearest")
    half = width // 2
    windows = sliding_window_view(np.pad(x, half, mode="edge"), width)
    return np.partition(windows, half, axis=1)[:, half]


def _max5_reflect(x: np.ndarray) -> np.ndarray:
    """``ndimage.maximum_filter(x, size=5)``: the max of each window of
    five, padded by half-sample reflection (scipy's default ``"reflect"``
    mode is numpy's ``"symmetric"``)."""
    padded = np.pad(x, 2, mode="symmetric")
    n = x.size
    return np.maximum.reduce([padded[k : k + n] for k in range(5)])


def identify_elements(
    spectrum: np.ndarray,
    energies: np.ndarray,
    tolerance_ev: float = 60.0,
    min_prominence_frac: float = 0.01,
) -> list[ElementHit]:
    """Match spectrum peaks to characteristic lines.

    Peaks are local maxima of the continuum-subtracted spectrum whose
    prominence exceeds ``min_prominence_frac`` of the largest peak; each
    is attributed to the nearest tabulated line within ``tolerance_ev``.
    An element is reported once per matched line (strongest peak wins).
    A spectrum holding NaN or inf raises :class:`ReproError`: no peak
    compares true against a NaN, so it would otherwise match nothing.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    energies = np.asarray(energies, dtype=np.float64)
    if spectrum.shape != energies.shape:
        raise ReproError("spectrum and energies must be the same length")
    if not np.isfinite(spectrum).all():
        raise ReproError("spectrum contains NaN or inf")
    if not spectrum.size:
        return []
    # Continuum estimate: heavy median smoothing.
    width = max(9, len(spectrum) // 24) | 1  # odd
    residual = spectrum - _median_nearest(spectrum, width)
    peaks_mask = (residual == _max5_reflect(residual)) & (residual > 0)
    if not peaks_mask.any():
        return []
    threshold = residual[peaks_mask].max() * min_prominence_frac
    peak_idx = np.nonzero(peaks_mask & (residual > threshold))[0]

    elements, labels, line_energies = _line_table()
    # Broadcast |line − peak| over every (peak, line) pair at once; the
    # nearest in-tolerance line per peak replaces the scalar scan.
    deltas = np.abs(line_energies[None, :] - energies[peak_idx][:, None])
    within = deltas <= tolerance_ev
    matched = within.any(axis=1)
    best_line = np.where(within, deltas, np.inf).argmin(axis=1)

    hits: dict[tuple[str, str], ElementHit] = {}
    for j, i in enumerate(peak_idx):
        if not matched[j]:
            continue
        prominence = float(residual[i])
        li = int(best_line[j])
        key = (elements[li], labels[li])
        if key not in hits or hits[key].prominence < prominence:
            hits[key] = ElementHit(
                element=elements[li],
                line_label=labels[li],
                line_energy_ev=float(line_energies[li]),
                peak_energy_ev=float(energies[i]),
                prominence=prominence,
            )
    return sorted(hits.values(), key=lambda h: -h.prominence)


def intensity_figure_svg(cube: np.ndarray, title: str = "Intensity image") -> str:
    """Fig. 2A: colormapped intensity image as embeddable SVG."""
    img = intensity_map(cube)
    rgb = apply_colormap(img, "viridis")
    png = encode_png(rgb)
    return image_figure(
        png, title=title, caption="sum over the spectroscopy dimension"
    )


def spectrum_figure_svg(
    cube: np.ndarray, energies: np.ndarray, title: str = "Sum spectrum"
) -> str:
    """Fig. 2B: the total spectrum as embeddable SVG."""
    spec = sum_spectrum(cube)
    return line_chart(
        [("spectrum", list(np.asarray(energies, dtype=float)), list(spec))],
        title=title,
        xlabel="energy (eV)",
        ylabel="counts",
        show_legend=False,
    )
