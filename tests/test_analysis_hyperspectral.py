"""Tests for hyperspectral reductions, metadata extraction, and video
conversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    build_search_document,
    convert_emd_to_video,
    extract_metadata,
    frame_to_uint8,
    identify_elements,
    intensity_figure_svg,
    intensity_map,
    metadata_tree,
    movie_to_uint8,
    read_video,
    spectrum_figure_svg,
    sum_spectrum,
    video_info,
    write_video,
)
from repro.emd import EmdSignal, default_dims, write_emd
from repro.errors import FormatError, ReproError
from repro.instrument import MovieSpec, PicoProbe, energy_axis
from repro.rng import RngRegistry
from repro.search import validate_datacite


@pytest.fixture(scope="module")
def hyper_signal():
    probe = PicoProbe(RngRegistry(0), operator="alice")
    sig, particles = probe.acquire_hyperspectral(shape=(48, 48), n_channels=512)
    return sig, particles


# -- reductions --------------------------------------------------------------


def test_intensity_map_shape(hyper_signal):
    sig, _ = hyper_signal
    img = intensity_map(sig.data)
    assert img.shape == (48, 48)
    np.testing.assert_allclose(img, sig.data.sum(axis=2))


def test_sum_spectrum_shape(hyper_signal):
    sig, _ = hyper_signal
    spec = sum_spectrum(sig.data)
    assert spec.shape == (512,)
    np.testing.assert_allclose(spec, sig.data.sum(axis=(0, 1)))


def test_reductions_reject_non_cube():
    with pytest.raises(ReproError):
        intensity_map(np.zeros((4, 4)))
    with pytest.raises(ReproError):
        sum_spectrum(np.zeros(4))


def test_identify_elements_finds_film_composition(hyper_signal):
    sig, _ = hyper_signal
    energies = sig.dims[2].values
    spec = sum_spectrum(sig.data)
    hits = identify_elements(spec, energies)
    found = {h.element for h in hits}
    # The polyamide film's light elements dominate the spectrum.
    assert {"C", "N", "O"} <= found


def test_identify_elements_validation():
    with pytest.raises(ReproError):
        identify_elements(np.zeros(10), np.zeros(11))


def test_identify_elements_flat_spectrum():
    e = energy_axis(128)
    assert identify_elements(np.zeros(128), e) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_identify_elements_rejects_non_finite(bad):
    e = energy_axis(128)
    spec = np.ones(128)
    spec[40] = bad
    with pytest.raises(ReproError, match="NaN or inf"):
        identify_elements(spec, e)


def test_identify_elements_empty_spectrum():
    assert identify_elements(np.zeros(0), np.zeros(0)) == []


def test_figure_svgs_render(hyper_signal):
    sig, _ = hyper_signal
    f1 = intensity_figure_svg(sig.data)
    f2 = spectrum_figure_svg(sig.data, sig.dims[2].values)
    assert f1.startswith("<svg") and "base64" in f1
    assert f2.startswith("<svg") and "polyline" in f2


# -- metadata extraction ----------------------------------------------------------


def test_extract_metadata_from_file(tmp_path, hyper_signal):
    sig, _ = hyper_signal
    path = tmp_path / "a.emd"
    write_emd(path, sig)
    md = extract_metadata(path)
    assert md == sig.metadata


def test_metadata_tree_structure(hyper_signal):
    sig, _ = hyper_signal
    tree = metadata_tree(sig.metadata)
    assert tree["General"]["operator"] == "alice"
    assert tree["Acquisition_instrument"]["TEM"]["beam_energy_kev"] == 300.0
    assert tree["Acquisition_instrument"]["TEM"]["Detectors"][0]["name"] == "XPAD"
    assert tree["Signal"]["signal_type"] == "hyperspectral"
    assert tree["Sample"]["elements"]


def test_build_search_document_is_valid_datacite(hyper_signal):
    sig, _ = hyper_signal
    doc = build_search_document(
        sig.metadata,
        plots={"intensity": "<svg/>"},
        data_location="/eagle/data/a.emd",
    )
    validate_datacite(doc)
    assert doc["experiment"]["signal_type"] == "hyperspectral"
    assert doc["plots"]["intensity"] == "<svg/>"
    assert doc["data_location"] == "/eagle/data/a.emd"
    assert "hyperspectral" in doc["subjects"]


# -- video conversion -------------------------------------------------------------


def test_movie_to_uint8_casts_and_scales():
    movie = np.linspace(0, 1000, 4 * 8 * 8).reshape(4, 8, 8).astype(np.float64)
    out = movie_to_uint8(movie)
    assert out.dtype == np.uint8
    assert out.shape == movie.shape
    assert out.max() == 255
    assert out.min() == 0


def test_movie_to_uint8_constant_input():
    out = movie_to_uint8(np.full((2, 4, 4), 7.0))
    assert (out == 0).all()


def test_movie_to_uint8_validation():
    with pytest.raises(FormatError):
        movie_to_uint8(np.zeros((4, 4)))
    with pytest.raises(FormatError, match="non-empty"):
        movie_to_uint8(np.zeros((0, 4, 4)))


def test_movie_to_uint8_rejects_nan():
    # One NaN pixel makes both percentile bounds NaN, which would cast
    # the whole movie to zero.
    movie = np.random.default_rng(0).uniform(0.0, 100.0, size=(3, 8, 8))
    movie[1, 2, 3] = np.nan
    with pytest.raises(FormatError, match="movie: normalization bounds .* not finite"):
        movie_to_uint8(movie)


def test_frame_to_uint8_bounds():
    frame = np.array([[0.0, 50.0, 100.0, 200.0]])
    out = frame_to_uint8(frame, 0.0, 100.0)
    assert list(out[0]) in ([0, 127, 254, 255], [0, 127, 255, 255])


def test_video_roundtrip(tmp_path):
    frames = [np.full((8, 8), i * 10, dtype=np.uint8) for i in range(5)]
    path = tmp_path / "m.mpng"
    n = write_video(path, frames, fps=10.0)
    assert n == 5
    assert video_info(path) == (5, 10.0)
    payloads = list(read_video(path))
    assert len(payloads) == 5
    assert all(p.startswith(b"\x89PNG") for p in payloads)


def test_video_bad_fps(tmp_path):
    path = tmp_path / "m.mpng"
    for fps in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(FormatError, match="fps"):
            write_video(path, [np.zeros((4, 4), dtype=np.uint8)], fps=fps)
        assert not path.exists()


def test_video_truncation_detected(tmp_path):
    path = tmp_path / "m.mpng"
    write_video(path, [np.zeros((4, 4), dtype=np.uint8)] * 3, fps=5)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 10])
    with pytest.raises(FormatError):
        list(read_video(path))


def test_video_not_mpng(tmp_path):
    path = tmp_path / "m.mpng"
    path.write_bytes(b"garbage" * 10)
    with pytest.raises(FormatError):
        video_info(path)


def test_convert_emd_to_video(tmp_path):
    probe = PicoProbe(RngRegistry(0))
    spec = MovieSpec(n_frames=4, shape=(32, 32), n_particles=2, radius_range=(3, 5))
    sig, _ = probe.acquire_spatiotemporal(spec)
    emd_path = tmp_path / "movie.emd"
    write_emd(emd_path, sig)
    out = tmp_path / "movie.mpng"
    n = convert_emd_to_video(emd_path, out, fps=25.0)
    assert n == 4
    assert video_info(out) == (4, 25.0)


def test_convert_emd_to_video_rejects_nan_frame(tmp_path):
    probe = PicoProbe(RngRegistry(0))
    spec = MovieSpec(n_frames=4, shape=(32, 32), n_particles=2, radius_range=(3, 5))
    sig, _ = probe.acquire_spatiotemporal(spec)
    sig.data[2, 5, 7] = np.nan
    emd_path = tmp_path / "movie.emd"
    write_emd(emd_path, sig)
    out = tmp_path / "movie.mpng"
    with pytest.raises(FormatError, match="frame 2: normalization bounds .* not finite"):
        convert_emd_to_video(emd_path, out)
    assert not out.exists()


def test_convert_emd_to_video_rejects_empty_movie(tmp_path):
    probe = PicoProbe(RngRegistry(0))
    spec = MovieSpec(n_frames=1, shape=(32, 32), n_particles=1, radius_range=(3, 5))
    sig, _ = probe.acquire_spatiotemporal(spec)
    empty = np.zeros((0, 32, 32))
    sig = EmdSignal(name=sig.name, data=empty, metadata=sig.metadata,
                    dims=default_dims(empty.shape, "spatiotemporal"))
    write_emd(tmp_path / "empty.emd", sig)
    with pytest.raises(FormatError, match="no frames"):
        convert_emd_to_video(tmp_path / "empty.emd", tmp_path / "empty.mpng")


def test_convert_rejects_hyperspectral(tmp_path):
    probe = PicoProbe(RngRegistry(0))
    sig, _ = probe.acquire_hyperspectral(shape=(32, 32), n_channels=16)
    emd_path = tmp_path / "cube.emd"
    write_emd(emd_path, sig)
    with pytest.raises(FormatError, match="spatiotemporal"):
        convert_emd_to_video(emd_path, tmp_path / "x.mpng")
