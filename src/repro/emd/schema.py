"""Experiment metadata model for EMD files.

Mirrors the metadata the paper extracts with HyperSpy (Sec. 2.2.2):
sample collection date/time; acquisition instrument details such as stage
and detector positions, beam energy, and magnification; and software
versioning.  Stored inside EMD files as a JSON payload (the same
convention Velox/EMD uses), and re-parsed by
:mod:`repro.analysis.metadata` on the HPC side.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from ..errors import FormatError

__all__ = [
    "StagePosition",
    "DetectorConfig",
    "MicroscopeState",
    "SampleInfo",
    "AcquisitionMetadata",
    "SOFTWARE_VERSION",
]

#: Version string recorded in every file (the "software versioning" field).
SOFTWARE_VERSION = "picoprobe-dataflow/1.0.0"


@dataclass(frozen=True)
class StagePosition:
    """Specimen-stage pose: position in micrometres, tilts in degrees."""

    x_um: float = 0.0
    y_um: float = 0.0
    z_um: float = 0.0
    alpha_deg: float = 0.0
    beta_deg: float = 0.0


@dataclass(frozen=True)
class DetectorConfig:
    """One detector channel on the instrument.

    The Dynamic PicoProbe's headline detector is the XPAD hyperspectral
    X-ray array (~4.5 sR collection); spatiotemporal imaging uses a
    camera-style detector.
    """

    name: str
    kind: str  # "xray-hyperspectral" | "camera" | "haadf"
    solid_angle_sr: float = 0.0
    pixel_size_um: float = 0.0
    energy_resolution_ev: float = 0.0
    enabled: bool = True


@dataclass(frozen=True)
class MicroscopeState:
    """Instrument settings at acquisition time."""

    instrument: str = "Dynamic PicoProbe"
    beam_energy_kev: float = 300.0  # 30-300 kV monochromated probe
    probe_size_pm: float = 50.0  # ~50 pm aberration-corrected probe
    magnification: float = 1.0e6
    camera_length_mm: float = 100.0
    stage: StagePosition = field(default_factory=StagePosition)
    detectors: tuple[DetectorConfig, ...] = ()
    vacuum_environment: str = "high-vacuum"  # | cryogenic | liquid | gaseous


@dataclass(frozen=True)
class SampleInfo:
    """What was in the holder."""

    name: str = ""
    description: str = ""
    elements: tuple[str, ...] = ()
    preparation: str = ""


@dataclass(frozen=True)
class AcquisitionMetadata:
    """Everything the data-analysis step extracts and the search index
    catalogs for one acquisition."""

    acquisition_id: str
    acquired_at: float  # experiment-campaign time, seconds
    acquired_at_iso: str  # human-readable timestamp for the portal
    operator: str
    signal_type: str  # "hyperspectral" | "spatiotemporal"
    shape: tuple[int, ...]
    dtype: str
    microscope: MicroscopeState = field(default_factory=MicroscopeState)
    sample: SampleInfo = field(default_factory=SampleInfo)
    software_version: str = SOFTWARE_VERSION
    extra: dict[str, Any] = field(default_factory=dict)

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(_plain(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AcquisitionMetadata":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid metadata JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "AcquisitionMetadata":
        try:
            mic = doc.get("microscope", {})
            stage = StagePosition(**mic.get("stage", {}))
            detectors = tuple(
                DetectorConfig(**d) for d in mic.get("detectors", ())
            )
            microscope = MicroscopeState(
                instrument=mic.get("instrument", "Dynamic PicoProbe"),
                beam_energy_kev=mic.get("beam_energy_kev", 300.0),
                probe_size_pm=mic.get("probe_size_pm", 50.0),
                magnification=mic.get("magnification", 1.0e6),
                camera_length_mm=mic.get("camera_length_mm", 100.0),
                stage=stage,
                detectors=detectors,
                vacuum_environment=mic.get("vacuum_environment", "high-vacuum"),
            )
            samp = doc.get("sample", {})
            sample = SampleInfo(
                name=samp.get("name", ""),
                description=samp.get("description", ""),
                elements=tuple(samp.get("elements", ())),
                preparation=samp.get("preparation", ""),
            )
            return cls(
                acquisition_id=doc["acquisition_id"],
                acquired_at=float(doc["acquired_at"]),
                acquired_at_iso=doc.get("acquired_at_iso", ""),
                operator=doc.get("operator", ""),
                signal_type=doc["signal_type"],
                shape=tuple(doc["shape"]),
                dtype=doc.get("dtype", ""),
                microscope=microscope,
                sample=sample,
                software_version=doc.get("software_version", ""),
                extra=doc.get("extra", {}),
            )
        except KeyError as exc:
            raise FormatError(f"metadata missing required field: {exc}") from exc


#: Types :func:`_plain` returns as they are, tested before anything else
#: because they are nearly every value it sees.
_LEAVES = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """Field names of a dataclass (one entry per class, never evicted)."""
    return tuple(f.name for f in fields(cls))


def _plain(value: Any) -> Any:
    """``value`` as JSON-ready dicts and lists.

    The field walk :func:`dataclasses.asdict` does, without its deep copy
    of every leaf: :func:`json.dumps` only reads the values, and tuples
    serialize as lists either way, so the JSON is byte-identical.
    """
    cls = type(value)
    if cls in _LEAVES:
        return value
    if hasattr(cls, "__dataclass_fields__"):
        return {name: _plain(getattr(value, name)) for name in _field_names(cls)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def iso_from_campaign_seconds(t: float, campaign_epoch: str = "2023-06-01T00:00:00") -> str:
    """Render campaign-relative seconds as an ISO-8601 timestamp.

    The DES clock starts at 0; portals and search indices want calendar
    timestamps, so campaigns anchor themselves at a nominal epoch.
    """
    import datetime as _dt

    base = _dt.datetime.fromisoformat(campaign_epoch)
    return (base + _dt.timedelta(seconds=float(t))).isoformat()
