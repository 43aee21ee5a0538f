"""Binary field serialization and trajectory export.

Layout (all little-endian): magic "CARL", format version, d, M, n_time as
uint32, then the values row-major as complex pairs of 8-byte floats.  A JSON
sidecar (<file>.json) carries the same geometry plus free-form metadata, and
trajectory exports add a manifest with dt, T, scheme and a potential hash.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .lattice import LatticeField, LatticeWindow

if TYPE_CHECKING:  # an annotation only: exporting a field needs no evolution code
    from .evolution import Trajectory

_MAGIC = b"CARL"
_VERSION = 1


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _header(window: LatticeWindow, n_time: int) -> bytes:
    return _MAGIC + struct.pack("<IIII", _VERSION, window.d, window.M, n_time)


def _sidecar_text(window: LatticeWindow, n_time: int, metadata: dict | None) -> str:
    sidecar = {
        "format": "carleman-field",
        "version": _VERSION,
        "d": window.d,
        "M": window.M,
        "n_time": n_time,
        "byte_order": "little",
        "value_layout": "row-major complex pairs, 8-byte floats",
        "metadata": metadata or {},
    }
    return json.dumps(sidecar, indent=2, sort_keys=True) + "\n"


def _write(path: Path, header: bytes, values: np.ndarray, sidecar_text: str) -> list:
    with path.open("wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(values, dtype="<c16"))  # a copy only if not already so
    sc = _sidecar_path(path)
    sc.write_text(sidecar_text)
    return [path, sc]


def write_field(path, field_or_values, window: LatticeWindow | None = None,
                n_time: int = 1, metadata: dict | None = None) -> list:
    """Write a field (or stacked snapshots) plus its JSON sidecar; returns
    the written paths."""
    path = Path(path)
    if isinstance(field_or_values, LatticeField):
        window = field_or_values.window
        values = field_or_values.values
        n_time = 1
    else:
        values = np.asarray(field_or_values)
        if window is None:
            raise ValueError("window required for raw value arrays")
    return _write(path, _header(window, n_time), values, _sidecar_text(window, n_time, metadata))


def read_field(path):
    """Returns (values, window, metadata); values keep their time axis when
    n_time > 1.  metadata is None when the sidecar is not a JSON object."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != _MAGIC or len(raw) < 20:
        raise ValueError(f"{path} is not a carleman field file (magic or header missing)")
    version, d, M, n_time = struct.unpack("<IIII", raw[4:20])
    if version != _VERSION:
        raise ValueError(f"unsupported field format version {version}")
    window = LatticeWindow(d, M)
    count = n_time * window.site_count
    values = np.frombuffer(raw[20:], dtype="<c16", count=count).astype(np.complex128)
    shape = ((n_time,) if n_time > 1 else ()) + window.shape
    values = values.reshape(shape)
    meta = {}
    sc = _sidecar_path(path)
    if sc.exists():
        doc = json.loads(sc.read_text())
        meta = doc.get("metadata", {}) if isinstance(doc, dict) else None
    return values, window, meta


def write_trajectory(directory, traj: Trajectory) -> list:
    """One binary per snapshot, trajectory_<i>.bin, each unfolded to the full
    window as it is written (traj.values.read, into one reused buffer), plus
    trajectory_manifest.json (dt, T, scheme, potential hash).  The header
    and the sidecar text are rendered once; each sidecar differs only in its
    time, written where the template holds null."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    window, snapshots = traj.window, traj.values
    header = _header(window, 1)
    before, after = _sidecar_text(window, 1, {"t": None}).split("null")
    buffer = np.empty(window.shape, dtype=complex)
    written = []
    files = []
    for i, t in enumerate(traj.times):
        p = directory / f"trajectory_{i:05d}.bin"
        written += _write(p, header, snapshots.read(i, buffer),
                          before + json.dumps(float(t)) + after)
        files.append(p.name)
    manifest = {
        "format": "carleman-trajectory",
        "dt": traj.config.dt,
        "T": traj.config.T,
        "scheme": "trapezoidal_unitary",
        "store_every": traj.config.store_every,
        "potential_sha256": traj.config.potential_hash(),
        "times": [float(t) for t in traj.times],
        "snapshots": files,
        "scale_log": traj.scale_log,
    }
    mpath = directory / "trajectory_manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return written + [mpath]


def read_trajectory(directory):
    """Returns (times, stacked values, window, manifest dict)."""
    directory = Path(directory)
    manifest = json.loads((directory / "trajectory_manifest.json").read_text())
    snaps = []
    window = None
    for name in manifest["snapshots"]:
        values, window, _ = read_field(directory / name)
        snaps.append(values)
    return np.array(manifest["times"]), np.array(snaps), window, manifest
