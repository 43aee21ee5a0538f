"""Machine-readable outputs: JSON check reports, TSV scan tables, and run
manifests.

Determinism contract: report and table contents never embed wall-clock data
(timestamps live only in the manifest), floats are serialized via repr
(shortest round-trip form), and JSON keys are sorted, so identical runs are
byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

TOOL_VERSION = "0.1.0"


def sanitize(obj):
    """Recursively convert toolkit objects to JSON-serializable values."""
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [sanitize(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: sanitize(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(x) for x in obj]
    return str(obj)


def json_dumps(obj) -> str:
    return json.dumps(sanitize(obj), indent=2, sort_keys=True, allow_nan=True) + "\n"


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_dumps(obj))
    return path


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating, np.integer)):
        return repr(v.item())
    return str(v)


def write_tsv(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def config_hash(config: dict) -> str:
    canonical = json.dumps(sanitize(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


class RunManifest:
    """One manifest per CLI run; every output file is referenced in exactly
    one manifest.  ``input_hash`` covers the config less the output
    directory and name stamp, so runs of the same inputs share it.  A
    subcommand may set ``stats`` (e.g. CN solver statistics); the manifest
    holds it only when set."""

    def __init__(self, subcommand: str, config: dict, seed):
        self.subcommand = subcommand
        self.config = config
        self.seed = seed
        self.started = datetime.now(timezone.utc).isoformat()
        self.outputs: list[str] = []
        self.stats: dict | None = None

    def add(self, *paths):
        """Record output files by their path relative to the run's ``out``."""
        for p in paths:
            self.outputs.append(Path(p).relative_to(self.config["out"]).as_posix())

    def write(self, out_dir, stamp: str) -> Path:
        doc = {
            "subcommand": self.subcommand,
            "config": sanitize(self.config),
            "seed": self.seed,
            "tool_version": TOOL_VERSION,
            "started": self.started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "outputs": sorted(self.outputs),
            "input_hash": config_hash({k: v for k, v in self.config.items()
                                       if k not in ("out", "stamp")}),
        }
        if self.stats is not None:
            doc["stats"] = sanitize(self.stats)
        path = Path(out_dir) / f"manifest_{self.subcommand}_{self.seed}_{stamp}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path
