"""Machine-readable outputs: JSON check reports, TSV scan tables, and the
run manifest, the single record of a CLI run.

Determinism contract: report and table contents never embed wall-clock data
(timestamps live only in the manifest), floats are serialized via repr
(shortest round-trip form), and JSON keys are sorted, so identical runs are
byte-identical.

The manifest names every output <stem>_<seed>_<stamp><suffix> under the run's
out directory; the stem is the subcommand name with - -> _ unless the run sets
its own.  It records each output it writes, and each PASS / FAIL / VACUOUS
verdict under its ``verdicts`` key; the run exits 1 if any verdict is FAIL.
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


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating, np.integer)):
        return repr(v.item())
    return str(v)


def config_hash(config: dict) -> str:
    canonical = json.dumps(sanitize(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


class RunManifest:
    """One manifest per CLI run; every output file is referenced in exactly
    one manifest.  ``input_hash`` covers the config less the output
    directory and name stamp, so runs of the same inputs share it.  A
    subcommand may set ``stats`` (e.g. CN solver statistics); the manifest
    holds it only when set."""

    def __init__(self, subcommand: str, config: dict):
        self.subcommand = subcommand
        self.config = config
        self.out = Path(config["out"])
        self.seed = config.get("seed")
        self.stem = subcommand.replace("-", "_")
        self.started = datetime.now(timezone.utc).isoformat()
        self.outputs: list[str] = []
        self.verdicts: list[str] = []
        self.stats: dict | None = None

    def path(self, suffix: str = "") -> Path:
        """out/<stem>_<seed>_<stamp><suffix>."""
        return self.out / f"{self.stem}_{self.seed}_{self.config['stamp']}{suffix}"

    def add(self, *paths):
        """Record output files by their path relative to the run's ``out``."""
        for p in paths:
            self.outputs.append(Path(p).relative_to(self.out).as_posix())

    def json(self, obj, suffix: str = ".json"):
        path = self.path(suffix)
        path.write_text(json_dumps(obj))
        self.add(path)

    def tsv(self, header, rows):
        lines = ["\t".join(header)] + ["\t".join(_cell(v) for v in row) for row in rows]
        path = self.path(".tsv")
        path.write_text("\n".join(lines) + "\n")
        self.add(path)

    def check(self, ok: bool, check: str, detail: str):
        self.verdicts.append(f"{'PASS' if ok else 'FAIL'} {check}: {detail}")

    def vacuous(self, check: str, reason: str):
        """A check whose premise did not hold, or a scan with no gate that
        could fail: neither a pass nor a finding."""
        self.verdicts.append(f"VACUOUS {check}: {reason}")

    @property
    def failed(self) -> bool:
        return any(v.startswith("FAIL ") for v in self.verdicts)

    def write(self) -> Path:
        doc = {
            "subcommand": self.subcommand,
            "config": self.config,
            "seed": self.seed,
            "tool_version": TOOL_VERSION,
            "started": self.started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "outputs": sorted(self.outputs),
            "verdicts": self.verdicts,
            "input_hash": config_hash({k: v for k, v in self.config.items()
                                       if k not in ("out", "stamp")}),
        }
        if self.stats is not None:
            doc["stats"] = self.stats
        path = self.out / f"manifest_{self.subcommand}_{self.seed}_{self.config['stamp']}.json"
        path.write_text(json_dumps(doc))
        return path
