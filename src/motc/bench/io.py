"""Artifact emission: CSV trajectories/tables and a JSON run summary.

CSV cells use period decimal separators, comma delimiters, and scientific
notation with 17 significant digits, so values round-trip losslessly and
repeated runs of the same config are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .experiments import ExperimentConfig, TrajectoryLog


def config_hash(config: ExperimentConfig | dict) -> str:
    """Content hash of the canonical JSON form of a config."""
    d = config.to_dict() if isinstance(config, ExperimentConfig) else dict(config)
    blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.16e}"
    return str(x)


def _write_rows(path: Path, header: str, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header.split(","))
            for row in rows:
                writer.writerow([_fmt(x) for x in row])
    except OSError as exc:
        raise OSError(f"failed writing CSV {path}: {exc}") from exc


def _sanitize(obj):
    """JSON-safe copy: numpy scalars to python, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if np.isfinite(x) else repr(x)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def emit_results(result: dict, config: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Write a runner's result bundle under ``out_dir``.

    Emits one CSV per trajectory log / table and spectra, and a JSON summary
    embedding the config, its seed, and its content hash.  Returns written
    paths.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    name = result.get("name", "run")
    written: list[Path] = []
    for label, log in result.get("logs", {}).items():
        assert isinstance(log, TrajectoryLog)
        path = out / f"{name}_{label}.csv"
        _write_rows(path, ",".join(log.columns), log.rows())
        written.append(path)
    if "table" in result:
        header, rows = result["table"]
        path = out / f"{name}_table.csv"
        _write_rows(path, header, rows)
        written.append(path)
    for m, (omega, power) in result.get("spectra", {}).items():
        path = out / f"{name}_spectrum_m{m}.csv"
        _write_rows(path, "omega,power", zip(omega, power))
        written.append(path)
    payload = {
        "name": name,
        "seed": config.seed,
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "summary": _sanitize(result.get("summary", {})),
    }
    if "histograms" in result:
        payload["histograms"] = _sanitize(result["histograms"])
    path = out / f"{name}_summary.json"
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing JSON {path}: {exc}") from exc
    written.append(path)
    return written
