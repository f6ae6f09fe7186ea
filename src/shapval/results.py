"""Experiment result records and their on-disk forms.

A record is written either as CSV (header ``player,value``) with a
sibling ``.json`` metadata file, or as a single JSON document.  Values
are formatted with 17 significant digits so the round trip is exact.
Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = ["ResultRecord", "write_record", "read_record", "sibling_json_path"]


@dataclass(frozen=True)
class ResultRecord:
    """Per-player values plus everything needed to reproduce them."""

    values: tuple[float, ...]
    method: str
    n_players: int
    seed: int
    eval_count: int
    wall_time_s: float
    epsilon: float | None = None
    delta: float | None = None
    flags: tuple[str, ...] = ()
    l2_error: float | None = None
    linf_error: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "flags", tuple(self.flags))
        if len(self.values) != self.n_players:
            raise ValueError("value count must match n_players")

    @property
    def has_oracle_metrics(self) -> bool:
        return self.l2_error is not None

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(record: ResultRecord) -> str:
    lines = ["player,value"]
    lines += [f"{i},{v:.17g}" for i, v in enumerate(record.values)]
    return "\n".join(lines) + "\n"


def _json_payload(record: ResultRecord, include_values: bool) -> dict:
    payload = {f.name: getattr(record, f.name) for f in fields(record)}
    payload["flags"] = list(record.flags)
    if include_values:
        payload["values"] = list(record.values)
    else:
        del payload["values"]
    return payload


def sibling_json_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def write_record(record: ResultRecord, path: str | Path, fmt: str = "csv") -> Path:
    """Write the record; returns the primary output path."""
    path = Path(path)
    if fmt == "csv":
        _atomic_write(path, _csv_text(record))
        meta = json.dumps(_json_payload(record, include_values=False), indent=2, sort_keys=True)
        _atomic_write(sibling_json_path(path), meta + "\n")
    elif fmt == "json":
        _atomic_write(
            path, json.dumps(_json_payload(record, include_values=True), indent=2, sort_keys=True) + "\n"
        )
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return path


def _record_from_payload(payload: dict, values: list[float] | None = None) -> ResultRecord:
    if values is not None:
        payload = dict(payload, values=values)
    payload["values"] = tuple(payload["values"])
    payload["flags"] = tuple(payload.get("flags", ()))
    return ResultRecord(**payload)


def read_record(path: str | Path) -> ResultRecord:
    """Re-parse a record written by :func:`write_record` (either format)."""
    path = Path(path)
    if path.suffix == ".json":
        return _record_from_payload(json.loads(path.read_text()))
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0] != "player,value":
        raise ConfigError(f"{path} is not a result CSV")
    values = []
    for line in lines[1:]:
        idx, val = line.split(",")
        if int(idx) != len(values):
            raise ConfigError(f"{path}: players out of order")
        values.append(float(val))
    payload = json.loads(sibling_json_path(path).read_text())
    return _record_from_payload(payload, values)
