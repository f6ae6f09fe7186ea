"""Flat-file dataset loading.

Datasets are CSV files with one row per point: feature columns followed
by a final label column (`f1,...,fd,label`).  A header row is detected
and skipped when the feature cells do not parse as numbers.  Labels are
opaque strings compared for equality only.
"""

from __future__ import annotations

import csv
from itertools import chain
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ConfigError

__all__ = ["load_labeled_csv", "signed_labels"]


def load_labeled_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read (features, labels) from a CSV file; may raise OSError.

    Feature cells are parsed by ``float()``, which ignores surrounding
    whitespace; labels are stripped.  Rows are numbered from 1 among the
    non-blank rows, header included.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if "".join(row).strip()]
    if not rows:
        raise ConfigError(f"dataset {path} is empty")
    start = 0
    try:
        [float(cell) for cell in rows[0][:-1]]
    except ValueError:
        start = 1  # header row
    data = rows[start:]
    if not data:
        raise ConfigError(f"dataset {path} has no data rows")
    width = len(data[0])
    if width < 2:
        raise ConfigError(f"dataset {path} needs at least one feature and a label")
    if any(len(row) != width for row in data):
        _raise_first_bad_row(path, data, start, width)
    cells = chain.from_iterable(row[:-1] for row in data)
    try:
        features = np.fromiter(map(float, cells), np.float64, len(data) * (width - 1))
    except ValueError:
        _raise_first_bad_row(path, data, start, width)
    labels = np.array([row[-1].strip() for row in data], dtype=object)
    return features.reshape(len(data), width - 1), labels


def _raise_first_bad_row(path: str | Path, data: list[list[str]], start: int, width: int) -> NoReturn:
    """Raise for the first row that is ragged or has a non-numeric feature."""
    for number, row in enumerate(data, start + 1):
        if len(row) != width:
            raise ConfigError(f"dataset {path}: row {number} has {len(row)} cells, expected {width}")
        try:
            [float(cell) for cell in row[:-1]]
        except ValueError as exc:
            raise ConfigError(f"dataset {path}: non-numeric feature in row {number}") from exc
    raise AssertionError("no bad row")


def signed_labels(labels: np.ndarray) -> np.ndarray:
    """Map labels written as -1/+1 (or -1.0/1.0) to floats, rejecting others."""
    out = np.empty(labels.shape[0], dtype=np.float64)
    for i, lab in enumerate(labels):
        try:
            val = float(lab)
        except (TypeError, ValueError):
            raise ConfigError(f"label {lab!r} is not a signed binary label")
        if val not in (-1.0, 1.0):
            raise ConfigError(f"label {lab!r} must be -1 or +1")
        out[i] = val
    return out
