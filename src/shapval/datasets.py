"""Flat-file dataset loading.

Datasets are UTF-8 CSV files with one row per point: feature columns
followed by a final label column (`f1,...,fd,label`).  A leading
byte-order mark is dropped.  A header row is detected and skipped when
the feature cells do not parse as numbers.  Labels are opaque strings
compared for equality only.

The ``csv`` module's reading (``_load_with_csv``) is the contract and
the only source of error messages.  A plain file, whose cells the
``csv`` module would split at commas and line ends alone, is parsed by
numpy's C reader in one pass instead, with the same result: the reader
converts a number with the same correctly rounded routine as
``float()`` and skips an empty line as the ``csv`` path drops it.  It
refuses a row of another width and a cell it cannot convert (a blank
one, digit underscores, non-ASCII digits), so a whitespace-only row
too; a refused file goes to the ``csv`` path.  Only the ``csv`` path
refuses a cell over ``csv.field_size_limit()`` characters.
"""

from __future__ import annotations

import io
from itertools import chain
from pathlib import Path
from typing import NoReturn, TextIO

import numpy as np

from .errors import ConfigError

__all__ = ["load_labeled_csv", "signed_labels"]


def load_labeled_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read (features, labels) from a CSV file; may raise OSError.

    Feature cells are parsed by ``float()``, which ignores surrounding
    whitespace; labels are stripped.  Rows are numbered from 1 among the
    non-blank rows, header included.  A file that is not UTF-8 text
    raises ``ConfigError``.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
            # numpy reads the rewound file in chunks; a pipe cannot be rewound
            source = fh if fh.seekable() else io.StringIO(text)
            source.seek(0)
            plain = _load_plain(text, source)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"dataset {path} is not UTF-8 text: {exc}") from None
    return plain if plain is not None else _load_with_csv(path, text)


# A quote makes the csv module join and unquote cells; numpy strips the
# separators \x1c-\x1f around a number and float() does not.
_NOT_PLAIN = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _load_plain(text: str, fh: TextIO) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse ``fh``, which reads ``text``, with numpy's reader, or None for the csv path.

    The file must hold none of ``_NOT_PLAIN`` and end its lines with LF
    or CRLF only: the csv module also ends a row at a lone CR, so a
    first line holding one may hold data rows that numpy would skip as a
    header.  The header check is the csv path's, on the first line:
    numpy refuses a whitespace-only row, so a file it parses has a blank
    first line only if that line was taken for a header and skipped, as
    the csv path drops it.
    """
    if any(mark in text for mark in _NOT_PLAIN):
        return None
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    cells, after = _cells_at(text, 0)
    start = int(_is_header(cells))
    if start:
        cells, _ = _cells_at(text, after)
    if len(cells) < 2:
        return None  # the csv path words the refusal
    try:
        table = np.loadtxt(
            fh,
            dtype=[("x", "f8", (len(cells) - 1,)), ("y", "O")],
            delimiter=",",
            comments=None,
            quotechar=None,
            skiprows=start,
            ndmin=1,
        )
    except ValueError:
        return None
    labels = np.array([label.strip() for label in table["y"]], dtype=object)
    return np.ascontiguousarray(table["x"]), labels


def _cells_at(text: str, pos: int) -> tuple[list[str], int]:
    """The cells of the plain line at ``pos`` and the position after its line end."""
    end = text.find("\n", pos)
    if end < 0:
        end = len(text)
    return text[pos:end].removesuffix("\r").split(","), end + 1


def _is_header(row: list[str]) -> bool:
    """The first non-blank row is a header when a feature cell is not a number."""
    try:
        [float(cell) for cell in row[:-1]]
    except ValueError:
        return True
    return False


def _load_with_csv(path: str | Path, text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse the decoded file ``text`` with the ``csv`` module."""
    import csv

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [row for row in reader if "".join(row).strip()]
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise ConfigError(f"dataset {path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ConfigError(f"dataset {path} is empty")
    start = int(_is_header(rows[0]))
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
