"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's side of each layer boundary: a
traced run swaps module attributes that the estimators resolve at call
time (``shapval.permutation.stream``, ``Game.values_of_masks``, ...) for
timing wrappers, and puts the originals back when it ends.  Nothing under
``src/`` is edited.

A span holds (id, name, start, end, parent, job id, value).  ``value`` is
a count measured at the same boundary (evaluations in a utility call,
rows loaded, bytes written).  Names are ``<layer>.<what>``, where the
layer is the package module that owns the code inside the span.

shapval is imported inside ``instrument``, once the caller has put the
package on the import path.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "rng",
    "parallel",
    "games",
    "permutation",
    "compressive",
    "group_testing",
    "knn",
    "datasets",
    "results",
    "cli",
)

_COLUMNS = (("id", "q"), ("name", "l"), ("start", "d"), ("end", "d"), ("parent", "q"), ("job", "q"), ("value", "d"))


class _Span:
    __slots__ = ("tracer", "name", "parent", "id", "start", "value")

    def __init__(self, tracer: "Tracer", name: str, parent: int | None) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.value = 0.0

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.id = next(self.tracer._ids)
        if self.parent is None:
            self.parent = stack[-1] if stack else 0
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer._record(self, end)


class Tracer:
    """Collects spans from any thread; ``job`` tags every span recorded."""

    def __init__(self) -> None:
        self.job = 0
        self._cols = {name: array(code) for name, code in _COLUMNS}
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: _Span, end: float) -> None:
        with self._lock:
            name_id = self._name_ids.get(span.name)
            if name_id is None:
                name_id = self._name_ids[span.name] = len(self._names)
                self._names.append(span.name)
            row = (span.id, name_id, span.start, end, span.parent, self.job, span.value)
            for (col, _), val in zip(_COLUMNS, row):
                self._cols[col].append(val)

    def span(self, name: str, parent: int | None = None) -> _Span:
        """Context manager timing one span; the parent defaults to the
        innermost open span on this thread."""
        return _Span(self, name, parent)

    # -- patching ---------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap(self, owner: object, attr: str, name, value=None) -> None:
        """Replace ``owner.attr`` by a function that runs it inside a span.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``value(args, kwargs, result)`` sets the span's count.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            with self.span(span_name) as sp:
                result = original(*args, **kwargs)
                if value is not None:
                    sp.value = float(value(args, kwargs, result))
            return result

        self.patch(owner, attr, traced)

    def wrap_chunk_map(self, module: object, layer: str) -> None:
        """Trace ``module.ordered_chunk_map`` as a ``parallel.map`` span whose
        chunk functions run as ``<layer>.chunk`` spans, on whichever thread."""
        original = module.ordered_chunk_map

        def traced_map(fn, ranges, threads):
            with self.span("parallel.map") as map_span:

                def chunk(i, lo, hi):
                    with self.span(f"{layer}.chunk", parent=map_span.id):
                        return fn(i, lo, hi)

                return original(chunk, ranges, threads)

        self.patch(module, "ordered_chunk_map", traced_map)

    # -- results ----------------------------------------------------------

    def columns(self) -> dict[str, list]:
        with self._lock:
            cols = {name: list(col) for name, col in self._cols.items()}
        cols["name"] = [self._names[i] for i in cols["name"]]
        return cols

    def save(self, path: Path) -> None:
        """Write every span as columns of a compressed ``.npz`` archive."""
        with self._lock:
            cols = {name: np.frombuffer(col, dtype=col.typecode) for name, col in self._cols.items()}
            names = np.array(self._names, dtype=str)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=names, **cols)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def exclusive_times(ids, parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children on other threads may overlap each other; the union of their
    intervals is subtracted once.
    """
    index = {sid: k for k, sid in enumerate(ids)}
    children: dict[int, list[int]] = defaultdict(list)
    for k, parent in enumerate(parents):
        if parent in index:
            children[index[parent]].append(k)
    excl = [end - start for start, end in zip(starts, ends)]
    for k, kids in children.items():
        excl[k] -= covered_length([(starts[c], ends[c]) for c in kids], starts[k], ends[k])
    return excl


def summarize(cols: dict[str, list]) -> dict[str, dict[str, float]]:
    """Per span name: count, summed duration, summed self time, summed value."""
    excl = exclusive_times(cols["id"], cols["parent"], cols["start"], cols["end"])
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "value": 0.0}
    )
    for name, start, end, self_s, value in zip(
        cols["name"], cols["start"], cols["end"], excl, cols["value"]
    ):
        row = out[name]
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
        row["value"] += value
    return dict(out)


def layer_self_times(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed over each layer's spans (spans of other names are skipped)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += row["self_s"]
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries; ``tracer.restore()`` undoes it."""
    import shapval.cli as cli
    import shapval.compressive as compressive
    import shapval.games as games
    import shapval.group_testing as group_testing
    import shapval.knn as knn
    import shapval.permutation as permutation

    def recovery(args, kwargs):
        route = kwargs.get("recovery", args[4] if len(args) > 4 else "feasibility")
        return f"group_testing.{route}"

    def written_bytes(args, kwargs, path):
        files = [Path(path), Path(path).with_suffix(".json")]
        return sum(f.stat().st_size for f in files if f.exists())

    for module, layer in ((permutation, "permutation"), (compressive, "compressive"), (group_testing, "group_testing")):
        tracer.wrap(module, "stream", "rng.stream")
        tracer.wrap_chunk_map(module, layer)
    tracer.wrap(games.Game, "values_of_masks", "games.eval",
                value=lambda args, kwargs, out: np.count_nonzero(np.asarray(args[1])))
    tracer.wrap(permutation, "estimate_permutation", "permutation.estimate")
    tracer.wrap(compressive, "estimate_compressive", "compressive.estimate")
    tracer.wrap(compressive, "compressive_sample", "compressive.sample")
    tracer.wrap(compressive, "bpdn_solve", "compressive.bpdn",
                value=lambda args, kwargs, out: not np.any(out))
    tracer.wrap(group_testing, "estimate_group_testing", recovery)
    tracer.wrap(group_testing, "recover_feasibility", "group_testing.recover",
                value=lambda args, kwargs, out: "uncertified-violation" in out.flags)
    tracer.wrap(group_testing, "optimize_split_constants", "group_testing.split")
    tracer.wrap(knn.KnnInstance, "__post_init__", "knn.build")
    tracer.wrap(knn, "knn_shapley_testset", "knn.closed_form")
    tracer.wrap(cli, "load_labeled_csv", "datasets.load", value=lambda args, kwargs, out: len(out[1]))
    tracer.wrap(cli, "write_record", "results.write", value=written_bytes)
    tracer.wrap(cli, "main", "cli.main")
