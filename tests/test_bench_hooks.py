"""The benchmark's traced runs wrap package attributes by name.

``bench/spans.instrument`` swaps attributes such as ``Game.values_of_masks``
for timing wrappers.  Renaming or removing one of them would otherwise
show only on a ``--trace 1`` benchmark run.
"""

import sys
import threading
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

from shapval import group_testing  # noqa: E402
from shapval.games import Game, make_additive_game  # noqa: E402


def test_instrument_patches_resolve_and_restore():
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert (Game, "values_of_masks", Game.values_of_masks) in patched


def test_chunk_spans_nest_under_their_map_span_on_every_thread(monkeypatch):
    monkeypatch.delenv("SHAPVAL_THREADS", raising=False)
    w = np.linspace(0.1, 1.0, 63)
    game = make_additive_game(w / w.sum())
    chunk_threads = {}
    run_chunk = group_testing._test_chunk

    def test_chunk(game, plan, seed, i, lo, hi):
        chunk_threads[i] = threading.get_ident()
        return run_chunk(game, plan, seed, i, lo, hi)

    monkeypatch.setattr(group_testing, "_test_chunk", test_chunk)
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        group_testing.estimate_group_testing(
            game, 0.3, 0.1, 7, "feasibility", t_tests=5 * group_testing._TEST_CHUNK, threads=2
        )
    finally:
        tracer.restore()
    cols = tracer.columns()
    maps = [sid for sid, name in zip(cols["id"], cols["name"]) if name == "parallel.map"]
    chunk_parents = [p for p, name in zip(cols["parent"], cols["name"]) if name == "group_testing.chunk"]
    assert len(maps) == 1
    assert chunk_parents == maps * 5
    assert sorted(chunk_threads) == list(range(5))
    assert threading.get_ident() in chunk_threads.values()
