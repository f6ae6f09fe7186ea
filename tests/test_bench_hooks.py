"""The benchmark's traced runs wrap package attributes by name.

``bench/spans.instrument`` swaps attributes such as ``Game.values_of_masks``
for timing wrappers.  Renaming or removing one of them would otherwise
show only on a ``--trace 1`` benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

from shapval.games import Game  # noqa: E402


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
