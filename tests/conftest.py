import numpy as np
import pytest

from conhist.relativistic import SPACELIKE, classify_interval


def _sample_spacelike_pairs(scn, count, seed):
    locals_ = [
        e for e in scn.events.values()
        if e.is_local and e.projector is not None and e.time_index is not None
    ]
    pairs = []
    for i, e in enumerate(locals_):
        for g in locals_[i + 1:]:
            if all(
                classify_interval(p, q) == SPACELIKE
                for p in e.points()
                for q in g.points()
            ):
                pairs.append((e, g))
    if not pairs:
        return []
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(pairs), size=count)
    return [pairs[i] for i in idx]


@pytest.fixture
def spacelike_local_event_pairs():
    """``(scn, count, seed) -> pairs``: ``count`` pairs of the scenario's
    local events that are spacelike separated, drawn with the seed."""
    return _sample_spacelike_pairs
