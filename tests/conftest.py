import functools

import numpy as np
import pytest

from conhist.hilbert import Operator, _product
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


def _heisenberg_chains(fam, alphas, ref):
    """``K^dag`` for each history in ``alphas``, as the adjoint of
    ``chain_operator(alpha, fam, ref).op.mat``: the same Heisenberg forms,
    made once per (slot, member) instead of once per history, and multiplied
    in time order block by block through ``hilbert._product``."""
    forms = [
        {
            label: Operator(fam.propagators.heisenberg_matrix(proj.mat, j, ref))
            for label, proj in dec.members
        }
        for j, dec in zip(fam.time_indices, fam.decompositions)
    ]
    for alpha in alphas:
        chain = (forms[slot][label] for slot, label in enumerate(alpha))
        yield functools.reduce(lambda a, b: Operator(_product(a, b)), chain).mat


@pytest.fixture
def heisenberg_chains():
    """``(fam, alphas, ref) -> iterator of K^dag``: the Heisenberg chain
    operators of a family's histories on one reference surface."""
    return _heisenberg_chains
