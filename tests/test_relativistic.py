import ast
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conhist.relativistic import (
    LIGHTLIKE,
    SPACELIKE,
    TIMELIKE,
    CovarianceMap,
    CyclicCausalityError,
    EmbeddingImpossibleError,
    Foliation,
    Hypersurface,
    Region,
    SpacetimePoint,
    TaggedEvent,
    boost,
    causal_precedence,
    classify_interval,
    embed_events,
    validate_foliation,
)

P = SpacetimePoint


class TestIntervals:
    def test_simultaneous_points_are_spacelike(self):
        assert classify_interval(P(0, 0), P(5, 0)) == SPACELIKE

    def test_colocated_points_are_timelike(self):
        assert classify_interval(P(0, 0), P(0, 5)) == TIMELIKE

    def test_cone_is_lightlike(self):
        assert classify_interval(P(0, 0), P(3, 3)) == LIGHTLIKE

    def test_zero_boost_is_identity(self):
        p = P(1.25, -2.5)
        assert boost(p, 0.0) == p

    def test_superluminal_boost_rejected(self):
        with pytest.raises(ValueError):
            boost(P(0, 0), 1.0)

    def test_interval_sign_invariant_under_boost(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            p = P(*rng.uniform(-10, 10, size=2))
            q = P(*rng.uniform(-10, 10, size=2))
            kind = classify_interval(p, q)
            assert classify_interval(boost(p, 0.6), boost(q, 0.6)) == kind

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_timelike_order_preserved_at_high_boost(self, seed):
        rng = np.random.default_rng(seed)
        p = P(*rng.uniform(-10, 10, size=2))
        dt = rng.uniform(0.1, 5)
        dx = rng.uniform(-1, 1) * dt * 0.99
        q = P(p.x + dx, p.t + dt)
        assert classify_interval(p, q) == TIMELIKE
        bp, bq = boost(p, 0.9), boost(q, 0.9)
        assert bq.t > bp.t


class TestFoliation:
    def test_flat_stack_valid(self):
        surfaces = tuple(Hypersurface.flat(t, 0, 10) for t in (1.0, 2.0, 3.0))
        assert validate_foliation(Foliation(surfaces)).valid

    def test_crossing_surfaces_detected(self):
        # linear-crossing oracle: t = 2 and t = 1 + 0.5 x meet at x = 2,
        # so the boosted surface crosses the flat one inside the domain
        flat = Hypersurface.flat(2.0, 0, 10)
        tilted = Hypersurface.line(1.0, 0.5, 0, 10)
        x_cross = (2.0 - 1.0) / 0.5
        assert 0 < x_cross < 10
        report = validate_foliation(Foliation((flat, tilted)))
        assert not report.valid
        assert report.ordering_violations

    def test_non_spacelike_piece_detected(self):
        steep = Hypersurface((0.0, 1.0), (0.0, 1.5))
        report = validate_foliation(Foliation((steep,)))
        assert not report.valid
        assert report.slope_violations == ((0, 0, 1.5),)

    def test_interleaved_piecewise_surfaces_valid(self):
        # rest-frame segments joined to gently boosted segments, max slope 0.5
        s1 = Hypersurface((0.0, 4.0, 8.0), (1.0, 1.0, 3.0))
        s2 = Hypersurface((0.0, 4.0, 8.0), (2.5, 2.5, 4.5))
        fol = Foliation((s1, s2))
        assert max(abs(slope) for s in fol.surfaces for slope in s.slopes()) == 0.5
        assert validate_foliation(fol).valid


def flat_event(eid, cell, t, entangled_with=None):
    surface = Hypersurface.flat(t, -20, 20)
    if entangled_with is None:
        return TaggedEvent.local(eid, Region.at([cell], surface))
    regions = (Region.at([cell], surface), Region.at([entangled_with], surface))
    return TaggedEvent.entangled(eid, regions)


class TestInputRules:
    """The geometry types refuse input that a conversion would silently reread."""

    SURFACE = Hypersurface.flat(0.0, -5, 5)

    @pytest.mark.parametrize("cells", [[1.5, 2.9], [2.0], [True], [1, True], ["7"], [float("inf")]],
                             ids=["fractions", "integral-float", "true", "true-beside-1", "string", "inf"])
    def test_region_refuses_non_integer_cell(self, cells):
        with pytest.raises(ValueError, match="is not an integer"):
            Region.at(cells, self.SURFACE)

    @pytest.mark.parametrize("xs,ts", [((-5, 5), (-5, 5)), ((-5, 5), (-10, 10)), ((-5, 5, 10), (0, 0, 20))],
                             ids=["lightlike", "slope-2", "steep-piece"])
    def test_region_refuses_non_spacelike_surface(self, xs, ts):
        with pytest.raises(ValueError, match="must be spacelike"):
            Region.at([0], Hypersurface(xs, ts))

    def test_region_accepts_numpy_integers(self):
        assert Region.at(np.array([3, 1]), self.SURFACE).cells == {1, 3}

    @pytest.mark.parametrize("xs,ts", [((True, 1), (0, 0)), ((0, 1), (0, "0")), ((np.bool_(False), 1), (0, 0))],
                             ids=["x-true", "t-string", "x-numpy-bool"])
    def test_hypersurface_refuses_bool_or_string(self, xs, ts):
        with pytest.raises(ValueError, match="is not a number"):
            Hypersurface(xs, ts)

    @pytest.mark.parametrize("event_id", [5, None, ("a",)], ids=["int", "none", "tuple"])
    def test_event_refuses_non_string_id(self, event_id):
        with pytest.raises(ValueError, match="is not a string"):
            TaggedEvent(event_id, (Region.at([0], self.SURFACE),))

    @pytest.mark.parametrize("cell", [10**400, -10**400], ids=["above", "below"])
    def test_region_refuses_cell_beyond_float_range(self, cell):
        with pytest.raises(ValueError, match="beyond float range"):
            Region.at([0, cell], self.SURFACE)

    @pytest.mark.parametrize("xs,ts", [((0, 10**400), (0, 0)), ((0, 1), (-10**400, 0))],
                             ids=["x", "t"])
    def test_hypersurface_refuses_int_beyond_float_range(self, xs, ts):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            Hypersurface(xs, ts)

    @pytest.mark.parametrize("xs,ts", [((-1e308, 1e308), (0, 1e307)), ((0, 1), (-1e308, 1e308))],
                             ids=["x", "t"])
    def test_hypersurface_refuses_spans_beyond_float_range(self, xs, ts):
        # np.interp divides by the x span: at inf, tau(0) would read 0, not 5e306
        with pytest.raises(ValueError, match="differ by a finite amount"):
            Hypersurface(xs, ts)

    @pytest.mark.parametrize("index", ["x", True, 1.0], ids=["string", "bool", "float"])
    def test_event_refuses_non_integer_time_index(self, index):
        with pytest.raises(ValueError, match="time index .* is not an integer"):
            TaggedEvent("a", (Region.at([0], self.SURFACE),), time_index=index)

    def test_event_accepts_integer_time_index(self):
        for index in (None, 2, np.int64(2)):
            event = TaggedEvent("a", (Region.at([0], self.SURFACE),), time_index=index)
            assert event.time_index == index

    @pytest.mark.parametrize("projector", [5, ("p",)], ids=["int", "tuple"])
    def test_event_refuses_non_string_projector(self, projector):
        with pytest.raises(ValueError, match="projector .* is not a string"):
            TaggedEvent("a", (Region.at([0], self.SURFACE),), projector=projector)


class TestCausalPrecedence:
    def test_spacelike_events_unordered(self):
        g = causal_precedence([flat_event("a", 0, 0), flat_event("b", 9, 1)])
        assert g.edges == frozenset()

    def test_source_precedes_detector(self):
        g = causal_precedence([flat_event("src", 0, 0), flat_event("det", 2, 5)])
        assert g.has_edge("src", "det")
        assert not g.has_edge("det", "src")

    def test_lightlike_counts_as_ordered(self):
        g = causal_precedence([flat_event("a", 0, 0), flat_event("b", 3, 3)])
        assert g.has_edge("a", "b")

    def test_cycle_detected(self):
        # malformed wide regions: each contains a point in the other's future
        s0 = Hypersurface.flat(0.0, -20, 20)
        s1 = Hypersurface.flat(1.0, -20, 20)
        e1 = TaggedEvent.local("w1", Region.at([0, 10], s0))
        e2 = TaggedEvent.local("w2", Region.at([0, 10], s1))
        g = causal_precedence([e1, e2])
        assert g.has_edge("w1", "w2") and not g.has_edge("w2", "w1")
        # shift w2 so 0@1 sits above 0@0 but 10@... below: need region times
        tilted = Hypersurface((-20.0, 20.0), (-9.0, 11.0))  # slope 0.5
        e3 = TaggedEvent.local("w3", Region.at([-18, 18], tilted))
        wide0 = TaggedEvent.local("w0", Region.at([-18, 18], s0))
        with pytest.raises(CyclicCausalityError):
            causal_precedence([e3, wide0])


class TestEmbedding:
    def test_single_event(self):
        result = embed_events([flat_event("only", 0, 2.0)])
        assert len(result.foliation) == 1
        assert validate_foliation(result.foliation).valid

    def test_local_events_always_embed(self):
        # spacelike events land on shared surfaces, ordered ones stack
        events = [
            flat_event("a1", -1, 1), flat_event("b1", 3, 1),
            flat_event("a2", -3, 3), flat_event("b2", 5, 3),
        ]
        result = embed_events(events)
        assert validate_foliation(result.foliation).valid
        assert result.layer_of["a1"] < result.layer_of["a2"]
        assert result.layer_of["b1"] < result.layer_of["b2"]

    def test_interleaved_frames_embed(self):
        # rest-frame a-side events with boosted b-side events: the emitted
        # foliation interleaves both frames' local events
        tilt1 = Hypersurface.line(2.0 - 14 / 3, 1 / 3.0, -20, 20)
        tilt2 = Hypersurface.line(4.0 - 16 / 3, 1 / 3.0, -20, 20)
        events = [
            flat_event("a1", 11, 1.0),
            flat_event("a2", 9, 3.0),
            TaggedEvent.local("bp1", Region.at([14], tilt1)),
            TaggedEvent.local("bp2", Region.at([16], tilt2)),
        ]
        result = embed_events(events)
        report = validate_foliation(result.foliation)
        assert report.valid
        assert result.layer_of["a1"] == result.layer_of["bp1"]
        assert result.layer_of["a2"] == result.layer_of["bp2"]
        # surfaces pass exactly through the constrained points
        s0 = result.foliation.surfaces[result.layer_of["a1"]]
        assert s0.tau(11) == pytest.approx(1.0)
        assert s0.tau(14) == pytest.approx(2.0)

    def test_entangled_events_on_crossing_surfaces_fail(self):
        flat1 = Hypersurface.flat(1.0, -20, 20)
        x_event = TaggedEvent.entangled(
            "psi-flat", (Region.at([11], flat1), Region.at([13], flat1))
        )
        steep = Hypersurface.line(-0.2 - 0.8 * 10, 0.8, -20, 20)
        y_event = TaggedEvent.entangled(
            "psi-boosted", (Region.at([10], steep), Region.at([14], steep))
        )
        with pytest.raises(EmbeddingImpossibleError) as err:
            embed_events([x_event, y_event])
        assert err.value.witness in ("psi-flat", "psi-boosted")

    def test_entangled_event_straddled_by_local_event_fails(self):
        # local event timelike-after one arm region and timelike-before the
        # other arm region of a single entangled event
        steep = Hypersurface.line(-0.2 + 0.8 * 10, -0.8, -20, 20)
        ent = TaggedEvent.entangled(
            "psi", (Region.at([-10], steep), Region.at([10], steep))
        )
        local = TaggedEvent.local(
            "probe", Region.at([-9], Hypersurface.flat(4.0, -20, 20))
        )
        # probe at (-9, 4): after psi's left region (-10, 7.8)? compute: want
        # left region earlier, right region later
        assert steep.tau(-10) == pytest.approx(-0.2 + 0.8 * 10 + 8)
        with pytest.raises((EmbeddingImpossibleError, CyclicCausalityError)):
            embed_events([ent, local])

    def test_local_events_always_embed_randomized(self):
        # spacelike events are freely orderable, so purely local inputs must
        # always embed, and the emitted foliation must always validate
        rng = np.random.default_rng(4)
        for trial in range(50):
            events = []
            for k in range(7):
                cell = int(rng.integers(-12, 12))
                t = float(rng.uniform(0, 6))
                events.append(flat_event(f"e{k}", cell, t))
            result = embed_events(events)
            report = validate_foliation(result.foliation)
            assert report.valid, (trial, report)
            # every constrained point sits on its assigned surface
            for e in events:
                surf = result.foliation.surfaces[result.layer_of[e.id]]
                for p in e.points():
                    assert surf.tau(p.x) == pytest.approx(p.t, abs=1e-9)

    def test_adversarial_high_neighbor_does_not_displace(self):
        # an unrelated event sits spacelike of p but above it; the lower
        # surface must duck under p anyway
        events = [
            flat_event("r", 0, 0.9),    # ancestor pinning p from below
            flat_event("p", 0, 1.0),
            flat_event("q", 2, 2.79),   # spacelike from both r and p
        ]
        result = embed_events(events)
        assert validate_foliation(result.foliation).valid
        assert result.layer_of["q"] == result.layer_of["r"] == 0
        assert result.layer_of["p"] == 1
        surf = result.foliation.surfaces[1]
        assert surf.tau(0) == pytest.approx(1.0)


def _precedes(a_points, b_points):
    return any(
        classify_interval(p, q) in (TIMELIKE, LIGHTLIKE) and p.t < q.t
        for p in a_points
        for q in b_points
    )


def _longest_chain(nodes, edges):
    """Number of edges on the longest chain into each node of a DAG."""
    depth = {}

    def into(n):
        if n not in depth:
            depth[n] = max((into(a) + 1 for a, b in edges if b == n), default=0)
        return depth[n]

    return {n: into(n) for n in nodes}


def _random_events(rng):
    """One to six local, wide or entangled events on flat or tilted surfaces."""

    def surface():
        slope = float(rng.choice([0.0, -0.8, -0.5, 0.25, 0.5, 0.8]))
        return Hypersurface.line(float(rng.integers(-4, 8)), slope, -30, 30)

    events = []
    for k in range(int(rng.integers(1, 7))):
        kind = rng.integers(3)
        if kind == 2:
            cells = rng.choice(np.arange(-12, 13), size=int(rng.integers(2, 4)), replace=False)
            shared = surface() if rng.random() < 0.6 else None
            regions = [Region.at([int(c)], shared or surface()) for c in cells]
            events.append(TaggedEvent.entangled(f"e{k}", regions))
        else:
            cell = int(rng.integers(-10, 11))
            width = int(rng.integers(4, 15)) if kind == 1 else 0
            region = Region.at(range(cell, cell + width + 1), surface())
            events.append(TaggedEvent.local(f"e{k}", region))
    return events


class TestLayeringAndCycles:
    def test_random_event_sets(self):
        rng = np.random.default_rng(2002)
        seen = Counter()
        for trial in range(600):
            events = _random_events(rng)
            by_id = {e.id: e for e in events}
            edges = {
                (a.id, b.id) for a in events for b in events
                if a is not b and _precedes(a.points(), b.points())
            }

            def points(node):  # an event id, or "id[i]" for one of its regions
                m = re.fullmatch(r"(\w+)\[(\d+)\]", node)
                if m is None:
                    return node, by_id[node].points()
                return m[1], by_id[m[1]].regions[int(m[2])].corner_points()

            def assert_closed_walk(cycle):
                assert len(cycle) >= 3 and cycle[0] == cycle[-1], (trial, cycle)
                for a, b in zip(cycle, cycle[1:]):
                    (ea, pa), (eb, pb) = points(a), points(b)
                    assert ea != eb and _precedes(pa, pb), (trial, cycle, a, b)

            try:
                graph = causal_precedence(events)
                assert graph.edges == edges, trial
            except CyclicCausalityError as exc:
                assert_closed_walk(exc.cycle)
                graph = None
                seen["event cycle"] += 1
            try:
                result = embed_events(events)
            except CyclicCausalityError as exc:
                assert_closed_walk(exc.cycle)
                seen["region cycle"] += 1
            except EmbeddingImpossibleError as exc:
                m = re.search(r"\(cycle (\[.*\])\)$", exc.detail)
                if m is not None:
                    cycle = ast.literal_eval(m[1])
                    assert_closed_walk(cycle)
                    first = next(e.id for e in events if e.is_entangled and e.id in cycle)
                    assert exc.witness == first, (trial, cycle)
                    seen["witness"] += 1
            else:
                assert graph is not None, trial
                assert result.layer_of == _longest_chain(by_id, edges), trial
                assert [eid for layer in result.layers for eid in layer] == sorted(
                    by_id, key=lambda eid: (result.layer_of[eid], list(by_id).index(eid))
                )
                seen["embedded"] += 1
        # every kind of outcome is exercised
        kinds = ("event cycle", "region cycle", "witness", "embedded")
        assert min(seen[k] for k in kinds) >= 10, seen


class TestCovarianceMap:
    def test_rejects_non_unitary(self):
        from conhist.hilbert import Operator

        with pytest.raises(ValueError):
            CovarianceMap((Operator(np.diag([1.0, 2.0])),))

    @pytest.mark.parametrize("mixed", ["maximally", "seeded"])
    def test_relabels_a_density_operator_family(self, mixed):
        # spin-half G1's decompositions after its anchor, under I/6 or a seeded
        # full-rank density operator at the anchor's time: the relabeled family
        # keeps its weights and its verdict
        from conhist.hilbert import DensityOperator, Operator
        from conhist.histories import Family, MixedInitial, consistency_check, weight_table
        from conhist.scenarios import build

        g1 = build("spin-half").family("G1")
        if mixed == "maximally":
            rho = np.eye(g1.dim) / g1.dim
        else:
            rng = np.random.default_rng(6)
            z = rng.normal(size=(g1.dim, g1.dim)) + 1j * rng.normal(size=(g1.dim, g1.dim))
            rho = z @ z.conj().T
            rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
        fam = Family(g1.propagators, g1.time_indices[1:], g1.decompositions[1:],
                     MixedInitial(DensityOperator(Operator(rho))), 0, "G1-mixed")
        maps = CovarianceMap.seeded(fam.propagators, seed=13)
        primed = maps.relabel_family(fam, maps.relabel_propagators(fam.propagators))
        assert isinstance(primed.initial, MixedInitial)
        w0, w1 = weight_table(fam).entries, weight_table(primed).entries
        assert [a for a, _ in w0] == [a for a, _ in w1]
        assert max(abs(x - y) for (_, x), (_, y) in zip(w0, w1)) < 1e-9
        assert consistency_check(primed).consistent == consistency_check(fam).consistent
