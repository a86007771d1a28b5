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

    @pytest.mark.parametrize("cells, surface", [
        ([10], Hypersurface.line(0, 0.5, 0, 2)),  # tau(10) would clamp to tau(2) = 1.0
        ([-6], SURFACE), ([0, 6], SURFACE),
    ], ids=["beyond-a-line", "below", "one-of-two-above"])
    def test_region_refuses_cells_outside_its_surface(self, cells, surface):
        with pytest.raises(ValueError, match="must lie within its surface's span"):
            Region.at(cells, surface)

    def test_region_accepts_cells_on_its_surface_ends(self):
        assert Region.at([-5, 5], self.SURFACE).cells == {-5, 5}

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
        # other arm region of a single entangled event; causal order is
        # transitive, so the arms sit on two surfaces, one timelike-after the other
        ent = TaggedEvent.entangled("psi", (
            Region.at([-10], Hypersurface.flat(0.0, -20, 20)),
            Region.at([10], Hypersurface.flat(30.0, -20, 20)),
        ))
        probe = TaggedEvent.local("probe", Region.at([0], Hypersurface.flat(15.0, -20, 20)))
        left, right = (r.corner_points()[0] for r in ent.regions)
        assert classify_interval(left, probe.points()[0]) == TIMELIKE
        assert classify_interval(probe.points()[0], right) == TIMELIKE
        with pytest.raises(EmbeddingImpossibleError) as err:
            embed_events([ent, probe])
        assert err.value.witness == "psi"
        assert err.value.detail.endswith("(cycle ['psi', 'probe', 'psi'])")

    def test_entangled_event_with_ordered_regions_fails(self):
        # one arm timelike-before the other: the event is forced before itself
        ent = TaggedEvent.entangled("psi", (
            Region.at([0], Hypersurface.flat(0.0, -5, 5)),
            Region.at([1], Hypersurface.flat(3.0, -5, 5)),
        ))
        with pytest.raises(EmbeddingImpossibleError) as err:
            embed_events([ent, flat_event("other", 4, 0.0)])
        assert err.value.witness == "psi"
        assert err.value.detail.endswith("(cycle ['psi', 'psi'])")

    def test_events_sharing_a_point_share_a_surface(self):
        # a sits on b's left arm, and z precedes b's right arm only: no two
        # surfaces meet, so a rides up to b's layer
        flat0 = Hypersurface.flat(0.0, -20, 20)
        b = TaggedEvent.entangled("b", (Region.at([0], flat0), Region.at([20], flat0)))
        events = [flat_event("a", 0, 0.0), b, flat_event("z", 20, -5.0)]
        result = embed_events(events)
        assert result.layer_of == {"a": 1, "b": 1, "z": 0}
        assert validate_foliation(result.foliation).valid

    def test_local_events_sharing_a_point_in_causal_order_are_malformed(self):
        # a and b share (0, 0), and a's (4, 0) precedes b's (10, 9): one
        # surface must carry both, so the pair is a cycle of local regions
        a = TaggedEvent.local("a", Region.at([0, 4], Hypersurface.flat(0.0, -1, 11)))
        b = TaggedEvent.local("b", Region.at([0, 10], Hypersurface.line(0.0, 0.9, -1, 11)))
        with pytest.raises(CyclicCausalityError) as err:
            embed_events([a, b])
        assert err.value.cycle == ("a", "a")

    def test_meeting_point_rounded_onto_an_apex_is_dropped(self):
        # s = 0.53 and delta = 2.95: on surface 1, r's lifted apex
        # (5, 3.250000000000001) clears p's cone, which reads 3.25 at x = 5, by
        # one rounding step; their meeting point rounds onto r's apex, and a
        # repeated breakpoint would make Hypersurface refuse the surface
        r = flat_event("r", 5, 0.3000000000000005)
        events = [flat_event("q", 0, 0.0), flat_event("p", 0, 5.9), r]
        result = embed_events(events)
        assert result.layer_of == {"q": 0, "p": 1, "r": 0}
        assert validate_foliation(result.foliation).valid
        surfaces = result.foliation.surfaces
        assert surfaces[1].xs == (-1.0, 0.0, 5.0, 6.0)
        for e in events:
            p = e.points()[0]
            assert surfaces[result.layer_of[e.id]].tau(p.x) == pytest.approx(p.t, abs=1e-9)

    def test_points_closer_than_floating_point_separates_are_refused(self):
        # a precedes b by 1e-300 at cell 0: delta is 5e-301, which no surface
        # near t = -0.25 can carry, so the answer is a refusal, not a foliation
        flat0 = Hypersurface.flat(0.0, -5, 5)
        a = TaggedEvent.entangled("a", (Region.at([0], flat0), Region.at([2], flat0)))
        b = TaggedEvent.entangled("b", (
            Region.at([0], Hypersurface.flat(1e-300, -5, 5)), Region.at([1], flat0),
        ))
        with pytest.raises(ValueError, match="closer together or to the light cone"):
            embed_events([a, b])

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


def _shared_point_classes(events):
    """Each event id's class under "shares a corner point with", closed
    transitively: one surface must carry every event of a class."""
    cls = {e.id: frozenset([e.id]) for e in events}
    for a in events:
        for b in events:
            if set(a.points()) & set(b.points()) and cls[a.id] != cls[b.id]:
                merged = cls[a.id] | cls[b.id]
                cls.update(dict.fromkeys(merged, merged))
    return cls


def _node_regions(events):
    """The members of a cycle node of ``embed_events``: "id[i]" is one
    region, keyed by its event; an event id stands for every region of its
    shared-point class, each keyed by itself."""
    by_id, classes = {e.id: e for e in events}, _shared_point_classes(events)

    def members(node):
        m = re.fullmatch(r"(\w+)\[(\d+)\]", node)
        if m is not None:
            return [(m[1], by_id[m[1]].regions[int(m[2])].corner_points())]
        return [
            (f"{eid}[{i}]", r.corner_points())
            for eid in sorted(classes[node]) for i, r in enumerate(by_id[eid].regions)
        ]

    return members


def _assert_closed_walk(cycle, members):
    """Each step of the cycle is a real precedence between two different
    members of its nodes."""
    assert len(cycle) >= 2 and cycle[0] == cycle[-1], cycle
    for a, b in zip(cycle, cycle[1:]):
        assert any(
            ka != kb and _precedes(pa, pb) for ka, pa in members(a) for kb, pb in members(b)
        ), (cycle, a, b)


class TestLayeringAndCycles:
    def test_random_event_sets(self):
        rng = np.random.default_rng(2002)
        seen = Counter()
        for trial in range(600):
            events = _random_events(rng)
            by_id = {e.id: e for e in events}
            classes = _shared_point_classes(events)
            edges = {
                (a.id, b.id) for a in events for b in events
                if a is not b and _precedes(a.points(), b.points())
            }

            node_regions = _node_regions(events)

            def event_points(node):  # an event and its points, keyed by the event
                return [(node, by_id[node].points())]

            try:
                graph = causal_precedence(events)
                assert graph.edges == edges, trial
            except CyclicCausalityError as exc:
                _assert_closed_walk(exc.cycle, event_points)
                graph = None
                seen["event cycle"] += 1
            try:
                result = embed_events(events)
            except CyclicCausalityError as exc:
                _assert_closed_walk(exc.cycle, node_regions)
                seen["region cycle"] += 1
            except EmbeddingImpossibleError as exc:
                # the only refusal names a cycle through an entangled event
                m = re.search(r"\(cycle (\[.*\])\)$", exc.detail)
                assert m is not None, (trial, exc.detail)
                cycle = ast.literal_eval(m[1])
                _assert_closed_walk(cycle, node_regions)
                seen["self-loop" if len(cycle) == 2 else "witness"] += 1
                on_cycle = set().union(*(classes[n] for n in cycle))
                first = next(e.id for e in events if e.is_entangled and e.id in on_cycle)
                assert exc.witness == first, (trial, cycle)
            else:
                assert graph is not None, trial
                assert validate_foliation(result.foliation).valid, trial
                class_edges = {(classes[a], classes[b]) for a, b in edges}
                depth = _longest_chain(set(classes.values()), class_edges)
                assert result.layer_of == {eid: depth[classes[eid]] for eid in by_id}, trial
                assert [eid for layer in result.layers for eid in layer] == sorted(
                    by_id, key=lambda eid: (result.layer_of[eid], list(by_id).index(eid))
                )
                seen["embedded"] += 1
        # every kind of outcome is exercised
        kinds = ("event cycle", "region cycle", "witness", "self-loop", "embedded")
        assert min(seen[k] for k in kinds) >= 10, seen


@st.composite
def _spacelike_surface(draw):
    """A piecewise-linear surface over [-12, 12], every slope within 0.95."""
    inner = draw(st.lists(st.integers(-11, 11), max_size=3, unique=True))
    xs = [-12, *sorted(inner), 12]
    ts = [draw(st.floats(-6, 6))]
    for a, b in zip(xs, xs[1:]):
        ts.append(ts[-1] + draw(st.floats(-0.95, 0.95)) * (b - a))
    return Hypersurface(tuple(xs), tuple(ts))


@st.composite
def _event_sets(draw):
    """One to five local events (one or two cells) and two-region entangled
    events, each region on a random spacelike surface."""
    events = []
    for k in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            cells = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=2, unique=True))
            events.append(TaggedEvent.local(f"e{k}", Region.at(cells, draw(_spacelike_surface()))))
        else:
            cells = draw(st.lists(st.integers(-10, 10), min_size=2, max_size=2, unique=True))
            shared = draw(_spacelike_surface())
            surfaces = [
                shared if draw(st.booleans()) else draw(_spacelike_surface()) for _ in cells
            ]
            events.append(TaggedEvent.entangled(
                f"e{k}", [Region.at([c], surf) for c, surf in zip(cells, surfaces)]
            ))
    return events


class TestEmbeddingCertificates:
    """Every answer of ``embed_events`` carries a certificate that is checked
    from the events alone: a valid foliation through every point, in layers
    that respect causal order, or a cycle of real precedences."""

    @settings(max_examples=150, deadline=None)
    @given(_event_sets())
    def test_embedding_or_cycle_is_certified(self, events):
        by_id, classes = {e.id: e for e in events}, _shared_point_classes(events)
        node_regions = _node_regions(events)
        try:
            result = embed_events(events)
        except CyclicCausalityError as exc:
            _assert_closed_walk(exc.cycle, node_regions)
            return
        except EmbeddingImpossibleError as exc:
            m = re.search(r"\(cycle (\[.*\])\)$", exc.detail)
            assert m is not None, exc.detail
            cycle = ast.literal_eval(m[1])
            _assert_closed_walk(cycle, node_regions)
            assert by_id[exc.witness].is_entangled
            assert any(exc.witness in classes[n] for n in cycle)
            return
        except ValueError as exc:
            # refused only when two events' points at one cell differ in time
            # by less than floating point can lift a surface
            assert "floating point" in str(exc)
            points = [(p, e.id) for e in events for p in e.points()]
            assert any(
                a != b and p.x == q.x and 0 < abs(p.t - q.t) < 1e-12
                for p, a in points for q, b in points
            ), events
            return
        surfaces = result.foliation.surfaces
        assert validate_foliation(result.foliation).valid
        for e in events:
            for p in e.points():
                assert surfaces[result.layer_of[e.id]].tau(p.x) == pytest.approx(p.t, abs=1e-9)
        for a in events:
            for b in events:
                if a is not b and _precedes(a.points(), b.points()):
                    assert result.layer_of[a.id] < result.layer_of[b.id], (a.id, b.id)


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
