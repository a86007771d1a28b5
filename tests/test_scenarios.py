import ast
import collections.abc
import dataclasses
import functools
import hashlib
import itertools
import pathlib
import sys
import threading

import numpy as np
import pytest

from conhist import cli, histories, relativistic, scenarios
from conhist.dynamics import TOL_UNITARY, PropagatorSet
from conhist.framework import (
    CLASS_COMMON, CLASS_DYNAMIC, CLASS_IDENTICAL, CLASS_KINEMATIC, CLASS_REFINEMENT,
    common_refinement, extend,
)
from conhist.hilbert import Operator, unitarity_defect
from conhist.histories import (
    EPS_REL,
    chain_operator,
    consistency_check,
    probabilities,
    time_reverse,
    weight_table,
)
from conhist.relativistic import (
    CovarianceMap,
    EmbeddingImpossibleError,
    commutation_check,
    covariance_check,
    embed_events,
    transform_scenario,
    validate_foliation,
)
from conhist.scenarios import BUILDERS
from conhist.scenarios.base import kron
from conhist.scenarios.wavepacket import build_wavepacket, default_intervals

SCENARIOS = {name: builder() for name, builder in BUILDERS.items()}


def expectation_cases():
    return [
        pytest.param(scn, exp, id=f"{name}-{i}-{exp.description[:40]}")
        for name, scn in SCENARIOS.items()
        for i, exp in enumerate(scn.expected)
    ]


@pytest.mark.parametrize("scn,exp", expectation_cases())
def test_registered_expectation(scn, exp):
    result = exp.run(scn)
    assert result.passed, (
        f"{scn.name}: {result.description}: measured {result.measured!r}, "
        f"expected {result.expected!r} (tol {result.tolerance})"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_all_steps_unitary(name):
    scn = SCENARIOS[name]
    sets = {id(scn.propagators): scn.propagators}
    for fam in scn.families.values():
        sets[id(fam.propagators)] = fam.propagators
    for ps in sets.values():
        for step in ps.steps:
            assert unitarity_defect(step) < TOL_UNITARY


def test_scenario_modules_import_no_private_names():
    # scenario code builds its models from the public API of conhist
    package = pathlib.Path(scenarios.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("conhist")):
                names = [*(node.module or "").split("."), *(a.name for a in node.names)]
                assert not [n for n in names if n.startswith("_")], (path.name, names)


def reachable_arrays(root):
    """Every numpy array reachable from ``root`` through containers, instance
    attributes and slots (functions, such as expectation queries, are not
    followed)."""
    seen, stack, found = set(), [root], []
    leaves = (str, int, float, complex, type(None))
    while stack:
        obj = stack.pop()
        if id(obj) in seen or callable(obj) or isinstance(obj, leaves):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, collections.abc.Mapping):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
            slots = (s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ()))
            stack.extend(getattr(obj, s) for s in slots if hasattr(obj, s))
    return found


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_reachable_array_is_writeable(name):
    # the scenario, and each family's consistency report and weight table,
    # share their arrays with every caller, so none may be changed in place:
    # this covers PropagatorSet's cumulative propagators and the (pairs,
    # overlaps) arrays that a report's Violations view hashes over.  So do
    # the compat verdicts (refinement family, witness report), an embedding
    # of the local events, the suite results and the relabeled twin.
    scn = SCENARIOS[name]
    families = scn.families.values()
    reports = [consistency_check(fam) for fam in families]
    verdicts = [
        common_refinement(f, g) for f, g in itertools.combinations(families, 2)
        if f.propagators.same_dynamics(g.propagators)
    ]
    # the local events on the scenario's own time slices
    local = [e for e in scn.events.values() if e.is_local and e.time_index is not None]
    embedded = embed_events(local) if local else None
    twin = transform_scenario(scn, CovarianceMap.seeded(scn.propagators, seed=13), seed=13)
    found = reachable_arrays([
        scn, reports, [weight_table(fam) for fam in families],
        verdicts, embedded, scn.run_expected(), twin,
    ])
    assert verdicts and (embedded is not None or name == "spin-half")  # it has no events
    assert found and [a.shape for a in found if a.flags.writeable] == []


@pytest.mark.parametrize("n_factors", [2, 3])
@pytest.mark.parametrize("ndim", [1, 2])
def test_kron_is_np_kron_bit_for_bit(ndim, n_factors):
    # seeded real and complex factors of every size from 1 to 4, with exact
    # and negative zeros among the entries and some factors strided: each
    # entry must be the same product, rounded the same way, as np.kron forms
    rng = np.random.default_rng(2002)
    for sizes in itertools.product(range(1, 5), repeat=n_factors):
        for complex_ in itertools.product((False, True), repeat=n_factors):
            mats = []
            for size, cplx in zip(sizes, complex_):
                shape = (size,) if ndim == 1 else (size, int(rng.integers(1, 5)))
                mat = rng.standard_normal(shape)
                if cplx:
                    mat = mat + 1j * rng.standard_normal(shape)
                mat[rng.random(shape) < 0.2] = 0.0
                mat[rng.random(shape) < 0.2] = -0.0
                if rng.random() < 0.3:  # a strided view, as a matrix column is
                    mat = np.repeat(mat, 2, axis=-1)[..., ::2]
                mats.append(mat)
            got, want = kron(*mats), functools.reduce(np.kron, mats)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes(), (sizes, complex_)


# Per scenario, one family pair for each compat verdict class it produces (the
# kinematic, common-refinement and dynamic classes), plus a self-pair, which
# is identical.
COMPAT_SAMPLE = {
    "spin-half": [("F0", "F1"), ("F1", "G1"), ("F1-remerge", "G0"), ("F1", "F1")],
    "epr": [("F0", "F1"), ("F0", "G2")],
    "hardy": [("arm-pair", "blocker")],
    "wavepacket": [("F0", "F1"), ("F0", "G0"), ("F2-remerge", "G1")],
}


def library_pass() -> str:
    """The library calls behind the paradox commands, one pass over the
    shared scenarios, serialized as the CLI's JSON serializes results."""
    out = []
    for name, scn in sorted(SCENARIOS.items()):
        fams = scn.families
        for fam in fams.values():
            out.append(consistency_check(fam).to_dict())
            try:
                out.append(probabilities(fam).items())
            except histories.InconsistentFamilyError as exc:
                out.append(str(exc))
        out.append([r.to_dict() for r in scn.run_expected()])
        out += [common_refinement(fams[a], fams[b]).to_dict() for a, b in COMPAT_SAMPLE[name]]
    # a family against its extension is a refinement
    f1 = SCENARIOS["spin-half"].families["F1"]
    out.append(common_refinement(f1, extend(f1, [4.0])).to_dict())
    wp = SCENARIOS["wavepacket"]
    mid = int(wp.propagators.grid.values[2])
    out.append(embed_events([wp.events[k] for k in ("int3-t1", f"int3-t{mid}", "bp1", "bp2")])
               .to_dict())
    try:
        embed_events([wp.events["psi-t1"], wp.events["psi-boosted"]])
    except EmbeddingImpossibleError as exc:
        out.append({"witness": exc.witness, "detail": exc.detail})
    return cli._to_json(out)


def test_shared_scenarios_give_serial_results_under_threads():
    # four threads make one pass each over the same scenario objects; each
    # pass must serialize to exactly what a serial pass does
    serial = library_pass()
    classes = (CLASS_IDENTICAL, CLASS_REFINEMENT, CLASS_COMMON, CLASS_KINEMATIC, CLASS_DYNAMIC)
    assert all(f'"classification": "{c}"' in serial for c in classes)
    assert '"witness": "psi-' in serial  # the second embedding is refused
    start, results = threading.Barrier(4), [None] * 4

    def run(k):
        start.wait()
        results[k] = library_pass()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("registry", ["kets", "projectors", "families", "events"])
def test_registries_are_read_only(name, registry):
    # a built scenario is shared, so no caller may add to or replace its entries
    entries = getattr(SCENARIOS[name], registry)
    with pytest.raises(TypeError):
        entries["extra"] = None
    with pytest.raises(TypeError):
        del entries[next(iter(entries), "extra")]
    assert "extra" not in entries


def fingerprint(fam):
    """Digests of a family's times, propagator steps, initial state and members."""
    digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
    return (
        fam.name, fam.time_indices, fam.propagators.grid.values,
        [digest(step.mat) for step in fam.propagators.steps],
        fam.initial_slot, digest(fam.initial.ket.amps),
        [[(lab, digest(p.mat)) for lab, p in dec.members] for dec in fam.decompositions],
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_named_builds_equal_the_full_build(name):
    # a build of only the named families makes the same families as the full
    # build, and the families of one named build share their dynamics
    full = SCENARIOS[name].families
    for fname, fam in full.items():
        named = scenarios.build(name, [fname])
        assert list(named) == [fname]
        assert fingerprint(named[fname]) == fingerprint(fam)
        assert consistency_check(named[fname]).to_dict() == consistency_check(fam).to_dict()
        assert weight_table(named[fname]).entries == weight_table(fam).entries
    pairs = [
        (a, b) for a, b in itertools.combinations(sorted(full), 2)
        if full[a].propagators.same_dynamics(full[b].propagators)
    ]
    assert pairs
    for a, b in pairs:
        named = scenarios.build(name, [a, b])
        assert named[a].propagators is named[b].propagators
        assert (common_refinement(named[a], named[b]).to_dict()
                == common_refinement(full[a], full[b]).to_dict())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_named_build_refuses_an_unknown_family(name):
    available = ", ".join(sorted(SCENARIOS[name].families))
    with pytest.raises(KeyError) as info:
        scenarios.build(name, [next(iter(SCENARIOS[name].families)), "F9"])
    assert info.value.args == (f"no family named 'F9'; available: {available}",)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_weight_normalization_on_consistent_families(name):
    scn = SCENARIOS[name]
    for fam in scn.families.values():
        if consistency_check(fam).consistent:
            table = probabilities(fam)
            assert table.normalization == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_time_reversal_preserves_weights_and_verdicts(name):
    scn = SCENARIOS[name]
    for fam in scn.families.values():
        rev = time_reverse(fam)
        fwd = {a: w for a, w in weight_table(fam).entries}
        bwd = {a: w for a, w in weight_table(rev).entries}
        for alpha, w in fwd.items():
            assert bwd[tuple(reversed(alpha))] == pytest.approx(w, abs=1e-9)
        assert (
            consistency_check(rev).consistent == consistency_check(fam).consistent
        )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_consistent_families_stay_consistent_without_absolute_slack(name):
    # rounding residue is pruned, so no surviving chain pair of a consistent
    # family overlaps beyond the relative threshold
    scn = SCENARIOS[name]
    for fam_name, fam in scn.families.items():
        if not consistency_check(fam).consistent:
            continue
        report = consistency_check(fam, eps_abs=0.0)
        assert report.consistent, fam_name
        assert report.max_normalized_overlap <= EPS_REL, fam_name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reference_index_independence(name, heisenberg_chains):
    # the engine's weights match the Heisenberg chain operators on the first
    # and on the last reference surface
    scn = SCENARIOS[name]
    for fam in scn.families.values():
        last = len(fam.propagators.grid) - 1
        entries = weight_table(fam).entries
        for ref in (0, last):
            chains = heisenberg_chains(fam, [alpha for alpha, _ in entries], ref)
            for (_, w), adj in zip(entries, chains, strict=True):
                assert w == pytest.approx(np.linalg.norm(adj) ** 2, abs=1e-9)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_heisenberg_chains_helper_is_chain_operator(name, heisenberg_chains):
    # the shared test helper against the library's oracle, on three seeded
    # histories of each family at both reference surfaces
    scn = SCENARIOS[name]
    rng = np.random.default_rng(11)
    for fam in scn.families.values():
        alphas = fam.alphas()
        picks = rng.choice(len(alphas), size=min(3, len(alphas)), replace=False)
        sample = [alphas[i] for i in picks]
        for ref in (0, len(fam.propagators.grid) - 1):
            for alpha, adj in zip(sample, heisenberg_chains(fam, sample, ref), strict=True):
                k = chain_operator(alpha, fam, ref=ref).op.mat
                assert np.abs(adj - k.conj().T).max() < 1e-12


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_covariance_under_basis_relabeling(name):
    scn = SCENARIOS[name]
    maps = CovarianceMap.seeded(scn.propagators, seed=13)
    primed = transform_scenario(scn, maps, seed=13)
    report = covariance_check(scn, maps, primed)
    assert report.propagator_residual < 1e-10
    assert report.passed, report
    assert [r[0] for r in report.family_results] == sorted(scn.families)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_family_frame_independent(name):
    # weight tables survive per-time basis relabeling family by family,
    # including families carried on auxiliary frame orderings
    scn = SCENARIOS[name]
    maps = CovarianceMap.seeded(scn.propagators, seed=5)
    primed = transform_scenario(scn, maps, seed=5)
    for fam_name, fam in scn.families.items():
        w0 = weight_table(fam).entries
        w1 = weight_table(primed.families[fam_name]).entries
        assert [a for a, _ in w0] == [a for a, _ in w1], fam_name
        residual = max((abs(a - b) for (_, a), (_, b) in zip(w0, w1)), default=0.0)
        assert residual < 1e-9, fam_name


def test_covariance_check_reports_every_family():
    # hardy's two inference families run on their own frame orderings
    scn = SCENARIOS["hardy"]
    maps = CovarianceMap.seeded(scn.propagators, seed=13)
    report = covariance_check(scn, maps, transform_scenario(scn, maps, seed=13))
    assert report.passed
    assert [name for name, _, _ in report.family_results] == sorted(scn.families)
    assert len(report.family_results) == 5


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_covariance_check_analyses_each_side_once(name, monkeypatch):
    # one chain pass per family and per primed family gives both the weights
    # and the verdict
    scn = SCENARIOS[name]
    maps = CovarianceMap.seeded(scn.propagators, seed=13)
    primed = transform_scenario(scn, maps, seed=13)
    passes = []
    real = histories._analyze

    def counting(f):
        passes.append(f.name)
        return real(f)

    monkeypatch.setattr(histories, "_analyze", counting)
    monkeypatch.setattr(relativistic, "_analyze", counting)
    assert covariance_check(scn, maps, primed).passed
    assert len(passes) == 2 * len(scn.families)


def test_covariance_check_compares_the_primed_families():
    scn = SCENARIOS["spin-half"]
    maps = CovarianceMap.seeded(scn.propagators, seed=13)
    primed = transform_scenario(scn, maps, seed=13)
    swapped = dataclasses.replace(
        primed, families={**primed.families, "F1": primed.families["F2"]}
    )
    report = covariance_check(scn, maps, swapped)
    assert report.propagator_residual < 1e-10
    assert not report.passed
    [(_, diff, _)] = [r for r in report.family_results if r[0] == "F1"]
    assert diff > 0.1


def test_covariance_check_reads_steps_not_propagators(monkeypatch):
    # every two-time propagator is a product of steps on both sides, so the
    # propagator law is checked on the n - 1 steps alone
    scn = SCENARIOS["wavepacket"]
    maps = CovarianceMap.seeded(scn.propagators, seed=13)
    primed = transform_scenario(scn, maps, seed=13)
    analyses = {id(f): histories._analyze(f) for s in (scn, primed) for f in s.families.values()}

    def no_propagator(self, j, k):
        raise AssertionError(f"propagator({j}, {k}) called")

    monkeypatch.setattr(relativistic, "_analyze", lambda f: analyses[id(f)])
    monkeypatch.setattr(PropagatorSet, "propagator", no_propagator)
    assert covariance_check(scn, maps, primed).passed


def _wrong_map(maps, primed):
    # swap the first two basis vectors after the map at time 2
    swap = np.eye(6, dtype=complex)[[1, 0, 2, 3, 4, 5]]
    unitaries = list(maps.unitaries)
    unitaries[2] = Operator(swap @ unitaries[2].mat)
    return CovarianceMap(tuple(unitaries)), primed


def _perturbed_step(maps, primed):
    # one primed step with an extra phase on one basis vector
    steps = list(primed.propagators.steps)
    steps[2] = Operator(np.diag(np.exp(0.5j * np.eye(6)[0])) @ steps[2].mat)
    ps = dataclasses.replace(primed.propagators, steps=tuple(steps))
    return maps, dataclasses.replace(primed, propagators=ps)


@pytest.mark.parametrize(
    "mutate", [_wrong_map, _perturbed_step], ids=["wrong-map", "perturbed-step"]
)
def test_covariance_check_flags_wrong_map(mutate):
    # each step enters the check once, so one wrong map or one wrong primed
    # step must show in the residual
    scn = SCENARIOS["spin-half"]
    maps = CovarianceMap.seeded(scn.propagators, seed=13)
    report = covariance_check(scn, *mutate(maps, transform_scenario(scn, maps, seed=13)))
    assert not report.passed
    assert report.propagator_residual > 0.1


class TestSpacelikeCommutation:
    @pytest.mark.parametrize("name,count", [("epr", 100), ("wavepacket", 100)])
    def test_random_spacelike_pairs_commute(self, name, count, spacelike_local_event_pairs):
        scn = SCENARIOS[name]
        pairs = spacelike_local_event_pairs(scn, count, seed=2024)
        assert len(pairs) == count
        for e, g in pairs:
            result = commutation_check(scn, e, g)
            assert result.spacelike
            assert result.norm < 1e-12

    def test_inapplicable_for_timelike_pair(self):
        scn = SCENARIOS["epr"]
        result = commutation_check(
            scn, scn.events["a-z+-t1"], scn.events["a-z+-t2"]
        )
        assert not result.spacelike

    def test_identity_projector_commutes_with_anything(self):
        scn = SCENARIOS["epr"]
        from conhist.relativistic import Hypersurface, Region, TaggedEvent

        surface = Hypersurface.flat(1.0, -8, 8)
        ident = TaggedEvent.local(
            "ident", Region.at([5], surface), projector="ident", time_index=1
        )
        from conhist.hilbert import Projector

        # a copy with the extra projector: the shared scenario stays as built
        scn = dataclasses.replace(
            scn, projectors={**scn.projectors, "ident": Projector.identity(scn.dim)}
        )
        assert "ident" not in SCENARIOS["epr"].projectors
        result = commutation_check(scn, ident, scn.events["a-x+-t3"])
        assert result.norm == pytest.approx(0.0)


class TestWavepacketGeometry:
    def test_interleaved_frame_embedding_succeeds(self):
        scn = SCENARIOS["wavepacket"]
        mid = int(scn.propagators.grid.values[2])
        events = [
            scn.events["int3-t1"],
            scn.events[f"int3-t{mid}"],
            scn.events["bp1"],
            scn.events["bp2"],
        ]
        result = embed_events(events)
        assert validate_foliation(result.foliation).valid

    def test_crossing_entangled_events_fail_with_witness(self):
        scn = SCENARIOS["wavepacket"]
        with pytest.raises(EmbeddingImpossibleError) as err:
            embed_events([scn.events["psi-t1"], scn.events["psi-boosted"]])
        assert err.value.witness in ("psi-t1", "psi-boosted")

    def test_all_local_events_embed(self):
        scn = SCENARIOS["wavepacket"]
        locals_ = [
            e for e in scn.events.values() if e.is_local and e.id[0] == "i"
        ][:12]
        result = embed_events(locals_)
        assert validate_foliation(result.foliation).valid


class TestWavepacketBuild:
    """The build's matrices against their plain dense constructions, byte for
    byte (default geometry: 24 cells, source 12, detectors at 6 and 21)."""

    N_PART = 2 * 24 + 1  # (cell, direction) pairs and the absorbed marker

    def test_diagonal_projectors_are_the_kron_forms(self):
        scn = SCENARIOS["wavepacket"]
        i2, i4, ip = (np.eye(n, dtype=complex) for n in (2, 4, self.N_PART))
        ready, fired = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        particle = np.arange(self.N_PART)  # 2 * cell + direction; 48 is absorbed
        # interval k holds cells 3k..3k+2, so particle indices 6k..6k+5
        want = {f"int{k}": np.kron(np.diag(1.0 * (particle // 6 == k)), i4) for k in range(8)}
        want["abs"] = np.kron(np.diag(1.0 * (particle == 48)), i4)
        detectors = {
            "AB": (ready, ready), "A*B": (fired, ready), "AB*": (ready, fired),
            "A*B*": (fired, fired), "A": (ready, i2), "A*": (fired, i2),
            "B": (i2, ready), "B*": (i2, fired),
        }
        for lab, (a, b) in detectors.items():
            want[lab] = np.kron(ip, np.kron(a, b))
        for lab, mat in want.items():
            assert scn.projectors[lab].mat.tobytes() == mat.astype(complex).tobytes(), lab

    @staticmethod
    def lattice_steps(n_cells=24, source=12, det_a=6, det_b=21):
        """The lattice steps as dense permutation matrices: the shift,
        preceded by detector A's swap at step source - det_a - 1 and B's at
        step det_b - source - 1 (steps 5 and 8 of ten by default)."""
        absorbed = 2 * n_cells
        dim = 4 * (absorbed + 1)

        def index(particle, a, b):
            return (particle * 2 + a) * 2 + b

        shift = np.zeros((dim, dim), dtype=complex)
        for cell, direction, a, b in itertools.product(range(n_cells), (0, 1), (0, 1), (0, 1)):
            moved = (cell + (1 if direction else -1)) % n_cells
            shift[index(2 * moved + direction, a, b), index(2 * cell + direction, a, b)] = 1
        for a, b in itertools.product((0, 1), (0, 1)):
            shift[index(absorbed, a, b), index(absorbed, a, b)] = 1

        def swap(pairs):
            u = np.eye(dim, dtype=complex)
            for i, j in pairs:
                u[[i, j]] = u[[j, i]]
            return u

        swap_a = swap((index(2 * det_a, 0, o), index(absorbed, 1, o)) for o in (0, 1))
        swap_b = swap((index(2 * det_b + 1, o, 0), index(absorbed, o, 1)) for o in (0, 1))
        t_a, t_b = source - det_a, det_b - source
        steps = [shift] * (t_b + 1)
        steps[t_a - 1], steps[t_b - 1] = swap_a @ shift, swap_b @ shift
        return steps

    @pytest.mark.parametrize(
        "geometry, width", [((24, 12, 6, 21), 3), ((14, 6, 2, 12), 2)], ids=["default", "14-cell"]
    )
    def test_lattice_dynamics_match_the_dense_construction(self, geometry, width):
        # steps and every Psi.v ket against dense shift (x) I4, dense swaps and @
        n_cells, source = geometry[:2]
        scn = build_wavepacket(*geometry, default_intervals(n_cells, width))
        lattice = self.lattice_steps(*geometry)
        dim = len(lattice[0])
        values = [int(v) for v in scn.propagators.grid.values]
        for step, v0, v1 in zip(scn.propagators.steps, values, values[1:]):
            u = np.eye(dim, dtype=complex)
            for t in range(v0, v1):
                u = lattice[t] @ u
            assert step.mat.tobytes() == u.tobytes(), (v0, v1)
        vec = np.zeros(dim, dtype=complex)
        vec[[4 * 2 * source, 4 * (2 * source + 1)]] = 1 / np.sqrt(2)  # both detectors ready
        for t in range(values[-1] + 1):
            if t in values:
                assert scn.kets[f"Psi.{t}"].amps.tobytes() == vec.tobytes(), t
            if t < len(lattice):
                vec = lattice[t] @ vec
        assert sum(name.startswith("Psi.") for name in scn.kets) == len(values)

    def test_steps_are_dense_products_of_lattice_steps(self):
        ps = SCENARIOS["wavepacket"].propagators
        lattice = self.lattice_steps()
        values = [int(v) for v in ps.grid.values]
        assert len(ps.steps) == len(values) - 1
        for step, v0, v1 in zip(ps.steps, values, values[1:]):
            u = np.eye(196, dtype=complex)
            for t in range(v0, v1):
                u = lattice[t] @ u
            assert step.mat.tobytes() == u.tobytes(), (v0, v1)

    def test_cumulative_propagators_are_dense_step_products(self):
        ps = SCENARIOS["wavepacket"].propagators
        acc = np.eye(196, dtype=complex)
        assert ps._cumulative[0].mat.tobytes() == acc.tobytes()
        for step, cumulative in zip(ps.steps, ps._cumulative[1:]):
            acc = step.mat @ acc
            assert cumulative.mat.tobytes() == acc.tobytes()

    def test_psi_projectors_are_the_dense_span_formula(self):
        # Psi.v is the packet state evolved by v lattice steps; its projector
        # is the SVD formula, symmetrized over the whole matrix
        scn = SCENARIOS["wavepacket"]
        packet = np.zeros(self.N_PART)
        packet[[24, 25]] = 1 / np.sqrt(2)  # cell 12, left and right
        vec = np.kron(packet, [1.0, 0.0, 0.0, 0.0]).astype(complex)  # both detectors ready
        lattice = self.lattice_steps()
        values = [int(v) for v in scn.propagators.grid.values]
        for t in range(values[-1] + 1):
            if t in values:
                assert scn.kets[f"Psi.{t}"].amps.tobytes() == vec.tobytes()
                u, s, _ = np.linalg.svd(vec[:, None], full_matrices=False)
                basis = u[:, s > 1e-10 * s[0]]
                want = basis @ basis.conj().T
                want = (want + want.conj().T) / 2.0
                assert scn.projectors[f"Psi.{t}"].mat.tobytes() == want.tobytes(), t
            if t < len(lattice):
                vec = lattice[t] @ vec
        assert sum(name.startswith("Psi.") for name in scn.projectors) == 6

    def test_product_and_rest_members_are_dense_formulas(self):
        scn = SCENARIOS["wavepacket"]
        P = {lab: p.mat for lab, p in scn.projectors.items()}
        # a1 and b1 are the intervals holding cells 9 and 15 (source -/+ 3)
        want = {
            "a1.AB": P["int3"] @ P["AB"],
            "b1.AB": P["int5"] @ P["AB"],
            "phib.AB": P["phib.AB"] @ P["AB"],
        }
        decompositions = {id(d): d for f in scn.families.values() for d in f.decompositions}
        rests, found = 0, set()
        for d in decompositions.values():
            members = dict(d.members)
            for lab in want.keys() & members.keys():
                assert members[lab].mat.tobytes() == want[lab].tobytes(), lab
                found.add(lab)
            if "rest" in members:
                others = sum(p.mat for lab, p in d.members if lab != "rest")
                rest = np.eye(196, dtype=complex) - others
                assert members["rest"].mat.tobytes() == rest.tobytes()
                rests += 1
        assert found == want.keys()
        assert rests == 7  # {Psi.v, rest} at five times, and G1's and G2's product slots


class TestGeometryPreconditions:
    def test_wavepacket_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            build_wavepacket(det_a=13)  # detector A not left of the source
        with pytest.raises(ValueError):
            build_wavepacket(det_a=3, det_b=20)  # A farther than B
        with pytest.raises(ValueError):
            build_wavepacket(intervals=((0, 1),))  # not a partition

    def test_smaller_geometry_builds(self):
        scn = build_wavepacket(14, 6, 2, 12, default_intervals(14, 2))
        for exp in scn.expected:
            assert exp.run(scn).passed
