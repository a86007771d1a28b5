import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conhist.dynamics import PropagatorSet, TimeGrid
from conhist.hilbert import Ket, Operator, is_projector


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return Operator(q * (np.diag(r) / np.abs(np.diag(r))))


class TestTimeGrid:
    def test_labels_default_to_values(self):
        grid = TimeGrid((0.0, 1.5, 3.0))
        assert grid.labels == ("t0", "t1.5", "t3")

    def test_times_that_print_alike_keep_distinct_labels(self):
        # both would label as t1 under :g
        assert TimeGrid((1.0000001, 1.0000002)).labels == ("t1.0000001", "t1.0000002")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6, unique=True))
    def test_every_label_reads_back_as_its_time(self, times):
        grid = TimeGrid(tuple(sorted(times)))
        assert [float(label[1:]) for label in grid.labels] == list(grid.values)
        short = [f"t{v:g}" for v in grid.values]
        assert [a for a, b in zip(grid.labels, short) if a != b] == [
            f"t{v!r}" for v in grid.values if float(f"{v:g}") != v
        ]

    @pytest.mark.parametrize("t", [0.5, float("nan"), float("inf")], ids=["off-grid", "nan", "inf"])
    def test_time_off_the_grid_is_refused(self, t):
        with pytest.raises(KeyError, match="not on grid"):
            TimeGrid((0.0, 1.0, 1.0000000001)).index_of_value(t)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            TimeGrid((0.0, 0.0))
        with pytest.raises(ValueError):
            TimeGrid((1.0, 0.5))


class TestPropagatorComposition:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.grid = TimeGrid((0, 1, 2, 3, 4, 5))
        self.steps = tuple(random_unitary(3, rng) for _ in range(5))
        self.ps = PropagatorSet(self.grid, self.steps)

    def test_identity_on_equal_indices(self):
        for j in range(6):
            assert np.array_equal(self.ps.propagator(j, j).mat, np.eye(3))

    def test_forward_composition_definition(self):
        expect = self.steps[1].mat @ self.steps[0].mat
        assert np.allclose(self.ps.propagator(2, 0).mat, expect)

    def test_reverse_is_adjoint(self):
        fwd = self.ps.propagator(2, 0)
        back = self.ps.propagator(0, 2)
        assert np.allclose(back.mat, fwd.mat.conj().T)

    def test_groupoid_laws_all_triples(self):
        n = len(self.grid)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.ps.propagator(i, j).mat @ self.ps.propagator(j, k).mat
                    rhs = self.ps.propagator(i, k).mat
                    assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_index_range(self):
        with pytest.raises(IndexError):
            self.ps.propagator(0, 6)

    def test_non_unitary_step_rejected(self):
        with pytest.raises(ValueError):
            PropagatorSet(TimeGrid((0, 1)), (Operator(np.diag([1.0, 2.0])),))

    def test_cumulative_propagators_are_read_only(self):
        assert len(self.ps._cumulative) == 6
        for op in self.ps._cumulative:
            with pytest.raises(ValueError, match="read-only"):
                op.mat[0, 0] = 0

    def test_fresh_set_is_safe_to_share_between_threads(self):
        # four threads compose on a set nobody has touched yet
        rng = np.random.default_rng(3)
        grid = TimeGrid(tuple(range(8)))
        steps = tuple(random_unitary(64, rng) for _ in range(7))
        expect = PropagatorSet(grid, steps).propagator(7, 3).mat
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                ps = PropagatorSet(grid, steps)
                start = threading.Barrier(4)
                results, errors = [], []

                def compose():
                    start.wait()
                    try:
                        results.append(ps.propagator(7, 3).mat)
                    except Exception as exc:  # noqa: BLE001 - any failure is the bug
                        errors.append(exc)

                threads = [threading.Thread(target=compose) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert errors == []
                assert len(results) == 4
                assert all(np.array_equal(r, expect) for r in results)
        finally:
            sys.setswitchinterval(interval)


class TestHeisenberg:
    def test_trivial_steps_fix_projectors(self):
        ps = PropagatorSet.trivial(TimeGrid((0, 1, 2)), 4)
        rng = np.random.default_rng(0)
        v = Ket(rng.normal(size=4) + 1j * rng.normal(size=4))
        p = v.projector()
        out = Operator(ps.heisenberg_matrix(p.mat, 2, 0))
        assert np.allclose(out.mat, p.mat)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_output_is_projector(self, seed):
        rng = np.random.default_rng(seed)
        ps = PropagatorSet(
            TimeGrid((0, 1, 2)), (random_unitary(3, rng), random_unitary(3, rng))
        )
        v = Ket(rng.normal(size=3) + 1j * rng.normal(size=3))
        p = v.projector()
        j = int(rng.integers(0, 3))
        r = int(rng.integers(0, 3))
        out = Operator(ps.heisenberg_matrix(p.mat, j, r))
        check = is_projector(out)
        assert check.hermiticity_defect < 1e-12
        assert check.idempotency_defect < 1e-12
        # similarity transforms preserve rank (trace)
        assert out.trace().real == pytest.approx(p.rank)

    def test_hadamard_exchanges_z_and_x(self):
        # 2x2 conjugation oracle: H z+ H = x+ for the Hadamard step
        hadamard = Operator(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        ps = PropagatorSet(TimeGrid((0, 1)), (hadamard,))
        z_plus = Ket(np.array([1, 0])).projector()
        x_plus = Ket(np.array([1, 1]) / np.sqrt(2)).projector()
        out = Operator(ps.heisenberg_matrix(z_plus.mat, 1, 0))
        assert np.allclose(out.mat, x_plus.mat)
