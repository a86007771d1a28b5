"""Time grids, unitary propagator sets, and Heisenberg-picture conversion.

A :class:`PropagatorSet` stores one unitary per consecutive pair of grid
times; arbitrary two-time propagators are composed on demand and obey the
groupoid laws ``T(j,j) = I``, ``T(i,j) T(j,k) = T(i,k)`` and
``T(j,k)^dag = T(k,j)``.  The cumulative propagators ``T(j, 0)`` are built
once at construction, so a set is immutable and safe to share between
threads.  hbar = 1 throughout; the models are unit-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import Operator, _product, unitarity_defect

# Unitarity tolerance for step operators.
TOL_UNITARY = 1e-9


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times with printable labels (t0, t1, ...)."""

    values: tuple[float, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("a time grid needs at least one time")
        if any(not np.isfinite(v) for v in values):
            raise ValueError("grid times must be finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"grid times must be strictly increasing: {values}")
        # t{v:g} unless that reads back as another time, as 1.0000001 would
        labels = tuple(self.labels) or tuple(
            f"t{v:g}" if float(f"{v:g}") == v else f"t{v!r}" for v in values
        )
        if len(labels) != len(values):
            raise ValueError("one label per grid time")
        if len(set(labels)) != len(labels):
            raise ValueError("grid labels must be unique")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.values)

    def index_of_value(self, t: float) -> int:
        """Index of the grid time nearest ``t``, which must lie within 1e-9 of it."""
        distance, i = min((abs(v - t), i) for i, v in enumerate(self.values))
        if not distance <= 1e-9:  # also refuses NaN
            raise KeyError(f"time {t} not on grid {self.values}")
        return i


@dataclass(frozen=True, eq=False)
class PropagatorSet:
    """Per-step unitaries over a time grid.

    ``steps[j]`` maps the space at time j to the space at time j+1.  All
    per-time spaces share one dimension; models that conceptually change
    dimension embed into a common larger space.
    """

    grid: TimeGrid
    steps: tuple[Operator, ...]
    space_dim: int | None = None
    _cumulative: tuple[Operator, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        steps = tuple(self.steps)
        if len(steps) != len(self.grid) - 1:
            raise ValueError(
                f"need {len(self.grid) - 1} step unitaries for {len(self.grid)} times, got {len(steps)}"
            )
        dims = {u.dim for u in steps}
        if self.space_dim is not None:
            dims.add(int(self.space_dim))
        if len(dims) > 1:
            raise ValueError("step unitaries must share one dimension")
        if not dims:
            raise ValueError("a single-time propagator set needs an explicit space_dim")
        for j, u in enumerate(steps):
            defect = unitarity_defect(u)
            if defect >= TOL_UNITARY:
                raise ValueError(f"step {j} is not unitary: defect {defect:.3e}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "space_dim", dims.pop())
        cumulative = [Operator.identity(self.space_dim)]
        for u in steps:
            cumulative.append(Operator(_product(u, cumulative[-1])))
        object.__setattr__(self, "_cumulative", tuple(cumulative))

    @classmethod
    def trivial(cls, grid: TimeGrid, dim: int) -> "PropagatorSet":
        return cls(grid, tuple(Operator.identity(dim) for _ in range(len(grid) - 1)), space_dim=dim)

    @property
    def dim(self) -> int:
        return self.space_dim

    def propagator(self, j: int, k: int) -> Operator:
        """``T(j, k)`` mapping the space at time k to the space at time j."""
        n = len(self.grid)
        if not (0 <= j < n and 0 <= k < n):
            raise IndexError(f"time indices ({j}, {k}) out of range for {n} times")
        if j == k:
            return Operator.identity(self.dim)
        if k == 0:
            return self._cumulative[j]
        if j == 0:
            return self._cumulative[k].dagger()
        return Operator(_product(self._cumulative[j], self._cumulative[k].dagger()))

    def heisenberg_matrix(self, mat: np.ndarray, j: int, reference: int = 0) -> np.ndarray:
        """Heisenberg form ``T(r, j) M T(j, r)`` of an operator at time j."""
        if j == reference:
            return mat
        t_rj = self.propagator(reference, j)
        return _product(_product(t_rj, mat), t_rj.dagger())

    def same_dynamics(self, other: "PropagatorSet") -> bool:
        """Equal grids, and step unitaries equal under ``Operator.allclose``."""
        if self.grid.values != other.grid.values:
            return False
        if self is other:
            return True
        return all(a.allclose(b) for a, b in zip(self.steps, other.steps))
