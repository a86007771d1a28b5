"""conhist: a numerical engine for consistent-histories quantum mechanics.

Builds families of quantum histories over finite-dimensional Hilbert spaces,
computes chain operators and generalized Born weights, checks consistency
(decoherence) conditions, classifies framework compatibility, and verifies
relativistic constraints: spacelike foliations, causal ordering of events,
spacelike commutation, and frame covariance.  Ships executable models of the
classic collapse, EPR-Bohm, and Hardy interferometer paradoxes.
"""

__version__ = "0.1.0"

from .hilbert import (
    DecompositionOfIdentity,
    DensityOperator,
    DimensionMismatchError,
    Ket,
    Operator,
    Projector,
    is_projector,
    op_inner,
    projector_onto_span,
    rho_inner,
    validate_decomposition,
)
from .dynamics import PropagatorSet, TimeGrid
from .histories import (
    ChainOperator,
    ConsistencyReport,
    Family,
    InconsistentFamilyError,
    UnknownLabelError,
    WeightTable,
    ZeroConditionProbabilityError,
    chain_operator,
    conditional_probability,
    consistency_check,
    event_probability,
    probabilities,
    support,
    time_reverse,
    weight,
)
from .framework import (
    CompatibilityVerdict,
    FamilyMismatchError,
    common_refinement,
    extend,
    is_refinement,
)
from .relativistic import (
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
    commutation_check,
    covariance_check,
    embed_events,
    validate_foliation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
