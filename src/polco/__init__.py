"""Polarization-coherence complementarity toolkit.

Computes Stokes parameters of 2x2 and 3x3 polarization-coherence
matrices, the scalar measures built on them (generalized
predictability, Hilbert-Schmidt coherence, degree of polarization,
concurrence / I-concurrence, linear entropy), and certifies the
duality/triality identities tying them together, both on single states
and over seeded sampling campaigns.
"""

from .basis import (
    PurityResiduals,
    StokesVector,
    StructureConstants,
    generators,
    pure_state_constraints,
    stokes_extract,
    stokes_from_json,
    stokes_reconstruct,
    stokes_to_json,
    structure_constants,
)
from .errors import (
    DegenerateInput,
    DimensionError,
    PolcoError,
    PreconditionError,
    UnknownRelation,
    UnknownState,
    UnsupportedDimension,
    ValidationError,
)
from .linalg import (
    StateVector,
    ValidationReport,
    as_complex_matrix,
    fingerprint,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    state_from_json,
    state_to_json,
    tensor,
    validate_density,
)
from .measures import (
    MeasureReport,
    coherence_hs_sq,
    concurrence_2x2,
    degree_pol_sq,
    i_concurrence_sq,
    linear_entropy_sq,
    measure_report,
    predictability_sq,
    report_to_json,
)
from .relations import (
    CampaignSummary,
    RelationVerdict,
    check_duality_pure,
    check_mixed_triality,
    check_pct,
    check_pure_stokes_geometry,
    check_qubit_triality_pure,
    check_qutrit_triality_pure,
    relation_ids,
    run_campaign,
    summary_to_json,
    verdict_to_json,
)
from .states import (
    BeamSpec,
    beam_to_state,
    haar_pure,
    haar_unitary,
    named_state,
    named_state_names,
    random_mixed,
)
from .tolerances import TAU_HERM, TAU_NORM, TAU_NUM, TAU_PSD, TAU_REL

__version__ = "0.1.0"
