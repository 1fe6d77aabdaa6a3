"""Verification engine for the complementarity identities.

Every identity is one formula in the matrix dimension n, through
kappa(n) = 2(n - 1)/n (1 for qubits, 4/3 for qutrits): the duality
P^2 + C^2 = kappa, the mixedness triality kappa M^2 + P^2 + C^2 = kappa
and the pure triality E^2 + C^2 + P^2 = kappa.  Each relation is one
function from a stack of samples to ``(lhs, rhs, residual)`` arrays,
listed in ``_RELATIONS`` with the shape of its samples.  A stack puts the
sample axes first and the stack axis last, ``(n, count)`` amplitudes,
``(dA, dB, count)`` tables or ``(n, n, count)`` matrices, so one input is
the stack with no stack axis and runs the same code.  A ``check_*``
evaluates it on its one input and returns a :class:`RelationVerdict`;
``run_campaign`` evaluates it on stacks of seeded random samples and
aggregates the residuals without ever raising on an individual failure.
For single-clause relations the residual is |lhs - rhs|; both pure
trialities also check the mixedness triality of the reduced state and
E^2 = kappa M^2, and report the worst of the three clause residuals, so
``passed`` covers all of them.

Campaigns take their samples from ``states._campaign_samples``, which
draws them from the two children of ``np.random.SeedSequence(seed)``
and yields one chunk's stack at a time; each stack is evaluated at
once, so a campaign holds one chunk of samples whatever its size, plus
8 bytes of residual per sample.

For mixed bipartite parents the concurrence-form triality is only an
inequality and is deliberately not checked as an identity; the
mixedness form (``check_mixed_triality``) is the equality that holds
there.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from numbers import Real

import numpy as np

from .basis import _purity_residuals, _stokes_components
from .errors import (
    DimensionError,
    PreconditionError,
    UnknownRelation,
    UnsupportedDimension,
)
from .linalg import StateVector, _is_int, _norm_sq, as_complex_matrix, fingerprint
from .measures import _density_measures, _kappa, _reduce
from .states import _campaign_samples, _require_seed
from .tolerances import TAU_REL


@dataclass(frozen=True)
class RelationVerdict:
    """One relation evaluated on one input.

    ``residual`` is |lhs - rhs| for single-clause relations and the
    maximum clause residual for composite ones; ``passed`` is always
    ``residual <= tolerance``.
    """

    relation_id: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    state_ref: str


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate of one relation over a seeded sample stream."""

    relation_id: str
    n_samples: int
    max_residual: float
    mean_residual: float
    failures: int
    seed: int
    tolerance: float


def _require_tol(tol) -> None:
    if not (isinstance(tol, Real) and not isinstance(tol, bool) and math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tolerance must be finite and > 0, got {tol}")


def _verdict(relation_id, evaluated, tolerance, ref) -> RelationVerdict:
    _require_tol(tolerance)
    lhs, rhs, residual = evaluated
    return RelationVerdict(
        relation_id=relation_id,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        state_ref=fingerprint(ref),
    )


def _require_state(state, context: str) -> None:
    if not isinstance(state, StateVector):
        raise PreconditionError(
            f"{context} takes a pure state vector; for density matrices use check_mixed_triality"
        )


# ---------------------------------------------------------------------------
# Relations over sample stacks: amplitudes (n, ...), amplitude tables
# (dA, dB, ...) or density matrices (n, n, ...), to (lhs, rhs, residual)
# ---------------------------------------------------------------------------

def _projectors(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| for a stack ``(n, ...)`` of amplitude vectors: ``(n, n, ...)``."""
    return np.multiply(amps[:, None], amps[None, :].conj())


def _clamped(m):
    """Validate a stack once: rho, its P^2, C^2 and M^2 clamped at 0, and kappa(n)."""
    rho, *raw = _density_measures(m)
    return (rho, *np.maximum(raw, 0.0), _kappa(len(rho)))


def _duality(amps):
    _, pred, coh, _, kappa = _clamped(_projectors(amps))
    lhs = pred + coh
    return lhs, kappa, abs(lhs - kappa)


def _pct(phi):
    rho, pred, coh, _, _ = _clamped(phi)
    lhs = np.maximum(_norm_sq(_stokes_components(rho)), 0.0)
    rhs = pred + coh
    return lhs, rhs, abs(lhs - rhs)


def _triality(tables, subsystem="A"):
    rho, ent_sq = _reduce(tables, subsystem)
    _, pred, coh, mix, kappa = _clamped(rho)
    lhs = ent_sq + coh + pred
    clauses = (abs(lhs - kappa), abs(kappa * mix + pred + coh - kappa), abs(ent_sq - kappa * mix))
    return lhs, kappa, np.maximum.reduce(clauses)


def _mixed_triality(rho):
    _, pred, coh, mix, kappa = _clamped(rho)
    lhs = kappa * mix + pred + coh
    return lhs, kappa, abs(lhs - kappa)


def _stokes_geometry(amps):
    # a unit vector's projector is Hermitian with unit trace, so no validation is due
    norm_residual, dijk_residual = _purity_residuals(_stokes_components(_projectors(amps)))
    worst = np.maximum(norm_residual, dijk_residual)
    return worst, 0.0, worst


# relation -> (stack function, sample shape, mixed).  Pure relations sample
# amplitudes of that shape; mixed ones density matrices of its dimension,
# of cycling rank unless a campaign pins one.
_RELATIONS = {
    "qubit-duality": (_duality, (2,), False),
    "qutrit-duality": (_duality, (3,), False),
    "pct": (_pct, (2,), True),
    "qubit-triality": (_triality, (2, 2), False),
    "qutrit-triality": (_triality, (3, 3), False),
    "qubit-mixed-triality": (_mixed_triality, (2,), True),
    "qutrit-mixed-triality": (_mixed_triality, (3,), True),
    "stokes-geometry": (_stokes_geometry, (3,), False),
}


def _relation_id(evaluate, shape) -> str:
    """The id under which ``evaluate`` checks samples of ``shape``."""
    for relation_id, (function, sample_shape, _) in _RELATIONS.items():
        if function is evaluate and sample_shape == shape:
            return relation_id
    raise UnsupportedDimension(f"no {evaluate.__name__[1:].replace('_', ' ')} relation for shape {shape}")


# ---------------------------------------------------------------------------
# Single-input checks
# ---------------------------------------------------------------------------

def _check_pure(caller, relation_id, state, tol, *args) -> RelationVerdict:
    """One state, of the shape the table gives ``relation_id``, through its stack function."""
    _require_state(state, caller)
    evaluate, shape, _ = _RELATIONS[relation_id]
    if (state.split or (state.dim,)) != shape:
        raise DimensionError(f"{caller} needs a state of shape {shape}, got {state.split or (state.dim,)}")
    return _verdict(relation_id, evaluate(state.amplitudes.reshape(shape), *args), tol, state)


def _check_matrix(evaluate, rho, tol) -> RelationVerdict:
    """One matrix through ``evaluate``, under the id the table gives its dimension."""
    m = as_complex_matrix(rho)
    return _verdict(_relation_id(evaluate, m.shape[:1]), evaluate(m), tol, rho)


def check_duality_pure(state: StateVector, tol: float = TAU_REL) -> RelationVerdict:
    """P^2 + C^2 = kappa(n) for pure single systems: 1 (qubit) or 4/3 (qutrit)."""
    _require_state(state, "check_duality_pure")
    if state.split is not None:
        raise PreconditionError("expected a single-system state, got a bipartite split")
    return _verdict(_relation_id(_duality, (state.dim,)), _duality(state.amplitudes), tol, state)


def check_pct(phi, tol: float = TAU_REL) -> RelationVerdict:
    """Polarization-coherence theorem: |S|^2 = P^2 + C^2 for any 2x2 density."""
    return _check_matrix(_pct, phi, tol)


def check_qubit_triality_pure(
    state: StateVector, tol: float = TAU_REL, subsystem: str = "A"
) -> RelationVerdict:
    """E^2 + C^2 + P^2 = 1 for pure two-qubit states, E the concurrence.

    Also checks M^2 + P^2 + C^2 = 1 on the reduced state and E^2 = M^2;
    the verdict reflects the worst of the three clauses.
    """
    return _check_pure("check_qubit_triality_pure", "qubit-triality", state, tol, subsystem)


def check_qutrit_triality_pure(
    state: StateVector, tol: float = TAU_REL, subsystem: str = "A"
) -> RelationVerdict:
    """E^2 + C^2 + P^2 = 4/3 for pure two-qutrit states, E the I-concurrence.

    Also checks (4/3) M^2 + P^2 + C^2 = 4/3 on the reduced state and
    E^2 = (4/3) M^2; the verdict reflects the worst of the three clauses.
    """
    return _check_pure("check_qutrit_triality_pure", "qutrit-triality", state, tol, subsystem)


def check_mixed_triality(rho, tol: float = TAU_REL) -> RelationVerdict:
    """Mixedness triality kappa(n) M^2 + P^2 + C^2 = kappa(n) for any density matrix.

    dim 2: M^2 + P^2 + C^2 = 1; dim 3: (4/3) M^2 + P^2 + C^2 = 4/3.
    """
    return _check_matrix(_mixed_triality, rho, tol)


def check_pure_stokes_geometry(state: StateVector, tol: float = TAU_REL) -> RelationVerdict:
    """Pure-state constraints on the SU(3) Stokes vector of |psi><psi|.

    The verdict's lhs is the worse of the norm and quadratic residuals
    (rhs 0), so it measures distance from the admissible surface.
    """
    return _check_pure("check_pure_stokes_geometry", "stokes-geometry", state, tol)


# ---------------------------------------------------------------------------
# Sampling campaigns
# ---------------------------------------------------------------------------

def relation_ids() -> tuple[str, ...]:
    return tuple(_RELATIONS)


def run_campaign(
    relation_id: str, n: int, seed: int, params: dict | None = None, tol: float = TAU_REL
) -> CampaignSummary:
    """Evaluate one relation over ``n`` seeded random samples.

    Sample *i* is the *i*-th ``haar_pure(dim, normals)`` or, for pct and
    the mixed trialities, the *i*-th ``haar_unitary(dim, normals)`` with
    Dirichlet weights from the *i*-th row of ``dim`` exponentials; the two
    streams are ``default_rng`` of ``SeedSequence(seed).spawn(2)``.  A
    campaign of ``n`` is a prefix of one of ``n + k``, whatever ``CHUNK``.
    Failing samples are counted, never raised.
    ``params={"rank": r}`` pins the rank, 1..dim, of the density
    matrices sampled for pct and the mixed trialities.  ``params`` must
    be None or a dict with no key but ``"rank"``, ``n`` and ``rank``
    integers, ``seed`` an integer >= 0 and ``tol`` a finite real > 0;
    anything else, bools included, raises :class:`PreconditionError`.
    """
    if relation_id not in _RELATIONS:
        known = ", ".join(_RELATIONS)
        raise UnknownRelation(f"unknown relation {relation_id!r}; known: {known}")
    if not (_is_int(n) and n >= 1):
        raise PreconditionError(f"campaign needs an integer n >= 1, got {n!r}")
    _require_tol(tol)
    _require_seed(seed)
    evaluate, shape, mixed = _RELATIONS[relation_id]
    dim = math.prod(shape)
    if not (params is None or isinstance(params, dict) and params.keys() <= {"rank"}):
        raise PreconditionError(f"params must be None or a dict with no key but 'rank', got {params!r}")
    rank = (params or {}).get("rank")
    if rank is not None and not mixed:
        raise PreconditionError(f"{relation_id} samples pure states; it takes no rank")
    if rank is not None and not (_is_int(rank) and 1 <= rank <= dim):
        raise PreconditionError(f"rank must be in 1..{dim} for {relation_id}, got {rank}")

    residuals = np.empty(n)
    start = 0
    for samples in _campaign_samples(seed, n, dim, mixed, rank):
        count = samples.shape[-1]
        residuals[start:start + count] = evaluate(samples if mixed else samples.reshape(*shape, count))[2]
        start += count
    return CampaignSummary(
        relation_id=relation_id,
        n_samples=int(n),
        max_residual=float(residuals.max()),
        mean_residual=float(residuals.mean()),
        failures=int(np.count_nonzero(~(residuals <= tol))),
        seed=int(seed),
        tolerance=float(tol),
    )


def verdict_to_json(v: RelationVerdict) -> dict:
    return {("pass" if key == "passed" else key): value for key, value in asdict(v).items()}


def summary_to_json(s: CampaignSummary) -> dict:
    return asdict(s)
