"""Verification engine for the complementarity identities.

Each relation is defined once, as a function from a stack of samples to
``(lhs, rhs, residual)`` arrays.  A ``check_*`` evaluates it on its one
input and returns a :class:`RelationVerdict`; ``run_campaign`` evaluates
it on stacks of seeded random samples and aggregates the residuals
without ever raising on an individual failure.  For single-clause
relations the residual is |lhs - rhs|; the two pure-triality relations
also verify their companion clauses (the mixedness form and the
entanglement-mixedness agreement) and report the worst clause residual,
so ``passed`` covers all of them.

Campaign streams are spawned ``CHUNK`` at a time from one
``np.random.SeedSequence(seed)``, which yields the same children as one
``spawn(n)``.  Each chunk draws one sample per stream, stacks the
samples and evaluates the stack at once, so a campaign holds at most one
chunk of samples in memory whatever its size.

For mixed bipartite parents the concurrence-form triality is only an
inequality and is deliberately not checked as an identity; the
mixedness form (``check_mixed_triality``) is the equality that holds
there.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from numbers import Integral, Real

import numpy as np

from .basis import _purity_residuals, _stokes_components
from .errors import (
    DimensionError,
    PreconditionError,
    UnknownRelation,
    UnsupportedDimension,
)
from .linalg import StateVector, _norm_sq, as_complex_matrix, fingerprint
from .measures import _density_measures, _reduce
from .states import haar_pure, random_mixed
from .tolerances import TAU_REL

FOUR_THIRDS = 4.0 / 3.0
CHUNK = 256  # campaign samples spawned, drawn and evaluated together


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


def _verdict(relation_id, evaluated, tolerance, ref) -> RelationVerdict:
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
# Relations over sample stacks: amplitudes (..., n), amplitude tables
# (..., dA, dB) or density matrices (..., n, n), to (lhs, rhs, residual)
# ---------------------------------------------------------------------------

def _projectors(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| for a stack of amplitude vectors."""
    return amps[..., :, None] * amps[..., None, :].conj()


def _duality(amps):
    _, *raw = _density_measures(_projectors(amps))
    pred, coh, _ = np.maximum(raw, 0.0)  # rounding residue clamped to 0
    lhs = pred + coh
    rhs = 1.0 if amps.shape[-1] == 2 else FOUR_THIRDS
    return lhs, rhs, np.abs(lhs - rhs)


def _pct(phi):
    rho, *raw = _density_measures(phi, dims=(2,))
    pred, coh, _ = np.maximum(raw, 0.0)
    stokes = _stokes_components(rho)
    lhs = np.maximum(_norm_sq(stokes), 0.0)
    rhs = pred + coh
    return lhs, rhs, np.abs(lhs - rhs)


def _qubit_triality(tables, subsystem="A"):
    rho, ent_sq = _reduce(tables, subsystem)
    _, *raw = _density_measures(rho)
    pred, coh, mix = np.maximum(raw, 0.0)
    lhs = ent_sq + pred + coh
    clauses = (np.abs(lhs - 1.0), np.abs(mix + coh + pred - 1.0), np.abs(ent_sq - mix))
    return lhs, 1.0, np.maximum.reduce(clauses)


def _qutrit_triality(tables, subsystem="A"):
    rho, ent_sq = _reduce(tables, subsystem)
    _, *raw = _density_measures(rho)
    pred, coh, mix = np.maximum(raw, 0.0)
    lhs = ent_sq + coh + pred
    residual = np.maximum(np.abs(lhs - FOUR_THIRDS), np.abs(ent_sq - FOUR_THIRDS * mix))
    return lhs, FOUR_THIRDS, residual


def _mixed_triality(rho):
    _, *raw = _density_measures(rho)
    pred, coh, mix = np.maximum(raw, 0.0)
    if rho.shape[-1] == 2:
        lhs, rhs = mix + coh + pred, 1.0
    else:
        lhs, rhs = FOUR_THIRDS * mix + pred + coh, FOUR_THIRDS
    return lhs, rhs, np.abs(lhs - rhs)


def _stokes_geometry(amps):
    # a unit vector's projector is Hermitian with unit trace, so no validation is due
    norm_residual, dijk_residual = _purity_residuals(_stokes_components(_projectors(amps)))
    worst = np.maximum(norm_residual, dijk_residual)
    return worst, 0.0, worst


# ---------------------------------------------------------------------------
# Single-input checks
# ---------------------------------------------------------------------------

def check_duality_pure(state: StateVector, tol: float = TAU_REL) -> RelationVerdict:
    """P^2 + C^2 = 1 (qubit) or 4/3 (qutrit) for pure single systems."""
    _require_state(state, "check_duality_pure")
    if state.split is not None:
        raise PreconditionError("expected a single-system state, got a bipartite split")
    if state.dim not in (2, 3):
        raise UnsupportedDimension(f"duality is defined for dims 2 and 3, got {state.dim}")
    relation_id = "qubit-duality" if state.dim == 2 else "qutrit-duality"
    return _verdict(relation_id, _duality(state.amplitudes), tol, state)


def check_pct(phi, tol: float = TAU_REL) -> RelationVerdict:
    """Polarization-coherence theorem: |S|^2 = P^2 + C^2 for any 2x2 density."""
    return _verdict("pct", _pct(as_complex_matrix(phi)), tol, phi)


def check_qubit_triality_pure(
    state: StateVector, tol: float = TAU_REL, subsystem: str = "A"
) -> RelationVerdict:
    """E^2 + P^2 + C^2 = 1 for pure two-qubit states.

    Also verifies the mixedness form M^2 + C^2 + P^2 = 1 on the reduced
    state and the agreement E^2 = M^2; the verdict reflects the worst of
    the three clauses.
    """
    _require_state(state, "check_qubit_triality_pure")
    if state.split != (2, 2):
        raise DimensionError(f"expected split (2, 2), got {state.split}")
    tables = state.amplitudes.reshape(2, 2)
    return _verdict("qubit-triality", _qubit_triality(tables, subsystem), tol, state)


def check_qutrit_triality_pure(
    state: StateVector, tol: float = TAU_REL, subsystem: str = "A"
) -> RelationVerdict:
    """E^2 + C^2 + P^2 = 4/3 for pure two-qutrit states.

    Also verifies E^2 = (4/3) M^2 on the reduced state; the verdict
    reflects the worse of the two clauses.
    """
    _require_state(state, "check_qutrit_triality_pure")
    if state.split != (3, 3):
        raise DimensionError(f"expected split (3, 3), got {state.split}")
    tables = state.amplitudes.reshape(3, 3)
    return _verdict("qutrit-triality", _qutrit_triality(tables, subsystem), tol, state)


def check_mixed_triality(rho, tol: float = TAU_REL) -> RelationVerdict:
    """Mixedness triality for any single-system density matrix.

    dim 2: M^2 + C^2 + P^2 = 1; dim 3: (4/3) M^2 + P^2 + C^2 = 4/3.
    """
    m = as_complex_matrix(rho)
    relation_id = "qubit-mixed-triality" if m.shape[0] == 2 else "qutrit-mixed-triality"
    return _verdict(relation_id, _mixed_triality(m), tol, rho)


def check_pure_stokes_geometry(state: StateVector, tol: float = TAU_REL) -> RelationVerdict:
    """Pure-state constraints on the SU(3) Stokes vector of |psi><psi|.

    The verdict's lhs is the worse of the norm and quadratic residuals
    (rhs 0), so it measures distance from the admissible surface.
    """
    _require_state(state, "check_pure_stokes_geometry")
    if state.split is not None or state.dim != 3:
        raise DimensionError("expected a single-system qutrit state")
    return _verdict("stokes-geometry", _stokes_geometry(state.amplitudes), tol, state)


# ---------------------------------------------------------------------------
# Sampling campaigns
# ---------------------------------------------------------------------------

# relation -> (stack function, dim, split, mixed); mixed relations sample
# density matrices, of cycling rank unless a campaign pins one, the others
# pure states
_RELATIONS = {
    "qubit-duality": (_duality, 2, None, False),
    "qutrit-duality": (_duality, 3, None, False),
    "pct": (_pct, 2, None, True),
    "qubit-triality": (_qubit_triality, 4, (2, 2), False),
    "qutrit-triality": (_qutrit_triality, 9, (3, 3), False),
    "qubit-mixed-triality": (_mixed_triality, 2, None, True),
    "qutrit-mixed-triality": (_mixed_triality, 3, None, True),
    "stokes-geometry": (_stokes_geometry, 3, None, False),
}


def relation_ids() -> tuple[str, ...]:
    return tuple(_RELATIONS)


def run_campaign(
    relation_id: str, n: int, seed: int, params: dict | None = None, tol: float = TAU_REL
) -> CampaignSummary:
    """Evaluate one relation over ``n`` seeded random samples.

    Sample *i* is drawn from child *i* of ``SeedSequence(seed)``, so the
    aggregation (max / mean / failure count) does not depend on
    evaluation order.  Failing samples are counted, never raised.
    ``params={"rank": r}`` pins the rank, 1..dim, of the density
    matrices sampled for pct and the mixed trialities.  ``n`` and
    ``rank`` must be integers, ``seed`` an integer >= 0 and ``tol`` a
    finite real > 0; anything else raises :class:`PreconditionError`.
    """
    if relation_id not in _RELATIONS:
        known = ", ".join(_RELATIONS)
        raise UnknownRelation(f"unknown relation {relation_id!r}; known: {known}")
    if not (isinstance(n, Integral) and n >= 1):
        raise PreconditionError(f"campaign needs an integer n >= 1, got {n!r}")
    if not (isinstance(tol, Real) and math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tolerance must be finite and > 0, got {tol}")
    if not (isinstance(seed, Integral) and seed >= 0):
        raise PreconditionError(f"seed must be an integer >= 0, got {seed!r}")
    evaluate, dim, split, mixed = _RELATIONS[relation_id]
    rank = (params or {}).get("rank")
    if rank is not None and not mixed:
        raise PreconditionError(f"{relation_id} samples pure states; it takes no rank")
    if rank is not None and not (isinstance(rank, Integral) and 1 <= rank <= dim):
        raise PreconditionError(f"rank must be in 1..{dim} for {relation_id}, got {rank}")
    root = np.random.SeedSequence(seed)
    residuals = np.empty(n)
    for start in range(0, n, CHUNK):
        streams = root.spawn(min(CHUNK, n - start))
        if mixed:
            samples = np.stack([
                random_mixed(dim, (start + i) % dim + 1 if rank is None else rank, stream)
                for i, stream in enumerate(streams)
            ])
        else:
            samples = np.stack([haar_pure(dim, stream).amplitudes for stream in streams])
            samples = samples.reshape(len(streams), *(split or (dim,)))
        residuals[start:start + len(streams)] = evaluate(samples)[2]
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
