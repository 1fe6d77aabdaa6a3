"""Verification engine for the complementarity identities.

Each ``check_*`` returns a :class:`RelationVerdict`; campaigns sample
seeded random inputs and aggregate verdicts without ever raising on an
individual failure.  For single-clause relations the residual is
|lhs - rhs|; the two pure-triality checks also verify their companion
clauses (the mixedness form and the entanglement-mixedness agreement)
and report the worst clause residual, so ``passed`` covers all of them.

For mixed bipartite parents the concurrence-form triality is only an
inequality and is deliberately not checked as an identity; the
mixedness form (``check_mixed_triality``) is the equality that holds
there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import pure_state_constraints, stokes_extract
from .errors import (
    DimensionError,
    PreconditionError,
    UnknownRelation,
    UnsupportedDimension,
)
from .linalg import StateVector, fingerprint
from .measures import _density_measures, _reduce
from .states import haar_pure, random_mixed
from .tolerances import TAU_REL

FOUR_THIRDS = 4.0 / 3.0


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


def _verdict(relation_id, lhs, rhs, tolerance, state_ref, extra=()) -> RelationVerdict:
    residual = abs(lhs - rhs)
    for clause_residual in extra:
        residual = max(residual, clause_residual)
    return RelationVerdict(
        relation_id=relation_id,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        tolerance=float(tolerance),
        passed=residual <= tolerance,
        state_ref=state_ref,
    )


def _require_state(state, context: str) -> None:
    if not isinstance(state, StateVector):
        raise PreconditionError(
            f"{context} takes a pure state vector; for density matrices use check_mixed_triality"
        )


def _clamped_measures(m, dims=(2, 3)):
    """Normalized rho and its P^2, C^2, M^2 with rounding residue clamped to 0."""
    rho, *raw = _density_measures(m, dims)
    return (rho, *(max(value, 0.0) for value in raw))


def check_duality_pure(state: StateVector, tol: float = TAU_REL) -> RelationVerdict:
    """P^2 + C^2 = 1 (qubit) or 4/3 (qutrit) for pure single systems."""
    _require_state(state, "check_duality_pure")
    if state.split is not None:
        raise PreconditionError("expected a single-system state, got a bipartite split")
    if state.dim not in (2, 3):
        raise UnsupportedDimension(f"duality is defined for dims 2 and 3, got {state.dim}")
    _, pred, coh, _ = _clamped_measures(state.density())
    rhs = 1.0 if state.dim == 2 else FOUR_THIRDS
    relation_id = "qubit-duality" if state.dim == 2 else "qutrit-duality"
    return _verdict(relation_id, pred + coh, rhs, tol, fingerprint(state))


def check_pct(phi, tol: float = TAU_REL) -> RelationVerdict:
    """Polarization-coherence theorem: |S|^2 = P^2 + C^2 for any 2x2 density."""
    rho, pred, coh, _ = _clamped_measures(phi, dims=(2,))
    lhs = max(stokes_extract(rho).norm_sq(), 0.0)
    return _verdict("pct", lhs, pred + coh, tol, fingerprint(phi))


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
    rho, ent_sq = _reduce(state, subsystem)
    _, pred, coh, mix = _clamped_measures(rho)
    lhs = ent_sq + pred + coh
    extra = (abs(mix + coh + pred - 1.0), abs(ent_sq - mix))
    return _verdict("qubit-triality", lhs, 1.0, tol, fingerprint(state), extra)


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
    rho, ent_sq = _reduce(state, subsystem)
    _, pred, coh, mix = _clamped_measures(rho)
    lhs = ent_sq + coh + pred
    extra = (abs(ent_sq - FOUR_THIRDS * mix),)
    return _verdict("qutrit-triality", lhs, FOUR_THIRDS, tol, fingerprint(state), extra)


def check_mixed_triality(rho, tol: float = TAU_REL) -> RelationVerdict:
    """Mixedness triality for any single-system density matrix.

    dim 2: M^2 + C^2 + P^2 = 1; dim 3: (4/3) M^2 + P^2 + C^2 = 4/3.
    """
    normalized, pred, coh, mix = _clamped_measures(rho)
    if normalized.shape[0] == 2:
        return _verdict("qubit-mixed-triality", mix + coh + pred, 1.0, tol, fingerprint(rho))
    return _verdict(
        "qutrit-mixed-triality", FOUR_THIRDS * mix + pred + coh, FOUR_THIRDS, tol, fingerprint(rho)
    )


def check_pure_stokes_geometry(state: StateVector, tol: float = TAU_REL) -> RelationVerdict:
    """Pure-state constraints on the SU(3) Stokes vector of |psi><psi|.

    The verdict's lhs is the worse of the norm and quadratic residuals
    (rhs 0), so it measures distance from the admissible surface.
    """
    _require_state(state, "check_pure_stokes_geometry")
    if state.split is not None or state.dim != 3:
        raise DimensionError("expected a single-system qutrit state")
    residuals = pure_state_constraints(stokes_extract(state.density()))
    worst = max(residuals.norm_residual, residuals.dijk_residual)
    return _verdict("stokes-geometry", worst, 0.0, tol, fingerprint(state))


# ---------------------------------------------------------------------------
# Sampling campaigns
# ---------------------------------------------------------------------------

# relation -> (check, dim, split, mixed); mixed relations sample density
# matrices, of cycling rank unless a campaign pins one, the others pure states
_RELATIONS = {
    "qubit-duality": (check_duality_pure, 2, None, False),
    "qutrit-duality": (check_duality_pure, 3, None, False),
    "pct": (check_pct, 2, None, True),
    "qubit-triality": (check_qubit_triality_pure, 4, (2, 2), False),
    "qutrit-triality": (check_qutrit_triality_pure, 9, (3, 3), False),
    "qubit-mixed-triality": (check_mixed_triality, 2, None, True),
    "qutrit-mixed-triality": (check_mixed_triality, 3, None, True),
    "stokes-geometry": (check_pure_stokes_geometry, 3, None, False),
}


def relation_ids() -> tuple[str, ...]:
    return tuple(_RELATIONS)


def run_campaign(
    relation_id: str, n: int, seed: int, params: dict | None = None, tol: float = TAU_REL
) -> CampaignSummary:
    """Evaluate one relation over ``n`` seeded random samples.

    Per-sample streams are spawned from the seed before evaluation, so
    the aggregation (max / mean / failure count) does not depend on
    evaluation order.  Failing verdicts are counted, never raised.
    ``params={"rank": r}`` pins the rank, 1..dim, of the density
    matrices sampled for pct and the mixed trialities.
    """
    if relation_id not in _RELATIONS:
        known = ", ".join(_RELATIONS)
        raise UnknownRelation(f"unknown relation {relation_id!r}; known: {known}")
    if n < 1:
        raise PreconditionError(f"campaign needs n >= 1, got {n}")
    checker, dim, split, mixed = _RELATIONS[relation_id]
    rank = (params or {}).get("rank")
    if rank is not None and not mixed:
        raise PreconditionError(f"{relation_id} samples pure states; it takes no rank")
    if rank is not None and not 1 <= rank <= dim:
        raise PreconditionError(f"rank must be in 1..{dim} for {relation_id}, got {rank}")
    streams = np.random.SeedSequence(seed).spawn(n)
    residuals = np.empty(n)
    failures = 0
    for index, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        if mixed:
            sample = random_mixed(dim, index % dim + 1 if rank is None else rank, rng)
        else:
            sample = haar_pure(dim, rng, split=split)
        verdict = checker(sample, tol=tol)
        residuals[index] = verdict.residual
        if not verdict.passed:
            failures += 1
    return CampaignSummary(
        relation_id=relation_id,
        n_samples=n,
        max_residual=float(residuals.max()),
        mean_residual=float(residuals.mean()),
        failures=failures,
        seed=int(seed),
        tolerance=float(tol),
    )


def verdict_to_json(v: RelationVerdict) -> dict:
    return {
        "relation_id": v.relation_id,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "residual": v.residual,
        "tolerance": v.tolerance,
        "pass": v.passed,
        "state_ref": v.state_ref,
    }


def summary_to_json(s: CampaignSummary) -> dict:
    return {
        "relation_id": s.relation_id,
        "n_samples": s.n_samples,
        "max_residual": s.max_residual,
        "mean_residual": s.mean_residual,
        "failures": s.failures,
        "seed": s.seed,
        "tolerance": s.tolerance,
    }
