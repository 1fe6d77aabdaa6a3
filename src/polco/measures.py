"""Scalar complementarity measures.

Every function returns a SQUARED quantity; square roots belong to the
presentation layer.  Matrix inputs are validated as density matrices and
trace-normalized, so intensity scaling is harmless.  Negative rounding
residue is clamped to zero on the way out; :func:`measure_report` keeps
the raw values in its metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .basis import stokes_extract
from .errors import DimensionError, UnsupportedDimension, ValidationError
from .linalg import (
    StateVector,
    as_complex_matrix,
    fingerprint,
    partial_trace,
    slice_vectors,
    validate_density,
    wedge_norm_sq,
)
from .tolerances import TAU_HERM, TAU_NORM, TAU_NUM, TAU_PSD


def _as_density(m, dims=(2, 3)) -> np.ndarray:
    """Validate and trace-normalize a density matrix."""
    m = as_complex_matrix(m)
    n = m.shape[0]
    if dims is not None and n not in dims:
        raise UnsupportedDimension(f"expected dim in {dims}, got {n}")
    report = validate_density(m, require_unit_trace=False)
    if not (report.hermitian and report.psd):
        raise ValidationError("; ".join(report.messages))
    trace = report.trace.real
    if trace <= TAU_NORM:
        raise ValidationError(f"trace {report.trace!r} is not positive")
    if abs(trace - 1.0) > TAU_NORM:
        m = m / trace
    return m


def _predictability_raw(phi: np.ndarray) -> float:
    p = np.real(np.diag(phi))
    n = p.size
    sum_sq = float(p @ p)
    cross = (float(p.sum()) ** 2 - sum_sq) / 2.0
    return (2.0 * (n - 1) / n) * (sum_sq - 2.0 * cross / (n - 1))


def predictability_sq(phi) -> float:
    """Generalized predictability from the diagonal of ``phi``.

    P^2 = (2(n-1)/n) [ sum_i p_i^2 - (2/(n-1)) sum_{i<j} p_i p_j ]
    with p_i the diagonal entries.  For n=2 this is (p_1 - p_2)^2; it
    vanishes for a uniform diagonal and peaks when a single p_i is 1.
    """
    return max(_predictability_raw(_as_density(phi)), 0.0)


def _coherence_raw(phi: np.ndarray) -> float:
    off = phi - np.diag(np.diag(phi))
    return 2.0 * float(np.sum(np.abs(off) ** 2))


def coherence_hs_sq(phi) -> float:
    """Hilbert-Schmidt coherence: 2 sum_{i != j} |phi_ij|^2."""
    return max(_coherence_raw(_as_density(phi)), 0.0)


def degree_pol_sq(phi) -> float:
    """Squared degree of polarization of a 2x2 matrix: |S|^2.

    Equals predictability_sq + coherence_hs_sq (the polarization-
    coherence theorem); 1 on the Bloch surface, 0 at the center.
    """
    phi = _as_density(phi, dims=(2,))
    return max(stokes_extract(phi).norm_sq(), 0.0)


def concurrence_2x2(state: StateVector) -> float:
    """Concurrence of a pure two-qubit state: 2 |a d - b c|.

    (a, b, c, d) are the amplitudes in the A-major flattening.
    """
    if state.split != (2, 2):
        raise DimensionError(f"concurrence needs split (2, 2), got {state.split}")
    a, b, c, d = state.amplitudes
    return float(2.0 * abs(a * d - b * c))


def _i_concurrence_raw(rows) -> float:
    # pairwise wedge route, kept independent of the reduced state's purity
    total = 0.0
    for i, j in combinations(range(len(rows)), 2):
        total += wedge_norm_sq(rows[i], rows[j])
    return 4.0 * total


def i_concurrence_sq(state: StateVector) -> float:
    """Squared I-concurrence: 4 sum_{i<j} |phi_i ^ phi_j|^2.

    The phi_i are the subsystem-A slice vectors of the pure bipartite
    state.  Defined for any split; on a (2, 2) split it coincides with
    the squared concurrence.
    """
    if state.split is None:
        raise DimensionError("state needs a bipartite split")
    return _i_concurrence_raw(slice_vectors(state))


def _linear_entropy_raw(rho: np.ndarray) -> float:
    d = rho.shape[0]
    purity = float(np.einsum("ij,ji->", rho, rho).real)
    return (d / (d - 1.0)) * (1.0 - purity)


def linear_entropy_sq(rho) -> float:
    """Linear entropy of mixedness: (d / (d-1)) (1 - Tr(rho^2)).

    0 for pure states, 1 for the maximally mixed state; for d=2 it
    equals 4 det(rho).
    """
    rho = _as_density(rho, dims=None)
    if rho.shape[0] < 2:
        raise UnsupportedDimension("mixedness needs dim >= 2")
    return max(_linear_entropy_raw(rho), 0.0)


def _density_measures(m, dims=(2, 3)):
    """Validate ``m`` once: (normalized rho, raw P^2, raw C^2, raw M^2)."""
    rho = _as_density(m, dims)
    return rho, _predictability_raw(rho), _coherence_raw(rho), _linear_entropy_raw(rho)


def _reduce(state: StateVector, keep: str = "A"):
    """Reduced matrix of one factor of a pure bipartite state, and E^2.

    E^2 is the squared concurrence on a (2, 2) split and otherwise the
    I-concurrence over the rows of the amplitude table (its columns for
    ``keep="B"``); the wedge sums are subsystem-symmetric.
    """
    dA, dB = state.split
    rho = partial_trace(state.density(), dA, dB, keep=keep)
    if state.split == (2, 2):
        return rho, concurrence_2x2(state) ** 2
    table = state.amplitudes.reshape(dA, dB)
    return rho, _i_concurrence_raw(table if keep == "A" else table.T)


def _measured_density(obj):
    """The matrix ``obj`` is measured on, with E^2 for a bipartite state."""
    if not isinstance(obj, StateVector):
        return obj, None
    if obj.split is None:
        return obj.density(), None
    return _reduce(obj)


@dataclass(frozen=True)
class MeasureReport:
    """All scalar measures for one state, with provenance metadata.

    ``degree_pol_sq`` is only defined for dim_n = 2 and
    ``entanglement_sq`` only when the input was a pure bipartite parent;
    both are None otherwise.  ``raw`` keeps the unclamped values.
    """

    dim_n: int
    predictability_sq: float
    coherence_hs_sq: float
    degree_pol_sq: float | None
    linear_entropy_sq: float
    entanglement_sq: float | None
    basis_label: str
    input_hash: str
    raw: Mapping[str, float]


def measure_report(obj, basis_label: str = "computational") -> MeasureReport:
    """Compute every applicable measure for a state or density matrix.

    A bipartite ``StateVector`` is reduced to subsystem A first and
    additionally carries the squared entanglement of the parent; single-
    system states and matrices are measured directly.
    """
    rho, entanglement = _measured_density(obj)
    rho, pred, coh, mix = _density_measures(rho)
    n = rho.shape[0]

    raw = {"predictability_sq": pred, "coherence_hs_sq": coh, "linear_entropy_sq": mix}
    dpol = None
    if n == 2:
        raw["degree_pol_sq"] = stokes_extract(rho).norm_sq()
        dpol = max(raw["degree_pol_sq"], 0.0)
    if entanglement is not None:
        raw["entanglement_sq"] = entanglement

    return MeasureReport(
        dim_n=n,
        predictability_sq=max(pred, 0.0),
        coherence_hs_sq=max(coh, 0.0),
        degree_pol_sq=dpol,
        linear_entropy_sq=max(mix, 0.0),
        entanglement_sq=entanglement,
        basis_label=basis_label,
        input_hash=fingerprint(obj),
        raw=MappingProxyType(raw),
    )


def report_to_json(report: MeasureReport) -> dict:
    """MeasureReport as a JSON-ready dict, tolerances included."""
    return {
        "dim_n": report.dim_n,
        "predictability_sq": report.predictability_sq,
        "coherence_hs_sq": report.coherence_hs_sq,
        "degree_pol_sq": report.degree_pol_sq,
        "linear_entropy_sq": report.linear_entropy_sq,
        "entanglement_sq": report.entanglement_sq,
        "basis_label": report.basis_label,
        "input_hash": report.input_hash,
        "raw": dict(report.raw),
        "tolerances": {
            "tau_herm": TAU_HERM,
            "tau_psd": TAU_PSD,
            "tau_norm": TAU_NORM,
            "tau_num": TAU_NUM,
        },
    }
