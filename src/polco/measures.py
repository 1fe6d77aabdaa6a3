"""Scalar complementarity measures.

Every function returns a SQUARED quantity; square roots belong to the
presentation layer.  ``linalg._require_density`` accepts matrix inputs,
which are then trace-normalized, so intensity scaling is harmless.  Rounding
residue below zero is clamped on the way out; :func:`measure_report` keeps
the raw values in its metadata.

The private kernels take stacks with the matrix axes first and the stack
axes last, ``(n, n, ...)`` matrices and ``(dA, dB, ...)`` amplitude
tables, so one input (no stack axes) and a campaign's stack of samples go
through the same code, and ``m[i, j]`` reads one entry of every sample.
Sums over entries are added in written order by ``linalg._in_order_sum``.
Where a single input would reach numpy's scalar operators, which round
some complex products and powers differently from the ufunc loops, the
kernels call the ufunc (``np.multiply``, ``np.square``), so one input gets
the bits it would get inside a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .basis import _stokes_components
from .errors import DimensionError, PreconditionError, UnsupportedDimension
from .linalg import StateVector, _in_order_sum, _norm_sq, _require_density, as_complex_matrix, fingerprint
from .tolerances import TAU_HERM, TAU_NORM, TAU_NUM, TAU_PSD


def _as_density(m, dims=(2, 3)) -> np.ndarray:
    """Validate and trace-normalize a complex128 stack ``(n, n, ...)``, n >= 1, of
    density matrices, as :func:`as_complex_matrix` or an in-package stack gives it.

    ``dims`` limits n; ``linalg._require_density`` accepts the stack, or raises
    its first failing matrix's error, and hands back the traces to divide by.
    """
    if dims is not None and len(m) not in dims:
        raise UnsupportedDimension(f"expected dim in {dims}, got {len(m)}")
    scale = _require_density(m)
    off = abs(scale - 1.0) > TAU_NORM
    if np.count_nonzero(off):
        m = m / np.where(off, scale, 1.0)
    return m


def _kappa(n: int) -> float:
    """2(n - 1)/n: the scale of P^2, and P^2 + C^2 of a pure n x n state."""
    return 2.0 * (n - 1) / n


@lru_cache(maxsize=None)
def _entries(n: int, where: str) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of the entries of n x n where i == j, i != j or i < j, row by row."""
    i, j = np.indices((n, n)).reshape(2, -1)
    keep = {"diagonal": i == j, "off-diagonal": i != j, "upper": i < j}[where]
    i, j = i[keep], j[keep]
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _predictability_raw(phi: np.ndarray) -> np.ndarray:
    n = len(phi)
    p = phi[_entries(n, "diagonal")].real
    sum_sq = _norm_sq(p)
    cross = (np.square(_in_order_sum(p)) - sum_sq) / 2.0
    return _kappa(n) * (sum_sq - 2.0 * cross / (n - 1))


def predictability_sq(phi) -> float:
    """Generalized predictability from the diagonal of ``phi``.

    P^2 = (2(n-1)/n) [ sum_i p_i^2 - (2/(n-1)) sum_{i<j} p_i p_j ]
    with p_i the diagonal entries.  For n=2 this is (p_1 - p_2)^2; it
    vanishes for a uniform diagonal and peaks when a single p_i is 1.
    """
    return max(float(_predictability_raw(_as_density(as_complex_matrix(phi)))), 0.0)


def _coherence_raw(phi: np.ndarray) -> np.ndarray:
    return 2.0 * _in_order_sum(np.abs(phi[_entries(len(phi), "off-diagonal")]) ** 2)


def coherence_hs_sq(phi) -> float:
    """Hilbert-Schmidt coherence: 2 sum_{i != j} |phi_ij|^2."""
    return max(float(_coherence_raw(_as_density(as_complex_matrix(phi)))), 0.0)


def degree_pol_sq(phi) -> float:
    """Squared degree of polarization of a 2x2 matrix: |S|^2.

    Equals predictability_sq + coherence_hs_sq (the polarization-
    coherence theorem); 1 on the Bloch surface, 0 at the center.
    """
    s = _stokes_components(_as_density(as_complex_matrix(phi), dims=(2,)))
    return max(float(_norm_sq(s)), 0.0)


def concurrence_2x2(state: StateVector) -> float:
    """Concurrence of a pure two-qubit state: 2 |a d - b c|.

    (a, b, c, d) are the amplitudes in the A-major flattening.
    """
    if state.split != (2, 2):
        raise DimensionError(f"concurrence needs split (2, 2), got {state.split}")
    return float(_concurrence(state.amplitudes.reshape(2, 2)))


def _concurrence(table: np.ndarray) -> np.ndarray:
    """2 |a d - b c| over a stack ``(2, 2, ...)`` of amplitude tables."""
    det = np.multiply(table[0, 0], table[1, 1]) - np.multiply(table[0, 1], table[1, 0])
    return 2.0 * np.abs(det)


def _gram(table: np.ndarray) -> np.ndarray:
    """G_ij = <row_j|row_i> over a stack ``(dA, dB, ...)`` of tables: the reduced
    matrix of their rows, ``(dA, dA, ...)``.

    The column terms t_k[i, j] = table[i, k] conj(table[j, k]) are added in
    order, t_0 + t_1 + ..., into one buffer."""
    conj = table.conj()
    gram = np.multiply(table[:, None, 0], conj[None, :, 0])
    for k in range(1, table.shape[1]):
        gram += np.multiply(table[:, None, k], conj[None, :, k])
    return gram


def _wedge_sum(gram: np.ndarray) -> np.ndarray:
    """4 sum_{i<j} |phi_i ^ phi_j|^2 from Gram matrices, each pair clamped at 0.

    |phi_i ^ phi_j|^2 = G_ii G_jj - |G_ij|^2: the wedge route, kept
    independent of the reduced state's purity.
    """
    i, j = _entries(len(gram), "upper")
    pairs = np.multiply(gram[i, i], gram[j, j]).real - np.abs(gram[i, j]) ** 2
    return 4.0 * _in_order_sum(np.maximum(pairs, 0.0))


def i_concurrence_sq(state: StateVector) -> float:
    """Squared I-concurrence: 4 sum_{i<j} |phi_i ^ phi_j|^2.

    The phi_i are the rows of the pure bipartite state's (dA, dB)
    amplitude table.  Defined for any split; on a (2, 2) split it
    coincides with the squared concurrence.
    """
    if state.split is None:
        raise DimensionError("state needs a bipartite split")
    return float(_wedge_sum(_gram(state.amplitudes.reshape(state.split))))


def _linear_entropy_raw(rho: np.ndarray) -> np.ndarray:
    d = len(rho)
    products = np.multiply(rho, rho.swapaxes(0, 1)).real  # rho_ij rho_ji
    purity = _in_order_sum(products.reshape((d * d,) + rho.shape[2:]))
    return (d / (d - 1.0)) * (1.0 - purity)


def linear_entropy_sq(rho) -> float:
    """Linear entropy of mixedness: (d / (d-1)) (1 - Tr(rho^2)).

    0 for pure states, 1 for the maximally mixed state; for d=2 it
    equals 4 det(rho).
    """
    rho = _as_density(as_complex_matrix(rho), dims=None)
    if len(rho) < 2:
        raise UnsupportedDimension("mixedness needs dim >= 2")
    return max(float(_linear_entropy_raw(rho)), 0.0)


def _density_measures(m):
    """Validate a stack once: (normalized rho, raw P^2, raw C^2, raw M^2)."""
    rho = _as_density(m)
    return rho, _predictability_raw(rho), _coherence_raw(rho), _linear_entropy_raw(rho)


def _reduce(table: np.ndarray, keep: str = "A"):
    """Reduced matrices and E^2 of pure bipartite states, amplitude tables ``(dA, dB, ...)``.

    E^2 is the squared concurrence on a (2, 2) split and otherwise the
    I-concurrence over the rows of the table (its columns for
    ``keep="B"``); the wedge sums are subsystem-symmetric.
    """
    if keep not in ("A", "B"):
        raise PreconditionError(f'keep must be "A" or "B", got {keep!r}')
    rows = table if keep == "A" else table.swapaxes(0, 1)
    rho = _gram(rows)
    if table.shape[:2] == (2, 2):
        return rho, np.square(_concurrence(table))
    return rho, _wedge_sum(rho)


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


def _measure(obj, basis_label: str = "computational"):
    """:func:`measure_report` and the Stokes components of the matrix it measured,
    reduced, validated and trace-normalized once; for n = 2 the report's
    ``degree_pol_sq`` is their squared length."""
    measured, entanglement = obj, None
    if isinstance(obj, StateVector) and obj.split is None:
        measured = obj.density()
    elif isinstance(obj, StateVector):
        measured, entanglement = _reduce(obj.amplitudes.reshape(obj.split))
        entanglement = float(entanglement)
    rho, *raw_values = _density_measures(as_complex_matrix(measured))
    pred, coh, mix = map(float, raw_values)
    n = len(rho)
    stokes = _stokes_components(rho)

    raw = {"predictability_sq": pred, "coherence_hs_sq": coh, "linear_entropy_sq": mix}
    dpol = None
    if n == 2:
        raw["degree_pol_sq"] = float(_norm_sq(stokes))
        dpol = max(raw["degree_pol_sq"], 0.0)
    if entanglement is not None:
        raw["entanglement_sq"] = entanglement

    report = MeasureReport(
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
    return report, stokes


def measure_report(obj, basis_label: str = "computational") -> MeasureReport:
    """Compute every applicable measure for a state or density matrix.

    A bipartite ``StateVector`` is reduced to subsystem A first and
    additionally carries the squared entanglement of the parent; single-
    system states and matrices are measured directly.
    """
    return _measure(obj, basis_label)[0]


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
