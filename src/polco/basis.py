"""Traceless Hermitian generator sets and Stokes-vector algebra.

Both supported bases are normalized to Tr(g_i g_j) = 2 delta_ij.  A
unit-trace n x n matrix has S_i = Tr(g_i Phi)/sqrt(kappa(n)), kappa(n) =
2(n - 1)/n (S_i = Tr(Phi sigma_i) for n = 2, sqrt(3) Tr(g_i Phi)/2 for
n = 3), and expands as Phi = (I + sqrt(n(n - 1)/2) sum_i S_i g_i)/n.
Both are built from matrix units; the imaginary off-diagonal generators
carry -i above the diagonal and +i below, keeping each one Hermitian.
``generators(n)`` returns the basis as one read-only (n^2 - 1, n, n) array.

The private kernels take stacks with the matrix or component axis first:
``(n, n, ...)`` matrices give ``(n^2 - 1, ...)`` Stokes components, each a
gather of its generator's nonzero entries added in order, and the d_ijk
sums run over the nonzero terms in order, so one matrix (no stack axes)
gets the bits it gets inside a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, UnsupportedDimension, ValidationError
from .linalg import _in_order_sum, _is_int, _norm_sq, as_complex_matrix
from .tolerances import TAU_HERM, TAU_NORM, TAU_NUM

_SQRT3 = np.sqrt(3.0)


@lru_cache(maxsize=None)
def _matrix_unit_basis(n: int) -> np.ndarray:
    """The generalized Gell-Mann matrices of n x n from the matrix units E_jk
    (Bertlmann & Krammer, J. Phys. A 41, 235303 (2008)), frozen: for each
    k = 1..n-1, the pairs E_jk + E_kj and -i (E_jk - E_kj) for j < k, then
    (sum_{j<k} E_jj - k E_kk) / sqrt(k (k + 1) / 2).  For n = 2 that is the
    Pauli set, for n = 3 the Gell-Mann set, each in its standard order."""
    g = np.zeros((n * n - 1, n, n), dtype=np.complex128)
    index = 0
    for k in range(1, n):
        for j in range(k):
            g[index, j, k] = g[index, k, j] = 1
            g[index + 1, j, k], g[index + 1, k, j] = -1j, 1j
            index += 2
        g[index, range(k + 1), range(k + 1)] = np.append(np.ones(k), -k) / math.sqrt(k * (k + 1) / 2)
        index += 1
    g.flags.writeable = False
    return g


def generators(n: int) -> np.ndarray:
    """The Pauli set (n=2) or SU(3) Gell-Mann set (n=3), standard order.

    Returns one shared read-only (n^2 - 1, n, n) array.
    """
    if not _is_int(n) or n not in (2, 3):
        raise UnsupportedDimension(f"generator sets exist for n in {{2, 3}}, got {n}")
    return _matrix_unit_basis(n)


@dataclass(frozen=True, eq=False)
class StokesVector:
    """Real expansion coefficients of a unit-trace Hermitian matrix.

    ``n`` is the matrix dimension (2 or 3); ``components`` has length
    n^2 - 1.  The array is copied and frozen at construction.
    """

    n: int
    components: np.ndarray

    def __post_init__(self):
        count = len(generators(self.n))  # raises UnsupportedDimension outside n in {2, 3}
        comp = np.array(self.components, dtype=np.float64)
        if comp.shape != (count,):
            raise DimensionError(f"need {count} components for n={self.n}, got shape {comp.shape}")
        if not np.all(np.isfinite(comp)):
            raise ValidationError("Stokes components must be finite")
        comp.flags.writeable = False
        object.__setattr__(self, "components", comp)

    def norm_sq(self) -> float:
        """Squared Euclidean length of the component vector."""
        return float(_norm_sq(self.components))


class StructureConstants(NamedTuple):
    """Symmetric (d) and antisymmetric (f) SU(3) structure tensors."""

    d: np.ndarray
    f: np.ndarray


@lru_cache(maxsize=1)
def structure_constants() -> StructureConstants:
    """SU(3) structure constants from generator traces.

    d_ijk = Tr({g_i, g_j} g_k) / 4 and f_ijk = Tr([g_i, g_j] g_k) / (4i),
    computed from the generator set itself rather than transcribed from
    tables.  Both tensors are verified real before the imaginary parts
    are discarded, then cached immutably.
    """
    lam = generators(3)
    triple = np.einsum("aij,bjk,cki->abc", lam, lam, lam)  # Tr(g_a g_b g_c)
    swapped = triple.transpose(1, 0, 2)
    d = (triple + swapped) / 4.0
    f = (triple - swapped) / 4.0j
    for name, tensor_ in (("d", d), ("f", f)):
        residue = float(np.abs(tensor_.imag).max())
        if residue > TAU_NUM:
            raise ValidationError(f"{name}_ijk has imaginary residue {residue:.3e}")
    d = d.real.copy()
    f = f.real.copy()
    d.flags.writeable = False
    f.flags.writeable = False
    return StructureConstants(d=d, f=f)


def stokes_extract(phi) -> StokesVector:
    """Stokes components of a Hermitian 2x2 or 3x3 matrix.

    Input is trace-normalized first, so the overall intensity Tr(phi)
    stays with the caller as metadata.  Positivity is not required.
    """
    phi = as_complex_matrix(phi)
    generators(phi.shape[0])  # raises UnsupportedDimension outside n in {2, 3}
    defect = float(np.abs(phi - phi.conj().T).max())
    if defect > TAU_HERM:
        raise ValidationError(f"matrix is not Hermitian: max defect {defect:.3e}")
    trace = complex(np.trace(phi))
    if abs(trace) <= TAU_NORM:
        raise ValidationError("matrix trace is ~0; cannot trace-normalize")
    if abs(trace - 1.0) > TAU_NORM:
        phi = phi / trace
    return StokesVector(phi.shape[0], _stokes_components(phi))


def _padded_nonzeros(tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of each ``tensor[k]`` as padded (term, k) tables, frozen:
    the entries t_kij, and their (i, j) stacked, ``(2, term, k)``.

    Column k lists tensor[k]'s nonzeros in (i, j) order, then zero terms at
    (0, 0) up to the longest column."""
    columns = [np.argwhere(t) for t in tensor]
    shape = (max(map(len, columns)), len(columns))
    coeff, index = np.zeros(shape, dtype=tensor.dtype), np.zeros((2, *shape), dtype=np.intp)
    for k, ij in enumerate(columns):
        coeff[: len(ij), k] = tensor[k][tuple(ij.T)]
        index[:, : len(ij), k] = ij.T
    coeff.flags.writeable = index.flags.writeable = False
    return coeff, index


@lru_cache(maxsize=None)
def _generator_entries(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Each generator's nonzero entries as padded (term, k) tables: g_kij, and the
    flat index j n + i of the phi_ji it multiplies in Tr(g_k phi) = sum_ij g_kij phi_ji;
    then 1/sqrt(kappa(n)).

    An entry is real or imaginary, so the real part of its product is one
    rounded real product, Re g_kij Re phi_ji or -Im g_kij Im phi_ji."""
    coeff, (i, j) = _padded_nonzeros(generators(n))
    flat = j * n + i
    flat.flags.writeable = False
    return coeff, flat, math.sqrt(n / (2.0 * (n - 1)))


def _stokes_components(phi: np.ndarray) -> np.ndarray:
    """Stokes components ``(n^2 - 1, ...)`` of a stack ``(n, n, ...)`` of unit-trace
    Hermitian matrices: Re Tr(g_k phi) as one gather of the phi_ji that g_k's nonzero
    entries multiply, the real parts of the products added in order."""
    n = len(phi)
    coeff, flat, scale = _generator_entries(n)
    terms = phi.reshape((n * n,) + phi.shape[2:])[flat]  # (term, k, ...)
    reversed_terms = terms.T  # axes reversed, the (term, k) table broadcasts over the stack axes
    np.multiply(reversed_terms, coeff.T, out=reversed_terms)
    return scale * _in_order_sum(terms.real)


def stokes_reconstruct(s: StokesVector) -> np.ndarray:
    """Hermitian unit-trace matrix with the given Stokes components.

    Exact inverse of :func:`stokes_extract` on unit-trace input.  The
    result need not be positive semi-definite; validate before using it
    as a density matrix.
    """
    n = s.n
    weighted = np.einsum("k,kij->ij", s.components, generators(n))
    return (np.eye(n) + math.sqrt(n * (n - 1) / 2.0) * weighted) / n


class PurityResiduals(NamedTuple):
    """Residuals of the two pure-state conditions on an SU(3) Stokes vector."""

    norm_residual: float
    dijk_residual: float


def pure_state_constraints(s: StokesVector) -> PurityResiduals:
    """How far an SU(3) Stokes vector is from describing a pure state.

    A unit-trace Hermitian 3x3 matrix is a rank-1 projector exactly when
    sum_i S_i^2 = 1 and sqrt(3) sum_ij d_ijk S_i S_j = S_k for every k.
    Returns |sum_i S_i^2 - 1| and the max-abs residual of the quadratic
    condition.
    """
    if s.n != 3:
        raise UnsupportedDimension(f"pure-state constraints apply to n=3, got n={s.n}")
    norm_residual, dijk_residual = _purity_residuals(s.components)
    return PurityResiduals(float(norm_residual), float(dijk_residual))


@lru_cache(maxsize=1)
def _d_terms() -> tuple[np.ndarray, np.ndarray]:
    """The nonzero d_ijk as padded (term, k) tables: d_ijk, and (i, j) stacked;
    58 of the 512 d_ijk are nonzero."""
    return _padded_nonzeros(np.moveaxis(structure_constants().d, -1, 0))


def _purity_residuals(comps: np.ndarray):
    """(norm, d_ijk) residuals of :func:`pure_state_constraints` over a stack ``(8, ...)``.

    sum_ij d_ijk S_i S_j runs over the nonzero d_ijk only, adding each k's
    terms (d_ijk S_i) S_j in (i, j) order, as ``np.einsum`` adds all 64 over
    one vector: a zero term leaves a finite sum as it is.
    """
    norm_residual = abs(_norm_sq(comps) - 1.0)
    coeff, index = _d_terms()
    factors = comps[index]  # S_i and S_j, each (term, k, ...), from one gather
    terms = factors[0]
    reversed_terms = terms.T  # axes reversed, the (term, k) table broadcasts over the stack axes
    reversed_terms *= coeff.T
    terms *= factors[1]
    quadratic = _SQRT3 * _in_order_sum(terms)
    return norm_residual, abs(quadratic - comps).max(axis=0)


def stokes_to_json(s: StokesVector) -> dict:
    return {"n": s.n, "s": s.components.tolist()}


def stokes_from_json(doc: dict) -> StokesVector:
    if not _is_int(doc["n"]):
        raise ValueError(f"stokes document needs an integer n, got {doc['n']!r}")
    return StokesVector(doc["n"], np.asarray(doc["s"], dtype=np.float64))
