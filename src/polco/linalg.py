"""Dense complex linear algebra at small fixed sizes.

Square complex ``numpy`` arrays are the carriers for coherence/density
matrices and Hermitian generators; pure states travel as
:class:`StateVector`.  Bipartite indices are always flattened row-major
with subsystem A major: ``(i_A, i_B) -> i_A * dB + i_B``.  Density
checks (Hermitian defect, PSD, trace) are written once, over stacks;
``_require_density`` alone accepts a stack as density matrices or raises.

Stacks put the matrix or vector axes first and the stack axes last: an
``(n, n, ...)`` array is a stack of n x n matrices, and ``m[i, j]`` is
entry (i, j) of every matrix at once, so one matrix is the stack with no
stack axes and runs the same code.  A sum over matrix entries is added in
written order, x_0 + x_1 + ..., by :func:`_in_order_sum`; no kernel
leaves the order of a sum to numpy's pairwise tree or to a BLAS dot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DimensionError, PreconditionError, ValidationError
from .tolerances import TAU_HERM, TAU_NORM, TAU_PSD


def _is_int(value) -> bool:
    """An integer that is not a bool: True and False are no dimension, rank or seed."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array, preserving entry order."""
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] == 0:
        raise DimensionError(f"expected a square matrix, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state, optionally with a bipartite split.

    ``split = (dA, dB)`` declares the state as living on a dA x dB
    product space (A-major flattening) and must satisfy dA * dB == dim.
    The amplitude array is copied and frozen at construction.
    """

    amplitudes: np.ndarray
    split: tuple[int, int] | None = None

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=np.complex128)
        if amp.ndim != 1 or amp.size == 0:
            raise DimensionError(f"amplitudes must be a nonempty 1-d array, got shape {amp.shape}")
        _require_unit_norm(amp)
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        if self.split is not None:
            try:
                dA, dB = self.split
            except (TypeError, ValueError):  # not two entries
                dA = dB = None
            if not (_is_int(dA) and _is_int(dB) and dA >= 1 and dB >= 1 and dA * dB == amp.size):
                raise DimensionError(f"split {self.split!r} must be two integers with product {amp.size}")
            object.__setattr__(self, "split", (int(dA), int(dB)))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        """Rank-1 projector |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _require_unit_norm(amps: np.ndarray) -> None:
    """Raise for the first vector of an ``(n, ...)`` stack whose norm^2, added in
    order by :func:`_norm_sq`, is not 1 within ``TAU_NORM``."""
    with np.errstate(over="ignore"):  # a square that overflows reads inf and fails below
        norm_sq = _norm_sq(amps)
    ok = np.abs(norm_sq - 1.0) <= TAU_NORM  # False on NaN and infinite amplitudes too
    if not ok.all():
        raise ValidationError(f"state norm^2 = {float(norm_sq[~ok][0])!r}, not 1 within {TAU_NORM}")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a density-matrix validation; never raised, only read.

    ``messages`` lists every violated requirement, so ``ok`` means the
    input is usable as a density matrix under the requested checks.
    """

    hermitian: bool
    psd: bool
    trace: complex
    min_eigenvalue: float
    messages: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.hermitian and self.psd and not self.messages


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


def _density_checks(m: np.ndarray):
    """Per matrix of an ``(n, n, ...)`` complex stack: Hermitian defect, least
    eigenvalue of the Hermitian part H, and trace, added in order.

    The one place a density matrix is diagonalized: :func:`validate_density`
    reads one matrix's values as a report, :func:`_require_density` a
    stack's as a pass or its first failure.  ``eigvalsh`` runs on a view
    with the matrix axes moved last, as it takes them.  A matrix with
    non-finite entries is not diagonalized, and all three of its values read NaN.
    """
    finite = None
    if not np.isfinite(m).all():
        finite = np.isfinite(m).all(axis=(0, 1))
        m = np.where(finite, m, 0.0)  # eigvalsh cannot take non-finite entries
    adjoint = m.conj().swapaxes(0, 1)
    defect = np.abs(m - adjoint).max(axis=(0, 1))
    min_eigenvalue = np.linalg.eigvalsh(((m + adjoint) / 2.0).transpose(*range(2, m.ndim), 0, 1))[..., 0]
    trace = _in_order_sum([m[i, i] for i in range(len(m))])
    if finite is not None:
        defect, min_eigenvalue, trace = (np.where(finite, x, np.nan) for x in (defect, min_eigenvalue, trace))
    return defect, min_eigenvalue, trace


def _in_order_sum(terms):
    """terms[0] + terms[1] + ... in that order, over the first axis of an array or
    over a sequence.  One entry's terms are numpy scalars, which add as the
    array loops add, so one matrix gets the bits it gets inside a stack.
    From the third term on the adds go in place, into one buffer.  An empty
    sum is 0 in the shape of one term, as numpy's ``sum`` gives it."""
    if len(terms) < 2:
        return terms[0] if len(terms) else np.zeros(np.shape(terms)[1:])
    terms = iter(terms)
    total = next(terms) + next(terms)
    for term in terms:
        total += term
    return total


def _require_density(m: np.ndarray) -> np.ndarray:
    """The real diagonal sums of an ``(n, n, ...)`` complex stack of density
    matrices, or the :class:`ValidationError` its first failing matrix's
    report names: Hermitian, PSD and a trace above TAU_NORM, as
    :func:`validate_density` checks them.

    The one owner of that decision.  A PSD gate spares ``eigvalsh`` on a
    stack; one matrix skips it, as it costs more than ``eigvalsh``.  It passes
    a stack of finite matrices whose M - M^dagger have real and imaginary
    parts within TAU_HERM / 2 (so defects within TAU_HERM), whose traces
    exceed TAU_NORM and keep n (n + 1) u tr H < TAU_PSD / 4, and whose
    H + (TAU_PSD / 2) I all pass the column Cholesky of
    :func:`_shifted_cholesky_passes`.  Cholesky is backward stable for any
    order of its inner products (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 10), so a completed factorization proves
    lambda_min >= -TAU_PSD / 2 - n (n + 1) u tr H, which the trace bound
    keeps above -TAU_PSD: ``eigvalsh`` would pass every matrix the gate
    passes.  A stack that fails the gate is checked as if there were none.
    """
    if m.ndim > 2 and np.isfinite(m).all():
        n = len(m)
        trace = _in_order_sum([m[i, i].real for i in range(n)])
        re, im = m.real, m.imag  # M - M^dagger has parts re - re^T and im + im^T
        if (
            max(np.abs(re - re.swapaxes(0, 1)).max(), np.abs(im + im.swapaxes(0, 1)).max()) <= TAU_HERM / 2.0
            and trace.min() > TAU_NORM
            and n * (n + 1) * _UNIT_ROUNDOFF * trace.max() < TAU_PSD / 4.0
            and _shifted_cholesky_passes(m)
        ):
            return trace
    defect, min_eigenvalue, trace = _density_checks(m)
    ok = (defect <= TAU_HERM) & (min_eigenvalue >= -TAU_PSD) & (trace.real > TAU_NORM)
    if np.count_nonzero(ok) < ok.size:
        k = np.unravel_index(np.argmin(ok), ok.shape)
        report = _density_report(defect[k], min_eigenvalue[k], trace[k], require_unit_trace=False)
        raise ValidationError("; ".join(report.messages) or f"trace {report.trace!r} is not positive")
    return trace.real  # the in-order sum of Re m_ii, as the gate hands it back


def _shifted_cholesky_passes(m: np.ndarray) -> bool:
    """Whether H + (TAU_PSD / 2) I, H the Hermitian part of each matrix of a
    stack ``(n, n, ...)``, has a Cholesky factor, as an unblocked column
    Cholesky over the whole stack finds it: one vectorized step per entry of
    H's lower triangle, H_ij = (m_ij + conj(m_ji)) / 2 and H_jj = Re m_jj,
    each read as one contiguous row ``m[i, j]`` of the stack."""
    n = len(m)
    low = {}
    for j in range(n):
        pivot = m[j, j].real + TAU_PSD / 2.0
        for k in range(j):
            pivot = pivot - (low[j, k].real ** 2 + low[j, k].imag ** 2)
        if not (pivot > 0.0).all():
            return False
        root = np.sqrt(pivot)
        for i in range(j + 1, n):
            entry = (m[i, j] + m[j, i].conj()) / 2.0
            for k in range(j):
                entry = entry - low[i, k] * low[j, k].conj()
            low[i, j] = entry / root
    return True


def _density_report(defect, min_eigenvalue, trace, require_unit_trace: bool) -> ValidationReport:
    """One matrix's :func:`_density_checks` values as a report."""
    if np.isnan(defect):  # finite entries never give a NaN defect
        nan = float("nan")
        return ValidationReport(False, False, complex(nan, nan), nan, ("matrix has non-finite entries",))
    defect, min_eigenvalue, trace = float(defect), float(min_eigenvalue), complex(trace)
    messages = []
    hermitian = defect <= TAU_HERM
    if not hermitian:
        messages.append(f"not Hermitian: max |M - M^dagger| = {defect:.3e}")
    psd = min_eigenvalue >= -TAU_PSD
    if not psd:
        messages.append(f"not positive semi-definite: min eigenvalue = {min_eigenvalue:.3e}")
    if require_unit_trace and abs(trace - 1.0) > TAU_NORM:
        messages.append(f"trace = {trace!r}, not 1 within {TAU_NORM}")
    return ValidationReport(hermitian, psd, trace, min_eigenvalue, tuple(messages))


def validate_density(m, require_unit_trace: bool = True) -> ValidationReport:
    """Report Hermiticity, positive semi-definiteness, and trace of ``m``.

    Never raises; callers decide what to do with a failing report.  A
    matrix with non-finite entries fails every check and is not
    diagonalized.  The PSD check diagonalizes the Hermitian part of
    ``m`` so it stays meaningful (and deterministic) for slightly
    non-Hermitian input.
    """
    return _density_report(*_density_checks(as_complex_matrix(m)), require_unit_trace)


def tensor(a, b):
    """Kronecker product of two matrices/vectors or two ``StateVector``s.

    Uses the A-major index convention ``(i_A, i_B) -> i_A * dB + i_B``;
    two states combine into a bipartite state with split ``(a.dim, b.dim)``.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes), split=(a.dim, b.dim))
    if isinstance(a, StateVector) or isinstance(b, StateVector):
        raise TypeError("tensor operands must be of the same kind")
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def partial_trace(rho: np.ndarray, dA: int, dB: int, keep: str = "A") -> np.ndarray:
    """Trace out one factor of a dA x dB bipartite matrix.

    Parameters
    ----------
    rho : array
        Square matrix of dimension dA * dB, A-major flattening.
    dA, dB : int
        Subsystem dimensions.
    keep : {"A", "B"}
        Which subsystem the reduced matrix describes.

    Returns
    -------
    The dA x dA (keep="A") or dB x dB (keep="B") reduced matrix; the
    trace is preserved up to rounding.
    """
    rho = as_complex_matrix(rho)
    if not (_is_int(dA) and _is_int(dB)):
        raise DimensionError(f"partial_trace needs integer dA and dB, got {dA!r} and {dB!r}")
    if dA < 1 or dB < 1 or rho.shape[0] != dA * dB:
        raise DimensionError(f"matrix of dim {rho.shape[0]} does not factor as {dA}x{dB}")
    blocks = rho.reshape(dA, dB, dA, dB)
    if keep == "A":
        return np.einsum("abcb->ac", blocks)
    if keep == "B":
        return np.einsum("abac->bc", blocks)
    raise PreconditionError(f'keep must be "A" or "B", got {keep!r}')


def _norm_sq(v: np.ndarray) -> np.ndarray:
    """Squared norms of a stack ``(k, ...)`` of vectors: v_0^2 + v_1^2 + ..., in order, and of
    complex ones that sum over the real parts plus that over the imaginary parts."""
    if np.iscomplexobj(v):
        return _norm_sq(v.real) + _norm_sq(v.imag)
    return _in_order_sum(np.square(v))


def fingerprint(obj) -> str:
    """Short content hash tying reports and verdicts to their input."""
    h = hashlib.sha256()
    if isinstance(obj, StateVector):
        h.update(b"state:")
        h.update(np.ascontiguousarray(obj.amplitudes).tobytes())
        h.update(repr(obj.split).encode())
    else:
        h.update(b"matrix:")
        h.update(np.ascontiguousarray(np.asarray(obj, dtype=np.complex128)).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# JSON wire formats
#
# matrix: {"dim": n, "re": [[...]], "im": [[...]]}   (row-major)
# vector: {"dim": n, "re": [...], "im": [...], "split": [dA, dB] (optional)}
# ---------------------------------------------------------------------------

def matrix_to_json(m) -> dict:
    m = as_complex_matrix(m)
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def _complex_from_json(doc: dict, ndim: int) -> np.ndarray:
    dim = doc["dim"]
    re = np.asarray(doc["re"], dtype=np.float64)
    im = np.asarray(doc["im"], dtype=np.float64)
    if not _is_int(dim) or re.shape != (dim,) * ndim or im.shape != (dim,) * ndim:
        kind = "matrix" if ndim == 2 else "vector"
        raise ValueError(f"{kind} document claims dim {dim!r} but carries shapes {re.shape}, {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("document holds non-finite values")
    return re + 1j * im


def matrix_from_json(doc: dict) -> np.ndarray:
    return _complex_from_json(doc, ndim=2)


def state_to_json(state: StateVector) -> dict:
    doc = {
        "dim": state.dim,
        "re": state.amplitudes.real.tolist(),
        "im": state.amplitudes.imag.tolist(),
    }
    if state.split is not None:
        doc["split"] = [state.split[0], state.split[1]]
    return doc


def state_from_json(doc: dict) -> StateVector:
    amplitudes = _complex_from_json(doc, ndim=1)
    split = doc.get("split")
    if split is not None and not (isinstance(split, list) and len(split) == 2 and all(map(_is_int, split))):
        raise ValueError(f"split must be a list of two integers, got {split!r}")
    return StateVector(amplitudes, split=split)
