"""Dense complex linear algebra at small fixed sizes.

Square complex ``numpy`` arrays are the carriers for coherence/density
matrices and Hermitian generators; pure states travel as
:class:`StateVector`.  Bipartite indices are always flattened row-major
with subsystem A major: ``(i_A, i_B) -> i_A * dB + i_B``.  Density
checks (Hermitian defect, PSD, trace) are written once, over stacks,
and read both as a :class:`ValidationReport` and by the measure kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .tolerances import TAU_HERM, TAU_NORM, TAU_PSD


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
        norm_sq = float(np.vdot(amp, amp).real)
        if not abs(norm_sq - 1.0) <= TAU_NORM:  # also rejects NaN and infinite amplitudes
            raise ValidationError(f"state norm^2 = {norm_sq!r}, not 1 within {TAU_NORM}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        if self.split is not None:
            dA, dB = (int(self.split[0]), int(self.split[1]))
            if dA < 1 or dB < 1 or dA * dB != amp.size:
                raise DimensionError(f"split {self.split} incompatible with dim {amp.size}")
            object.__setattr__(self, "split", (dA, dB))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        """Rank-1 projector |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


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


def _density_checks(m: np.ndarray):
    """Per matrix of a ``(..., n, n)`` complex stack: Hermitian defect,
    least eigenvalue of the Hermitian part, and trace.

    The one place a density matrix is diagonalized: :func:`validate_density`
    reads one matrix's values as a report, ``measures._as_density`` a
    stack's as a pass or its first failure.  A matrix with non-finite
    entries is not diagonalized, and all three of its values read NaN.
    """
    finite = None
    if not np.isfinite(m).all():
        finite = np.isfinite(m).all(axis=(-2, -1))
        m = np.where(finite[..., None, None], m, 0.0)  # eigvalsh cannot take non-finite entries
    adjoint = m.conj().swapaxes(-1, -2)
    defect = np.abs(m - adjoint).max(axis=(-2, -1))
    min_eigenvalue = np.linalg.eigvalsh((m + adjoint) / 2.0)[..., 0]
    trace = m.diagonal(0, -2, -1).sum(axis=-1)
    if finite is not None:
        defect, min_eigenvalue, trace = (np.where(finite, x, np.nan) for x in (defect, min_eigenvalue, trace))
    return defect, min_eigenvalue, trace


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
    if dA < 1 or dB < 1 or rho.shape[0] != dA * dB:
        raise DimensionError(f"matrix of dim {rho.shape[0]} does not factor as {dA}x{dB}")
    blocks = rho.reshape(dA, dB, dA, dB)
    if keep == "A":
        return np.einsum("abcb->ac", blocks)
    if keep == "B":
        return np.einsum("abac->bc", blocks)
    raise ValueError(f'keep must be "A" or "B", got {keep!r}')


def _norm_sq(v: np.ndarray) -> np.ndarray:
    """Squared norms of a stack ``(..., k)`` of real vectors, rounded as ``v @ v`` rounds."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


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
    dim = int(doc["dim"])
    re = np.asarray(doc["re"], dtype=np.float64)
    im = np.asarray(doc["im"], dtype=np.float64)
    if re.shape != (dim,) * ndim or im.shape != (dim,) * ndim:
        kind = "matrix" if ndim == 2 else "vector"
        raise ValueError(f"{kind} document claims dim {dim} but carries shapes {re.shape}, {im.shape}")
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
    if split is not None:
        split = (int(split[0]), int(split[1]))
    return StateVector(amplitudes, split=split)
