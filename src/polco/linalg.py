"""Dense complex linear algebra at small fixed sizes.

Square complex ``numpy`` arrays are the carriers for coherence/density
matrices and Hermitian generators; pure states travel as
:class:`StateVector`.  Bipartite indices are always flattened row-major
with subsystem A major: ``(i_A, i_B) -> i_A * dB + i_B``.
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


def validate_density(m, require_unit_trace: bool = True) -> ValidationReport:
    """Report Hermiticity, positive semi-definiteness, and trace of ``m``.

    Never raises; callers decide what to do with a failing report.  A
    matrix with non-finite entries fails every check and is not
    diagonalized.  The PSD check diagonalizes the Hermitian part of
    ``m`` so it stays meaningful (and deterministic) for slightly
    non-Hermitian input.
    """
    m = as_complex_matrix(m)
    if not np.isfinite(m).all():
        nan = float("nan")
        return ValidationReport(False, False, complex(nan, nan), nan, ("matrix has non-finite entries",))
    messages = []
    herm_defect = float(np.abs(m - m.conj().T).max())
    hermitian = herm_defect <= TAU_HERM
    if not hermitian:
        messages.append(f"not Hermitian: max |M - M^dagger| = {herm_defect:.3e}")
    eigenvalues = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    min_eigenvalue = float(eigenvalues[0])
    psd = min_eigenvalue >= -TAU_PSD
    if not psd:
        messages.append(f"not positive semi-definite: min eigenvalue = {min_eigenvalue:.3e}")
    trace = complex(np.trace(m))
    if require_unit_trace and abs(trace - 1.0) > TAU_NORM:
        messages.append(f"trace = {trace!r}, not 1 within {TAU_NORM}")
    return ValidationReport(hermitian, psd, trace, min_eigenvalue, tuple(messages))


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


def slice_vectors(state: StateVector, dA: int | None = None, dB: int | None = None) -> list[np.ndarray]:
    """Subsystem slice vectors: row i of the A-major dA x dB reshape.

    The i-th slice is the (unnormalized) dB-dimensional vector obtained
    by fixing subsystem A in basis state i.  Their Gram matrix in the
    orientation of :func:`gram_matrix` reproduces the reduced matrix of
    subsystem A.
    """
    if dA is None or dB is None:
        if state.split is None:
            raise DimensionError("state has no split and none was given")
        dA, dB = state.split
    if dA < 1 or dB < 1 or dA * dB != state.dim:
        raise DimensionError(f"split {dA}x{dB} incompatible with dim {state.dim}")
    table = state.amplitudes.reshape(dA, dB)
    return [table[i].copy() for i in range(dA)]


def gram_matrix(vectors) -> np.ndarray:
    """Gram matrix in reduced-matrix orientation: G[i, j] = <v_j|v_i>."""
    k = len(vectors)
    g = np.empty((k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            g[i, j] = np.vdot(vectors[j], vectors[i])
    return g


def wedge_norm_sq(u, v) -> float:
    """Squared wedge-product norm: |u|^2 |v|^2 - |<v|u>|^2.

    Zero exactly when the vectors are parallel.  Tiny negatives from
    floating-point cancellation are clamped to 0.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionError(f"expected equal-length vectors, got shapes {u.shape} and {v.shape}")
    value = float((np.vdot(u, u) * np.vdot(v, v)).real - abs(np.vdot(v, u)) ** 2)
    return max(value, 0.0)


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
