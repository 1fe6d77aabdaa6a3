"""State constructors and seeded random generators.

Randomness comes from numpy's PCG64 via ``np.random.default_rng``; a
fixed integer seed reproduces the sample stream bit-for-bit on the same
build.  Campaign-style callers split streams with
``np.random.SeedSequence(seed).spawn(n)`` so per-sample generators stay
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionError, UnknownState
from .linalg import StateVector

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class BeamSpec:
    """Four complex field coefficients over {polarization} x {spatial mode}.

    The labels are descriptive only; (a, b, c, d) weight the products
    (pol_0, mode_0), (pol_0, mode_1), (pol_1, mode_0), (pol_1, mode_1).
    """

    a: complex
    b: complex
    c: complex
    d: complex
    pol_labels: tuple[str, str] = ("e_x", "e_y")
    mode_labels: tuple[str, str] = ("psi", "phi")


def beam_to_state(spec: BeamSpec) -> StateVector:
    """Map beam coefficients to a normalized two-qubit state.

    Polarization is subsystem A, spatial mode subsystem B, so the
    amplitudes land A-major as (a, b, c, d) with split (2, 2).
    """
    vec = np.array([spec.a, spec.b, spec.c, spec.d], dtype=np.complex128)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DegenerateInput("all four beam coefficients are zero")
    return StateVector(vec / norm, split=(2, 2))


_NAMED_SPECS: dict[str, tuple[tuple[complex, ...], tuple[int, int] | None]] = {
    "bell_phi_plus": ((1, 0, 0, 1), (2, 2)),
    "bell_phi_minus": ((1, 0, 0, -1), (2, 2)),
    "bell_psi_plus": ((0, 1, 1, 0), (2, 2)),
    "bell_psi_minus": ((0, 1, -1, 0), (2, 2)),
    "product_00": ((1, 0, 0, 0), (2, 2)),
    "product_01": ((0, 1, 0, 0), (2, 2)),
    "qubit_uniform_pure": ((1, 1), None),
    "qutrit_basis_0": ((1, 0, 0), None),
    "qutrit_uniform_pure": ((1, 1, 1), None),
    "qutrit_max_entangled": ((1, 0, 0, 0, 1, 0, 0, 0, 1), (3, 3)),
    "qutrit_product_uniform": ((1,) * 9, (3, 3)),
}


def named_state(name: str) -> StateVector:
    """Canonical state from the registry; see :func:`named_state_names`."""
    try:
        amps, split = _NAMED_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(_NAMED_SPECS))
        raise UnknownState(f"unknown state {name!r}; known: {known}") from None
    vec = np.array(amps, dtype=np.complex128)
    return StateVector(vec / np.linalg.norm(vec), split=split)


def named_state_names() -> tuple[str, ...]:
    return tuple(sorted(_NAMED_SPECS))


def _rng_from(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _complex_gaussians(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normals: (g1 + i g2) / sqrt(2), g1, g2 ~ N(0, 1)."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / _SQRT2


def haar_pure(dim: int, seed, split: tuple[int, int] | None = None) -> StateVector:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    if dim < 2:
        raise DimensionError(f"haar_pure needs dim >= 2, got {dim}")
    rng = _rng_from(seed)
    z = _complex_gaussians(rng, dim)
    return StateVector(z / np.linalg.norm(z), split=split)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary: phase-fixed QR of a Ginibre sample."""
    rng = _rng_from(seed)
    z = _complex_gaussians(rng, (dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))  # scales column k by the unit phase of r_kk


def random_mixed(dim: int, rank: int, seed, equal_weights: bool = False) -> np.ndarray:
    """Random density matrix of exact rank.

    Eigenvectors are the first ``rank`` columns of a Haar unitary;
    eigenvalues are Dirichlet-uniform on the rank simplex (or all equal
    to 1/rank with ``equal_weights``, in which case rank == dim gives
    the maximally mixed state).
    """
    if not 1 <= rank <= dim:
        raise DimensionError(f"rank must be in 1..{dim}, got {rank}")
    rng = _rng_from(seed)
    u = haar_unitary(dim, rng)
    if equal_weights:
        weights = np.full(rank, 1.0 / rank)
    else:
        weights = rng.dirichlet(np.ones(rank))
    vecs = u[:, :rank]
    return (vecs * weights) @ vecs.conj().T
