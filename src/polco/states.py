"""State constructors and seeded random generators.

Randomness comes from numpy's PCG64 via ``np.random.default_rng``; a
fixed integer seed reproduces the sample stream bit-for-bit on the same
build.  Campaign-style callers split streams with
``np.random.SeedSequence(seed).spawn(n)`` so per-sample generators stay
independent of evaluation order.
A sampler's stream only draws numbers; matrices are built from them
over stacks, so a campaign chunk gets one QR and one projector sum per
rank, with the bits the samplers give one sample at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionError, UnknownState
from .linalg import StateVector, _is_int

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


def _require_dim(caller: str, dim, least: int) -> None:
    if not _is_int(dim):
        raise DimensionError(f"{caller} needs an integer dim, got {dim!r}")
    if dim < least:
        raise DimensionError(f"{caller} needs dim >= {least}, got {dim}")


def _complex_gaussians(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normals: (g1 + i g2) / sqrt(2), g1, g2 ~ N(0, 1)."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / _SQRT2


def _haar_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random amplitudes: a complex Gaussian vector over its own 1-d norm."""
    z = _complex_gaussians(rng, dim)
    return z / np.linalg.norm(z)


def _mixed_draws(rng: np.random.Generator, dim: int, rank: int, equal_weights: bool = False):
    """One stream's numbers for a density matrix, in draw order: the
    (dim, dim) Ginibre sample, then the Dirichlet weights."""
    z = _complex_gaussians(rng, (dim, dim))
    weights = np.full(rank, 1.0 / rank) if equal_weights else rng.dirichlet(np.ones(rank))
    return z, weights


def _unitaries(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (..., n, n) Ginibre stack: QR, column k of Q times the
    unit phase of r_kk (Mezzadri, Notices AMS 54, 592 (2007)).  Each matrix
    is factored on its own, so a stack keeps every matrix's one-matrix bits."""
    q, r = np.linalg.qr(z)
    diag = r.diagonal(0, -2, -1)
    return q * (diag / np.abs(diag))[..., None, :]


def _mixed_from(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k |u_k><u_k| over columns k < rank of (..., n, n) u and (..., rank) w."""
    vecs = u[..., : weights.shape[-1]]
    return (vecs * weights[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _mixed_stack(rngs, dim: int, ranks) -> np.ndarray:
    """``random_mixed(dim, ranks[i], rngs[i])`` for every i, bit for bit: each
    stream draws, then one QR and one projector sum per rank build the stack."""
    draws = [_mixed_draws(rng, dim, rank) for rng, rank in zip(rngs, ranks)]
    u = _unitaries(np.stack([z for z, _ in draws]))
    out = np.empty_like(u)
    for rank in set(ranks):  # not np.unique, whose first call imports numpy.ma
        group = [i for i, r in enumerate(ranks) if r == rank]
        out[group] = _mixed_from(u[group], np.stack([draws[i][1] for i in group]))
    return out


def haar_pure(dim: int, seed, split: tuple[int, int] | None = None) -> StateVector:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    _require_dim("haar_pure", dim, 2)
    return StateVector(_haar_amplitudes(_rng_from(seed), dim), split=split)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary: phase-fixed QR of a Ginibre sample."""
    _require_dim("haar_unitary", dim, 1)
    return _unitaries(_complex_gaussians(_rng_from(seed), (dim, dim)))


def random_mixed(dim: int, rank: int, seed, equal_weights: bool = False) -> np.ndarray:
    """Random density matrix of exact rank.

    Eigenvectors are the first ``rank`` columns of a Haar unitary;
    eigenvalues are Dirichlet-uniform on the rank simplex (or all equal
    to 1/rank with ``equal_weights``, in which case rank == dim gives
    the maximally mixed state).
    """
    _require_dim("random_mixed", dim, 1)
    if not (_is_int(rank) and 1 <= rank <= dim):
        raise DimensionError(f"rank must be in 1..{dim}, got {rank!r}")
    z, weights = _mixed_draws(_rng_from(seed), dim, rank, equal_weights)
    return _mixed_from(_unitaries(z), weights)
