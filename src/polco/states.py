"""State constructors and seeded random generators.

Randomness comes from numpy's PCG64 via ``np.random.default_rng``; a
fixed integer seed reproduces the sample stream bit-for-bit on the same
build.  A campaign draws from two streams, the children of
``np.random.SeedSequence(seed).spawn(2)``: one for every sample's
normals and one for a mixed sample's Dirichlet exponentials, so sample
*i* is what the samplers build from the *i*-th draws of each.  A chunk
of samples is one draw per stream and is then built once: one complex
build, and one Haar norm or, per rank, one Gram-Schmidt of the frame
columns it reads and one projector sum, with the samplers' one-sample bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionError, PreconditionError, UnknownState
from .linalg import StateVector, _is_int, _require_unit_norm

_SQRT2 = np.sqrt(2.0)
CHUNK = 1024  # campaign samples drawn and built together: the CLI's default 1000 in one


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


def _require_seed(seed) -> None:
    if not (_is_int(seed) and seed >= 0):
        raise PreconditionError(f"seed must be an integer >= 0, got {seed!r}")


def _rng_from(seed) -> np.random.Generator:
    """Accept an integer seed >= 0, a SeedSequence, or a ready Generator."""
    if not isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        _require_seed(seed)
    return np.random.default_rng(seed)  # a Generator comes back unaltered


def _campaign_samples(seed: int, n: int, dim: int, mixed: bool, rank=None):
    """Yield, ``CHUNK`` at a time, a campaign's stacked samples: the *i*-th is built as
    ``haar_pure(dim, normals)`` or ``random_mixed`` builds one, from the *i*-th draws of
    the ``normals`` and ``exponentials`` streams, so no sample depends on ``CHUNK``.
    Mixed samples are ``(dim, dim)`` density matrices of rank ``rank``, or ``i % dim + 1``
    if None; pure ones unit ``(dim,)`` amplitudes."""
    normals, exponentials = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    for start in range(0, n, CHUNK):
        count = min(CHUNK, n - start)
        g = normals.standard_normal((count, 2, *((dim, dim) if mixed else (dim,))))
        z = (g[:, 0] + 1j * g[:, 1]) / _SQRT2
        if mixed:
            ranks = np.arange(start, start + count) % dim + 1 if rank is None else np.full(count, rank)
            yield _mixed_stack(z, exponentials.standard_exponential((count, dim)), ranks)
        else:
            samples = _haar_rows(z)
            _require_unit_norm(samples)
            yield samples


def _require_dim(caller: str, dim, least: int) -> None:
    if not _is_int(dim):
        raise DimensionError(f"{caller} needs an integer dim, got {dim!r}")
    if dim < least:
        raise DimensionError(f"{caller} needs dim >= {least}, got {dim}")


def _complex_gaussians(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard complex normals: (g1 + i g2) / sqrt(2), g1, g2 ~ N(0, 1), g1 drawn first."""
    g = rng.standard_normal((2, *shape))
    return (g[0] + 1j * g[1]) / _SQRT2


def _haar_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random amplitudes: a complex Gaussian vector over its own 1-d norm."""
    z = _complex_gaussians(rng, (dim,))
    return z / np.linalg.norm(z)


def _haar_rows(z: np.ndarray) -> np.ndarray:
    """``_haar_amplitudes`` of each row, bit for bit: sqrt(re . re + im . im) is ``np.linalg.norm``'s
    1-d complex formula, and numpy's matmul hands a (1, d) @ (d, 1) product to that same ``dot``."""
    re, im = z.real[:, None, :], z.imag[:, None, :]
    return z / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]


def _simplex(e: np.ndarray) -> np.ndarray:
    """Dirichlet(1, ..., 1) weights from a (..., rank) stack of exponentials, with
    ``Generator.dirichlet``'s bits: each times 1 / its in-order sum (not
    ``np.sum``, whose pairwise order rounds differently from rank 8 on)."""
    return e * (1.0 / np.cumsum(e, axis=-1)[..., -1:])


def _unitaries(z: np.ndarray, width: int | None = None) -> np.ndarray:
    """The first ``width`` (default all) columns of Haar unitaries from a (..., n, n) Ginibre stack
    by classical Gram-Schmidt run twice (CGS2): column k less its projections on columns < k,
    twice, over its in-order norm.  That is QR with a positive real R diagonal, Mezzadri's Q
    (Notices AMS 54, 592 (2007)); CGS2 keeps orthogonality at O(u) (Giraud, Langou & Rozloznik,
    Numer. Math. 101, 87 (2005)).  No column's bits depend on the stack size or the width."""
    n = z.shape[-1]
    q = np.empty((*z.shape[:-1], n if width is None else width), dtype=np.complex128)
    for k in range(q.shape[-1]):
        v = z[..., k : k + 1]
        if k:
            basis = q[..., :k]
            adj = basis.conj().swapaxes(-1, -2)
            v = v - basis @ (adj @ v)
            v = v - basis @ (adj @ v)
        square = np.square(v.real) + np.square(v.imag)
        q[..., k : k + 1] = v / np.sqrt(sum(square[..., i, :] for i in range(n)))[..., None, :]
    return q


def _mixed_from(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k |u_k><u_k| over columns k < rank of (..., n, n) u and (..., rank) w."""
    vecs = u[..., : weights.shape[-1]]
    return (vecs * weights[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _mixed_stack(z: np.ndarray, e: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The density matrix ``random_mixed`` builds from each Ginibre ``z[i]`` and the
    exponentials ``e[i, :ranks[i]]``, bit for bit: per rank, the ``rank`` frame columns
    that the projector sum reads, one simplex and one projector sum."""
    out = np.empty_like(z)
    for rank in range(1, z.shape[-1] + 1):  # not np.unique, whose first call imports numpy.ma
        group = np.flatnonzero(ranks == rank)
        out[group] = _mixed_from(_unitaries(z[group], rank), _simplex(e[group, :rank]))
    return out


def haar_pure(dim: int, seed, split: tuple[int, int] | None = None) -> StateVector:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    _require_dim("haar_pure", dim, 2)
    return StateVector(_haar_amplitudes(_rng_from(seed), dim), split=split)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary: Gram-Schmidt (CGS2) of a Ginibre sample's columns."""
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
    rng = _rng_from(seed)
    z = _complex_gaussians(rng, (dim, dim))  # then the exponentials dirichlet would draw
    e = np.ones(rank) if equal_weights else rng.standard_exponential(rank)
    return _mixed_from(_unitaries(z, rank), _simplex(e))
