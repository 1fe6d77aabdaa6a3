"""State constructors and seeded random generators.

Randomness comes from numpy's PCG64 via ``np.random.default_rng``; a
fixed integer seed reproduces the sample stream bit-for-bit on the same
build.  Campaigns give sample *i* the stream of child *i* of
``np.random.SeedSequence(seed)``, so per-sample streams stay independent
of evaluation order.  Those children are never built: their PCG64 states
are derived from ``(seed, i)`` a chunk at a time, exactly as
``SeedSequence(seed).spawn(n)`` and ``default_rng`` would set them, and
one generator per campaign is pointed at each in turn.
A sampler's stream only draws numbers; matrices are built from them
over stacks, so a campaign chunk gets one QR and one projector sum per
rank, with the bits the samplers give one sample at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionError, PreconditionError, UnknownState
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


def _require_seed(seed) -> None:
    if not (_is_int(seed) and seed >= 0):
        raise PreconditionError(f"seed must be an integer >= 0, got {seed!r}")


def _rng_from(seed) -> np.random.Generator:
    """Accept an integer seed >= 0, a SeedSequence, or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        _require_seed(seed)
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Child streams of SeedSequence(seed) without building them.  numpy's
# SeedSequence hashes its entropy words into a pool of four uint32 words;
# child i's entropy is the seed's words, zero-padded to the pool size,
# then the words of i.  The seed's pool comes from numpy; each later step
# is numpy's (bit_generator.pyx), masked to wrap as uint32 on Python ints.
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_POOL = 4


def _hashmix(value, hash_const: int):
    """(hashed value, next hash constant), for a Python int or a uint32 array."""
    following = hash_const * _MULT_A & _MASK32
    value = (value ^ hash_const) * following & _MASK32
    return value ^ value >> 16, following


def _mix(x, y):
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _absorb(pool: list, word, hash_const: int):
    """Mix one entropy word (or a uint32 array of them) into every pool word."""
    out = []
    for x in pool:
        hashed, hash_const = _hashmix(word, hash_const)
        out.append(_mix(x, hashed))
    return out, hash_const


def _root_pool(seed: int):
    """The pool every child of ``SeedSequence(seed)`` shares before its spawn key,
    and the hash constant the key's words continue from.  numpy mixes the seed's
    words (at least ``_POOL`` of them) with ``_POOL`` hashes each, and every hash
    multiplies the constant by ``_MULT_A``."""
    seed = int(seed)  # SeedSequence and bit_length need a Python int
    words = max(_POOL, -(-seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, _POOL * words, 1 << 32) & _MASK32
    return np.random.SeedSequence(seed).pool.tolist(), hash_const


def _child_states(root, start: int, count: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(child)`` for children
    ``start .. start + count - 1`` of the seed ``root`` was mixed from."""
    pool, hash_const = root
    keys = np.arange(start, start + count, dtype=np.uint64)
    pool, hash_const = _absorb(pool, (keys & _MASK32).astype(np.uint32), hash_const)
    wide = keys > _MASK32  # keys from 2^32 on are two words
    if wide.any():
        longer, _ = _absorb(pool, (keys >> 32).astype(np.uint32), hash_const)
        pool = [np.where(wide, two, one) for one, two in zip(pool, longer)]
    words, hash_const = [], _INIT_B  # generate_state(4, np.uint64): 8 uint32 words
    for k in range(8):
        following = hash_const * _MULT_B & _MASK32
        value = (pool[k % _POOL] ^ hash_const) * following
        words.append((value ^ value >> 16).astype(np.uint64))
        hash_const = following
    quads = zip(*((words[j] | words[j + 1] << 32).tolist() for j in range(0, 8, 2)))
    states = []
    for s0, s1, q0, q1 in quads:
        # PCG's srandom: state = 0, inc = 2 seq + 1, step, state += initstate, step
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        states.append((((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _spawned_draws(seed: int, n: int, chunk: int, draw):
    """Yield, ``chunk`` children at a time, ``draw(rng, i)`` for each child
    *i* of ``SeedSequence(seed).spawn(n)``, where ``rng`` holds the state
    ``default_rng(child)`` would: one generator, private to this call, is
    re-pointed at every child, and only the draws leave it."""
    root = _root_pool(seed)
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    for start in range(0, n, chunk):
        draws = []
        for i, (state, inc) in enumerate(_child_states(root, start, min(chunk, n - start)), start):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            draws.append(draw(rng, i))
        yield draws


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


def _mixed_draws(rng: np.random.Generator, dim: int, rank: int, equal_weights: bool = False):
    """One stream's numbers for a density matrix, in draw order: the (dim, dim)
    Ginibre sample, then the rank exponentials ``rng.dirichlet(np.ones(rank))``
    would draw (none with ``equal_weights``: ones, whose simplex is all 1/rank)."""
    z = _complex_gaussians(rng, (dim, dim))
    return z, np.ones(rank) if equal_weights else rng.standard_exponential(rank)


def _simplex(e: np.ndarray) -> np.ndarray:
    """Dirichlet(1, ..., 1) weights from a (..., rank) stack of exponentials, with
    ``Generator.dirichlet``'s bits: each times 1 / its in-order sum (not
    ``np.sum``, whose pairwise order rounds differently from rank 8 on)."""
    return e * (1.0 / np.cumsum(e, axis=-1)[..., -1:])


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


def _mixed_stack(draws) -> np.ndarray:
    """``random_mixed`` of every ``_mixed_draws`` result in ``draws``, bit for bit:
    one QR and, per rank, one simplex and one projector sum build the stack."""
    u = _unitaries(np.stack([z for z, _ in draws]))
    ranks = [e.size for _, e in draws]
    out = np.empty_like(u)
    for rank in set(ranks):  # not np.unique, whose first call imports numpy.ma
        group = [i for i, r in enumerate(ranks) if r == rank]
        out[group] = _mixed_from(u[group], _simplex(np.stack([draws[i][1] for i in group])))
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
    z, e = _mixed_draws(_rng_from(seed), dim, rank, equal_weights)
    return _mixed_from(_unitaries(z), _simplex(e))
