"""State constructors and seeded random generators.

Randomness comes from numpy's PCG64 via ``np.random.default_rng``; a
fixed integer seed reproduces the sample stream bit-for-bit on the same
build.  A campaign draws from two streams, the children of
``np.random.SeedSequence(seed).spawn(2)``: one for every sample's
normals and one for a mixed sample's Dirichlet exponentials, so sample
*i* is what the samplers build from the *i*-th draws of each.  A chunk
of samples is one draw per stream and is then built once: one complex
build, and one Haar norm or, per rank group (a strided view of the
chunk), one Gram-Schmidt of the frame columns it reads and one projector
sum: in-order elementwise arithmetic, with no BLAS call whose kernel could
move a bit.  The samplers run these builders on one sample, with its bits.
A chunk leaves with the sample axis last, as the relations take it:
``(dim, count)`` amplitudes or ``(dim, dim, count)`` density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DegenerateInput, DimensionError, PreconditionError, UnknownState
from .linalg import StateVector, _is_int, _norm_sq, _require_unit_norm

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
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
    if _norm_sq(vec) == 0.0:
        raise DegenerateInput("all four beam coefficients are zero")
    return StateVector(_normalized(vec), split=(2, 2))


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
    return StateVector(_normalized(np.array(amps, dtype=np.complex128)), split=split)


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
    if None; pure ones unit ``(dim,)`` amplitudes.  A chunk is a contiguous stack with the
    sample axis last, ``(dim, dim, count)`` or ``(dim, count)``."""
    normals, exponentials = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    for start in range(0, n, CHUNK):
        count = min(CHUNK, n - start)
        z = _complex_gaussians(normals, count, (dim, dim) if mixed else (dim,))
        if mixed:
            yield _mixed_stack(z, exponentials.standard_exponential((count, dim)), start, rank)
        else:
            samples = _normalized(z.T)
            _require_unit_norm(samples)
            yield samples


def _require_dim(caller: str, dim, least: int) -> None:
    if not _is_int(dim):
        raise DimensionError(f"{caller} needs an integer dim, got {dim!r}")
    if dim < least:
        raise DimensionError(f"{caller} needs dim >= {least}, got {dim}")


def _complex_gaussians(rng: np.random.Generator, count: int, shape: tuple) -> np.ndarray:
    """``count`` stacked standard complex normals of ``shape``, (g1 + i g2) / sqrt(2) with
    g1, g2 ~ N(0, 1) and each sample's g1 drawn before its g2, written into one buffer with
    that formula's bits: each part is its normal times fl(1/sqrt(2)), which is how numpy
    divides a complex by a real."""
    g = rng.standard_normal((count, 2, *shape))
    z = np.empty((count, *shape), dtype=np.complex128)
    np.multiply(g[:, 0], _INV_SQRT2, out=z.real)
    np.multiply(g[:, 1], _INV_SQRT2, out=z.imag)
    return z


def _normalized(z: np.ndarray) -> np.ndarray:
    """Each vector of an ``(n, ...)`` complex stack over sqrt(|z|^2), |z|^2 added in order by
    ``linalg._norm_sq`` with no BLAS dot; written C-contiguous, whatever z's layout."""
    return np.divide(z, np.sqrt(_norm_sq(z)), order="C")


def _simplex(e: np.ndarray) -> np.ndarray:
    """Dirichlet(1, ..., 1) weights from a (..., rank) stack of exponentials, with
    ``Generator.dirichlet``'s bits: each times 1 / its in-order sum (not
    ``np.sum``, whose pairwise order rounds differently from rank 8 on)."""
    return e * (1.0 / reduce(np.add, e.T).T)[..., None]


def _unitaries(z: np.ndarray, width: int | None = None) -> np.ndarray:
    """The first ``width`` (default all) columns of Haar unitaries from a (..., n, n) Ginibre stack
    by classical Gram-Schmidt run twice (CGS2): column k less its projections on columns < k,
    twice, over its in-order norm.  That is QR with a positive real R diagonal, Mezzadri's Q
    (Notices AMS 54, 592 (2007)); CGS2 keeps orthogonality at O(u) (Giraud, Langou & Rozloznik,
    Numer. Math. 101, 87 (2005)).  Every product is elementwise over the stack and every sum
    in order, with no per-sample BLAS call, so no column's bits depend on the stack size or
    the width.  The result is a transposed view of a column-major stack."""
    zt = z.T  # zt[k, i]: row i of column k, over the stack
    n = len(zt)
    qt = np.empty((n if width is None else width, *zt.shape[1:]), dtype=np.complex128)
    for k in range(len(qt)):
        v = zt[k]
        for _ in range(2 if k else 0):
            terms = qt[:k].conj() * v
            coeffs = reduce(np.add, (terms[:, i] for i in range(n)))  # sum_i conj(q_ij) v_i, in order
            v = reduce(np.subtract, qt[:k] * coeffs[:, None], v)  # less each q_j c_j, j < k in order
        qt[k] = v / np.sqrt(reduce(np.add, np.square(v.real) + np.square(v.imag)))
    return qt.T


def _mixed_from(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_c (w_c u_c) (x) conj(u_c) over the columns c < rank of (count, n, >= rank) u and
    (count, rank) w, or one (n, >= rank) u and (rank,) w, added in order: ``(n, n, count)``
    or ``(n, n)``, the stack axis last."""
    ut, wt = u.T, weights.T  # ut[c, i]: row i of column c, over the stack
    terms = ((ut[c] * wt[c])[:, None] * ut[c][None, :].conj() for c in range(len(wt)))  # [i, j]
    return reduce(np.add, terms)


def _mixed_stack(z: np.ndarray, e: np.ndarray, start: int, rank: int | None) -> np.ndarray:
    """The density matrix of each Ginibre ``z[i]`` and the exponentials ``e[i, :rank]``:
    the projector sum of its Haar frame's first ``rank`` columns with Dirichlet weights, where
    chunk sample ``i`` is the campaign's ``start + i``-th and has rank ``rank`` or, if None,
    ``(start + i) % dim + 1``.  Each rank group is one strided view of the chunk, with one frame
    of ``rank`` columns, one simplex and one projector sum, written to its samples of the
    ``(dim, dim, count)`` result."""
    count, dim = len(z), z.shape[-1]
    out = np.empty((dim, dim, count), dtype=np.complex128)
    for r in range(1, dim + 1) if rank is None else (rank,):
        # cycling ranks: sample start + i has rank (start + i) % dim + 1, so every dim-th sample
        group = slice((r - 1 - start) % dim, None, dim) if rank is None else slice(None)
        if len(z[group]):  # a chunk shorter than dim leaves some ranks out
            out[..., group] = _mixed_from(_unitaries(z[group], r), _simplex(e[group, :r]))
    return out


def haar_pure(dim: int, seed, split: tuple[int, int] | None = None) -> StateVector:
    """Haar-random pure state: a complex Gaussian vector over its in-order norm,
    built as a campaign builds a stack of them."""
    _require_dim("haar_pure", dim, 2)
    return StateVector(_normalized(_complex_gaussians(_rng_from(seed), 1, (dim,))[0]), split=split)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary: Gram-Schmidt (CGS2) of a Ginibre sample's columns, the
    stacked in-order elementwise arithmetic of a campaign's frames, with no BLAS call."""
    _require_dim("haar_unitary", dim, 1)
    return np.ascontiguousarray(_unitaries(_complex_gaussians(_rng_from(seed), 1, (dim, dim)))[0])


def random_mixed(dim: int, rank: int, seed) -> np.ndarray:
    """Random density matrix of exact rank, built as a campaign builds a stack of them.

    Eigenvectors are the first ``rank`` columns of a Haar unitary;
    eigenvalues are Dirichlet-uniform on the rank simplex.
    """
    _require_dim("random_mixed", dim, 1)
    if not (_is_int(rank) and 1 <= rank <= dim):
        raise DimensionError(f"rank must be in 1..{dim}, got {rank!r}")
    rng = _rng_from(seed)  # the normals, then the exponentials dirichlet would draw
    return _mixed_stack(_complex_gaussians(rng, 1, (dim, dim)), rng.standard_exponential((1, rank)), 0, rank)[..., 0]
