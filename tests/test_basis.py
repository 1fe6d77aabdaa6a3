"""Generator sets, structure constants, and Stokes-vector algebra."""

import hashlib
import itertools

import numpy as np
import pytest

from polco import (
    DimensionError,
    StokesVector,
    UnsupportedDimension,
    ValidationError,
    generators,
    haar_pure,
    pure_state_constraints,
    random_mixed,
    stokes_extract,
    stokes_from_json,
    stokes_reconstruct,
    stokes_to_json,
    structure_constants,
)
from polco.basis import _purity_residuals, _stokes_components
from polco.states import CHUNK

SQRT3 = np.sqrt(3.0)


# --- oracles -----------------------------------------------------------

def f_by_traces(i, j, k):
    """Antisymmetric constant from the commutator trace, explicit matmuls."""
    lam = generators(3)
    comm = lam[i] @ lam[j] - lam[j] @ lam[i]
    return complex(np.trace(comm @ lam[k])) / 4j


def d_by_traces(i, j, k):
    """Symmetric constant from the anticommutator trace, explicit matmuls."""
    lam = generators(3)
    anti = lam[i] @ lam[j] + lam[j] @ lam[i]
    return complex(np.trace(anti @ lam[k])) / 4


def random_hermitian_unit_trace(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    return h + (1.0 - np.trace(h).real) / n * np.eye(n)


# --- generator sets ----------------------------------------------------

def test_pauli_third_generator():
    np.testing.assert_array_equal(generators(2)[2], np.diag([1.0, -1.0]))


def test_su3_eighth_generator():
    np.testing.assert_allclose(generators(3)[7], np.diag([1, 1, -2]) / SQRT3, atol=1e-15)


def test_su3_imaginary_generators_are_hermitian():
    lam5 = generators(3)[4]
    lam7 = generators(3)[6]
    assert lam5[0, 2] == -1j and lam5[2, 0] == 1j
    assert lam7[1, 2] == -1j and lam7[2, 1] == 1j


@pytest.mark.parametrize("n", [2, 3])
def test_generators_traceless_hermitian_orthogonal(n):
    basis = generators(n)
    assert basis.shape == (n * n - 1, n, n)
    for i, gi in enumerate(basis):
        assert np.abs(gi - gi.conj().T).max() <= 1e-12
        assert abs(np.trace(gi)) <= 1e-12
        for j, gj in enumerate(basis):
            expected = 2.0 if i == j else 0.0
            assert abs(np.trace(gi @ gj) - expected) <= 1e-12


@pytest.mark.parametrize("n,digest", [
    (2, "5f6a5d75d7eb2583bc1700920d4ddcf616c65a750483bbb372215ce30217e9ff"),
    (3, "f55d257a57493c2f347c8946c2eb8a3705c7da47f9960a42b40017f9cb8c7372"),
])
def test_generators_have_the_bits_of_the_standard_tables(n, digest):
    # the matrix-unit rule gives the typed-out Pauli and Gell-Mann tables' bytes, signed zeros
    # included (-1j is -0.0 - 1j), as one cached read-only array
    basis = generators(n)
    assert hashlib.sha256(basis.tobytes()).hexdigest() == digest
    assert basis is generators(n) and not basis.flags.writeable


def test_generators_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        generators(4)


@pytest.mark.parametrize("n", [2.0, 3.0, True])
def test_the_stokes_gate_needs_an_integer_n(n):
    with pytest.raises(UnsupportedDimension):
        generators(n)
    with pytest.raises(UnsupportedDimension):
        StokesVector(n, np.zeros(3))


# --- structure constants -----------------------------------------------

def test_f_vanishes_on_repeated_indices():
    f = structure_constants().f
    for i in range(8):
        assert np.abs(f[i, i, :]).max() <= 1e-15
        assert np.abs(f[i, :, i]).max() <= 1e-15
        assert np.abs(f[:, i, i]).max() <= 1e-15


def test_f123_against_commutator_oracle():
    f = structure_constants().f
    oracle = f_by_traces(0, 1, 2)
    assert abs(oracle.imag) <= 1e-12
    assert abs(f[0, 1, 2] - oracle.real) <= 1e-12
    assert f[0, 1, 2] == pytest.approx(1.0, abs=1e-12)


def test_d118_against_anticommutator_oracle():
    d = structure_constants().d
    oracle = d_by_traces(0, 0, 7)
    assert abs(oracle.imag) <= 1e-12
    assert abs(d[0, 0, 7] - oracle.real) <= 1e-12
    assert d[0, 0, 7] == pytest.approx(1 / SQRT3, abs=1e-12)


def test_structure_tensors_match_trace_oracles_on_random_triples():
    consts = structure_constants()
    rng = np.random.default_rng(31)
    for _ in range(40):
        i, j, k = rng.integers(0, 8, size=3)
        assert abs(consts.f[i, j, k] - f_by_traces(i, j, k).real) <= 1e-12
        assert abs(consts.d[i, j, k] - d_by_traces(i, j, k).real) <= 1e-12


def test_d_totally_symmetric_f_totally_antisymmetric():
    consts = structure_constants()
    rng = np.random.default_rng(32)
    triples = [tuple(rng.integers(0, 8, size=3)) for _ in range(30)]
    for i, j, k in triples:
        reference_d = consts.d[i, j, k]
        reference_f = consts.f[i, j, k]
        for perm in itertools.permutations((i, j, k)):
            sign = _permutation_sign((i, j, k), perm)
            assert abs(consts.d[perm] - reference_d) <= 1e-12
            if sign is not None:  # undefined for repeated indices
                assert abs(consts.f[perm] - sign * reference_f) <= 1e-12


def _permutation_sign(original, permuted):
    if len(set(original)) < 3:
        return None
    order = [original.index(p) for p in permuted]
    sign = 1
    for a in range(3):
        for b in range(a + 1, 3):
            if order[a] > order[b]:
                sign = -sign
    return sign


def test_generator_product_identity_all_pairs():
    lam = generators(3)
    consts = structure_constants()
    identity = np.eye(3)
    for i in range(8):
        for j in range(8):
            expansion = (2.0 / 3.0) * (i == j) * identity + sum(
                (consts.d[i, j, k] + 1j * consts.f[i, j, k]) * lam[k] for k in range(8)
            )
            assert np.abs(lam[i] @ lam[j] - expansion).max() <= 1e-12


# --- Stokes extraction / reconstruction --------------------------------

def test_stokes_maximally_mixed_qubit():
    np.testing.assert_allclose(stokes_extract(np.eye(2) / 2).components, np.zeros(3), atol=1e-15)


def test_stokes_basis_projector_qubit():
    s = stokes_extract(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(s.components, [0, 0, 1], atol=1e-15)


def test_stokes_maximally_mixed_qutrit():
    np.testing.assert_allclose(stokes_extract(np.eye(3) / 3).components, np.zeros(8), atol=1e-15)


def test_stokes_extract_normalizes_trace():
    rng = np.random.default_rng(33)
    rho = random_mixed(3, 3, rng)
    a = stokes_extract(rho).components
    b = stokes_extract(2.5 * rho).components  # intensity-scaled input
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_stokes_extract_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        stokes_extract(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_stokes_extract_rejects_dim_four():
    with pytest.raises(UnsupportedDimension):
        stokes_extract(np.eye(4) / 4)


def test_stokes_reconstruct_zero_vectors():
    np.testing.assert_allclose(stokes_reconstruct(StokesVector(3, np.zeros(8))), np.eye(3) / 3)
    np.testing.assert_allclose(
        stokes_reconstruct(StokesVector(2, [0, 0, 1])), np.diag([1.0, 0.0]), atol=1e-15
    )


@pytest.mark.parametrize("n", [2, 3])
def test_stokes_roundtrip_from_stokes_space(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(1000):
        s = StokesVector(n, rng.standard_normal(n * n - 1))
        back = stokes_extract(stokes_reconstruct(s))
        assert np.abs(back.components - s.components).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_stokes_roundtrip_from_matrix_space(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(1000):
        phi = random_hermitian_unit_trace(rng, n)
        back = stokes_reconstruct(stokes_extract(phi))
        assert np.abs(back - phi).max() < 1e-12


def test_qubit_stokes_ball():
    # valid 2x2 densities live inside the unit ball
    rng = np.random.default_rng(60)
    for k in range(200):
        rho = random_mixed(2, (k % 2) + 1, rng)
        assert stokes_extract(rho).norm_sq() <= 1.0 + 1e-12


def test_stokes_vector_validation():
    with pytest.raises(DimensionError):
        StokesVector(2, [0.0, 0.0])
    with pytest.raises(UnsupportedDimension):
        StokesVector(4, np.zeros(15))
    with pytest.raises(ValidationError):
        StokesVector(2, [np.inf, 0, 0])


def test_stokes_json_roundtrip():
    s = StokesVector(3, np.linspace(-0.3, 0.4, 8))
    doc = stokes_to_json(s)
    assert doc["n"] == 3
    back = stokes_from_json(doc)
    np.testing.assert_array_equal(back.components, s.components)


@pytest.mark.parametrize("n", [2.0, "3", True])
def test_stokes_from_json_needs_an_integer_n(n):
    with pytest.raises(ValueError):
        stokes_from_json({"n": n, "s": [0.0, 0.0, 1.0]})


@pytest.mark.parametrize("n,scale,weight", [(2, 1.0, 1.0), (3, SQRT3 / 2.0, SQRT3)])
def test_stokes_normalization_keeps_the_per_dimension_constants(n, scale, weight):
    # S = Tr(g Phi)/sqrt(kappa(n)) and its inverse give the n = 2 and n = 3 doubles bit for bit
    rho = random_mixed(n, n, 31)
    s = stokes_extract(rho)
    raw = np.einsum("kij,...ji->...k", generators(n), rho).real
    assert s.components.tobytes() == (scale * raw).tobytes()
    weighted = np.einsum("k,kij->ij", s.components, generators(n))
    assert stokes_reconstruct(s).tobytes() == ((np.eye(n) + weight * weighted) / n).tobytes()


# --- pure-state constraints --------------------------------------------

def test_constraints_hold_for_basis_projector():
    residuals = pure_state_constraints(stokes_extract(np.diag([1.0, 0.0, 0.0])))
    assert residuals.norm_residual < 1e-10
    assert residuals.dijk_residual < 1e-10


def test_constraints_fail_for_maximally_mixed():
    residuals = pure_state_constraints(stokes_extract(np.eye(3) / 3))
    assert residuals.norm_residual == pytest.approx(1.0, abs=1e-15)


def test_constraints_hold_for_haar_pure_qutrits():
    for k in range(500):
        state = haar_pure(3, 7000 + k)
        residuals = pure_state_constraints(stokes_extract(state.density()))
        assert residuals.norm_residual < 1e-9
        assert residuals.dijk_residual < 1e-9


def test_constraints_need_su3():
    with pytest.raises(UnsupportedDimension):
        pure_state_constraints(StokesVector(2, [0, 0, 1]))


def _dense_dijk_residual(comps):
    """The dense reference: all 512 d_ijk through ``np.einsum``."""
    quadratic = SQRT3 * np.einsum("ijk,...i,...j->...k", structure_constants().d, comps, comps)
    return np.abs(quadratic - comps).max(axis=-1)


@pytest.mark.parametrize("count", [1, 2, CHUNK - 1, CHUNK, CHUNK + 5])
def test_purity_residuals_equal_the_dense_einsum_bit_for_bit(count):
    rng = np.random.default_rng(count)
    z = rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))
    amps = z / np.linalg.norm(z, axis=-1, keepdims=True)
    # stacks put the component axis first; the second one is a transposed view
    projectors = np.multiply(amps.T[:, None], amps.T[None, :].conj())
    for comps in (_stokes_components(projectors), rng.standard_normal((count, 8)).T):
        dijk, dense_dijk = _purity_residuals(comps)[1], _dense_dijk_residual(comps.T)
        assert dijk.shape == (count,) and dijk.tobytes() == dense_dijk.tobytes()


@pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
def test_purity_residuals_of_single_vectors_equal_the_dense_einsum_bit_for_bit(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 200)
    for _ in range(200):
        comps = scale * rng.standard_normal(8)
        dijk, dense_dijk = _purity_residuals(comps)[1], _dense_dijk_residual(comps)
        assert np.ndim(dijk) == 0 and dijk.tobytes() == dense_dijk.tobytes()
