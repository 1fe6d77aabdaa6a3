"""Matrix-core: validation, tensor structure, partial trace, the wedge route of E^2."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polco import (
    DimensionError,
    StateVector,
    ValidationError,
    haar_pure,
    i_concurrence_sq,
    matrix_from_json,
    matrix_to_json,
    measure_report,
    partial_trace,
    random_mixed,
    state_from_json,
    state_to_json,
    tensor,
    validate_density,
)


# --- oracles -----------------------------------------------------------

def wedge_by_minors(u, v):
    """Independent wedge-norm oracle: explicit 2x2 minors."""
    total = 0.0
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            total += abs(u[i] * v[j] - u[j] * v[i]) ** 2
    return total


def schmidt_weights(state, dA, dB):
    """Squared Schmidt coefficients via SVD of the amplitude table."""
    singular = np.linalg.svd(state.amplitudes.reshape(dA, dB), compute_uv=False)
    return np.sort(singular**2)


# --- validate_density --------------------------------------------------

def test_validate_identity_over_two():
    report = validate_density(np.eye(2) / 2)
    assert report.hermitian and report.psd and report.ok
    assert abs(report.trace - 1.0) < 1e-15
    assert report.min_eigenvalue == pytest.approx(0.5)


def test_validate_negative_eigenvalue():
    report = validate_density(np.diag([1.0, -0.1]), require_unit_trace=False)
    assert report.hermitian
    assert not report.psd
    assert report.min_eigenvalue == pytest.approx(-0.1)
    assert not report.ok


def test_validate_non_hermitian():
    report = validate_density(np.array([[0, 1], [0, 0]]), require_unit_trace=False)
    assert not report.hermitian
    assert report.messages


def test_validate_unit_trace_flag():
    report = validate_density(np.eye(2), require_unit_trace=True)
    assert report.hermitian and report.psd
    assert not report.ok  # trace 2 flagged
    assert validate_density(np.eye(2), require_unit_trace=False).ok


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_validate_non_finite_reports_without_raising(bad):
    m = np.eye(3, dtype=complex) / 3
    m[0, 1] = bad
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = validate_density(m)
    assert not (report.ok or report.hermitian or report.psd)
    assert any("non-finite" in message for message in report.messages)
    assert [str(w.message) for w in caught] == []


def test_validate_haar_reduced_matrices():
    # reduced matrices of pure bipartite states are always valid densities
    for k in range(100):
        state = haar_pure(4, 1000 + k, split=(2, 2))
        phi = partial_trace(state.density(), 2, 2, keep="A")
        report = validate_density(phi)
        assert report.ok, report.messages


def test_validate_convex_mixture():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho1 = random_mixed(3, 2, rng)
        rho2 = random_mixed(3, 3, rng)
        w = rng.uniform()
        assert validate_density(w * rho1 + (1 - w) * rho2).ok


# --- tensor ------------------------------------------------------------

def test_tensor_basis_vectors():
    zero = StateVector(np.array([1, 0]))
    one = StateVector(np.array([0, 1]))
    combined = tensor(zero, one)
    assert combined.split == (2, 2)
    np.testing.assert_allclose(combined.amplitudes, [0, 1, 0, 0])


def test_tensor_identity_matrices():
    np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_trace_multiplicative():
    sigma3 = np.diag([1.0, -1.0])
    assert abs(np.trace(tensor(sigma3, np.eye(3)))) < 1e-15


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        tensor(StateVector(np.array([1, 0])), np.eye(2))


# --- partial_trace -----------------------------------------------------

def test_partial_trace_bell():
    bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), split=(2, 2))
    np.testing.assert_allclose(partial_trace(bell.density(), 2, 2, "A"), np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(partial_trace(bell.density(), 2, 2, "B"), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product_state():
    state = StateVector(np.array([0, 1, 0, 0]), split=(2, 2))  # |0>_A |1>_B
    np.testing.assert_allclose(partial_trace(state.density(), 2, 2, "A"), np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(partial_trace(state.density(), 2, 2, "B"), np.diag([0.0, 1.0]), atol=1e-15)


def test_partial_trace_spectrum_matches_svd_oracle():
    for k in range(50):
        state = haar_pure(9, 2000 + k, split=(3, 3))
        rho_a = partial_trace(state.density(), 3, 3, "A")
        eigs = np.sort(np.linalg.eigvalsh(rho_a))
        np.testing.assert_allclose(eigs, schmidt_weights(state, 3, 3), atol=1e-10)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    for dA, dB in [(2, 2), (3, 3), (2, 3)]:
        rho = random_mixed(dA * dB, dA * dB, rng)
        for keep in ("A", "B"):
            out = partial_trace(rho, dA, dB, keep)
            assert abs(np.trace(out) - np.trace(rho)) <= 1e-12


def test_tensor_then_partial_trace_recovers_factor():
    rng = np.random.default_rng(12)
    rho_a = random_mixed(2, 2, rng)
    rho_b = random_mixed(3, 2, rng)
    joint = tensor(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, 2, 3, "A"), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, 2, 3, "B"), rho_b, atol=1e-12)
    # non-unit traces: the kept factor is scaled by the trace of the other
    joint = tensor(rho_a, 2.5 * rho_b)
    np.testing.assert_allclose(partial_trace(joint, 2, 3, "A"), 2.5 * rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, 2, 3, "B"), 2.5 * rho_b, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(4) / 4, 2, 3, "A")


# --- rows of the amplitude table: Gram and wedge route ----------------------

def test_slice_gram_matches_partial_trace():
    # a bipartite report measures the Gram matrix of the table's rows
    for k in range(25):
        state = haar_pure(9, 3000 + k, split=(3, 3))
        report = measure_report(state)
        reduced = measure_report(partial_trace(state.density(), 3, 3, "A"))
        assert report.dim_n == reduced.dim_n == 3
        for name in ("predictability_sq", "coherence_hs_sq", "linear_entropy_sq"):
            assert abs(getattr(report, name) - getattr(reduced, name)) <= 1e-12


def two_row_state(u, v):
    """Normalized state of split (2, k) whose amplitude table has rows u and v."""
    table = np.array([u, v], dtype=complex)
    return StateVector(table.ravel() / np.linalg.norm(table), split=table.shape)


def test_wedge_parallel_vectors():
    u = np.array([1 + 1j, 2, 3j])
    assert i_concurrence_sq(two_row_state(u, u)) == 0.0
    assert i_concurrence_sq(two_row_state(u, 2.5 * u)) <= 1e-12


def test_wedge_orthonormal_pair():
    # rows e_0 / sqrt(2), e_1 / sqrt(2): 4 * (1/2 * 1/2 - 0)
    assert i_concurrence_sq(two_row_state([1, 0, 0], [0, 1, 0])) == pytest.approx(1.0, abs=1e-15)


def test_wedge_matches_minor_expansion():
    rng = np.random.default_rng(21)
    for _ in range(100):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        norm_sq = float(np.vdot(u, u).real + np.vdot(v, v).real)
        expected = 4.0 * wedge_by_minors(u, v) / norm_sq**2
        assert abs(i_concurrence_sq(two_row_state(u, v)) - expected) <= 1e-12


finite_complex = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_complex, min_size=2, max_size=4), st.floats(0, 2 * np.pi), st.data())
def test_wedge_symmetric_and_phase_invariant(u, theta, data):
    v = data.draw(st.lists(finite_complex, min_size=len(u), max_size=len(u)))
    assume(np.linalg.norm([u, v]) >= 1e-3)
    e_sq = i_concurrence_sq(two_row_state(u, v))
    assert abs(i_concurrence_sq(two_row_state(v, u)) - e_sq) <= 1e-12
    assert abs(i_concurrence_sq(two_row_state(np.exp(1j * theta) * np.asarray(u), v)) - e_sq) <= 1e-12
    # subsystem B: the same state with its table transposed
    table = np.array([u, v], dtype=complex)
    swapped = StateVector(table.T.ravel() / np.linalg.norm(table), split=table.T.shape)
    assert abs(i_concurrence_sq(swapped) - e_sq) <= 1e-12


# --- StateVector -------------------------------------------------------

def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValidationError):
        StateVector(np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_vector_rejects_non_finite(bad):
    with pytest.raises(ValidationError):
        StateVector(np.array([bad, 0.6, 0.0]))


def test_state_vector_rejects_bad_split():
    with pytest.raises(DimensionError):
        StateVector(np.array([1, 0, 0, 0]), split=(2, 3))


def test_state_vector_immutable():
    state = StateVector(np.array([1, 0]))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


# --- JSON wire formats -------------------------------------------------

def test_matrix_json_roundtrip_preserves_order():
    m = np.array([[1, 2 + 1j], [5 - 3j, 4]], dtype=complex)
    doc = matrix_to_json(m)
    assert doc["dim"] == 2
    assert doc["re"][1][0] == 5.0 and doc["im"][1][0] == -3.0  # row-major, unconjugated
    np.testing.assert_array_equal(matrix_from_json(doc), m)


def test_state_json_roundtrip_with_split():
    state = haar_pure(4, 99, split=(2, 2))
    doc = state_to_json(state)
    back = state_from_json(doc)
    assert back.split == (2, 2)
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)


def test_state_json_without_split():
    doc = state_to_json(StateVector(np.array([1, 0])))
    assert "split" not in doc
    assert state_from_json(doc).split is None


@pytest.mark.parametrize("token", [float("nan"), float("inf")])
def test_json_readers_reject_non_finite(token):
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, token], [0, 0]]})
    with pytest.raises(ValidationError):
        state_from_json({"dim": 2, "re": [1.0, 0.0], "im": [0.0, token]})


def test_matrix_json_shape_mismatch():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})
