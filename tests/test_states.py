"""State constructors and seeded random generators."""

import numpy as np
import pytest

from polco import (
    BeamSpec,
    DegenerateInput,
    DimensionError,
    PreconditionError,
    UnknownState,
    beam_to_state,
    concurrence_2x2,
    haar_pure,
    haar_unitary,
    i_concurrence_sq,
    linear_entropy_sq,
    named_state,
    named_state_names,
    partial_trace,
    predictability_sq,
    random_mixed,
    state_to_json,
)
from polco.states import _haar_rows, _mixed_from, _unitaries


# --- beam mapping --------------------------------------------------------

def test_beam_basis_coefficients():
    state = beam_to_state(BeamSpec(1, 0, 0, 0))
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])
    assert state.split == (2, 2)


def test_beam_bell_coefficients():
    state = beam_to_state(BeamSpec(1, 0, 0, 1))
    assert concurrence_2x2(state) == pytest.approx(1.0, abs=1e-15)


def test_beam_uniform_coefficients_are_separable():
    state = beam_to_state(BeamSpec(1, 1, 1, 1))
    assert concurrence_2x2(state) == 0.0


def test_beam_normalizes_input():
    state = beam_to_state(BeamSpec(3, 0, 0, 4j))
    np.testing.assert_allclose(state.amplitudes, [0.6, 0, 0, 0.8j])


def test_beam_rejects_all_zero():
    with pytest.raises(DegenerateInput):
        beam_to_state(BeamSpec(0, 0, 0, 0))


def test_beam_density_matches_slice_gram():
    # the reduced matrix is the Gram matrix of the table's rows (a, b), (c, d),
    # and E^2 on the wedge route is 2 (1 - Tr phi^2) by the Lagrange identity
    rng = np.random.default_rng(100)
    for _ in range(20):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = beam_to_state(BeamSpec(*coeffs))
        phi = partial_trace(state.density(), 2, 2, "A")
        rows = state.amplitudes.reshape(2, 2)
        np.testing.assert_allclose(rows @ rows.conj().T, phi, atol=1e-12)
        purity = float(np.trace(phi @ phi).real)
        assert abs(i_concurrence_sq(state) - 2.0 * (1.0 - purity)) <= 1e-12


def test_beam_separability_iff_parallel_slices():
    rng = np.random.default_rng(101)
    for _ in range(20):
        # parallel slices: second row a scalar multiple of the first
        row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        factor = complex(rng.standard_normal() + 1j * rng.standard_normal())
        state = beam_to_state(BeamSpec(row[0], row[1], factor * row[0], factor * row[1]))
        assert concurrence_2x2(state) <= 1e-12
        assert i_concurrence_sq(state) <= 1e-12
        assert np.linalg.eigvalsh(partial_trace(state.density(), 2, 2, "A"))[0] <= 1e-12
    for _ in range(20):
        # generic coefficients: almost surely inseparable
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = beam_to_state(BeamSpec(*coeffs))
        if concurrence_2x2(state) <= 1e-12:
            assert i_concurrence_sq(state) <= 1e-12
        else:
            assert i_concurrence_sq(state) == pytest.approx(concurrence_2x2(state) ** 2, abs=1e-12)
            assert i_concurrence_sq(state) > 0.0


# --- named states --------------------------------------------------------

def test_named_qutrit_max_entangled():
    state = named_state("qutrit_max_entangled")
    expected = np.array([1, 0, 0, 0, 1, 0, 0, 0, 1]) / np.sqrt(3)
    np.testing.assert_allclose(state.amplitudes, expected)
    assert state.split == (3, 3)


def test_named_bell():
    np.testing.assert_allclose(
        named_state("bell_phi_plus").amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2)
    )


def test_named_qutrit_uniform_has_zero_predictability():
    state = named_state("qutrit_uniform_pure")
    assert state.split is None and state.dim == 3
    assert predictability_sq(state.density()) <= 1e-15


def test_named_unknown():
    with pytest.raises(UnknownState):
        named_state("bogus")


def test_named_registry_all_constructible():
    for name in named_state_names():
        state = named_state(name)
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) <= 1e-12


# --- Haar-random pure states ----------------------------------------------

def test_haar_pure_normalized():
    for dim in (2, 3, 4, 9):
        state = haar_pure(dim, 1234)
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) <= 1e-12


def test_haar_pure_deterministic():
    a = haar_pure(4, 42, split=(2, 2))
    b = haar_pure(4, 42, split=(2, 2))
    assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
    assert state_to_json(a) == state_to_json(b)
    c = haar_pure(4, 43)
    assert a.amplitudes.tobytes() != c.amplitudes.tobytes()


def test_haar_pure_rejects_dim_one():
    with pytest.raises(DimensionError):
        haar_pure(1, 0)


@pytest.mark.parametrize("dim", [0, -1, 2.5, 3.0, True, "3"])
def test_haar_pure_rejects_non_integer_or_small_dim(dim):
    with pytest.raises(DimensionError):
        haar_pure(dim, 0)


def test_haar_qubit_bloch_axis_unbiased():
    # S3 of a Haar qubit is uniform on [-1, 1]: mean 0, variance 1/3
    n = 10_000
    streams = np.random.SeedSequence(2024).spawn(n)
    values = np.empty(n)
    for i, stream in enumerate(streams):
        amp = haar_pure(2, np.random.default_rng(stream)).amplitudes
        values[i] = abs(amp[0]) ** 2 - abs(amp[1]) ** 2
    assert abs(values.mean()) < 3 * np.sqrt(1 / 3 / n)


def test_haar_distribution_invariant_under_fixed_unitary():
    # overlap with any fixed direction has mean 1/dim (here: dim 2)
    n = 10_000
    fixed = haar_unitary(2, 777)[:, 0]
    streams = np.random.SeedSequence(2025).spawn(n)
    raw = np.empty(n)
    rotated = np.empty(n)
    for i, stream in enumerate(streams):
        amp = haar_pure(2, np.random.default_rng(stream)).amplitudes
        raw[i] = abs(amp[0]) ** 2
        rotated[i] = abs(np.vdot(fixed, amp)) ** 2
    sigma = np.sqrt(1 / 12 / n)  # |overlap|^2 ~ Uniform(0, 1) for dim 2
    assert abs(raw.mean() - 0.5) < 3 * sigma
    assert abs(rotated.mean() - 0.5) < 3 * sigma


# --- Haar unitaries --------------------------------------------------------

def test_haar_unitary_is_unitary():
    for dim in (2, 3, 9):
        u = haar_unitary(dim, 55)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


@pytest.mark.parametrize("dim", [0, -1, 2.5, 2.0, True, None])
def test_haar_unitary_rejects_bad_dim(dim):
    with pytest.raises(DimensionError):
        haar_unitary(dim, 0)


def _ginibre(n, count, seed):
    g = np.random.default_rng(seed).standard_normal((2, count, n, n))
    return (g[0] + 1j * g[1]) / np.sqrt(2.0)


@pytest.mark.parametrize("n", range(1, 10))
def test_a_frame_has_the_same_bits_in_any_stack_and_at_any_width(n):
    # random_mixed builds one matrix's first `rank` columns, a campaign a stack's
    z = _ginibre(n, 300, n)
    for width in range(1, n + 1):
        stack = _unitaries(z, width)
        assert stack.shape == (300, n, width)
        assert stack.tobytes() == _unitaries(z)[..., :width].copy().tobytes()
        for i in range(300):
            assert _unitaries(z[i], width).tobytes() == stack[i].tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_frames_are_orthonormal_to_working_precision(n):
    u = _unitaries(_ginibre(n, 1000, 100 + n))
    defect = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(n), ord=2, axis=(-2, -1))
    assert defect.max() <= 4e-15


@pytest.mark.parametrize("n", range(1, 10))
def test_frames_are_the_phase_fixed_q_of_qr(n):
    # Gram-Schmidt is QR with a positive real R diagonal: Q times the unit phase of
    # each r_kk (Mezzadri, Notices AMS 54, 592 (2007)), so the law is Haar
    z = _ginibre(n, 1000, 200 + n)
    q, r = np.linalg.qr(z)
    diag = r.diagonal(0, -2, -1)
    np.testing.assert_allclose(_unitaries(z), q * (diag / np.abs(diag))[..., None, :], rtol=0, atol=1e-13)


# --- random mixed states ----------------------------------------------------

def test_random_mixed_rank_one_is_pure():
    rho = random_mixed(3, 1, 9)
    assert linear_entropy_sq(rho) <= 1e-10


def test_random_mixed_equal_weights_full_rank_is_maximally_mixed():
    for dim in (2, 3):
        rho = random_mixed(dim, dim, 10, equal_weights=True)
        np.testing.assert_allclose(rho, np.eye(dim) / dim, atol=1e-12)


def test_random_mixed_validation_campaign():
    streams = np.random.SeedSequence(303).spawn(500)
    for i, stream in enumerate(streams):
        rho = random_mixed(3, (i % 3) + 1, np.random.default_rng(stream))
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() >= -1e-10
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


def test_random_mixed_has_exact_rank():
    rng = np.random.default_rng(304)
    for dim, rank in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        rho = random_mixed(dim, rank, rng)
        eigs = np.linalg.eigvalsh(rho)
        assert int(np.sum(eigs > 1e-10)) == rank


def test_random_mixed_deterministic():
    assert random_mixed(3, 2, 77).tobytes() == random_mixed(3, 2, 77).tobytes()


def test_random_mixed_rejects_bad_rank():
    with pytest.raises(DimensionError):
        random_mixed(3, 4, 0)
    with pytest.raises(DimensionError):
        random_mixed(3, 0, 0)


@pytest.mark.parametrize("dim,rank", [(2, 1.5), (2, 1.0), (2, True), (2.5, 1), (0, 1), (True, 1)])
def test_random_mixed_rejects_non_integer_dim_or_rank(dim, rank):
    with pytest.raises(DimensionError):
        random_mixed(dim, rank, 0)


def _dirichlet_route(dim, rank, rng, equal_weights=False):
    """random_mixed as drawn before the exponential weights: two normal draws,
    then ``Generator.dirichlet``; the unitary and projector build is shared."""
    re = rng.standard_normal((dim, dim))
    im = rng.standard_normal((dim, dim))
    z = (re + 1j * im) / np.sqrt(2.0)
    weights = np.full(rank, 1.0 / rank) if equal_weights else rng.dirichlet(np.ones(rank))
    return _mixed_from(_unitaries(z), weights)


@pytest.mark.parametrize("equal_weights", [False, True])
def test_random_mixed_equals_the_dirichlet_route_bit_for_bit(equal_weights):
    # dims 1..9 reach the ranks (8 and up) where np.sum's pairwise order rounds differently
    for dim in range(1, 10):
        for rank in range(1, dim + 1):
            for seed in range(100):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = random_mixed(dim, rank, ours, equal_weights=equal_weights)
                assert got.tobytes() == _dirichlet_route(dim, rank, theirs, equal_weights).tobytes()
                assert ours.bit_generator.state == theirs.bit_generator.state
                assert ours.standard_normal() == theirs.standard_normal()


@pytest.mark.parametrize("dim", range(1, 17))
def test_stacked_haar_norm_equals_np_linalg_norm_bit_for_bit(dim):
    # campaigns normalize a chunk's rows with two stacked matmuls; rows far
    # from unit norm, near the overflow and underflow of their squares, too
    rng = np.random.default_rng(dim)
    z = (rng.standard_normal((240, dim)) + 1j * rng.standard_normal((240, dim))) / np.sqrt(2.0)
    z *= np.repeat([1.0, 1e3, 1e-3, 1e150, 1e-150], 48)[:, None]
    expected = np.stack([row / np.linalg.norm(row) for row in z])
    assert _haar_rows(z).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(2, 3), (2, 9), (2, 3, 3)])
def test_drawing_into_a_buffer_row_draws_the_samplers_bits(shape):
    # a campaign draws a chunk's buffers in one call per stream: row i holds
    # the bits of the i-th draw of one sample's size
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    normals, weights = ours.standard_normal((4, *shape)), ours.standard_exponential((4, 3))
    assert normals.tobytes() == b"".join(theirs.standard_normal(shape).tobytes() for _ in range(4))
    assert weights.tobytes() == b"".join(theirs.standard_exponential(3).tobytes() for _ in range(4))
    assert ours.bit_generator.state == theirs.bit_generator.state


# --- seeds ----------------------------------------------------------------

@pytest.mark.parametrize("seed", [True, False, -1, 1.5, 2.0, np.float64(3.0), "3", None, [1, 2]])
def test_samplers_reject_a_bool_negative_or_non_integer_seed(seed):
    # True once ran seed 1; -1 and 1.5 escaped as numpy's own ValueError / TypeError
    for sample in (lambda: haar_pure(2, seed), lambda: random_mixed(2, 2, seed), lambda: haar_unitary(2, seed)):
        with pytest.raises(PreconditionError, match="seed must be an integer >= 0"):
            sample()


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(7), 2**70 + 1])
def test_samplers_take_integer_seeds_as_default_rng_does(seed):
    expected = haar_pure(3, np.random.default_rng(int(seed))).amplitudes
    assert haar_pure(3, seed).amplitudes.tobytes() == expected.tobytes()
    assert haar_pure(3, np.random.SeedSequence(int(seed))).amplitudes.tobytes() == expected.tobytes()
