"""Scalar measures: predictability, coherence, polarization, entanglement, mixedness."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polco import (
    TAU_HERM,
    TAU_NORM,
    TAU_PSD,
    DimensionError,
    StateVector,
    UnsupportedDimension,
    ValidationError,
    check_mixed_triality,
    check_pct,
    coherence_hs_sq,
    concurrence_2x2,
    degree_pol_sq,
    haar_pure,
    haar_unitary,
    i_concurrence_sq,
    linear_entropy_sq,
    measure_report,
    named_state,
    partial_trace,
    predictability_sq,
    random_mixed,
    report_to_json,
    stokes_extract,
    tensor,
    validate_density,
)
import polco.linalg
import polco.measures
from polco.linalg import _shifted_cholesky_passes
from polco.measures import _as_density, _density_measures, _gram

FOUR_THIRDS = 4.0 / 3.0


def purity(rho):
    return float(np.trace(rho @ rho).real)


# --- predictability ----------------------------------------------------

def test_predictability_uniform_diagonal_is_zero():
    assert predictability_sq(np.eye(3) / 3) <= 1e-15


def test_predictability_concentrated_diagonal_is_maximal():
    assert predictability_sq(np.diag([1.0, 0.0, 0.0])) == pytest.approx(FOUR_THIRDS, abs=1e-12)


def test_predictability_qubit_diagonal():
    assert predictability_sq(np.diag([0.75, 0.25])) == pytest.approx(0.25, abs=1e-12)


def test_predictability_equals_diagonal_difference_for_qubits():
    rng = np.random.default_rng(70)
    for k in range(50):
        rho = random_mixed(2, (k % 2) + 1, rng)
        p = np.real(np.diag(rho))
        assert abs(predictability_sq(rho) - (p[0] - p[1]) ** 2) <= 1e-12


def test_predictability_stokes_form_qutrit():
    rng = np.random.default_rng(71)
    for k in range(50):
        rho = random_mixed(3, (k % 3) + 1, rng)
        s = stokes_extract(rho).components
        assert abs(predictability_sq(rho) - FOUR_THIRDS * (s[2] ** 2 + s[7] ** 2)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3))
def test_predictability_invariant_under_probability_permutations(weights):
    probs = np.array(weights) / sum(weights)
    reference = predictability_sq(np.diag(probs))
    for perm in itertools.permutations(range(3)):
        assert abs(predictability_sq(np.diag(probs[list(perm)])) - reference) <= 1e-12


# --- Hilbert-Schmidt coherence ------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_coherence_vanishes_for_diagonal(n):
    assert coherence_hs_sq(np.eye(n) / n) == 0.0


def test_coherence_uniform_qubit_superposition():
    plus = StateVector(np.array([1, 1]) / np.sqrt(2))
    assert coherence_hs_sq(plus.density()) == pytest.approx(1.0, abs=1e-12)


def test_coherence_uniform_qutrit_superposition():
    uniform = named_state("qutrit_uniform_pure")
    assert coherence_hs_sq(uniform.density()) == pytest.approx(FOUR_THIRDS, abs=1e-12)


def test_coherence_pauli_expectation_form():
    rng = np.random.default_rng(72)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    for k in range(50):
        rho = random_mixed(2, (k % 2) + 1, rng)
        expected = np.trace(rho @ sx).real ** 2 + np.trace(rho @ sy).real ** 2
        assert abs(coherence_hs_sq(rho) - expected) <= 1e-12


def test_coherence_stokes_form_qutrit():
    rng = np.random.default_rng(73)
    for k in range(50):
        rho = random_mixed(3, (k % 3) + 1, rng)
        s = stokes_extract(rho).components
        off_axis = s[0] ** 2 + s[1] ** 2 + s[3] ** 2 + s[4] ** 2 + s[5] ** 2 + s[6] ** 2
        assert abs(coherence_hs_sq(rho) - FOUR_THIRDS * off_axis) <= 1e-12


def test_coherence_invariant_under_diagonal_phases():
    rng = np.random.default_rng(74)
    for _ in range(25):
        rho = random_mixed(3, 3, rng)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        conjugated = (np.diag(phases) @ rho) @ np.diag(phases).conj().T
        assert abs(coherence_hs_sq(conjugated) - coherence_hs_sq(rho)) <= 1e-12


# --- degree of polarization ---------------------------------------------

def test_degree_pol_center_and_surface():
    assert degree_pol_sq(np.eye(2) / 2) == 0.0
    projector = haar_pure(2, 123).density()
    assert degree_pol_sq(projector) == pytest.approx(1.0, abs=1e-12)


def test_degree_pol_classical_mixture():
    rho = 0.75 * np.diag([1.0, 0.0]) + 0.25 * np.diag([0.0, 1.0])
    assert degree_pol_sq(rho) == pytest.approx(0.25, abs=1e-12)


def test_degree_pol_rejects_qutrit():
    with pytest.raises(UnsupportedDimension):
        degree_pol_sq(np.eye(3) / 3)


# --- concurrence ---------------------------------------------------------

def test_concurrence_bell_state():
    assert concurrence_2x2(named_state("bell_phi_plus")) == pytest.approx(1.0, abs=1e-15)


def test_concurrence_product_state():
    assert concurrence_2x2(named_state("product_01")) == 0.0


def test_concurrence_partially_entangled_against_purity_oracle():
    state = StateVector(np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)]), split=(2, 2))
    value = concurrence_2x2(state)
    assert value == pytest.approx(0.8, abs=1e-12)
    rho_a = partial_trace(state.density(), 2, 2, "A")
    assert value == pytest.approx(np.sqrt(2 * (1 - purity(rho_a))), abs=1e-12)


def test_concurrence_needs_two_qubit_split():
    with pytest.raises(DimensionError):
        concurrence_2x2(StateVector(np.array([1, 0, 0, 0])))
    with pytest.raises(DimensionError):
        concurrence_2x2(haar_pure(9, 1, split=(3, 3)))


# --- I-concurrence -------------------------------------------------------

def test_i_concurrence_maximally_entangled_qutrits():
    assert i_concurrence_sq(named_state("qutrit_max_entangled")) == pytest.approx(
        FOUR_THIRDS, abs=1e-12
    )


def test_i_concurrence_separable_state():
    product = tensor(haar_pure(3, 5), haar_pure(3, 6))
    assert i_concurrence_sq(product) <= 1e-12


def test_i_concurrence_reduces_to_concurrence_on_qubits():
    for k in range(100):
        state = haar_pure(4, 8000 + k, split=(2, 2))
        assert abs(i_concurrence_sq(state) - concurrence_2x2(state) ** 2) <= 1e-12


def test_i_concurrence_matches_purity_oracle():
    # wedge-product path vs reduced-state purity, two independent routes
    for k in range(500):
        state = haar_pure(9, 9000 + k, split=(3, 3))
        rho_a = partial_trace(state.density(), 3, 3, "A")
        assert abs(i_concurrence_sq(state) - 2 * (1 - purity(rho_a))) <= 1e-10


def test_i_concurrence_subsystem_symmetric():
    for k in range(50):
        state = haar_pure(9, 9500 + k, split=(3, 3))
        swapped = StateVector(state.amplitudes.reshape(3, 3).T.reshape(-1), split=(3, 3))
        assert abs(i_concurrence_sq(state) - i_concurrence_sq(swapped)) <= 1e-10
        rho_b = partial_trace(state.density(), 3, 3, "B")
        assert abs(i_concurrence_sq(state) - 2 * (1 - purity(rho_b))) <= 1e-10


def test_i_concurrence_general_split():
    # formula is split-agnostic: check a 2x3 split against the purity oracle
    for k in range(50):
        state = haar_pure(6, 9800 + k, split=(2, 3))
        rho_a = partial_trace(state.density(), 2, 3, "A")
        assert abs(i_concurrence_sq(state) - 2 * (1 - purity(rho_a))) <= 1e-10


@pytest.mark.parametrize("split", [(1, 1), (1, 2), (1, 3)])
def test_i_concurrence_of_a_one_row_split_is_zero(split):
    # one row has no pairs: the empty wedge sum is 0, a product state's value
    amplitudes = np.arange(1.0, split[1] + 1.0)
    state = StateVector(amplitudes / np.linalg.norm(amplitudes), split=split)
    assert i_concurrence_sq(state) == 0.0


def test_i_concurrence_needs_split():
    with pytest.raises(DimensionError):
        i_concurrence_sq(haar_pure(4, 1))


@pytest.mark.parametrize("split", [(2, 2), (3, 3), (2, 5), (3, 4)])
@pytest.mark.parametrize("count", [None, 1, 2, 17, 1024])
def test_gram_equals_the_broadcast_sum_bit_for_bit(split, count):
    # in-order column sums equal numpy's reduction over a short last axis
    # (dB <= 3); from dB = 4 on they are one more rounding of the same sum
    rng = np.random.default_rng(split[1] * 7 + (count or 0))
    shape = split if count is None else (count, *split)
    table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    broadcast_sum = (table[..., :, None, :] * table.conj()[..., None, :, :]).sum(axis=-1)
    if count is not None:  # _gram takes and gives stacks with the stack axis last
        table, broadcast_sum = np.moveaxis(table, 0, -1), np.moveaxis(broadcast_sum, 0, -1)
    if split[1] <= 3:
        assert _gram(table).tobytes() == broadcast_sum.tobytes()
    else:
        np.testing.assert_allclose(_gram(table), broadcast_sum, rtol=0, atol=1e-14 * np.abs(table).max() ** 2)


def _wedge_sum_mismatches():
    """Gram matrices of tables scaled to traces 0.3 and 7 on which
    ``measures._wedge_sum`` misses the explicit pair loop 4 sum_{i<j} (G_ii G_jj - |G_ij|^2).

    Off unit trace the wedge route and the purity rewrite 2 (1 - Tr G^2) part, so
    this guard keeps E^2 on the wedge route.  2 ((tr G)^2 - Tr G^2) is an equivalent
    mutant that it cannot kill: by the Lagrange identity it is the pair loop."""
    mismatches = []
    for split in [(2, 2), (3, 3), (2, 3), (3, 2), (2, 5)]:
        for k in range(10):
            amplitudes = haar_pure(split[0] * split[1], 4100 + k, split=split).amplitudes.reshape(split)
            for trace in (0.3, 7.0):
                gram = _gram(np.sqrt(trace) * amplitudes)
                n = split[0]
                expected = 4.0 * sum(
                    (gram[i, i] * gram[j, j]).real - abs(gram[i, j]) ** 2 for i in range(n) for j in range(i + 1, n)
                )
                got = float(polco.measures._wedge_sum(gram))
                if not abs(got - expected) <= 1e-12 * trace**2:
                    mismatches.append((split, k, trace, got, expected))
    return mismatches


def test_the_wedge_sum_is_the_pair_loop_off_unit_trace():
    assert _wedge_sum_mismatches() == []


def test_the_purity_rewrite_of_the_wedge_sum_is_caught(monkeypatch):
    def purity_rewrite(gram):
        return 2.0 * (1.0 - np.einsum("...ij,...ji->...", gram, gram).real)

    monkeypatch.setattr(polco.measures, "_wedge_sum", purity_rewrite)
    assert len(_wedge_sum_mismatches()) == 5 * 10 * 2


# --- linear entropy ------------------------------------------------------

def test_linear_entropy_pure_projector():
    assert linear_entropy_sq(haar_pure(3, 77).density()) <= 1e-12


def test_linear_entropy_maximally_mixed():
    assert linear_entropy_sq(np.eye(3) / 3) == pytest.approx(1.0, abs=1e-12)


def test_linear_entropy_rank_two_qutrit():
    assert linear_entropy_sq(np.diag([0.5, 0.5, 0.0])) == pytest.approx(0.75, abs=1e-12)


def test_linear_entropy_determinant_form_for_qubits():
    rng = np.random.default_rng(80)
    for k in range(50):
        rho = random_mixed(2, (k % 2) + 1, rng)
        assert abs(linear_entropy_sq(rho) - 4 * np.linalg.det(rho).real) <= 1e-12


def test_linear_entropy_unitarily_invariant():
    rng = np.random.default_rng(81)
    for k in range(25):
        rho = random_mixed(3, (k % 3) + 1, rng)
        u = haar_unitary(3, rng)
        assert abs(linear_entropy_sq(u @ rho @ u.conj().T) - linear_entropy_sq(rho)) <= 1e-10


def test_linear_entropy_rejects_invalid_density():
    with pytest.raises(ValidationError):
        linear_entropy_sq(np.diag([1.1, -0.1]))


def test_linear_entropy_needs_dim_two():
    # a 1 x 1 density matrix is valid, but d / (d - 1) has no value at d = 1
    with pytest.raises(UnsupportedDimension, match="dim >= 2"):
        linear_entropy_sq(np.ones((1, 1)))


# --- stacks ------------------------------------------------------------------

def stack_last(mats):
    """A ``(..., n, n)`` stack of matrices as the kernels take it, ``(n, n, ...)``: a view."""
    return np.moveaxis(mats, (-2, -1), (0, 1))


BAD_MATRICES = {
    "non-psd": np.diag([1.2, -0.2, 0.0]),
    "non-hermitian": np.array([[0.5, 0.3, 0], [0, 0.5, 0], [0, 0, 0]]),
    "nan": np.diag([0.5, np.nan, 0.5]),
}


@pytest.mark.parametrize("kind", sorted(BAD_MATRICES))
@pytest.mark.parametrize("k", [0, 4, 6])
def test_stack_raises_the_error_of_its_bad_matrix(kind, k):
    stack = np.stack([random_mixed(3, i % 3 + 1, i) for i in range(7)])
    stack[k] = BAD_MATRICES[kind]
    expected = "; ".join(validate_density(stack[k], require_unit_trace=False).messages)
    with pytest.raises(ValidationError) as caught:
        _density_measures(stack_last(stack.reshape(7, 1, 3, 3)))
    assert str(caught.value) == expected


@pytest.mark.parametrize("first,second", [("nan", "non-psd"), ("non-psd", "nan")])
def test_stack_reports_its_first_bad_matrix(first, second):
    stack = np.stack([np.eye(3) / 3] * 5)
    stack[1], stack[3] = BAD_MATRICES[first], BAD_MATRICES[second]
    expected = "; ".join(validate_density(stack[1], require_unit_trace=False).messages)
    with pytest.raises(ValidationError) as caught:
        _density_measures(stack_last(stack))
    assert str(caught.value) == expected


def matrix_of_kind(kind, n, seed):
    """A random n x n matrix that is, or misses being, a density matrix in one way."""
    rng = np.random.default_rng(seed)
    m = random_mixed(n, int(rng.integers(1, n + 1)), rng)
    if kind == "scaled":
        return m * 10 ** rng.uniform(-3, 3)
    if kind == "within-psd-slack":  # eigenvalues down to -5e-11 pass the PSD check
        return m - 5e-11 * np.eye(n)
    if kind == "non-hermitian":
        m[0, n - 1] += 1e-6
    elif kind == "non-psd":
        m -= 0.5 * np.eye(n)
    elif kind == "small-trace":
        m *= 1e-11
    elif kind == "zero-trace":
        m *= 0.0
    elif kind == "negated":
        m = -m
    elif kind == "non-finite":
        m[int(rng.integers(n)), int(rng.integers(n))] = [np.nan, np.inf, complex(0, -np.inf)][int(rng.integers(3))]
    return m


MATRIX_KINDS = ("good", "scaled", "within-psd-slack", "non-hermitian", "non-psd", "small-trace",
                "zero-trace", "negated", "non-finite")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]), st.lists(st.sampled_from(MATRIX_KINDS), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_stack_is_accepted_iff_each_matrix_validates(n, kinds, seed):
    mats = [matrix_of_kind(kind, n, seed + i) for i, kind in enumerate(kinds)]
    reports = [validate_density(m, require_unit_trace=False) for m in mats]
    passing = [r.ok and r.trace.real > TAU_NORM for r in reports]
    if all(passing):
        np.testing.assert_array_equal(_as_density(stack_last(np.stack(mats))), np.stack([_as_density(m) for m in mats], axis=-1))
        return
    first = reports[passing.index(False)]
    # a matrix's own message: its report's faults, or its trace when only that fails
    expected = "; ".join(first.messages) or f"trace {first.trace!r} is not positive"
    with pytest.raises(ValidationError) as caught:
        _as_density(stack_last(np.stack(mats)))
    assert str(caught.value) == expected


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of the stacks ``np.linalg.eigvalsh`` diagonalizes."""
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def _outcome(stack):
    """An ``(n, n, ...)`` stack's normalized bytes, or the message of the ValidationError it raises."""
    try:
        return _as_density(stack, dims=None).tobytes()
    except ValidationError as error:
        return str(error)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("floor", [-1.01, -0.99, -0.505, -0.495])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_the_cholesky_gate_decides_as_eigvalsh(eigvalsh_calls, monkeypatch, n, floor, scale):
    # least eigenvalue floor * TAU_PSD, on both sides of the PSD floor -TAU_PSD and
    # of the gate's shift TAU_PSD / 2; the reference is the same stack with the gate off
    rng = np.random.default_rng(n)
    stacks = []
    for _ in range(50):
        eigenvalues = np.concatenate([[floor * TAU_PSD], scale * rng.uniform(0.1, 1.0, n - 1)])
        u = haar_unitary(n, rng)
        stacks.append(np.stack([np.eye(n) / n, (u * eigenvalues) @ u.conj().T, np.eye(n) / n]))
    stacks = [stack_last(stack) for stack in stacks]
    gated = [_outcome(stack) for stack in stacks]
    assert all(isinstance(outcome, str) == (floor < -1) for outcome in gated)
    if scale == 1.0:  # the gate passes a stack exactly when its shift clears the floor
        assert len(eigvalsh_calls) == (0 if floor > -0.5 else len(stacks))

    monkeypatch.setattr(polco.linalg, "_shifted_cholesky_passes", lambda m: False)
    calls = len(eigvalsh_calls)
    assert [_outcome(stack) for stack in stacks] == gated
    assert len(eigvalsh_calls) == calls + len(stacks)


def _hermitian_near_the_shift(rng, n, count, sign):
    """Hermitian n x n matrices whose least eigenvalue is -(TAU_PSD / 2)(1 + sign * delta),
    delta in [0.1 %, 1 %]: the shifted matrix H + (TAU_PSD / 2) I is definite for sign -1
    and indefinite for sign +1 by far more than a factorization's rounding."""
    out = []
    for _ in range(count):
        delta = float(rng.uniform(1e-3, 1e-2))
        eigenvalues = np.concatenate([[-TAU_PSD / 2.0 * (1.0 + sign * delta)], rng.uniform(0.1, 1.0, n - 1)])
        u = haar_unitary(n, rng)
        h = (u * eigenvalues) @ u.conj().T
        out.append((h + h.conj().T) / 2.0)
    return np.stack(out)


def _lapack_cholesky_passes(h):
    try:
        np.linalg.cholesky(h + np.eye(h.shape[-1]) * (TAU_PSD / 2.0))
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("n", range(1, 10))
def test_the_column_cholesky_decides_as_lapack(n):
    rng = np.random.default_rng(100 + n)
    definite = _hermitian_near_the_shift(rng, n, 20, -1.0)
    mixed = np.concatenate([definite[:10], _hermitian_near_the_shift(rng, n, 20, +1.0)])
    rng.shuffle(mixed)
    for h in mixed:
        assert _shifted_cholesky_passes(stack_last(h[None])) == _lapack_cholesky_passes(h)
    assert sum(map(_lapack_cholesky_passes, mixed)) == 10
    assert _shifted_cholesky_passes(stack_last(definite)) and all(map(_lapack_cholesky_passes, definite))
    assert not _shifted_cholesky_passes(stack_last(mixed))


@pytest.mark.parametrize("part,calls,hermitian", [(0.4, 0, True), (0.6, 1, True), (0.8, 1, False)])
def test_the_gate_bounds_each_part_of_the_hermitian_defect_by_half_its_tolerance(
    eigvalsh_calls, part, calls, hermitian
):
    # one entry of M - M^dagger is part * (1 + i) TAU_HERM, a defect of sqrt(2) part TAU_HERM
    stack = np.stack([random_mixed(3, 3, i) for i in range(7)])
    stack[4, 0, 1] += part * (1 + 1j) * TAU_HERM
    if hermitian:
        _as_density(stack_last(stack))
    else:
        with pytest.raises(ValidationError, match="not Hermitian"):
            _as_density(stack_last(stack))
    assert len(eigvalsh_calls) == calls


def test_the_gate_takes_no_stack_above_its_trace_bound(eigvalsh_calls):
    # the gate's proof needs n (n + 1) u tr H < TAU_PSD / 4: tr H < 1.876e4 at n = 3
    bound = TAU_PSD / (4.0 * 3 * 4 * (np.finfo(float).eps / 2.0))
    assert 1.87e4 < bound < 1.88e4
    stack = np.stack([random_mixed(3, 3, i) for i in range(7)])
    for scale, calls in [(1e3, 0), (1.86e4, 0), (1.89e4, 1), (1e6, 1)]:
        eigvalsh_calls.clear()
        np.testing.assert_allclose(_as_density(stack_last(scale * stack)), stack_last(stack), rtol=0, atol=1e-14)
        assert len(eigvalsh_calls) == calls, scale


@pytest.mark.parametrize("kind", ["good", *sorted(BAD_MATRICES)])
def test_eigvalsh_runs_only_to_name_a_failure_or_report(eigvalsh_calls, kind):
    stack = np.stack([random_mixed(3, i % 3 + 1, i) for i in range(7)])
    if kind == "good":
        _as_density(stack_last(stack))
    else:
        stack[4] = BAD_MATRICES[kind]
        with pytest.raises(ValidationError):
            _as_density(stack_last(stack))
    assert eigvalsh_calls == ([] if kind == "good" else [(7, 3, 3)])
    validate_density(stack[4])
    assert len(eigvalsh_calls) == (1 if kind == "good" else 2)


@pytest.mark.parametrize("kind", ["good", *sorted(BAD_MATRICES)])
def test_the_gate_takes_a_strided_or_broadcast_stack_as_its_contiguous_copy(kind):
    # the gate reads the Hermitian defect's real and imaginary parts apart, so it needs no
    # contiguous last axis; a float64 view of M - M^dagger raised ValueError on these stacks
    mats = np.stack([random_mixed(3, i % 3 + 1, i) for i in range(7)])
    if kind != "good":
        mats[4] = BAD_MATRICES[kind]
    views = [
        stack_last(mats),  # the stack axis outermost in memory
        stack_last(mats)[..., ::2],  # every other sample, the bad one among them
        np.broadcast_to(stack_last(mats[4:5]), (3, 3, 6)),  # one matrix, a stride of 0
        stack_last(mats).swapaxes(0, 1).conj(),  # the adjoints
    ]
    for view in views:
        assert not view.flags.c_contiguous
        assert _outcome(view) == _outcome(np.ascontiguousarray(view))
    assert isinstance(_outcome(views[2]), str) == (kind != "good")


@pytest.mark.parametrize("kind", ["good", "non-psd"])
@pytest.mark.parametrize("shape", [(), (1,), (7,), (7, 1)])
def test_the_gate_runs_on_stacks_only_and_before_eigvalsh(monkeypatch, kind, shape):
    # on one matrix the gate costs more than the eigvalsh it would spare
    calls = []
    for owner, name in ((polco.linalg, "_shifted_cholesky_passes"), (np.linalg, "eigvalsh")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, f=original: calls.append(name) or f(*args))
    stack = np.tile(np.eye(3) / 3 if kind == "good" else BAD_MATRICES[kind], (*shape, 1, 1)) + 0j
    if kind == "good":
        _as_density(stack_last(stack))
    else:
        with pytest.raises(ValidationError):
            _as_density(stack_last(stack))
    gate = [] if shape == () else ["_shifted_cholesky_passes"]
    assert calls == gate + ([] if gate and kind == "good" else ["eigvalsh"])


# --- global phase and report ----------------------------------------------

def test_measures_invariant_under_global_phase():
    state = haar_pure(4, 321, split=(2, 2))
    rotated = StateVector(np.exp(1j * 0.7) * state.amplitudes, split=(2, 2))
    assert concurrence_2x2(rotated) == pytest.approx(concurrence_2x2(state), abs=1e-14)
    assert i_concurrence_sq(rotated) == pytest.approx(i_concurrence_sq(state), abs=1e-14)
    rho_a = partial_trace(state.density(), 2, 2, "A")
    rho_a_rot = partial_trace(rotated.density(), 2, 2, "A")
    assert predictability_sq(rho_a_rot) == pytest.approx(predictability_sq(rho_a), abs=1e-14)
    assert coherence_hs_sq(rho_a_rot) == pytest.approx(coherence_hs_sq(rho_a), abs=1e-14)


def test_measure_report_bipartite_qubits():
    report = measure_report(named_state("bell_phi_plus"))
    assert report.dim_n == 2
    assert report.entanglement_sq == pytest.approx(1.0, abs=1e-12)
    assert report.predictability_sq == 0.0
    assert report.coherence_hs_sq == 0.0
    assert report.linear_entropy_sq == pytest.approx(1.0, abs=1e-12)
    assert report.degree_pol_sq == pytest.approx(0.0, abs=1e-12)


def test_measure_report_matrix_input():
    report = measure_report(np.eye(3) / 3)
    assert report.dim_n == 3
    assert report.entanglement_sq is None
    assert report.degree_pol_sq is None
    assert report.linear_entropy_sq == pytest.approx(1.0, abs=1e-12)


def test_measure_report_bounds_and_raw_metadata():
    rng = np.random.default_rng(90)
    for k in range(30):
        report = measure_report(random_mixed(2, (k % 2) + 1, rng))
        assert 0.0 <= report.predictability_sq <= 1.0 + 1e-12
        assert 0.0 <= report.coherence_hs_sq <= 1.0 + 1e-12
        assert 0.0 <= report.degree_pol_sq <= 1.0 + 1e-12
        # raw keeps the unclamped value; the public field clamps tiny negatives
        assert report.raw["linear_entropy_sq"] <= report.linear_entropy_sq
        assert abs(report.raw["linear_entropy_sq"] - report.linear_entropy_sq) <= 1e-12
    report = measure_report(haar_pure(9, 4, split=(3, 3)))
    assert report.dim_n == 3
    assert report.predictability_sq <= FOUR_THIRDS + 1e-12
    assert report.coherence_hs_sq <= FOUR_THIRDS + 1e-12
    assert report.input_hash


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data(), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_intensity_scaling_leaves_measures_and_checks_unchanged(dim, data, seed, c):
    rank = data.draw(st.integers(1, dim))
    rho = random_mixed(dim, rank, seed)
    base, scaled = measure_report(rho), measure_report(c * rho)
    for key, value in base.raw.items():
        assert scaled.raw[key] == pytest.approx(value, abs=1e-12), key
    checks = [check_mixed_triality] + ([check_pct] if dim == 2 else [])
    for check in checks:
        a, b = check(rho), check(c * rho)
        assert (b.lhs, b.rhs, b.residual) == pytest.approx((a.lhs, a.rhs, a.residual), abs=1e-12)
        assert b.passed


def test_report_json_carries_tolerances_and_hash():
    doc = report_to_json(measure_report(named_state("bell_phi_plus")))
    assert doc["tolerances"]["tau_num"] == 1e-12
    assert doc["input_hash"]
    assert doc["raw"]["entanglement_sq"] == pytest.approx(1.0, abs=1e-12)
