"""Relation checks and sampling campaigns."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polco.linalg
import polco.measures
import polco.relations
import polco.states
from polco import (
    DimensionError,
    PolcoError,
    PreconditionError,
    StateVector,
    UnknownRelation,
    UnsupportedDimension,
    ValidationError,
    check_duality_pure,
    check_mixed_triality,
    check_pct,
    check_pure_stokes_geometry,
    check_qubit_triality_pure,
    check_qutrit_triality_pure,
    coherence_hs_sq,
    concurrence_2x2,
    degree_pol_sq,
    haar_pure,
    haar_unitary,
    named_state,
    partial_trace,
    predictability_sq,
    random_mixed,
    relation_ids,
    run_campaign,
    summary_to_json,
    tensor,
    verdict_to_json,
)
from polco.states import CHUNK

FOUR_THIRDS = 4.0 / 3.0
# Campaign tests run at this chunk size: n = chunk + 5 and 2 * chunk + 5 cross one
# and two chunk boundaries, as at the real CHUNK, in a fraction of the samples.
SMALL_CHUNK = 16


# --- duality ---------------------------------------------------------------

def test_duality_qubit_basis_state():
    verdict = check_duality_pure(StateVector(np.array([1, 0])))
    assert verdict.relation_id == "qubit-duality"
    assert verdict.lhs == pytest.approx(1.0, abs=1e-15)
    assert verdict.rhs == 1.0 and verdict.passed


def test_duality_uniform_qutrit_is_all_coherence():
    state = named_state("qutrit_uniform_pure")
    verdict = check_duality_pure(state)
    assert verdict.rhs == pytest.approx(FOUR_THIRDS)
    assert verdict.passed
    assert predictability_sq(state.density()) <= 1e-15


def test_duality_campaign_qutrit():
    summary = run_campaign("qutrit-duality", 1000, seed=1)
    assert summary.failures == 0
    assert summary.max_residual < 1e-10


def test_duality_rejects_matrix_and_split_inputs():
    with pytest.raises(PreconditionError):
        check_duality_pure(np.eye(2) / 2)
    with pytest.raises(PreconditionError):
        check_duality_pure(named_state("bell_phi_plus"))


# --- polarization-coherence theorem ------------------------------------------

def test_pct_maximally_mixed():
    verdict = check_pct(np.eye(2) / 2)
    assert verdict.lhs == 0.0 and verdict.rhs == 0.0 and verdict.passed


def test_pct_classical_mixture():
    verdict = check_pct(np.diag([0.75, 0.25]))
    assert verdict.lhs == pytest.approx(0.25, abs=1e-12)
    assert verdict.rhs == pytest.approx(0.25, abs=1e-12)


def test_pct_campaign():
    summary = run_campaign("pct", 1000, seed=2)
    assert summary.failures == 0
    assert summary.max_residual < 1e-10


# --- qubit triality ----------------------------------------------------------

def test_qubit_triality_bell():
    verdict = check_qubit_triality_pure(named_state("bell_phi_plus"))
    assert verdict.lhs == pytest.approx(1.0, abs=1e-12)
    assert verdict.passed


def test_qubit_triality_product():
    state = named_state("product_00")
    verdict = check_qubit_triality_pure(state)
    assert verdict.passed
    rho = partial_trace(state.density(), 2, 2, "A")
    assert predictability_sq(rho) == pytest.approx(1.0, abs=1e-15)
    assert concurrence_2x2(state) == 0.0


def test_qubit_triality_campaign():
    summary = run_campaign("qubit-triality", 1000, seed=3)
    assert summary.failures == 0
    assert summary.max_residual < 1e-9


def test_qubit_triality_needs_split():
    with pytest.raises(DimensionError):
        check_qubit_triality_pure(haar_pure(4, 0))


# --- qutrit triality ----------------------------------------------------------

def test_qutrit_triality_maximally_entangled():
    verdict = check_qutrit_triality_pure(named_state("qutrit_max_entangled"))
    assert verdict.lhs == pytest.approx(FOUR_THIRDS, abs=1e-12)
    assert verdict.passed
    rho = partial_trace(named_state("qutrit_max_entangled").density(), 3, 3, "A")
    assert predictability_sq(rho) <= 1e-12
    assert coherence_hs_sq(rho) <= 1e-12


def test_qutrit_triality_separable_reduces_to_duality():
    product = named_state("qutrit_product_uniform")
    verdict = check_qutrit_triality_pure(product)
    assert verdict.passed
    rho = partial_trace(product.density(), 3, 3, "A")
    duality_sum = predictability_sq(rho) + coherence_hs_sq(rho)
    assert duality_sum == pytest.approx(FOUR_THIRDS, abs=1e-12)


def test_qutrit_triality_campaign():
    summary = run_campaign("qutrit-triality", 1000, seed=4)
    assert summary.failures == 0
    assert summary.max_residual < 1e-9


# --- mixed triality -------------------------------------------------------------

def test_mixed_triality_maximally_mixed_qutrit():
    verdict = check_mixed_triality(np.eye(3) / 3)
    assert verdict.lhs == pytest.approx(FOUR_THIRDS, abs=1e-12)
    assert verdict.passed


def test_mixed_triality_pure_qubit_reduces_to_duality():
    verdict = check_mixed_triality(haar_pure(2, 17).density())
    assert verdict.relation_id == "qubit-mixed-triality"
    assert verdict.rhs == 1.0 and verdict.passed


@pytest.mark.parametrize("relation", ["qubit-mixed-triality", "qutrit-mixed-triality"])
def test_mixed_triality_campaigns(relation):
    summary = run_campaign(relation, 1000, seed=5)
    assert summary.failures == 0
    assert summary.max_residual < 1e-9


# --- Stokes geometry --------------------------------------------------------------

def test_stokes_geometry_basis_state():
    verdict = check_pure_stokes_geometry(StateVector(np.array([1, 0, 0])))
    assert verdict.residual < 1e-10
    assert verdict.passed


def test_stokes_geometry_campaign():
    summary = run_campaign("stokes-geometry", 500, seed=6)
    assert summary.failures == 0
    assert summary.max_residual < 1e-9


def test_stokes_geometry_needs_single_qutrit():
    with pytest.raises(DimensionError):
        check_pure_stokes_geometry(haar_pure(2, 0))


# --- cross-relation invariants ------------------------------------------------------

def test_mixed_parent_duality_inequality():
    # reduced states of mixed two-qubit parents stay inside the ball
    rng = np.random.default_rng(200)
    for k in range(200):
        parent = random_mixed(4, (k % 4) + 1, rng)
        rho_a = partial_trace(parent, 2, 2, "A")
        assert predictability_sq(rho_a) + coherence_hs_sq(rho_a) <= 1.0 + 1e-9


def test_entanglement_bounds_degree_of_polarization():
    for k in range(200):
        state = haar_pure(4, 4000 + k, split=(2, 2))
        rho_a = partial_trace(state.density(), 2, 2, "A")
        assert abs(degree_pol_sq(rho_a) - (1.0 - concurrence_2x2(state) ** 2)) <= 1e-9


def test_maximal_entanglement_kills_local_measures():
    base = named_state("qutrit_max_entangled")
    rng = np.random.default_rng(201)
    from polco import i_concurrence_sq

    for _ in range(20):
        local = tensor(haar_unitary(3, rng), haar_unitary(3, rng))
        rotated = StateVector(local @ base.amplitudes, split=(3, 3))
        assert i_concurrence_sq(rotated) >= FOUR_THIRDS - 1e-9
        rho_a = partial_trace(rotated.density(), 3, 3, "A")
        assert predictability_sq(rho_a) <= 1e-8
        assert coherence_hs_sq(rho_a) <= 1e-8


@pytest.mark.parametrize("dim,checker", [(4, check_qubit_triality_pure), (9, check_qutrit_triality_pure)])
def test_triality_subsystem_symmetry(dim, checker):
    side = int(np.sqrt(dim))
    for k in range(50):
        state = haar_pure(dim, 5000 + k, split=(side, side))
        via_a = checker(state, subsystem="A")
        via_b = checker(state, subsystem="B")
        assert via_a.passed == via_b.passed
        assert abs(via_a.residual - via_b.residual) <= 1e-10


@pytest.mark.parametrize(
    "checker,sample,error",
    [
        (check_duality_pure, haar_pure(4, 0), UnsupportedDimension),
        (check_mixed_triality, np.eye(4) / 4, UnsupportedDimension),
        (check_qubit_triality_pure, haar_pure(9, 0, split=(3, 3)), DimensionError),
        (check_qutrit_triality_pure, haar_pure(4, 0, split=(2, 2)), DimensionError),
        (check_duality_pure, haar_pure(4, 0, split=(2, 2)), PreconditionError),
    ],
)
def test_checks_reject_inputs_outside_their_relation(checker, sample, error):
    with pytest.raises(PolcoError) as raised:
        checker(sample)
    assert type(raised.value) is error


@pytest.mark.parametrize("dim,checker", [(4, check_qubit_triality_pure), (9, check_qutrit_triality_pure)])
@pytest.mark.parametrize("subsystem", ["C", "a", None, 0])
def test_trialities_reject_an_unknown_subsystem(dim, checker, subsystem):
    side = int(np.sqrt(dim))
    with pytest.raises(PreconditionError, match='keep must be "A" or "B"'):
        checker(haar_pure(dim, 0, split=(side, side)), subsystem=subsystem)


def test_kappa_gives_the_paper_constants_bit_for_bit():
    assert polco.relations._kappa(2) == 1.0
    assert polco.relations._kappa(3) == 4.0 / 3.0


@pytest.mark.parametrize("seed", [16, 37, 39, 52, 101])
def test_qutrit_triality_reports_its_mixedness_clause(seed):
    # on these samples the mixedness clause is the worst of the three
    state = haar_pure(9, seed, split=(3, 3))
    rho, ent_sq = polco.measures._reduce(state.amplitudes.reshape(3, 3))
    _, *raw = polco.measures._density_measures(rho)
    pred, coh, mix = np.maximum(raw, 0.0)
    mixedness = abs(FOUR_THIRDS * mix + pred + coh - FOUR_THIRDS)
    assert mixedness > max(abs(ent_sq + coh + pred - FOUR_THIRDS), abs(ent_sq - FOUR_THIRDS * mix))
    assert check_qutrit_triality_pure(state).residual == mixedness


# --- campaigns ---------------------------------------------------------------------

def test_campaign_deterministic():
    a = run_campaign("qubit-triality", 100, seed=11)
    b = run_campaign("qubit-triality", 100, seed=11)
    assert a == b


def test_campaign_single_sample_matches_direct_verdict():
    summary = run_campaign("qutrit-duality", 1, seed=12)
    stream = np.random.SeedSequence(12).spawn(1)[0]
    verdict = check_duality_pure(haar_pure(3, np.random.default_rng(stream)))
    assert summary.max_residual == verdict.residual
    assert summary.mean_residual == verdict.residual
    assert summary.failures == (0 if verdict.passed else 1)


def test_campaign_unknown_relation():
    with pytest.raises(UnknownRelation):
        run_campaign("bogus", 10, seed=0)


def test_campaign_records_failures_without_raising():
    # absurd tolerance: nearly every sample fails, none of them raises
    summary = run_campaign("qubit-triality", 50, seed=13, tol=1e-20)
    assert summary.failures > 0
    assert summary.n_samples == 50
    assert summary.tolerance == 1e-20


def test_campaign_rank_param():
    summary = run_campaign("qutrit-mixed-triality", 100, seed=14, params={"rank": 2})
    assert summary.failures == 0


@pytest.mark.parametrize(
    "relation,rank",
    [("qutrit-mixed-triality", 0), ("qutrit-mixed-triality", 4), ("pct", 5), ("qutrit-triality", 2)],
)
def test_campaign_rejects_bad_rank(relation, rank):
    with pytest.raises(PreconditionError):
        run_campaign(relation, 5, seed=0, params={"rank": rank})


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_campaign_rejects_bad_tolerance(tol):
    with pytest.raises(PreconditionError):
        run_campaign("pct", 5, seed=0, tol=tol)


@pytest.mark.parametrize(
    "bad",
    [{"n": 2.0}, {"n": "3"}, {"params": {"rank": 1.5}}, {"tol": "x"}, {"tol": 1j},
     {"seed": "a"}, {"seed": -1}, {"seed": 1.0},
     {"n": True}, {"seed": True}, {"seed": False}, {"params": {"rank": True}},
     {"params": 2}, {"params": [("rank", 2)]}, {"params": {"rnak": 2}}, {"params": {"rank": 2, "extra": 1}},
     {"tol": True}],
)
def test_campaign_rejects_mistyped_arguments(bad):
    arguments = {"relation_id": "pct", "n": 2, "seed": 0, **bad}
    with pytest.raises(PreconditionError):
        run_campaign(**arguments)


@pytest.fixture
def small_chunk(monkeypatch):
    monkeypatch.setattr(polco.states, "CHUNK", SMALL_CHUNK)
    return SMALL_CHUNK


@pytest.fixture
def validated(monkeypatch):
    """Matrices per call of the batched density validator."""
    calls = []
    original = polco.measures._as_density

    def counting(m, *args, **kwargs):
        calls.append(int(np.prod(np.shape(m)[:-2])))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(polco.measures, "_as_density", counting)
    return calls


@pytest.mark.parametrize("relation", relation_ids())
def test_each_campaign_sample_is_validated_once(validated, small_chunk, monkeypatch, relation):
    # and never diagonalized nor factored by LAPACK: the gate's own column Cholesky
    # passes every chunk of a valid campaign
    def forbidden(*args, **kwargs):
        raise AssertionError("eigvalsh or cholesky inside a valid campaign")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    run_campaign(relation, small_chunk + 5, seed=17)
    assert sum(validated) == (0 if relation == "stokes-geometry" else small_chunk + 5)


@pytest.mark.parametrize(
    "checker,dim", [(check_qubit_triality_pure, 2), (check_qutrit_triality_pure, 3)]
)
def test_triality_subsystem_b_is_validated_once(validated, checker, dim):
    checker(haar_pure(dim * dim, 3, split=(dim, dim)), subsystem="B")
    assert validated == [1]


# check -> one valid input, and the matrices it validates
SINGLE_CHECKS = [
    (check_duality_pure, haar_pure(3, 4), [1]),
    (check_pct, random_mixed(2, 2, 4), [1]),
    (check_qubit_triality_pure, haar_pure(4, 4, split=(2, 2)), [1]),
    (check_qutrit_triality_pure, haar_pure(9, 4, split=(3, 3)), [1]),
    (check_mixed_triality, random_mixed(3, 2, 4), [1]),
    (check_pure_stokes_geometry, haar_pure(3, 4), []),
]


@pytest.mark.parametrize("checker,sample,matrices", SINGLE_CHECKS)
def test_each_single_check_is_validated_once(validated, checker, sample, matrices):
    checker(sample)
    assert validated == matrices


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, True])
@pytest.mark.parametrize("checker,sample", [(checker, sample) for checker, sample, _ in SINGLE_CHECKS])
def test_checks_reject_a_tolerance_that_is_not_finite_and_positive(checker, sample, tol):
    with pytest.raises(PreconditionError, match="tolerance must be finite and > 0"):
        checker(sample, tol=tol)


@pytest.mark.parametrize("relation", relation_ids())
def test_campaign_evaluates_whole_chunks(validated, small_chunk, monkeypatch, relation):
    # the campaign path never goes through a per-sample check_* or its fingerprint
    def forbidden(*args, **kwargs):
        raise AssertionError("per-sample call inside a campaign")

    monkeypatch.setattr(polco.relations, "fingerprint", forbidden)
    for name in dir(polco.relations):
        if name.startswith("check_"):
            monkeypatch.setattr(polco.relations, name, forbidden)
    run_campaign(relation, 2 * small_chunk + 5, seed=3)
    assert len(validated) <= 3
    assert all(size <= small_chunk for size in validated)


@pytest.mark.parametrize("relation", relation_ids())
def test_campaign_samples_whole_chunks(monkeypatch, small_chunk, relation):
    # no LAPACK QR (the frames are stacked Gram-Schmidt), and no sampler, complex
    # build, Haar norm or StateVector per sample: the streams only draw
    def forbidden(*args, **kwargs):
        raise AssertionError("per-sample sampler inside a campaign")

    for module in (polco.states, polco.relations, polco.linalg):
        for name in ("random_mixed", "haar_unitary", "haar_pure", "StateVector",
                     "_haar_amplitudes", "_complex_gaussians"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(np.linalg, "norm", forbidden)
    qr_calls = []
    qr = np.linalg.qr

    def counting_qr(z, *args, **kwargs):
        qr_calls.append(z.shape)
        return qr(z, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    run_campaign(relation, 2 * small_chunk + 5, seed=3)
    assert qr_calls == []


def _campaign_stacks(relation, n, seed, params=None):
    """The sample stacks a campaign evaluates, concatenated."""
    evaluate, *entry = polco.relations._RELATIONS[relation]
    stacks = []

    def capture(samples):
        stacks.append(samples.copy())
        return evaluate(samples)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(polco.relations._RELATIONS, relation, (capture, *entry))
        run_campaign(relation, n, seed, params=params)
    return np.concatenate(stacks)


def _two_stream_samples(seed, n, dim, mixed, rank=None, split=None):
    """A campaign's samples by its stream contract, one sampler call at a time: the
    i-th ``haar_pure(dim, normals)``, or the i-th ``haar_unitary(dim, normals)`` with
    Dirichlet weights from the i-th row of dim exponentials, of rank ``i % dim + 1``
    unless ``rank`` pins one.  ``random_mixed`` draws both kinds of number from one
    stream, so mixed samples are built inline, weights normalized by their in-order sum."""
    normals, exponentials = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    for i in range(n):
        if not mixed:
            yield haar_pure(dim, normals, split=split)
            continue
        vecs = haar_unitary(dim, normals)[:, : i % dim + 1 if rank is None else rank]
        e = exponentials.standard_exponential(dim)[: vecs.shape[1]]
        yield (vecs * (e * (1.0 / sum(e)))) @ vecs.conj().T


@pytest.mark.parametrize(
    "relation,rank",
    [("qubit-mixed-triality", None), ("pct", 1), ("pct", 2), ("qutrit-mixed-triality", None),
     ("qutrit-mixed-triality", 1), ("qutrit-mixed-triality", 2), ("qutrit-mixed-triality", 3)],
)
def test_mixed_chunks_equal_random_mixed_bit_for_bit(small_chunk, relation, rank):
    dim, n = math.prod(polco.relations._RELATIONS[relation][1]), small_chunk + 5
    params = None if rank is None else {"rank": rank}
    stacks = _campaign_stacks(relation, n, 21, params)
    expected = np.stack(list(_two_stream_samples(21, n, dim, True, rank)))
    assert stacks.shape == (n, dim, dim)
    assert stacks.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "relation", ["qubit-duality", "qutrit-duality", "qubit-triality", "qutrit-triality"]
)
def test_pure_chunks_equal_haar_pure_bit_for_bit(small_chunk, relation):
    shape, n = polco.relations._RELATIONS[relation][1], small_chunk + 5
    stacks = _campaign_stacks(relation, n, 22)
    expected = np.stack([state.amplitudes for state in _two_stream_samples(22, n, math.prod(shape), False)])
    assert stacks.shape == (n, *shape)
    assert stacks.tobytes() == expected.tobytes()


@pytest.mark.parametrize("relation", ["qutrit-triality", "qutrit-mixed-triality"])
def test_chunks_of_the_real_size_equal_the_samplers_bit_for_bit(relation):
    # the tests above run at SMALL_CHUNK; this one crosses the boundary of the real CHUNK
    _, shape, mixed = polco.relations._RELATIONS[relation]
    dim, n = math.prod(shape), CHUNK + 5
    samples = _two_stream_samples(23, n, dim, mixed)
    expected = np.stack([sample if mixed else sample.amplitudes.reshape(shape) for sample in samples])
    assert _campaign_stacks(relation, n, 23).tobytes() == expected.tobytes()


@pytest.mark.parametrize("relation", relation_ids())
def test_campaign_output_does_not_depend_on_the_chunk_size(relation):
    n = 2 * SMALL_CHUNK + 5
    outputs = []
    for chunk in (1, SMALL_CHUNK, CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polco.states, "CHUNK", chunk)
            outputs.append((_campaign_stacks(relation, n, 24).tobytes(), run_campaign(relation, n, 24)))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("relation", relation_ids())
def test_a_campaign_is_a_prefix_of_a_longer_one(small_chunk, relation):
    short = _campaign_stacks(relation, small_chunk + 5, 25)
    assert _campaign_stacks(relation, 3 * small_chunk, 25)[: small_chunk + 5].tobytes() == short.tobytes()


def test_a_campaigns_first_sample_is_pinned():
    # literals from numpy 2.4.6: a numpy release that changed SeedSequence, PCG64 or
    # its normal or exponential draws would move every campaign; a rank-2 pct sample
    # reads both streams
    sample = _campaign_stacks("pct", 1, 7, {"rank": 2})[0]
    assert sample.view(np.uint64).ravel().tolist() == [
        0x3FE7F94B089D7759, 0x3C856B78C223BE57, 0x3FD18DE389D06464, 0xBFBD5BDC24138FCC,
        0x3FD18DE389D06463, 0x3FBD5BDC24138FCD, 0x3FD00D69EEC5114E, 0x3C5A9005664881B0,
    ]


MIXED_RELATIONS = ("pct", "qubit-mixed-triality", "qutrit-mixed-triality")


def _law_deviations(relation, n=20_000, seed=5, delta=1e-9):
    """(|sample mean - closed form|, Hoeffding bound at confidence 1 - delta) for each
    clause of a mixed campaign's law: sum_i |u_ik|^4 = 2/(dim+1) for each frame column
    k < rank (a uniform unit vector of C^dim), and Tr rho^2 = 2/(r+1) at rank r (Dirichlet
    weights).  A clause spans [1/dim, 1] or [1/r, 1]; 1e-12 covers rank 1's rounding."""
    dim = math.prod(polco.relations._RELATIONS[relation][1])
    frames, unitaries = [], polco.states._unitaries

    def recorded(z, width=None):
        frames.append(unitaries(z, width))
        return frames[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polco.states, "_unitaries", recorded)
        rho = _campaign_stacks(relation, n, seed)
    fourth = {}
    for u in frames:
        for k in range(u.shape[-1]):
            fourth.setdefault(k, []).append((np.abs(u[..., k]) ** 4).sum(axis=-1))
    clauses = [(np.concatenate(x), 2 / (dim + 1), 1 - 1 / dim) for x in fourth.values()]
    ranks, purity = np.arange(n) % dim + 1, (np.abs(rho) ** 2).sum(axis=(-2, -1))
    clauses += [(purity[ranks == r], 2 / (r + 1), 1 - 1 / r) for r in range(1, dim + 1)]
    assert len(clauses) == 2 * dim
    return [(abs(x.mean() - mean), spread * math.sqrt(math.log(2 / delta) / (2 * x.size)) + 1e-12)
            for x, mean, spread in clauses]


@pytest.mark.parametrize("relation", MIXED_RELATIONS)
def test_mixed_campaigns_draw_haar_frames_and_dirichlet_weights(relation):
    for deviation, bound in _law_deviations(relation):
        assert deviation <= bound


@pytest.mark.parametrize("relation", MIXED_RELATIONS)
def test_the_law_catches_real_frames_and_equal_weights(monkeypatch, relation):
    # real Haar columns give E sum_i u_ik^4 = 3/(dim+2); equal weights give Tr rho^2 = 1/r
    unitaries = polco.states._unitaries
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polco.states, "_unitaries", lambda z, width=None: unitaries(z.real * np.sqrt(2.0) + 0j, width))
        assert any(deviation > bound for deviation, bound in _law_deviations(relation))
    monkeypatch.setattr(polco.states, "_simplex", lambda e: np.full_like(e, 1.0 / e.shape[-1]))
    assert any(deviation > bound for deviation, bound in _law_deviations(relation))


@pytest.mark.parametrize("relation", relation_ids())
def test_campaign_builds_no_seed_sequence_or_generator_per_sample(small_chunk, relation):
    # one SeedSequence(seed), one spawn(2) and two generators per campaign, whatever n
    default_rng = np.random.default_rng

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            if "spawn_key" not in kwargs:  # spawn builds its children with one
                roots.append(args)
            super().__init__(*args, **kwargs)

        def spawn(self, n_children):
            spawns.append(n_children)
            return super().spawn(n_children)

    def counted_rng(*args):
        generators.append(args)
        return default_rng(*args)

    for n in (1, 2 * small_chunk + 5):
        roots, spawns, generators = [], [], []
        expected = run_campaign(relation, n, 2**32 + 9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "SeedSequence", Counted)
            patch.setattr(np.random, "default_rng", counted_rng)
            assert run_campaign(relation, n, 2**32 + 9) == expected
        assert (roots, spawns, len(generators)) == ([(2**32 + 9,)], [2], 2)


def test_campaign_rejects_an_unnormalized_sample(monkeypatch, small_chunk):
    # the stacked unit-norm test raises what StateVector raises for that sample
    built = []
    original = polco.states._haar_rows

    def drifting(z):
        rows = original(z)
        built.append(rows)
        drifted = rows.copy()
        if len(built) == 2:  # the second chunk, so its row 1 is sample small_chunk + 1
            drifted[1] *= 1.0 + 1e-6
        return drifted

    monkeypatch.setattr(polco.states, "_haar_rows", drifting)
    with pytest.raises(ValidationError) as raised:
        run_campaign("qutrit-duality", small_chunk + 5, seed=4)
    with pytest.raises(ValidationError) as expected:
        StateVector(built[1][1] * (1.0 + 1e-6))
    assert str(raised.value) == str(expected.value)


# relation -> (check, dim, split, mixed): the per-sample reference loop
SAMPLED = {
    "qubit-duality": (check_duality_pure, 2, None, False),
    "qutrit-duality": (check_duality_pure, 3, None, False),
    "pct": (check_pct, 2, None, True),
    "qubit-triality": (check_qubit_triality_pure, 4, (2, 2), False),
    "qutrit-triality": (check_qutrit_triality_pure, 9, (3, 3), False),
    "qubit-mixed-triality": (check_mixed_triality, 2, None, True),
    "qutrit-mixed-triality": (check_mixed_triality, 3, None, True),
    "stokes-geometry": (check_pure_stokes_geometry, 3, None, False),
}


@settings(max_examples=30, deadline=None)
@given(
    relation=st.sampled_from(sorted(SAMPLED)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3 * SMALL_CHUNK + 5),
    rank=st.integers(0, 3),
    tol=st.sampled_from([1e-9, 1e-15]),
)
@example(relation="qubit-triality", seed=3, n=SMALL_CHUNK + 5, rank=0, tol=1e-15)
@example(relation="qutrit-mixed-triality", seed=8, n=SMALL_CHUNK + 1, rank=2, tol=1e-15)
def test_campaign_equals_a_loop_of_single_checks(relation, seed, n, rank, tol):
    check, dim, split, mixed = SAMPLED[relation]
    rank = 1 + (rank - 1) % dim if mixed and rank else None
    residuals, failures = [], 0
    for sample in _two_stream_samples(seed, n, dim, mixed, rank, split):
        verdict = check(sample, tol=tol)
        residuals.append(verdict.residual)
        failures += not verdict.passed
    params = None if rank is None else {"rank": rank}
    with pytest.MonkeyPatch.context() as patch:  # not the fixture, which @given would share
        patch.setattr(polco.states, "CHUNK", SMALL_CHUNK)
        summary = run_campaign(relation, n, seed, params=params, tol=tol)
    assert summary.max_residual == max(residuals)
    assert summary.mean_residual == float(np.mean(residuals))
    assert summary.failures == failures


def test_campaign_needs_positive_n():
    with pytest.raises(PreconditionError):
        run_campaign("pct", 0, seed=0)


def test_relation_registry_lists_all():
    ids = relation_ids()
    assert "qubit-triality" in ids and "stokes-geometry" in ids
    assert len(ids) == 8


def test_readme_lists_the_registry_in_order():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"Relations known to `verify`:(.*?)\.\s", readme, re.DOTALL).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listed)) == relation_ids()


def test_verdict_json_fields():
    doc = verdict_to_json(check_pct(np.eye(2) / 2))
    assert doc["pass"] is True
    assert doc["relation_id"] == "pct"
    assert doc["residual"] == abs(doc["lhs"] - doc["rhs"])
    assert doc["state_ref"]
    assert list(doc) == ["relation_id", "lhs", "rhs", "residual", "tolerance", "pass", "state_ref"]


def test_summary_json_fields():
    doc = summary_to_json(run_campaign("pct", np.int64(3), np.int64(2)))
    assert list(doc) == [
        "relation_id", "n_samples", "max_residual", "mean_residual", "failures", "seed", "tolerance"
    ]
    assert json.loads(json.dumps(doc))["n_samples"] == 3  # numpy integers leave as ints
