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
from polco.relations import CHUNK

FOUR_THIRDS = 4.0 / 3.0


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
     {"n": True}, {"seed": True}, {"seed": False}, {"params": {"rank": True}}],
)
def test_campaign_rejects_mistyped_arguments(bad):
    arguments = {"relation_id": "pct", "n": 2, "seed": 0, **bad}
    with pytest.raises(PreconditionError):
        run_campaign(**arguments)


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
def test_each_campaign_sample_is_validated_once(validated, relation):
    run_campaign(relation, CHUNK + 5, seed=17)
    assert sum(validated) == (0 if relation == "stokes-geometry" else CHUNK + 5)


@pytest.mark.parametrize(
    "checker,dim", [(check_qubit_triality_pure, 2), (check_qutrit_triality_pure, 3)]
)
def test_triality_subsystem_b_is_validated_once(validated, checker, dim):
    checker(haar_pure(dim * dim, 3, split=(dim, dim)), subsystem="B")
    assert validated == [1]


@pytest.mark.parametrize(
    "checker,sample,matrices",
    [
        (check_duality_pure, haar_pure(3, 4), [1]),
        (check_pct, random_mixed(2, 2, 4), [1]),
        (check_qubit_triality_pure, haar_pure(4, 4, split=(2, 2)), [1]),
        (check_qutrit_triality_pure, haar_pure(9, 4, split=(3, 3)), [1]),
        (check_mixed_triality, random_mixed(3, 2, 4), [1]),
        (check_pure_stokes_geometry, haar_pure(3, 4), []),
    ],
)
def test_each_single_check_is_validated_once(validated, checker, sample, matrices):
    checker(sample)
    assert validated == matrices


@pytest.mark.parametrize("relation", relation_ids())
def test_campaign_evaluates_whole_chunks(validated, monkeypatch, relation):
    # the campaign path never goes through a per-sample check_* or its fingerprint
    def forbidden(*args, **kwargs):
        raise AssertionError("per-sample call inside a campaign")

    monkeypatch.setattr(polco.relations, "fingerprint", forbidden)
    for name in dir(polco.relations):
        if name.startswith("check_"):
            monkeypatch.setattr(polco.relations, name, forbidden)
    run_campaign(relation, 2 * CHUNK + 5, seed=3)
    assert len(validated) <= 3
    assert all(size <= CHUNK for size in validated)


@pytest.mark.parametrize("relation", relation_ids())
def test_campaign_samples_whole_chunks(monkeypatch, relation):
    # one stacked QR per chunk, and no public sampler or StateVector per sample
    def forbidden(*args, **kwargs):
        raise AssertionError("per-sample sampler inside a campaign")

    for module in (polco.states, polco.relations, polco.linalg):
        for name in ("random_mixed", "haar_unitary", "haar_pure", "StateVector"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    qr_calls = []
    qr = np.linalg.qr

    def counting_qr(z, *args, **kwargs):
        qr_calls.append(z.shape)
        return qr(z, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    run_campaign(relation, 2 * CHUNK + 5, seed=3)
    *_, mixed = polco.relations._RELATIONS[relation]
    assert len(qr_calls) == (3 if mixed else 0)


def _campaign_stacks(monkeypatch, relation, n, seed, params=None):
    """The sample stacks a campaign evaluates, concatenated."""
    evaluate, *entry = polco.relations._RELATIONS[relation]
    stacks = []

    def capture(samples):
        stacks.append(samples.copy())
        return evaluate(samples)

    monkeypatch.setitem(polco.relations._RELATIONS, relation, (capture, *entry))
    run_campaign(relation, n, seed, params=params)
    return np.concatenate(stacks)


@pytest.mark.parametrize(
    "relation,rank",
    [("qubit-mixed-triality", None), ("pct", 1), ("pct", 2), ("qutrit-mixed-triality", None),
     ("qutrit-mixed-triality", 1), ("qutrit-mixed-triality", 2), ("qutrit-mixed-triality", 3)],
)
def test_mixed_chunks_equal_random_mixed_bit_for_bit(monkeypatch, relation, rank):
    dim, n = math.prod(polco.relations._RELATIONS[relation][1]), CHUNK + 5
    params = None if rank is None else {"rank": rank}
    stacks = _campaign_stacks(monkeypatch, relation, n, 21, params)
    streams = np.random.SeedSequence(21).spawn(n)
    expected = np.stack([
        random_mixed(dim, i % dim + 1 if rank is None else rank, np.random.default_rng(stream))
        for i, stream in enumerate(streams)
    ])
    assert stacks.shape == (n, dim, dim)
    assert stacks.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "relation", ["qubit-duality", "qutrit-duality", "qubit-triality", "qutrit-triality"]
)
def test_pure_chunks_equal_haar_pure_bit_for_bit(monkeypatch, relation):
    shape, n = polco.relations._RELATIONS[relation][1], CHUNK + 5
    stacks = _campaign_stacks(monkeypatch, relation, n, 22)
    streams = np.random.SeedSequence(22).spawn(n)
    expected = np.stack([haar_pure(math.prod(shape), np.random.default_rng(s)).amplitudes for s in streams])
    assert stacks.shape == (n, *shape)
    assert stacks.tobytes() == expected.tobytes()


@pytest.mark.parametrize("relation", relation_ids())
def test_campaign_builds_no_seed_sequence_or_generator_per_sample(monkeypatch, relation):
    # child streams come from (seed, index) alone: one SeedSequence per campaign
    # gives the seed's pool; spawn and default_rng are never called
    expected = run_campaign(relation, 2 * CHUNK + 5, 2**32 + 9)
    built = []

    class RootOnly(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

        def spawn(self, n_children):
            raise AssertionError("campaign spawned SeedSequence children")

    def forbidden(*args, **kwargs):
        raise AssertionError("campaign called default_rng")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", RootOnly)
    assert run_campaign(relation, 2 * CHUNK + 5, 2**32 + 9) == expected
    assert built == [(2**32 + 9,)]


def test_campaign_rejects_an_unnormalized_sample(monkeypatch):
    # the stacked unit-norm test raises what StateVector raises for that sample
    drawn = []
    original = polco.relations._haar_amplitudes

    def drifting(rng, dim):
        amps = original(rng, dim)
        drawn.append(amps)
        return amps * (1.0 + 1e-6) if len(drawn) == CHUNK + 2 else amps

    monkeypatch.setattr(polco.relations, "_haar_amplitudes", drifting)
    with pytest.raises(ValidationError) as raised:
        run_campaign("qutrit-duality", CHUNK + 5, seed=4)
    with pytest.raises(ValidationError) as expected:
        StateVector(drawn[CHUNK + 1] * (1.0 + 1e-6))
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
    n=st.integers(1, CHUNK + 5),
    rank=st.integers(0, 3),
    tol=st.sampled_from([1e-9, 1e-15]),
)
@example(relation="qubit-triality", seed=3, n=CHUNK + 5, rank=0, tol=1e-15)
@example(relation="qutrit-mixed-triality", seed=8, n=CHUNK + 1, rank=2, tol=1e-15)
def test_campaign_equals_a_loop_of_single_checks(relation, seed, n, rank, tol):
    check, dim, split, mixed = SAMPLED[relation]
    rank = 1 + (rank - 1) % dim if mixed and rank else None
    residuals, failures = [], 0
    for index, stream in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(stream)
        if mixed:
            sample = random_mixed(dim, index % dim + 1 if rank is None else rank, rng)
        else:
            sample = haar_pure(dim, rng, split=split)
        verdict = check(sample, tol=tol)
        residuals.append(verdict.residual)
        failures += not verdict.passed
    params = None if rank is None else {"rank": rank}
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
