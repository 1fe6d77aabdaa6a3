"""CLI contract: subcommands, exit codes, formats, determinism."""

import argparse
import hashlib
import itertools
import json
import types
import warnings

import numpy as np
import pytest

import polco.basis
import polco.cli
import polco.measures
from polco import (
    TAU_NUM,
    PreconditionError,
    StateVector,
    haar_pure,
    haar_unitary,
    matrix_to_json,
    named_state,
    named_state_names,
    random_mixed,
    run_campaign,
    state_to_json,
    stokes_extract,
    stokes_from_json,
    stokes_to_json,
    structure_constants,
)
from polco.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- generate -> analyze round trips ------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("--kind", "haar-pure", "--dim", "2", "--seed", "1"),
        ("--kind", "haar-pure", "--dim", "3", "--seed", "2"),
        ("--kind", "haar-pure", "--dim", "4", "--split", "2x2", "--seed", "3"),
        ("--kind", "haar-pure", "--dim", "9", "--split", "3x3", "--seed", "4"),
        ("--kind", "mixed", "--dim", "2", "--rank", "1", "--seed", "5"),
        ("--kind", "mixed", "--dim", "2", "--seed", "6"),
        ("--kind", "mixed", "--dim", "3", "--rank", "2", "--seed", "7"),
        ("--kind", "mixed", "--dim", "3", "--seed", "8"),
    ],
)
def test_generate_analyze_roundtrip(tmp_path, capsys, argv):
    path = tmp_path / "input.json"
    code, _, _ = run_cli(capsys, "generate", *argv, "--out", str(path))
    assert code == 0
    code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0, err
    doc = json.loads(out)
    assert "predictability_sq" in doc and "stokes" in doc


def test_generate_analyze_all_named_states(tmp_path, capsys):
    for name in named_state_names():
        path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(capsys, "generate", "--kind", "named", "--name", name, "--out", str(path))
        assert code == 0
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0, (name, err)


def test_analyze_bell_values(tmp_path, capsys):
    path = tmp_path / "bell.json"
    run_cli(capsys, "generate", "--kind", "named", "--name", "bell_phi_plus", "--out", str(path))
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["entanglement_sq"] == pytest.approx(1.0, abs=1e-12)
    assert doc["predictability_sq"] == 0.0
    assert doc["coherence_hs_sq"] == 0.0
    np.testing.assert_allclose(doc["stokes"]["s"], [0, 0, 0], atol=1e-12)


def test_analyze_maximally_mixed_matrix(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(3) / 3)))
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["linear_entropy_sq"] == pytest.approx(1.0, abs=1e-12)
    assert doc["entanglement_sq"] is None


def test_analyze_partially_entangled_state(tmp_path, capsys):
    path = tmp_path / "partial.json"
    doc = {
        "dim": 4,
        "re": [np.sqrt(0.8), 0.0, 0.0, np.sqrt(0.2)],
        "im": [0.0, 0.0, 0.0, 0.0],
        "split": [2, 2],
    }
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0
    assert json.loads(out)["entanglement_sq"] == pytest.approx(0.64, abs=1e-12)


def _analyze(tmp_path, capsys, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0, err
    return json.loads(out)


def _analyzed_documents():
    """(document, the matrix analyze measures for it): Hermitian matrices of every
    rank, also scaled off unit trace, single vectors and bipartite vectors."""
    cases = []
    for dim in (2, 3):
        for rank in range(1, dim + 1):
            for seed in range(4):
                rho = random_mixed(dim, rank, seed)
                rho = (rho + rho.conj().T) / 2.0  # a real diagonal
                cases += [(matrix_to_json(rho), rho), (matrix_to_json(2.5 * rho), 2.5 * rho)]
    for dim, split in ((2, None), (3, None), (4, (2, 2)), (9, (3, 3))):
        for seed in range(4):
            state = haar_pure(dim, seed, split=split)
            if split is None:
                m = state.density()
            else:
                m = polco.measures._reduce(state.amplitudes.reshape(split))[0]
            cases.append((state_to_json(state), m))
    return cases


def test_analyze_stokes_equals_stokes_extract_of_the_measured_matrix(tmp_path, capsys):
    for doc, m in _analyzed_documents():
        assert _analyze(tmp_path, capsys, doc)["stokes"] == stokes_to_json(stokes_extract(m))


def test_analyze_stokes_length_is_the_reported_degree_of_polarization(tmp_path, capsys):
    # an imaginary diagonal within TAU_HERM and a trace of 2.5: the report and its
    # Stokes vector still come from one normalized matrix
    docs = [doc for doc, m in _analyzed_documents() if m.shape == (2, 2)]
    for seed in range(8):
        rho = random_mixed(2, 2, seed)
        docs.append(matrix_to_json(2.5 * (rho + rho.conj().T) / 2.0 + np.diag([3e-11j, -2e-11j])))
    for doc in docs:
        report = _analyze(tmp_path, capsys, doc)
        assert stokes_from_json(report["stokes"]).norm_sq() == report["raw"]["degree_pol_sq"]


def test_analyze_computes_the_stokes_components_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = polco.basis._stokes_components

    def counting(phi):
        calls.append(phi.shape)
        return original(phi)

    monkeypatch.setattr(polco.basis, "_stokes_components", counting)
    monkeypatch.setattr(polco.measures, "_stokes_components", counting)
    for doc, m in _analyzed_documents():
        calls.clear()
        _analyze(tmp_path, capsys, doc)
        assert calls == [m.shape]


def _one_of_each_corpus_kind():
    """A document of each kind of the benchmark corpus, from samplers that use no BLAS:
    2x2 matrices of rank 1-2, 3x3 of rank 1-3, and the first column of a Haar unitary as a
    qubit, a qutrit, a 2x2 and a 3x3 bipartite vector."""
    docs = {f"m{dim}r{rank}": matrix_to_json(random_mixed(dim, rank, 10 * dim + rank))
            for dim in (2, 3) for rank in range(1, dim + 1)}
    for kind, dim, split in (("v2", 2, None), ("v3", 3, None), ("b2x2", 4, (2, 2)), ("b3x3", 9, (3, 3))):
        docs[kind] = state_to_json(StateVector(haar_unitary(dim, dim)[:, 0], split=split))
    return docs


# sha256 of `polco analyze --input D` (json) for each kind, with every sum over entries in order
ANALYZE_SHA256 = {
    "b2x2": "adea9f76ccac718c014a6445ce7d7b6f4bf1ffba3465d35438cac7db844f69e3",
    "b3x3": "bea7f18081170b69d637dd4e4303e0e0bdc2c664ef6618f540f57188cfbe1c11",
    "m2r1": "c4287e844ec07ae6daad5294a8d70cea6c18526f94026bcb788dd28515897b20",
    "m2r2": "e14ffb51496ee37178b022579e9020ce88a8a67f6bfa2a56d582b831d70d2d75",
    "m3r1": "2908c91fab5702850b6f3c8ce9d13260cdac2b61985abc92cb8d81636d761ae7",
    "m3r2": "21603e4d01baf4de71c6d14d5c82b34ff511d3c9e55e3849a4461533fd58e858",
    "m3r3": "cb8cc30e9827f099220ff20ecbc5723e2a7a6a2ced0a1d86610f1605eb50d3b2",
    "v2": "a6fbdaa2e0ce4799c958955fab6171cc955c0b3829efdc13ffd97c53b8be5119",
    "v3": "2881e7b10fd550f78c30c6d7c7abaff59cdac7ab1304eeac9ff7b38c4f8c4be6",
}


@pytest.mark.parametrize("kind", sorted(ANALYZE_SHA256))
def test_analyze_output_is_pinned(tmp_path, capsys, kind):
    # the single-input path, pinned as test_campaign_summaries_are_pinned pins the stacked one
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_one_of_each_corpus_kind()[kind]))
    code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256[kind]


# --- exit codes -----------------------------------------------------------

def test_analyze_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert "parse" in err


def test_analyze_invalid_density_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([1.1, -0.1]))))
    code, _, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 3
    assert "invalid" in err


def test_analyze_unnormalized_state_exits_3(tmp_path, capsys):
    path = tmp_path / "unnorm.json"
    path.write_text(json.dumps({"dim": 2, "re": [1.0, 1.0], "im": [0.0, 0.0]}))
    code, _, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 3


@pytest.mark.parametrize("dB", [2, 3])
def test_analyze_a_one_row_split_exits_3(tmp_path, capsys, dB):
    # its reduced matrix is 1 x 1, which no measure takes
    path = tmp_path / "row.json"
    path.write_text(json.dumps({"dim": dB, "re": [1.0] + [0.0] * (dB - 1), "im": [0.0] * dB, "split": [1, dB]}))
    code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 3 and out == ""
    assert "invalid" in err


def test_analyze_nan_amplitude_exits_3(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"dim": 3, "re": [NaN, 0.6, 0.0], "im": [0, 0, 0]}')
    code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 3 and out == ""
    assert "invalid" in err


_HALF = {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
_BELL = {"dim": 4, "re": [0.5 ** 0.5, 0.0, 0.0, 0.5 ** 0.5], "im": [0.0] * 4}


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 2.7, **_HALF},
        {"dim": "2", **_HALF},
        {"dim": True, "re": [1.0], "im": [0.0]},
        {**_BELL, "split": [2.9, 2.2]},
        {**_BELL, "split": [2, 2, 7]},
        {**_BELL, "split": "22"},
        {**_BELL, "split": [2, False]},
    ],
    ids=["float-dim", "string-dim", "bool-dim", "float-split", "three-split", "string-split", "bool-split"],
)
def test_analyze_malformed_dim_or_split_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 2 and out == ""
    assert "parse" in err


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_analyze_non_finite_matrix_exits_3_without_warnings(tmp_path, capsys, part, token):
    entries = {"re": "0.5", "im": "0.0", part: token}
    text = f'{{"dim": 2, "re": [[{entries["re"]}, 0], [0, 0.5]], "im": [[{entries["im"]}, 0], [0, 0]]}}'
    path = tmp_path / "bad.json"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 3 and out == ""
    assert "invalid" in err
    assert [str(w.message) for w in caught] == []


def test_verify_unknown_relation_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--relation", "bogus", "--samples", "5")
    assert code == 2
    assert "unknown relation" in err


def test_generate_unknown_name_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "generate", "--kind", "named", "--name", "bogus", "--out", str(tmp_path / "x.json")
    )
    assert code == 2


def test_usage_error_exits_2(capsys):
    assert run_cli(capsys, "analyze")[0] == 2  # missing --input
    assert run_cli(capsys, "nonsense")[0] == 2


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(polco.cli, "argparse", types.SimpleNamespace(ArgumentParser=Counting))
    polco.cli._parser.cache_clear()
    try:
        calls = (["constants"], ["verify", "--relation", "pct", "--samples", "3"], ["analyze"])
        for argv in calls * 3:
            run_cli(capsys, *argv)
        assert built.count("polco") == 1
    finally:
        polco.cli._parser.cache_clear()  # drop the parser built from the counting class


def test_usage_error_leaves_the_parser_usable(capsys):
    argv = ("verify", "--relation", "pct", "--samples", "20")
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, "verify", "--relation", "pct", "--samples", "x")[0] == 2
    assert run_cli(capsys, *argv, "--seed", "5", "--tol", "1e-3")[0] == 0
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_verify_bad_samples_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--relation", "pct", "--samples", "0")
    assert code == 2 and out == ""
    assert "campaign needs an integer n >= 1, got 0" in err


def test_verify_out_of_memory_exits_2_with_one_error_line(monkeypatch, capsys):
    # exit 1 means verification failures; a campaign too large to allocate is a usage error
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(polco.cli, "run_campaign", exhausted)
    code, out, err = run_cli(capsys, "verify", "--relation", "pct", "--samples", "1000000000000")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "samples,tol", [("0", "1e-9"), ("5", "nan"), ("5", "inf"), ("5", "0"), ("5", "-1e-9")]
)
def test_verify_reports_run_campaigns_own_message(capsys, samples, tol):
    with pytest.raises(PreconditionError) as raised:
        run_campaign("qubit-duality", int(samples), 0, tol=float(tol))
    code, out, err = run_cli(
        capsys, "verify", "--relation", "qubit-duality", "--samples", samples, f"--tol={tol}"
    )
    assert (code, out, err) == (2, "", f"error: {raised.value}\n")


@pytest.mark.parametrize("kind", [("haar-pure", "--dim", "2"), ("mixed", "--dim", "2")])
def test_generate_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, kind):
    path = tmp_path / "state.json"
    code, out, err = run_cli(capsys, "generate", "--kind", *kind, "--seed", "-1", "--out", str(path))
    assert code == 2 and out == "" and not path.exists()
    assert "seed must be an integer >= 0, got -1" in err


def test_verify_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--relation", "pct", "--samples", "5", "--seed", "-1")
    assert code == 2 and out == ""
    assert "seed" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_verify_tol_must_be_finite_and_positive(capsys, tol):
    # "--tol=-1e-9": argparse reads a separate "-1e-9" as an option, not a value
    code, out, err = run_cli(
        capsys, "verify", "--relation", "qubit-duality", "--samples", "5", f"--tol={tol}"
    )
    assert code == 2 and out == ""
    assert "tolerance must be finite and > 0" in err


def test_verify_negative_tol_in_exponent_form_needs_the_equals_sign(capsys):
    # argparse reads a separate "-1e-9" as an option, so only "--tol=-1e-9" reaches polco
    verify = ("verify", "--relation", "qubit-duality", "--samples", "5")
    code, out, err = run_cli(capsys, *verify, "--tol", "-1e-9")
    assert (code, out) == (2, "") and "argument --tol: expected one argument" in err
    assert "tolerance must be finite and > 0" not in err
    code, out, err = run_cli(capsys, *verify, "--tol=-1e-9")
    assert (code, out, err) == (2, "", "error: tolerance must be finite and > 0, got -1e-09\n")


@pytest.mark.parametrize(
    "relation,rank",
    [("qutrit-mixed-triality", "0"), ("qutrit-triality", "2"), ("pct", "5")],
)
def test_verify_bad_rank_exits_2(capsys, relation, rank):
    code, out, err = run_cli(
        capsys, "verify", "--relation", relation, "--samples", "5", "--rank", rank
    )
    assert code == 2 and out == ""
    assert "rank" in err


@pytest.mark.parametrize("dim,rank", [("3", "0"), ("3", "5"), ("2", "-1")])
def test_generate_bad_rank_exits_2(tmp_path, capsys, dim, rank):
    out_path = tmp_path / "rho.json"
    code, _, err = run_cli(
        capsys, "generate", "--kind", "mixed", "--dim", dim, "--rank", rank, "--out", str(out_path)
    )
    assert code == 2 and not out_path.exists()
    assert "--rank" in err


def test_analyze_reduces_a_bipartite_vector_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = polco.measures._reduce

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(polco.measures, "_reduce", counting)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(state_to_json(named_state("qutrit_max_entangled"))))
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0 and json.loads(out)["entanglement_sq"] == pytest.approx(4 / 3)
    assert len(calls) == 1


# --- verify ------------------------------------------------------------------

def test_verify_passing_campaign(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--relation", "qutrit-triality", "--samples", "200", "--seed", "7"
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["failures"] == 0
    assert summary["n_samples"] == 200
    assert summary["max_residual"] < 1e-9


def test_verify_all_relations_pass(capsys):
    from polco import relation_ids

    for relation in relation_ids():
        code, out, _ = run_cli(
            capsys, "verify", "--relation", relation, "--samples", "100", "--seed", "21"
        )
        assert code == 0, (relation, out)


def test_verify_failing_campaign_exits_1(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--relation", "pct", "--samples", "20", "--seed", "3", "--tol", "1e-30",
    )
    assert code == 1
    assert json.loads(out)["failures"] > 0


def test_verify_rank_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--relation", "qutrit-mixed-triality",
        "--samples", "50", "--seed", "9", "--rank", "3",
    )
    assert code == 0 and json.loads(out)["failures"] == 0


# --- determinism ----------------------------------------------------------------

def test_generate_byte_identical_for_same_seed(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "generate", "--kind", "haar-pure", "--dim", "4", "--split", "2x2",
            "--seed", "42", "--out", str(a))
    run_cli(capsys, "generate", "--kind", "haar-pure", "--dim", "4", "--split", "2x2",
            "--seed", "42", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_byte_identical_for_same_seed(capsys):
    args = ("verify", "--relation", "qubit-triality", "--samples", "50", "--seed", "42")
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


def test_env_seed_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POLCO_SEED", "777")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "generate", "--kind", "haar-pure", "--dim", "2", "--out", str(a))
    run_cli(capsys, "generate", "--kind", "haar-pure", "--dim", "2", "--seed", "777", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# --- output formats ----------------------------------------------------------------

def test_csv_and_json_values_identical(tmp_path, capsys):
    path = tmp_path / "state.json"
    run_cli(capsys, "generate", "--kind", "haar-pure", "--dim", "4", "--split", "2x2",
            "--seed", "11", "--out", str(path))
    _, json_out, _ = run_cli(capsys, "analyze", "--input", str(path), "--format", "json")
    _, csv_out, _ = run_cli(capsys, "analyze", "--input", str(path), "--format", "csv")
    doc = json.loads(json_out)
    csv_values = dict(line.split(",", 1) for line in csv_out.splitlines()[1:])
    for key in ("predictability_sq", "coherence_hs_sq", "entanglement_sq", "linear_entropy_sq"):
        assert csv_values[key] == repr(doc[key])  # shortest round-trip text, both formats
    for index, component in enumerate(doc["stokes"]["s"]):
        assert csv_values[f"stokes.s.{index}"] == repr(component)


def test_table_format_renders(tmp_path, capsys):
    path = tmp_path / "state.json"
    run_cli(capsys, "generate", "--kind", "named", "--name", "bell_phi_plus", "--out", str(path))
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path), "--format", "table")
    assert code == 0
    assert "predictability_sq" in out


# --- constants -----------------------------------------------------------------------

def test_constants_structure(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    doc = json.loads(out)
    f_entries = {tuple(entry[:3]): entry[3] for entry in doc["f_nonzero"]}
    assert f_entries[(1, 2, 3)] == pytest.approx(1.0, abs=1e-12)
    d_entries = {tuple(entry[:3]): entry[3] for entry in doc["d_nonzero"]}
    assert d_entries[(1, 1, 8)] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert (1, 1, 1) not in d_entries  # zero entries are pruned
    consts = structure_constants()
    for name, tensor in (("d_nonzero", consts.d), ("f_nonzero", consts.f)):
        reference = [  # every entry above TAU_NUM, 1-based, in index order
            [i + 1, j + 1, k + 1, float(tensor[i, j, k])]
            for i, j, k in itertools.product(range(8), repeat=3)
            if abs(tensor[i, j, k]) > TAU_NUM
        ]
        assert doc[name] == reference
    lam8 = doc["generators"]["3"][7]
    np.testing.assert_allclose(
        lam8["re"], (np.diag([1, 1, -2]) / np.sqrt(3)).tolist(), atol=1e-15
    )
    assert np.abs(np.asarray(lam8["im"])).max() == 0.0


def test_constants_table_format(capsys):
    code, out, _ = run_cli(capsys, "constants", "--format", "table")
    assert code == 0
    assert "f 1 2 3 1.0" in out
