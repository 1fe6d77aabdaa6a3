#!/usr/bin/env python3
"""Negative controls: each shows that one of the benchmark's checks can fail.

Run with ``python3 bench/controls.py`` (exit 0 when every control behaves)
or ``python3 -m pytest bench/controls.py``.
"""

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import corpus
import oracle
import run
from run import polco

PERTURBATION = 1e-9


def _analyzed_documents():
    """One analyzed document of every corpus kind: [(doc, report dict)]."""
    out = []
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        rng = np.random.default_rng(2024)
        paths = []
        for kind in corpus.KINDS:
            path = Path(tmp) / f"{kind[0]}.json"
            path.write_text(json.dumps(corpus.make_doc(rng, kind)))
            paths.append(path)
        docs = run.Documents(paths, run.Tally())
        for path in paths:
            out.append((docs.docs[path], oracle.strict_loads(docs.analyze(path))))
    return out


def test_oracle_rejects_value_perturbed_by_1e9():
    for doc, report in _analyzed_documents():
        assert oracle.report_errors(report, doc) == []
        for key in ("predictability_sq", "coherence_hs_sq", "linear_entropy_sq",
                    "degree_pol_sq", "entanglement_sq"):
            if report[key] is None:
                continue
            bad = dict(report, **{key: report[key] + PERTURBATION})
            assert oracle.report_errors(bad, doc), f"{key} perturbed by 1e-9 was accepted"
        stokes = dict(report["stokes"], s=[report["stokes"]["s"][0] + PERTURBATION]
                      + report["stokes"]["s"][1:])
        assert oracle.report_errors(dict(report, stokes=stokes), doc)


def test_verdict_check_rejects_lhs_perturbed_by_1e9():
    rng = np.random.default_rng(7)
    psi = corpus.random_unit(rng, 9)
    verdict = polco.check_qutrit_triality_pure(polco.StateVector(psi, split=(3, 3)))
    assert oracle.verdict_errors(verdict, "qutrit-triality", psi, (3, 3)) == []
    bad = dataclasses.replace(verdict, lhs=verdict.lhs + PERTURBATION)
    assert oracle.verdict_errors(bad, "qutrit-triality", psi, (3, 3))


def test_cli_tiny_tolerance_exits_1_with_failures():
    argv = [sys.executable, "-m", "polco.cli", "verify", "--relation", "qutrit-triality",
            "--samples", "50", "--seed", "3", "--tol", "1e-300"]
    proc = subprocess.run(argv, cwd=run.ROOT, env=run.CHILD_ENV, capture_output=True, timeout=120)
    assert proc.returncode == 1, proc.returncode
    summary = oracle.strict_loads(proc.stdout)
    assert summary["failures"] > 0
    assert oracle.summary_errors(summary, "qutrit-triality", 50, 3, 1e-300)


def test_summary_check_rejects_zero_residual_and_short_campaign():
    good = polco.summary_to_json(polco.run_campaign("qubit-duality", 20, 5))
    assert oracle.summary_errors(good, "qubit-duality", 20, 5, run.DEFAULT_TOL) == []
    assert oracle.summary_errors(dict(good, max_residual=0.0), "qubit-duality", 20, 5, run.DEFAULT_TOL)
    assert oracle.summary_errors(dict(good, n_samples=19), "qubit-duality", 20, 5, run.DEFAULT_TOL)


def test_strict_json_rejects_nan_and_infinity():
    for token in ("NaN", "Infinity", "-Infinity"):
        text = f'{{"tolerance": {token}}}'
        json.loads(text)  # the standard reader lets these through
        try:
            oracle.strict_loads(text)
        except ValueError:
            continue
        raise AssertionError(f"strict reader accepted {token}")


def main():
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok    {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {name}: {exc}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
