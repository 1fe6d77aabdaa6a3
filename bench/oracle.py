"""Independent recomputation of polco's measures, used to check its outputs.

Nothing here imports polco: every value is recomputed from the matrix
entries, from ``eigvalsh`` eigenvalues or from the Schmidt coefficients
(singular values of the amplitude table), so a fault in polco's own
routes cannot also hide in the check.  Inputs are trace-normalized
density matrices or unit amplitude vectors as numpy arrays.
"""

from __future__ import annotations

import json

import numpy as np

AGREE = 1e-12  # absolute agreement required between polco and the oracle
FOUR_THIRDS = 4.0 / 3.0


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token!r}")


def strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def normalized(rho):
    rho = np.asarray(rho, dtype=np.complex128)
    return rho / np.trace(rho).real


def reduced_a(psi, split):
    """Subsystem-A reduced matrix of a pure bipartite state (A-major)."""
    table = np.asarray(psi).reshape(split)
    return table @ table.conj().T


def predictability_sq(rho):
    """(2/n) sum_{i<j} (p_i - p_j)^2 over the diagonal."""
    p = np.real(np.diag(normalized(rho)))
    n = p.size
    return (2.0 / n) * sum((p[i] - p[j]) ** 2 for i in range(n) for j in range(i + 1, n))


def coherence_sq(rho):
    """2 sum_{i != j} |rho_ij|^2."""
    r = normalized(rho)
    off = r[~np.eye(r.shape[0], dtype=bool)]
    return 2.0 * float(np.sum(np.abs(off) ** 2))


def mixedness_sq(rho):
    """(d/(d-1)) (1 - sum lambda^2) from the eigenvalues."""
    lam = np.linalg.eigvalsh(normalized(rho))
    d = lam.size
    return (d / (d - 1.0)) * (1.0 - float(lam @ lam))


def purity(rho):
    r = normalized(rho)
    return float(np.sum(np.abs(r) ** 2))


def degree_pol_sq(rho):
    """|S|^2 = 2 Tr rho^2 - 1 for a qubit."""
    return 2.0 * purity(rho) - 1.0


def stokes_norm_sq(rho):
    """sum_k S_k^2 in polco's normalization: 2 Tr rho^2 - 1 (n=2), (3 Tr rho^2 - 1)/2 (n=3)."""
    if normalized(rho).shape[0] == 2:
        return degree_pol_sq(rho)
    return (3.0 * purity(rho) - 1.0) / 2.0


def entanglement_sq(psi, split):
    """4 sum_{i<j} s_i^2 s_j^2 over the Schmidt coefficients s."""
    s2 = np.linalg.svd(np.asarray(psi).reshape(split), compute_uv=False) ** 2
    s2 = s2 / s2.sum()
    return 4.0 * sum(s2[i] * s2[j] for i in range(s2.size) for j in range(i + 1, s2.size))


def mismatches(pairs):
    """Complaints for the (name, got, want) triples that differ by more than AGREE."""
    bad = []
    for name, got, want in pairs:
        if got is None or want is None:
            if got is not want:
                bad.append(f"{name}: got {got!r}, want {want!r}")
        elif not abs(float(got) - float(want)) <= AGREE:
            bad.append(f"{name}: got {float(got)!r}, want {float(want)!r}")
    return bad


# ---------------------------------------------------------------------------
# Expected relation verdicts
# ---------------------------------------------------------------------------

def expected_verdict(relation_id, sample, split=None):
    """(lhs, rhs) of ``relation_id`` on ``sample``, recomputed here.

    ``sample`` is an amplitude vector for the pure-state relations and a
    density matrix for pct and the mixed trialities.
    """
    if relation_id in ("qubit-duality", "qutrit-duality"):
        rho = np.outer(sample, np.conj(sample))
        rhs = 1.0 if rho.shape[0] == 2 else FOUR_THIRDS
        return predictability_sq(rho) + coherence_sq(rho), rhs
    if relation_id == "pct":
        return degree_pol_sq(sample), predictability_sq(sample) + coherence_sq(sample)
    if relation_id in ("qubit-triality", "qutrit-triality"):
        rho = reduced_a(sample, split)
        rhs = 1.0 if split == (2, 2) else FOUR_THIRDS
        return entanglement_sq(sample, split) + predictability_sq(rho) + coherence_sq(rho), rhs
    if relation_id == "qubit-mixed-triality":
        return mixedness_sq(sample) + coherence_sq(sample) + predictability_sq(sample), 1.0
    if relation_id == "qutrit-mixed-triality":
        lhs = FOUR_THIRDS * mixedness_sq(sample) + predictability_sq(sample) + coherence_sq(sample)
        return lhs, FOUR_THIRDS
    if relation_id == "stokes-geometry":
        return 0.0, 0.0  # a pure qutrit lies on the admissible surface exactly
    raise KeyError(relation_id)


def verdict_errors(verdict, relation_id, sample, split=None):
    lhs, rhs = expected_verdict(relation_id, sample, split)
    errors = mismatches([("lhs", verdict.lhs, lhs), ("rhs", verdict.rhs, rhs)])
    if verdict.relation_id != relation_id:
        errors.append(f"relation_id {verdict.relation_id!r}")
    if not (verdict.passed and verdict.residual <= verdict.tolerance):
        errors.append(f"failed verdict, residual {verdict.residual!r}")
    return errors


def summary_errors(summary, relation_id, n, seed, tolerance):
    """Checks on one campaign summary (a dict in polco's JSON layout)."""
    errors = []
    if summary.get("relation_id") != relation_id or summary.get("seed") != seed:
        errors.append(f"wrong campaign identity {summary.get('relation_id')!r}/{summary.get('seed')!r}")
    if summary.get("n_samples") != n:
        errors.append(f"n_samples {summary.get('n_samples')!r} != {n}")
    if summary.get("failures") != 0:
        errors.append(f"failures {summary.get('failures')!r}")
    if summary.get("tolerance") != tolerance:
        errors.append(f"tolerance {summary.get('tolerance')!r}")
    max_residual = summary.get("max_residual")
    if not (isinstance(max_residual, float) and 0.0 < max_residual <= tolerance):
        errors.append(f"max_residual {max_residual!r} outside (0, {tolerance}]")
    return errors


# ---------------------------------------------------------------------------
# Expected analyze reports
# ---------------------------------------------------------------------------

def report_errors(report, doc):
    """Checks on one rendered ``analyze`` report against its input document."""
    re_part = np.asarray(doc["re"], dtype=np.float64)
    amplitudes = re_part + 1j * np.asarray(doc["im"], dtype=np.float64)
    entanglement = None
    if re_part.ndim == 2:
        rho = amplitudes
    elif doc.get("split"):
        split = tuple(doc["split"])
        rho = reduced_a(amplitudes, split)
        entanglement = entanglement_sq(amplitudes, split)
    else:
        rho = np.outer(amplitudes, amplitudes.conj())
    n = rho.shape[0]
    stokes = report.get("stokes", {})
    components = np.asarray(stokes.get("s", []), dtype=np.float64)
    errors = mismatches([
        ("predictability_sq", report.get("predictability_sq"), max(predictability_sq(rho), 0.0)),
        ("coherence_hs_sq", report.get("coherence_hs_sq"), max(coherence_sq(rho), 0.0)),
        ("linear_entropy_sq", report.get("linear_entropy_sq"), max(mixedness_sq(rho), 0.0)),
        ("degree_pol_sq", report.get("degree_pol_sq"), max(degree_pol_sq(rho), 0.0) if n == 2 else None),
        ("entanglement_sq", report.get("entanglement_sq"),
         None if entanglement is None else max(entanglement, 0.0)),
        ("stokes.|s|^2", float(components @ components), stokes_norm_sq(rho)),
    ])
    if report.get("dim_n") != n or stokes.get("n") != n or components.size != n * n - 1:
        errors.append(f"dimension mismatch for n={n}")
    return errors
