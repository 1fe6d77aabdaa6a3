"""Seeded corpus of matrix and vector documents for the analyze-files workload.

The corpus is made with numpy alone, never with polco's samplers, so the
program under test only receives the finished documents.  It cycles
through nine kinds: 2x2 matrices of rank 1-2, 3x3 matrices of rank 1-3,
single qubit and qutrit vectors, and 2x2 and 3x3 bipartite vectors.

Regenerate it by hand with::

    python3 bench/corpus.py --seed 7 --out bench/out/corpus/seed-7
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

KINDS = (
    ("m2r1", "matrix", 2, 1),
    ("m2r2", "matrix", 2, 2),
    ("m3r1", "matrix", 3, 1),
    ("m3r2", "matrix", 3, 2),
    ("m3r3", "matrix", 3, 3),
    ("v2", "vector", 2, None),
    ("v3", "vector", 3, None),
    ("b2x2", "vector", 4, (2, 2)),
    ("b3x3", "vector", 9, (3, 3)),
)
N_DOCS = 1008  # 112 of each kind; at least 1000 so a p99 has ten samples beyond it


def _gaussians(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unit(rng, dim):
    """Haar-random unit amplitude vector."""
    z = _gaussians(rng, dim)
    return z / np.linalg.norm(z)


def random_density(rng, dim, rank):
    """Density matrix of the given rank: QR eigenvectors of a Ginibre matrix, Dirichlet weights."""
    q, _ = np.linalg.qr(_gaussians(rng, (dim, dim)))
    vecs = q[:, :rank]
    rho = (vecs * rng.dirichlet(np.ones(rank))) @ vecs.conj().T
    return (rho + rho.conj().T) / 2.0  # exactly Hermitian


def make_doc(rng, kind):
    _, form, dim, extra = kind
    if form == "matrix":
        rho = random_density(rng, dim, extra)
        return {"dim": dim, "re": rho.real.tolist(), "im": rho.imag.tolist()}
    z = random_unit(rng, dim)
    doc = {"dim": dim, "re": z.real.tolist(), "im": z.imag.tolist()}
    if extra is not None:
        doc["split"] = list(extra)
    return doc


def write_corpus(seed, out_dir):
    """Write the N_DOCS documents of ``seed`` under ``out_dir``; return their paths in order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    paths = []
    for index in range(N_DOCS):
        kind = KINDS[index % len(KINDS)]
        path = out_dir / f"doc-{index:04d}-{kind[0]}.json"
        path.write_text(json.dumps(make_doc(rng, kind)))
        paths.append(path)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    paths = write_corpus(args.seed, args.out)
    print(f"wrote {len(paths)} documents to {args.out}")


if __name__ == "__main__":
    main()
