"""Command-line front end.

Subcommands: ``analyze``, ``generate``, ``verify``, ``constants``.
Exit codes: 0 success, 1 verification failures present, 2 usage or
parse error, 3 input validation error.  ``POLCO_SEED`` supplies the
default seed.  Floats are serialized as their shortest round-trip
decimal form in every output format.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .basis import StokesVector, generators, stokes_to_json, structure_constants
from .errors import (
    DegenerateInput,
    DimensionError,
    PreconditionError,
    UnknownRelation,
    UnknownState,
    UnsupportedDimension,
    ValidationError,
)
from .linalg import matrix_from_json, matrix_to_json, state_from_json, state_to_json
from .measures import _measure, report_to_json
from .relations import relation_ids, run_campaign, summary_to_json
from .states import haar_pure, named_state, named_state_names, random_mixed
from .tolerances import TAU_NUM, TAU_REL


def _default_seed() -> int:
    return int(os.environ.get("POLCO_SEED", "0"))


@functools.cache  # built on the first call, then reused: main runs once per document in process
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polco",
        description="Polarization-coherence complementarity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="measure report for a state or matrix JSON file")
    p.add_argument("--input", required=True, help="state or matrix JSON file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")

    p = sub.add_parser("generate", help="write a state or matrix JSON file")
    p.add_argument("--kind", choices=("haar-pure", "mixed", "named"), required=True)
    p.add_argument("--dim", type=int, help="dimension for haar-pure / mixed")
    p.add_argument("--rank", type=int, help="rank for mixed (default: dim)")
    p.add_argument("--split", help="bipartite split AxB for haar-pure, e.g. 2x2")
    p.add_argument("--name", help="registry name for --kind named")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run a relation campaign over seeded random states")
    p.add_argument("--relation", required=True, help=", ".join(relation_ids()))
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rank", type=int, help="pin one rank (1..dim) for pct and the mixed trialities")
    p.add_argument("--tol", type=float, default=TAU_REL, help=f"residual tolerance (default {TAU_REL})")
    p.add_argument("--out", help="write the summary here instead of stdout")

    p = sub.add_parser("constants", help="emit generator matrices and structure constants")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            rows.extend(_flatten(value, f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple)):
        for index, value in enumerate(doc):
            rows.extend(_flatten(value, f"{prefix}{index}."))
    else:
        rows.append((prefix[:-1], doc))
    return rows


def _scalar_text(value) -> str:
    # repr of a double is its shortest round-trip form, matching json.dumps
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, allow_nan=False)
    rows = _flatten(doc)
    if fmt == "csv":
        lines = ["key,value"]
        lines += [f"{key},{_scalar_text(value)}" for key, value in rows]
        return "\n".join(lines)
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {_scalar_text(value)}" for key, value in rows)


def _parse_split(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except Exception:
        raise ValueError(f"cannot parse split {text!r}; expected AxB, e.g. 2x2") from None


def _cmd_analyze(args) -> int:
    with open(args.input) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "re" not in doc:
        raise ValueError("input is not a matrix or vector document")
    if doc["re"] and isinstance(doc["re"][0], list):
        obj = matrix_from_json(doc)
    else:
        obj = state_from_json(doc)
    report, stokes = _measure(obj)
    out_doc = report_to_json(report)
    out_doc["stokes"] = stokes_to_json(StokesVector(report.dim_n, stokes))
    _emit(_render(out_doc, args.format), args.out)
    return 0


def _cmd_generate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.kind in ("haar-pure", "mixed") and args.dim is None:
        raise ValueError(f"--kind {args.kind} requires --dim")
    if args.kind == "haar-pure":
        split = _parse_split(args.split) if args.split else None
        doc = state_to_json(haar_pure(args.dim, seed, split=split))
    elif args.kind == "mixed":
        if args.rank is not None and not 1 <= args.rank <= args.dim:
            raise PreconditionError(f"--rank must be in 1..{args.dim}, got {args.rank}")
        rank = args.rank if args.rank is not None else args.dim
        doc = matrix_to_json(random_mixed(args.dim, rank, seed))
    else:
        if not args.name:
            raise ValueError(
                f"--kind named requires --name; known: {', '.join(named_state_names())}"
            )
        doc = state_to_json(named_state(args.name))
    _emit(json.dumps(doc, indent=2, allow_nan=False), args.out)
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    params = {"rank": args.rank} if args.rank is not None else None
    summary = run_campaign(args.relation, args.samples, seed, params=params, tol=args.tol)
    _emit(json.dumps(summary_to_json(summary), allow_nan=False), args.out)
    return 0 if summary.failures == 0 else 1


def _tensor_nonzeros(tensor) -> list:
    # [i, j, k, value] with 1-based indices, in index order; ints, since json cannot take np.int64
    return [[int(i) + 1, int(j) + 1, int(k) + 1, float(tensor[i, j, k])]
            for i, j, k in np.argwhere(np.abs(tensor) > TAU_NUM)]


def _cmd_constants(args) -> int:
    consts = structure_constants()
    doc = {
        "generators": {
            "2": [matrix_to_json(g) for g in generators(2)],
            "3": [matrix_to_json(g) for g in generators(3)],
        },
        "d_nonzero": _tensor_nonzeros(consts.d),
        "f_nonzero": _tensor_nonzeros(consts.f),
    }
    if args.format == "json":
        _emit(json.dumps(doc, indent=2, allow_nan=False), args.out)
    else:
        lines = []
        for n in ("2", "3"):
            for index, g in enumerate(doc["generators"][n], start=1):
                lines.append(f"generator n={n} #{index}: re={g['re']} im={g['im']}")
        for name in ("d_nonzero", "f_nonzero"):
            for i, j, k, value in doc[name]:
                lines.append(f"{name[0]} {i} {j} {k} {_scalar_text(value)}")
        _emit("\n".join(lines), args.out)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "constants": _cmd_constants,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (json.JSONDecodeError, KeyError, IndexError, TypeError, ValueError) as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return 2
    except (UnknownState, UnknownRelation, PreconditionError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DimensionError, UnsupportedDimension, DegenerateInput) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
