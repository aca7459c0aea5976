"""Command-line front end.

Subcommands: build, verify, transform, map, choi, concurrence,
decompose. Exit codes: 0 on success (verify: all identities pass), 1
when any identity fails, 2 on usage or input-format errors, including
input whose sums overflow to non-finite values, which is refused with
one line and no floating-point warning. A basis that fails validation
exits 2 in map, choi (except --map identity) and transform; verify
reports it as failures. Machine reports are versioned
JSON documents; two runs with the same configuration and the same BLAS
thread count produce byte-identical output. At d >= 12 some residuals
differ in the last digit between 1 and 2 threads; verdicts do not.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fileio
from .bases import NAMED_BASES, MatrixBasis
from .identities import DEFAULT_SEED, run_catalogue
from .maps import (
    bloch_decompose,
    choi_state,
    concurrence_squared,
    partial_transpose_map,
    reshuffle_map,
    state_inversion,
    superop_from_action,
    trace_map,
    transpose_map,
)
from .operators import bell_state, coherent_state, swap_operator
from .report import IdentityReport
from .transforms import change_of_basis

REPORT_SCHEMA = 1


def _resolve_basis(spec: str, dim: int | None) -> MatrixBasis:
    if spec in NAMED_BASES:
        if dim is None:
            raise ValueError(f"--dim is required with the built-in basis {spec!r}")
        return NAMED_BASES[spec](dim)
    if spec.startswith("file:"):
        basis = fileio.load_basis(spec[len("file:") :])
        if dim is not None and basis.d != dim:
            raise ValueError(
                f"basis file has d={basis.d} but --dim {dim} was requested"
            )
        return basis
    raise ValueError(
        f"unknown basis spec {spec!r}; use {', '.join(NAMED_BASES)}, or file:<path>"
    )


def _machine_report(config: dict, report: IdentityReport) -> str:
    doc = {
        "schema": REPORT_SCHEMA,
        "config": config,
        "results": [
            {
                "id": c.id,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "verdict": "pass" if c.passed else "fail",
            }
            for c in report.checks
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _text_report(report: IdentityReport) -> str:
    lines = []
    for c in report.checks:
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{verdict} {c.id:<22} residual={c.residual:.3e} tolerance={c.tolerance:.3e}"
        )
    n_fail = len(report.failures)
    if n_fail:
        lines.append(f"{n_fail} of {len(report)} identities failed")
    else:
        lines.append(f"all {len(report)} identities passed")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# name -> d -> the operator or state written, in the order of the CLI choices
_BUILDS = {"swap": swap_operator, "bell": bell_state, "coherent": coherent_state}


def _cmd_build(args) -> int:
    fileio.save_matrix(_BUILDS[args.operator](args.dim), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    basis = _resolve_basis(args.basis, args.dim)
    ids = None if args.ids is None else [name for name in args.ids.split(",") if name]
    report = run_catalogue(basis, ids=ids, seed=args.seed)
    for c in report.checks:
        if not np.isfinite(c.residual):
            raise ValueError(
                f"identity {c.id} has a non-finite residual; the basis sums overflow "
                "double precision"
            )
    if args.report == "machine":
        config = {
            "command": "verify",
            "dim": basis.d,
            "basis": args.basis,
            "ids": [c.id for c in report.checks],
            "seed": args.seed,
            "report": args.report,
        }
        _emit(_machine_report(config, report), args.out)
    else:
        _emit(_text_report(report), args.out)
    return 0 if report.all_passed else 1


def _cmd_transform(args) -> int:
    source = _resolve_basis(args.src, args.dim)
    target = _resolve_basis(args.dst, args.dim)
    change = change_of_basis(target, source)
    fileio.save_matrix(change.coeffs, args.out)
    return 0


# name -> (operand, basis, party) -> image, in the order of the CLI choices
_MAPS = {
    "trace": lambda a, basis, party: trace_map(a, basis),
    "transpose": lambda a, basis, party: transpose_map(a, basis),
    "pt": lambda a, basis, party: partial_transpose_map(a, party, basis),
    "reshuffle": lambda a, basis, party: reshuffle_map(a, basis),
    "inversion": lambda a, basis, party: state_inversion(a, basis),
}


def _cmd_map(args) -> int:
    basis = _resolve_basis(args.basis, args.dim)
    operand = fileio.load_matrix(args.input)
    fileio.save_matrix(_MAPS[args.map](operand, basis, args.party), args.out)
    return 0


# name -> (element, basis) -> image under the map, built from the basis-sum maps
_CHOI_ACTIONS = {
    "identity": lambda g, basis: g,
    "transpose": transpose_map,
    "trace": trace_map,
    "inversion": lambda g, basis: trace_map(g, basis) - g,
}


def _cmd_choi(args) -> int:
    basis = _resolve_basis(args.basis, args.dim)
    action = _CHOI_ACTIONS[args.map]
    superop = superop_from_action(lambda g: action(g, basis), basis)
    fileio.save_matrix(choi_state(superop, basis).matrix, args.out)
    return 0


def _cmd_concurrence(args) -> int:
    psi = fileio.load_vector(args.state)
    sys.stdout.write(f"{concurrence_squared(psi):.10f}\n")
    return 0


def _cmd_decompose(args) -> int:
    basis = _resolve_basis(args.basis, args.dim)
    operand = fileio.load_matrix(args.input)
    fileio.save_matrix(bloch_decompose(operand, basis).coeffs, args.out)
    return 0


def _add_basis_args(parser) -> None:
    parser.add_argument("--dim", type=int, default=None, help="local dimension d")
    parser.add_argument(
        "--basis",
        default="gellmann",
        help=f"basis spec: {', '.join(NAMED_BASES)}, or file:<path>",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsbasis",
        description="Orthogonal operator bases: constructions, expansions, identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write SWAP, the Bell state, or the coherent state")
    p.add_argument("operator", choices=tuple(_BUILDS))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run the identity catalogue against a basis")
    _add_basis_args(p)
    p.add_argument("--ids", default=None, help="comma-separated identity names")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--report", choices=("text", "machine"), default="text")
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="coefficient matrix between two bases")
    p.add_argument("--from", dest="src", required=True, help="source basis spec")
    p.add_argument("--to", dest="dst", required=True, help="target basis spec")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("map", help="apply a basis-expanded map to a matrix file")
    p.add_argument("map", choices=tuple(_MAPS))
    _add_basis_args(p)
    p.add_argument("--party", type=int, choices=(1, 2), default=2)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("choi", help="Choi representation of a named map")
    p.add_argument("--map", choices=tuple(_CHOI_ACTIONS), required=True)
    _add_basis_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_choi)

    p = sub.add_parser("concurrence", help="squared concurrence of a pure state vector file")
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_concurrence)

    p = sub.add_parser("decompose", help="Bloch coefficients of a matrix in a basis")
    _add_basis_args(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        # overflow is reported where it matters: non-finite results are refused
        # when written, by verify's finite check and by concurrence's norm check
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"hsbasis: {exc}\n")
        return 2
    except MemoryError:
        sys.stderr.write("hsbasis: out of memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
