"""Command-line front end over the JSON file formats.

Deterministic and scriptable: on one numpy/BLAS build and BLAS thread
count, a run with identical inputs and options produces byte-identical
output files.  Exit status 0 on success, 1 on a mathematical failure
(non-positive input, violated orthogonality, infeasible factorization, a
LAPACK routine that does not converge), 2 on malformed input, a file that
cannot be read or written, or an array too large to allocate; failures
emit a structured JSON diagnostic on standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import jsonio
from .completion import CompletionError, ContractionNormError, PartialPositivityError
from .extend import (
    check_max_orthogonal,
    extend_to_ball,
    extract_params,
    oracle_from_params,
    params_from_json,
    params_to_json,
    zero_oracle,
)
from .linalg import DEFAULT_TOL, RESIDUAL_TOL, NotHermitianError, NotPsdError, Tolerance
from .ncpoly import (
    InfeasibleReport,
    certificate_to_json,
    factor_sos,
    ncpolynomial_from_json,
    sample_positivity,
)
from .pdfun import MissingValueError, pdfunction_from_json, radialize, verify_pd
from .quasimult import haagerup
from .sampling import random_gamma_oracle
from .words import GroupContext

MATH_ERRORS = (
    NotPsdError,
    NotHermitianError,
    PartialPositivityError,
    CompletionError,
    ContractionNormError,
    MissingValueError,
    np.linalg.LinAlgError,  # a ValueError, but a LAPACK failure, not bad input
)


class CliInputError(ValueError):
    """Malformed input: wrong schema, missing file, bad option combination."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as :class:`CliInputError`, so they get a JSON diagnostic."""

    def error(self, message):
        raise CliInputError(f"{self.prog}: {message}")


def _diagnostic(kind: str, detail: str, **extra):
    doc = {"error": kind, "detail": detail}
    doc.update(extra)
    print(json.dumps(doc), file=sys.stderr)


def _tol(args, default: float) -> float:
    """The ``--tol`` value as given, or ``default`` when the option is absent."""
    if args.tol is None:
        return default
    if not 0 < args.tol < math.inf:
        raise CliInputError(f"--tol must be positive and finite, got {args.tol}")
    return args.tol


def _tolerance(args) -> Tolerance:
    return Tolerance(psd_eps=_tol(args, DEFAULT_TOL.psd_eps))


def _load_pdfun(path):
    return pdfunction_from_json(jsonio.load_path(path))


def _parse_order(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise CliInputError(f"unparsable letter order {text!r}") from exc


def cmd_verify(args) -> int:
    phi = _load_pdfun(args.input)
    result = verify_pd(phi, _tolerance(args))
    report = {
        "ok": result.ok,
        "min_eigenvalue": result.min_eigenvalue,
        "witness": [jsonio.word_to_json(w) for w in result.witness],
    }
    print(json.dumps(report))
    if not result.ok:
        _diagnostic(
            "not-positive",
            f"least Gram eigenvalue {result.min_eigenvalue:.6e} on the reported witness set",
            witness=report["witness"],
        )
        return 1
    return 0


def cmd_extend(args) -> int:
    if args.seed is not None and not args.random_oracle:
        raise CliInputError("--seed needs --random-oracle")
    if args.trace is not None and jsonio.same_file(args.trace, args.output):
        raise CliInputError("--trace and -o name the same file")
    phi = _load_pdfun(args.input)
    if args.params is not None:
        ctx, k, from_n, _, params = params_from_json(jsonio.load_path(args.params))
        if ctx != phi.ctx or k != phi.k:
            raise CliInputError("parameter file context does not match the input function")
        if from_n != phi.ball_radius():
            raise CliInputError(f"parameters start at S_{from_n}, the input is S_{phi.ball_radius()}")
        oracle = oracle_from_params(params)
    elif args.random_oracle:
        oracle = random_gamma_oracle(args.seed or 0)
    else:
        oracle = zero_oracle
    try:
        ext, trace = extend_to_ball(phi, args.to, oracle, _tolerance(args))
    except KeyError as exc:
        raise CliInputError(f"parameter file does not cover the extension: {exc}") from exc
    jsonio.dump_path(args.output, ext.to_json_dict())
    if args.trace is not None:
        try:
            jsonio.dump_path(args.trace, trace.to_json_dict())
        except BaseException:  # leave neither file
            jsonio.remove_file(args.output)
            raise
    return 0


def cmd_params(args) -> int:
    phi = _load_pdfun(args.input)
    params = extract_params(phi, args.from_n, _tolerance(args))
    doc = params_to_json(phi.ctx, phi.k, args.from_n, phi.ball_radius(), params)
    jsonio.dump_path(args.output, doc)
    return 0


def cmd_check_ortho(args) -> int:
    phi = _load_pdfun(args.input)
    report = check_max_orthogonal(phi, args.level, tol=_tol(args, RESIDUAL_TOL))
    out = {
        "ok": report.ok,
        "worst_violation": report.worst_violation,
        "worst_class": jsonio.word_to_json(report.worst_class.rep)
        if report.worst_class
        else None,
    }
    print(json.dumps(out))
    if not report.ok:
        _diagnostic(
            "orthogonality-violation",
            f"residual pairing {report.worst_violation:.6e} at the reported class",
            worst_class=out["worst_class"],
        )
        return 1
    return 0


def cmd_haagerup(args) -> int:
    ctx = GroupContext(args.m, _parse_order(args.order))
    phi = haagerup(ctx, args.k, args.t, args.n)
    jsonio.dump_path(args.output, phi.to_json_dict())
    return 0


def cmd_radialize(args) -> int:
    phi = _load_pdfun(args.input)
    jsonio.dump_path(args.output, radialize(phi).to_json_dict())
    return 0


def cmd_factor(args) -> int:
    p = ncpolynomial_from_json(jsonio.load_path(args.input))
    result = factor_sos(p, tol=_tol(args, RESIDUAL_TOL), max_iter=args.max_iter)
    if isinstance(result, InfeasibleReport):
        if result.witness is not None:
            detail = (
                "a positive definite function pairs negatively with the polynomial, "
                "beyond its rounding bound: it is not positive"
            )
        else:
            detail = (
                "no sum-of-squares certificate or separating function found within the "
                "iteration budget; this is not a disproof of positivity"
            )
        _diagnostic(
            "infeasible",
            detail,
            gap=result.gap,
            affine_residual=result.affine_residual,
            psd_residual=result.psd_residual,
            iterations=result.iterations,
            separation=result.separation,
        )
        return 1
    jsonio.dump_path(args.output, certificate_to_json(result))
    print(json.dumps({"residual": result.residual, "iterations": result.iterations}))
    return 0


def cmd_sample(args) -> int:
    p = ncpolynomial_from_json(jsonio.load_path(args.input))
    worst = sample_positivity(p, trials=args.trials, d_max=args.dmax, seed=args.seed)
    print(json.dumps({"min_eigenvalue": worst, "trials": args.trials, "d_max": args.dmax}))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``freepd`` parser, built once per process: building it costs far more than a parse."""
    parser = _Parser(
        prog="freepd",
        description="Positive definite functions on free groups: verify, extend, "
        "parametrize, and factor positive noncommutative polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p, bound: str, default: float):
        p.add_argument("--tol", type=float, default=None, help=f"{bound} (default {default:g})")

    window_floor = "relative PSD floor of the positivity tests of each completion window"

    p = sub.add_parser("verify", help="check positive definiteness of a pdfun.v1 file")
    p.add_argument("input")
    add_tol(
        p,
        "relative PSD floor: a Gram eigenvalue below -TOL * max(1, max |eigenvalue|) fails",
        DEFAULT_TOL.psd_eps,
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extend", help="extend a function to a larger ball")
    p.add_argument("input")
    p.add_argument("--to", type=int, required=True, help="target ball radius N")
    oracle = p.add_mutually_exclusive_group()
    oracle.add_argument("--central", action="store_true", help="zero parameters (default)")
    oracle.add_argument("--params", default=None, help="params.v1 or trace.v1 sequence to replay")
    oracle.add_argument("--random-oracle", action="store_true", help="seeded random contractions")
    p.add_argument("--seed", type=int, default=None, help="seed of --random-oracle (default 0)")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--trace", default=None, help="write a trace.v1 audit file")
    add_tol(p, window_floor, DEFAULT_TOL.psd_eps)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("params", help="extract the contraction sequence of a function")
    p.add_argument("input")
    p.add_argument("--from", dest="from_n", type=int, required=True, help="base radius n")
    p.add_argument("--output", "-o", required=True)
    add_tol(p, window_floor, DEFAULT_TOL.psd_eps)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("check-ortho", help="check the central-extension orthogonality")
    p.add_argument("input")
    p.add_argument("--level", type=int, required=True, help="check the gap at level + 1")
    add_tol(p, "absolute bound on the spectral norm of each residual pairing", RESIDUAL_TOL)
    p.set_defaults(func=cmd_check_ortho)

    p = sub.add_parser("haagerup", help="write the radial function exp(-t|s|) I on a ball")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", default=None, help="comma-separated letter order override")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_haagerup)

    p = sub.add_parser("radialize", help="average a function over each sphere")
    p.add_argument("input")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_radialize)

    p = sub.add_parser("factor", help="sum-of-squares factorization of an ncpoly.v1 file")
    p.add_argument("input")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--max-iter", type=int, default=20_000)
    add_tol(p, "absolute bound on the spectral norm of each coefficient residual", RESIDUAL_TOL)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("sample", help="sample eigenvalues of p(U) over random unitaries")
    p.add_argument("input")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MATH_ERRORS as exc:
        _diagnostic("math-failure", str(exc))
        return 1
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        _diagnostic("bad-input", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
