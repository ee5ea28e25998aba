"""Command-line surface: one JSON document per invocation on stdout.

Human-readable summaries go to stderr.  Exit status: 0 success / confirmed,
1 verification failure or refuted report, 2 usage or input error.
Every ValueError a command raises is a usage or input error: main prints
it and exits 2.  Truth tables and exact degree run up to boolfn.MAX_N
variables; certification above that multiplies the degrees of a member's
composition parts (--mode composition), up to lowdeg.MAX_ITERATED_N
variables.  Polynomial emission stops at polynomial.INTERPOLATION_CAP.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from typing import Any, Callable, Optional

from . import boolfn, lowdeg, polynomial, qsim, suites
from .boolfn import BooleanFunction

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(obj: dict) -> None:
    """Stream ``obj`` as sorted, 2-space-indented JSON and a newline.

    The encoder's chunks are joined and written 2**16 at a time, so a large
    document (f3k:7's 543,607 polynomial terms) is never held as one string.
    """
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 1 << 16)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _info(message: str) -> None:
    sys.stderr.write(message + "\n")


def _clip(message: str, limit: int) -> str:
    """``message`` with each run of more than ``limit`` non-space characters, and each
    quoted span that long with a space in it (kept a quarter as long: it may be echoed
    twice), cut to its head and tail around "...": no message echoes a long input whole."""
    def cut(run: re.Match) -> str:
        keep = (limit - 3) // (8 if run[1] else 2)
        return f"{run[0][:keep]}...{run[0][-keep:]}"

    # a quoted span: from a quote to the next of the same kind, as repr() writes a str
    return re.sub(rf"(['\"])(?=(?:(?!\1).)*\s)(?:(?!\1).){{{limit - 1},}}\1|\S{{{limit + 1},}}", cut, message)


def _argument(parse: Callable[[str], Any], what: str) -> Callable[[str], Any]:
    """An argparse type: ``parse(text)``, or an error that ``text`` is not ``what``."""

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError:
            # argparse prints its usage lines first, so this echoes less than main
            raise argparse.ArgumentTypeError(_clip(f"{text!r} is not {what}", 48)) from None

    return convert


def _nonnegative(text: str) -> int:
    if (value := boolfn.parse_int(text)) < 0:
        raise ValueError(text)
    return value


_int = _argument(boolfn.parse_int, "an integer")
_nonnegative_int = _argument(_nonnegative, "a nonnegative integer")
_int_list = _argument(lambda text: [boolfn.parse_int(v) for v in text.split(",")],
                      "a comma-separated list of integers")


def _named_algorithm(name: str) -> qsim.QueryAlgorithm:
    if name not in ("a1", "a2"):
        raise ValueError(f"unknown builtin algorithm {name!r}; builtins are a1, a2")
    return qsim.a1() if name == "a1" else qsim.a2()


def _load(kind: str, spec: str, builtin: Callable[[str], Any], decode: Callable[[Any], Any]) -> Any:
    """builtin:NAME is a builtin only; a bare spec is a builtin, else a JSON file."""
    name = spec.removeprefix("builtin:")
    try:
        return builtin(name)
    except ValueError as exc:
        if name != spec:
            raise
        builtin_error = exc
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return decode(json.load(fh, parse_int=boolfn.parse_int))
    except FileNotFoundError:
        raise ValueError(f"cannot load {kind} {spec!r}: no such file, and {builtin_error}") from None
    # deep nesting raises RecursionError, in json.load or in a decoder's repr of a value;
    # an OSError's own text would echo the file name a second time
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise ValueError(f"cannot load {kind} {spec!r}: {getattr(exc, 'strerror', None) or exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    f = _load("function", args.fn, boolfn.named_function, BooleanFunction.from_json_dict)
    report = boolfn.complexity_report(f, dcap=args.dcap)
    _emit(report.to_json_dict())
    _info(f"analyzed n={f.n} function: sensitivity {report.sensitivity}, degree {report.degree}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    tolerance = qsim.FLOAT_TOLERANCE if args.float else 0
    alg = _load("algorithm", args.alg, _named_algorithm,
                lambda data: qsim.algorithm_from_json_dict(data, tolerance))
    x = boolfn.coerce_input(args.input, alg.n)
    final = qsim.simulate(alg, x, trace=args.trace)
    show = float if args.float else str
    out = {
        "mode": "float" if args.float else "exact",
        "amplitudes": [show(a) for a in final.amplitudes],
        "probabilities": {str(k): show(v) for k, v in final.outcome_prob.items()},
        "outcome": final.deterministic_outcome(tolerance),
    }
    if args.trace:
        out["trace"] = [
            {"layer": i, "amplitudes": [show(a) for a in state]}
            for i, state in enumerate(final.trace)
        ]
    _emit(out)
    _info(f"simulated input {x}: outcome {out['outcome']}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = suites.run_suite(args.suite, count=args.count, seed=args.seed)
    except suites.UnknownSuite as exc:
        raise ValueError(f"unknown suite: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"suite {args.suite}: {exc}") from None
    _emit(report)
    passed = report["passed"]
    _info(f"suite {args.suite}: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_FAIL


_FAMILIES = {"f9": lowdeg.build_f9, "f12": lowdeg.build_f12, "f3k:K": lowdeg.build_f3k,
             "lemma3:K,T": lowdeg.build_lemma3}  # keyed by boolfn.parse_spec usage


def _parse_family(spec: str) -> lowdeg.ConstructedFunction:
    usage, params = boolfn.parse_spec(spec, _FAMILIES) or ("", [])
    if not usage:
        raise ValueError(f"unknown family {spec!r}")
    return _FAMILIES[usage](*params)


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.mode != "auto" and args.emit != "report":
        raise ValueError(f"--mode {args.mode} applies only to --emit report")
    cf = _parse_family(args.family)
    if args.emit == "report":
        report = lowdeg.certify(cf, mode=args.mode)
        _emit(report.to_json_dict())
        _info(f"family {args.family}: status {report.status}")
        return EXIT_OK if report.status == "confirmed" else EXIT_FAIL
    if args.emit == "table":
        _emit(cf.to_boolean_function().to_json_dict())
        return EXIT_OK
    if cf.n > polynomial.INTERPOLATION_CAP:
        raise ValueError(f"polynomial emission capped at n={polynomial.INTERPOLATION_CAP}; n={cf.n}")
    # a 0/1 table's coefficients are integers: every term's denominator is 1
    coeffs = polynomial.mobius_coefficients(cf.table())
    masks = coeffs.nonzero()[0]
    terms = [{"mask": m, "num": str(c), "den": "1"} for m, c in zip(masks.tolist(), coeffs[masks].tolist())]
    _emit({"n": cf.n, "terms": terms})
    return EXIT_OK


def _cmd_fit_collapser(args: argparse.Namespace) -> int:
    if args.published_k7:
        poly = polynomial.published_k7_collapser()
        out = {"transcription": polynomial.collapser_transcription_report(poly, 7)}
    elif args.k is not None:
        values, poly = polynomial.find_collapser(args.k)
        out = {"k": args.k, "values": list(values), "degree": poly.degree}
    else:
        poly = polynomial.fit_range_polynomial(args.values)
        out = {"values": args.values, "degree": poly.degree}
    _emit({**out, "polynomial": poly.to_json_dict()})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactquery",
        description="Exact quantum query algorithms and Boolean function analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="complexity report for a truth table")
    p.add_argument("fn", help="truth-table JSON path or builtin:NAME")
    p.add_argument("--dcap", type=_nonnegative_int, default=boolfn.DEFAULT_DCAP,
                   help="exact-depth cap")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("simulate", help="run an algorithm on one input")
    p.add_argument("--alg", required=True, help="algorithm JSON path or builtin:a1/a2")
    p.add_argument("--input", required=True, help="input bits, e.g. 011")
    p.add_argument("--trace", action="store_true", help="include per-layer amplitudes")
    p.add_argument("--float", action="store_true", help="floating-point mode")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--count", type=_int, default=None, help="sample count for random suites")
    p.add_argument("--seed", type=_int, default=None, help="seed for random suites")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("construct", help="emit a constructed family member")
    p.add_argument("--family", required=True, help=" | ".join(_FAMILIES))
    p.add_argument("--emit", choices=("table", "poly", "report"), default="report")
    p.add_argument("--mode", choices=("auto", "exact", "composition"), default="auto")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("fit-collapser", help="fit or search range collapsers")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--values", type=_int_list, help="comma-separated sample values at 0..k")
    mode.add_argument("--k", type=_int, help="search the canonical collapser for odd k")
    mode.add_argument("--published-k7", action="store_true", dest="published_k7",
                      help="evaluate the published k=7 transcription")
    p.set_defaults(handler=_cmd_fit_collapser)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        # 120 keeps a usual file path whole, and a message with one cut echo under 200
        # characters; one that echoes twice, or says more around its echo, cuts to 48
        message = _clip(str(exc), 120)
        _info(message if len(message) < 200 else _clip(str(exc), 48))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
