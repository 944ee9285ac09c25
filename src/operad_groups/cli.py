"""Command-line surface for the fraction-group calculator.

One binary, subcommand style.  Every command honors the global backend
flags and the --json switch (JSON lines with a stable schema); exit code 0
on success, 1 when an asserted property fails or a report has failures,
2 on parse or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .backend import parse_backend
from .action import act
from .certificates import (
    free_action_check,
    infinite_order_check,
    make_gamma1,
    make_gamma2,
    padded_certificates_check,
    pingpong_reports,
    sigma_span_report,
)
from .errors import OperadError, ParseError
from .markings import SemiPartitionClass, parse_marked_arrow
from .poset import check_filtered, enumerate_pn
from .report import Report
from .spans import (
    format_span,
    parse_span,
    realized_map,
    sp_eq,
    sp_inv,
    sp_mul,
    sp_order,
    sp_pow,
)


def _emit(args, command: str, inputs, result) -> None:
    if args.json:
        print(json.dumps({"command": command, "inputs": inputs, "result": result}))
    else:
        print(result)


def _emit_report(args, report: Report) -> int:
    if args.json:
        for row in report.rows:
            # certificate rows name an instance; poset pairs print as they are
            line = {"check": report.check, **row} if "instance" in row else dict(row)
            print(json.dumps(line))
    else:
        verdict = "ok" if report.ok else f"{len(report.failures())} failures"
        print(f"{report.check}: {len(report.rows)} checks, {verdict}")
        for row in report.failures():
            print(f"  FAIL {row}")
    return 0 if report.ok else 1


def _cmd_elem(args, config) -> int:
    if args.elem_cmd == "eq":
        verdict = sp_eq(parse_span(args.a, config), parse_span(args.b, config))
        _emit(args, "elem eq", [args.a, args.b], "true" if verdict else "false")
        return 0 if verdict or not args.assert_ else 1
    if args.elem_cmd == "mul":
        g = sp_mul(parse_span(args.a, config), parse_span(args.b, config))
        _emit(args, "elem mul", [args.a, args.b], format_span(g))
        return 0
    if args.elem_cmd == "inv":
        g = sp_inv(parse_span(args.a, config))
        _emit(args, "elem inv", [args.a], format_span(g))
        return 0
    if args.elem_cmd == "pow":
        g = sp_pow(parse_span(args.a, config), args.n)
        _emit(args, "elem pow", [args.a, str(args.n)], format_span(g))
        return 0
    if args.elem_cmd == "order":
        order = sp_order(parse_span(args.a, config), args.max)
        _emit(args, "elem order", [args.a], "none" if order is None else str(order))
        return 0
    # realize: the required subparser admits no other name
    table = realized_map(parse_span(args.a, config))
    pieces = [f"{jd}:{cd} -> {jn}:{cn}" for (jd, cd), (jn, cn) in table]
    if args.json:
        print(json.dumps({"command": "elem realize", "inputs": [args.a], "result": pieces}))
    else:
        for piece in pieces:
            print(piece)
    return 0


def _cmd_act(args, config) -> int:
    g = parse_span(args.span, config)
    S = SemiPartitionClass(parse_marked_arrow(args.marked, config))
    result = act(g, S)
    _emit(args, "act", [args.span, args.marked], str(result.rep))
    return 0


def _cmd_partition(args, config) -> int:
    T = enumerate_pn(config, args.base, args.depth, args.y, args.n)
    inputs = {"base": args.base, "depth": args.depth, "y": args.y, "n": args.n}
    for P in T.elements:
        _emit(args, "partition list", inputs, str(P.rep))
    return 0


def _cmd_poset(args, config) -> int:
    T = enumerate_pn(config, args.base, args.depth, args.y, args.n)
    report = check_filtered(T)
    if args.json:
        return _emit_report(args, report)
    print(f"filtered: {'true' if report.ok else 'false'}")
    print(f"pairs: {len(report.rows)}")
    for row in report.failures():
        print(f"  FAIL {row}")
    return 0 if report.ok else 1


def _cmd_cert(args, config) -> int:
    if args.cert_cmd == "torsion":
        o1 = sp_order(make_gamma1(config), 4)
        o2 = sp_order(make_gamma2(config), 4)
        report = Report(
            "torsion",
            (
                {"instance": "gamma1", "ok": o1 == 2, "witness": str(o1)},
                {"instance": "gamma2", "ok": o2 == 3, "witness": str(o2)},
            ),
        )
        if not args.json:
            print(f"gamma1 order: {o1}")
            print(f"gamma2 order: {o2}")
            return 0 if report.ok else 1
        return _emit_report(args, report)
    if args.cert_cmd == "pingpong":
        reports = pingpong_reports(config, args.depth, args.max_len)
        return max(_emit_report(args, report) for report in reports)
    if args.cert_cmd == "infinite":
        return _emit_report(args, infinite_order_check(config, args.max_n))
    if args.cert_cmd == "freeaction":
        return _emit_report(args, free_action_check(config, args.max_perm, args.depth))
    if args.cert_cmd == "sigma":
        return _emit_report(args, sigma_span_report(config, args.max_perm, args.depth))
    # padded: the required subparser admits no other name
    return _emit_report(args, padded_certificates_check(config, args.max_n))


_COMMANDS = {
    "elem": _cmd_elem,
    "act": _cmd_act,
    "partition": _cmd_partition,
    "poset": _cmd_poset,
    "cert": _cmd_cert,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument list as a typed parse error; subparsers
    inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {ParseError(message)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="operad-groups",
        description="Fraction-group arithmetic over tree and cube subdivisions.",
    )
    parser.add_argument(
        "--backend",
        default="tree:k=2",
        help="tree:k=N or cube:d=N (default tree:k=2)",
    )
    parser.add_argument(
        "--flavor",
        default="symmetric",
        choices=["planar", "symmetric"],
        help="planar forbids permutations (default symmetric)",
    )
    parser.add_argument("--base", type=int, default=1, help="base word length")
    parser.add_argument("--json", action="store_true", help="JSON-lines output")
    sub = parser.add_subparsers(dest="command", required=True)

    elem = sub.add_parser("elem", help="group element arithmetic")
    elem_sub = elem.add_subparsers(dest="elem_cmd", required=True)
    eq = elem_sub.add_parser("eq")
    eq.add_argument("a")
    eq.add_argument("b")
    eq.add_argument("--assert", dest="assert_", action="store_true")
    mul = elem_sub.add_parser("mul")
    mul.add_argument("a")
    mul.add_argument("b")
    inv = elem_sub.add_parser("inv")
    inv.add_argument("a")
    pow_ = elem_sub.add_parser("pow")
    pow_.add_argument("a")
    pow_.add_argument("n", type=int)
    order = elem_sub.add_parser("order")
    order.add_argument("a")
    order.add_argument("--max", type=int, default=16)
    realize_ = elem_sub.add_parser("realize")
    realize_.add_argument("a")

    act_p = sub.add_parser("act", help="apply a span to a marked arrow")
    act_p.add_argument("span")
    act_p.add_argument("marked")

    part = sub.add_parser("partition", help="partition enumeration")
    part_sub = part.add_subparsers(dest="partition_cmd", required=True)
    plist = part_sub.add_parser("list")
    plist.add_argument("--depth", type=int, default=1)
    plist.add_argument("--y", type=int, default=1)
    plist.add_argument("--n", type=int, default=1)

    poset = sub.add_parser("poset", help="poset truncation checks")
    poset_sub = poset.add_subparsers(dest="poset_cmd", required=True)
    filt = poset_sub.add_parser("filtered")
    filt.add_argument("--depth", type=int, default=2)
    filt.add_argument("--y", type=int, default=1)
    filt.add_argument("--n", type=int, default=1)

    cert = sub.add_parser("cert", help="group-theoretic certificates")
    cert_sub = cert.add_subparsers(dest="cert_cmd", required=True)
    cert_sub.add_parser("torsion")
    infinite = cert_sub.add_parser("infinite")
    infinite.add_argument("--max-n", dest="max_n", type=int, default=64)
    pingpong = cert_sub.add_parser("pingpong")
    pingpong.add_argument("--depth", type=int, default=3)
    pingpong.add_argument("--max-len", dest="max_len", type=int, default=0)
    freeaction = cert_sub.add_parser("freeaction")
    freeaction.add_argument("--max-perm", dest="max_perm", type=int, default=3)
    freeaction.add_argument("--depth", type=int, default=2)
    sigma = cert_sub.add_parser("sigma")
    sigma.add_argument("--max-perm", dest="max_perm", type=int, default=3)
    sigma.add_argument("--depth", type=int, default=2)
    padded = cert_sub.add_parser("padded")
    padded.add_argument("--max-n", dest="max_n", type=int, default=16)
    return parser


# built once at import: parse_args keeps no state between calls
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = parse_backend(args.backend, args.flavor)
        # the required subparsers refuse every other name before dispatch
        return _COMMANDS[args.command](args, config)
    except (OperadError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
