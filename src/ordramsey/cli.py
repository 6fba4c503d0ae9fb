"""Command-line front end.

Subcommands: classify, exact, bound, types, witness, verify.  JSON is
the machine contract (``--json`` where it is not the default); identical
inputs produce byte-identical output.  Exit codes: 0 success, 1 failed
verification, 2 parse or usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chains import Leveled, SumTail
from .degrees import (
    ResourceCapError,
    classify,
    exact_integers,
    exact_omega,
    exact_omega_plus_m,
    exact_omega_times_m,
    exact_signed,
    pipeline_bound,
)
from .ordinal import OrdinalSyntaxError, parse
from .typecalc import (
    enum_additive,
    enum_mult,
    enum_power,
    enum_product_types,
    enum_strict,
    strict_to_word,
)
from .verify import run_all
from .witness import AdditiveWitness, ProductWitness, StrictWitness, realized_colors, spread

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


def _print_json(data) -> None:
    print(json.dumps(data, indent=2))


def _render_result(expr: str, n: int, result) -> dict:
    return {"input": expr, "n": n, "result": result.as_json()}


def _emit_result(args, expr: str, result) -> int:
    model = _render_result(expr, args.n, result)
    if args.json:
        _print_json(model)
        return EXIT_OK
    value = "infinity" if result.kind == "infinite" else result.value
    if result.kind == "finite-unbounded":
        value = "finite (no value computed)"
    print(f"T({args.n}, {expr}) [{result.kind}] = {value}")
    for step in result.trace:
        print(f"  {step.rule}: {step.anchor}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    result = classify(parse(args.ordinal), args.n, cap=args.cap)
    return _emit_result(args, args.ordinal, result)


def _cmd_bound(args) -> int:
    result = pipeline_bound(parse(args.ordinal), args.n, cap=args.cap)
    return _emit_result(args, args.ordinal, result)


def _cmd_exact(args) -> int:
    family = args.family
    if family == "omega":
        value = exact_omega(args.n)
        label = "w"
    elif family == "omega+m":
        value = exact_omega_plus_m(args.n, args.m)
        label = f"w + {args.m}"
    elif family == "omega*m":
        value = exact_omega_times_m(args.n, args.m)
        label = f"w*{args.m}"
    elif family == "Z":
        value = exact_integers(args.n)
        label = "Z"
    else:
        # argparse strips a lone "--" from option values, so --signs=-- arrives as []
        signs = tuple("--" if args.signs == [] else args.signs)
        value = exact_signed(args.n, signs)
        label = " + ".join(f"w^({s})" for s in signs)
    if args.json:
        _print_json({"family": family, "n": args.n, "value": value})
    else:
        print(f"T({args.n}, {label}) = {value}")
    return EXIT_OK


def _type_listing(args):
    if args.family == "additive":
        return [t.as_json() for t in enum_additive(args.n, args.m)]
    if args.family == "mult":
        return [t.as_json() for t in enum_mult(args.n, args.m)]
    if args.family == "strict":
        out = []
        for t in enum_strict(args.n, args.m):
            record = t.as_json()
            record["word"] = strict_to_word(t)
            out.append(record)
        return out
    if args.family == "power":
        return [_tree_json(t) for t in enum_power(args.n, args.m)]
    parts = _parse_sizes(args.parts, "--parts")
    return [t.as_json() for t in enum_product_types(parts)]


def _tree_json(tree):
    return [_tree_json(child) for child in tree]


def _cmd_types(args) -> int:
    if args.family == "product":
        if not args.parts:
            raise _UsageError("types product needs --parts")
    elif args.n is None or args.m is None:
        raise _UsageError(f"types {args.family} needs --n and --m")
    listing = _type_listing(args)
    if args.count_only:
        print(len(listing))
    elif args.json:
        _print_json(listing)
    else:
        for record in listing:
            print(json.dumps(record))
    return EXIT_OK


def _parse_sizes(text: str, flag: str):
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers")
    if not values:
        raise _UsageError(f"{flag} must be nonempty")
    return values


class _UsageError(ValueError):
    pass


def _cmd_witness(args) -> int:
    sizes = _parse_sizes(args.sizes, "--sizes")
    rows = []
    if args.family == "additive":
        coloring = AdditiveWitness(args.n, args.m)
        for u in sizes:
            instance = SumTail(tuple(range(u)), args.m)
            colors = sorted(realized_colors(coloring, instance))
            rows.append((str(u), coloring.palette, colors))
    elif args.family == "strict":
        coloring = StrictWitness(args.n, args.m)
        for per_level in sizes:
            instance = Leveled(spread(tuple(range(per_level * args.m)), args.m))
            colors = sorted(realized_colors(coloring, instance))
            rows.append((str(per_level), coloring.palette, colors))
    else:
        parts = _parse_sizes(args.parts, "--parts") if args.parts else None
        if parts is None:
            raise _UsageError("witness product needs --parts")
        coloring = ProductWitness(parts)
        for u in sizes:
            colors = sorted(realized_colors(coloring, tuple(range(u))))
            rows.append((str(u), coloring.palette, colors))
    if args.json:
        _print_json(
            {
                "family": args.family,
                "rows": [
                    {"sizes": s, "palette": p, "realized": len(c), "colors": c}
                    for s, p, c in rows
                ],
            }
        )
    else:
        print("sizes,palette,realized")
        for s, p, c in rows:
            print(f"{s},{p},{len(c)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_all(args.n_max, args.m_max, args.s_max, args.size_max)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordramsey",
        description="Big Ramsey degree calculus for countable ordinals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="settle T(n, a) for an ordinal expression")
    p.add_argument("ordinal", help="ordinal expression, e.g. 'w^3*2 + w*5 + 1'")
    p.add_argument("--n", type=int, required=True, help="subchain size")
    p.add_argument("--cap", type=int, default=5, help="resource cap on n")
    p.add_argument("--json", action="store_true", help="emit the JSON model")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bound", help="run the general pipeline bound with trace")
    p.add_argument("ordinal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("exact", help="closed-form degree families")
    p.add_argument(
        "family", choices=["omega", "omega+m", "omega*m", "Z", "signed"]
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--signs", default="+", help="sign string for signed, e.g. '+-+'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("types", help="enumerate a type family")
    p.add_argument(
        "family", choices=["additive", "mult", "strict", "power", "product"]
    )
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--parts", help="comma-separated level counts for product")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_types)

    p = sub.add_parser("witness", help="realization report for a witness coloring")
    p.add_argument("family", choices=["additive", "strict", "product"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--parts", help="comma-separated level counts for product")
    p.add_argument(
        "--sizes",
        required=True,
        help="comma-separated instance sizes (base, per-level, or universe)",
    )
    p.add_argument("--json", action="store_true", help="JSON with full color sets")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="run the enumeration-backed check suites")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--s-max", type=int, default=4)
    p.add_argument("--size-max", type=int, default=3)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrdinalSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        # covers _UsageError and out-of-scope arguments alike
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
