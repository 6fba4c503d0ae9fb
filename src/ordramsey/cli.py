"""Command-line front end.

Subcommands: classify, exact, bound, types, witness, verify.  JSON is
the machine contract (``--json`` where it is not the default); identical
inputs produce byte-identical output.  Exit codes: 0 success, 1 failed
verification, 2 parse or usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .chains import Leveled, SumTail
from .degrees import (
    MAX_LISTED,
    ResourceCapError,
    check_cap,
    classify,
    count_additive,
    count_mult,
    count_power,
    count_product,
    count_strict,
    exact_integers,
    exact_omega,
    exact_omega_plus_m,
    exact_omega_times_m,
    exact_signed,
    pipeline_bound,
)
from .ordinal import OrdinalSyntaxError, parse
from .typecalc import (
    binom,
    check_word_levels,
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
    import json  # only JSON output needs it; a module-level import costs every call

    print(json.dumps(data, indent=2))


class _Parser(argparse.ArgumentParser):
    """Reads a lone "--" option value, as in ``--signs=--``, as the text "--".

    argparse strips it and hands back [], which no option here can take.
    """

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


class _UsageError(ValueError):
    pass


def _parse_sizes(text: str, flag: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers")


def _parts(args):
    if not args.parts:
        raise _UsageError(f"{args.command} product needs --parts")
    return _parse_sizes(args.parts, "--parts")


def _n_m(args):
    if args.n is None or args.m is None:
        raise _UsageError(f"types {args.family} needs --n and --m")
    return args.n, args.m


def _tree_json(tree):
    return [_tree_json(child) for child in tree]


def _strict_records(n, m):
    """m^n strict records; each carries its word, so m must fit in digits."""
    count = count_strict(n, m)
    check_word_levels(m)
    return count


def _subsets(size: int, n: int) -> int:
    """min(C(size, n), 2^64), without computing a huge C(size, n): it is at
    least 2^k for k = min(n, size - n), so k >= 64 is past every cap."""
    if min(n, size - n) >= 64:
        return 1 << 64
    return min(binom(size, n), 1 << 64)


# The family tables hold lambdas rather than the functions they call, so
# each call looks the name up on this module: a function rebound there
# after import (as a tracer does) is the one that runs.

# exact family -> (value, label) for the parsed arguments
_EXACT = {
    "omega": lambda args: (exact_omega(args.n), "w"),
    "omega+m": lambda args: (exact_omega_plus_m(args.n, args.m), f"w + {args.m}"),
    "omega*m": lambda args: (exact_omega_times_m(args.n, args.m), f"w*{args.m}"),
    "Z": lambda args: (exact_integers(args.n), "Z"),
    "signed": lambda args: (
        exact_signed(args.n, tuple(args.signs)),
        " + ".join(f"w^({s})" for s in args.signs),
    ),
}

# type family -> (its JSON records, how many there are in closed form) for
# the parsed arguments
_TYPES = {
    "additive": (
        lambda args: [t.as_json() for t in enum_additive(*_n_m(args))],
        lambda args: count_additive(*_n_m(args)),
    ),
    "mult": (
        lambda args: [t.as_json() for t in enum_mult(*_n_m(args))],
        lambda args: count_mult(*_n_m(args)),
    ),
    "strict": (
        lambda args: [
            dict(t.as_json(), word=strict_to_word(t)) for t in enum_strict(*_n_m(args))
        ],
        lambda args: _strict_records(*_n_m(args)),
    ),
    "power": (
        lambda args: [_tree_json(t) for t in enum_power(*_n_m(args))],
        lambda args: count_power(*_n_m(args)),
    ),
    "product": (
        lambda args: [t.as_json() for t in enum_product_types(_parts(args))],
        lambda args: count_product(_parts(args)),
    ),
}

# witness family -> (coloring, instance of one size, palette size, embeddings
# of an instance of one size) for the parsed arguments; the sizes come in
# closed form, so they bound a report before it lists anything
_WITNESSES = {
    "additive": (
        lambda args: AdditiveWitness(args.n, args.m),
        lambda args, u: SumTail(tuple(range(u)), args.m),
        lambda args: count_additive(args.n, args.m),
        lambda args, u: _subsets(u + args.m, args.n),
    ),
    "strict": (
        lambda args: StrictWitness(args.n, args.m),
        lambda args, per_level: Leveled(spread(tuple(range(per_level * args.m)), args.m)),
        lambda args: count_strict(args.n, args.m),
        lambda args, per_level: _subsets(per_level * args.m, args.n),
    ),
    "product": (
        lambda args: ProductWitness(_parts(args)),
        lambda args, u: tuple(range(u)),
        lambda args: count_product(_parts(args)),
        lambda args, u: math.prod(_subsets(u, k) for k in _parts(args)),
    ),
}


def _cmd_degree(args) -> int:
    entry = classify if args.command == "classify" else pipeline_bound
    result = entry(parse(args.ordinal), args.n, cap=args.cap)
    if args.json:
        _print_json({"input": args.ordinal, "n": args.n, "result": result.as_json()})
        return EXIT_OK
    value = "infinity" if result.kind == "infinite" else result.value
    if result.kind == "finite-unbounded":
        value = "finite (no value computed)"
    print(f"T({args.n}, {args.ordinal}) [{result.kind}] = {value}")
    for step in result.trace:
        print(f"  {step.rule}: {step.anchor}")
    return EXIT_OK


def _cmd_exact(args) -> int:
    value, label = _EXACT[args.family](args)
    if args.json:
        _print_json({"family": args.family, "n": args.n, "value": value})
    else:
        print(f"T({args.n}, {label}) = {value}")
    return EXIT_OK


def _cmd_types(args) -> int:
    listing, count = _TYPES[args.family]
    count = count(args)
    if args.count_only:
        print(count)
        return EXIT_OK
    check_cap(count, MAX_LISTED, "listed types")
    listing = listing(args)
    if args.json:
        _print_json(listing)
    else:
        import json

        for record in listing:
            print(json.dumps(record))
    return EXIT_OK


def _cmd_witness(args) -> int:
    sizes = _parse_sizes(args.sizes, "--sizes")
    if min(sizes) < 0:
        raise _UsageError("--sizes must be >= 0")
    make_coloring, make_instance, palette, embeddings = _WITNESSES[args.family]
    listed = palette(args) + sum(embeddings(args, u) for u in sizes)
    check_cap(listed, MAX_LISTED, "listed objects")
    coloring = make_coloring(args)
    rows = [
        (str(u), coloring.palette, sorted(realized_colors(coloring, make_instance(args, u))))
        for u in sizes
    ]
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
    report = run_all()
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than most requests, and parsing leaves it unchanged."""
    parser = _Parser(
        prog="ordramsey",
        description="Big Ramsey degree calculus for countable ordinals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="settle T(n, a) for an ordinal expression")
    p.add_argument("ordinal", help="ordinal expression, e.g. 'w^3*2 + w*5 + 1'")
    p.add_argument("--n", type=int, required=True, help="subchain size")
    p.add_argument("--cap", type=int, default=5, help="resource cap on n")
    p.add_argument("--json", action="store_true", help="emit the JSON model")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("bound", help="run the general pipeline bound with trace")
    p.add_argument("ordinal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("exact", help="closed-form degree families")
    p.add_argument("family", choices=_EXACT)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--signs", default="+", help="sign string for signed, e.g. '+-+'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("types", help="enumerate a type family")
    p.add_argument("family", choices=_TYPES)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--parts", help="comma-separated level counts for product")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_types)

    p = sub.add_parser("witness", help="realization report for a witness coloring")
    p.add_argument("family", choices=_WITNESSES)
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
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OrdinalSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        # listings recurse once per domain point, so a long enough domain
        # runs out of stack before any cap on the listing's size applies
        print("resource cap: the request recurses too deeply", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        # covers _UsageError and out-of-scope arguments alike
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
