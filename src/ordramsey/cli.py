"""Command-line front end.

Subcommands: classify, exact, bound, types, witness, verify.  Each
prints text lines, or under ``--json`` its JSON model, the machine
contract; ``verify`` has no ``--json``, and ``types --count-only`` prints
the bare count in both forms.  Identical inputs produce byte-identical
output.  Exit codes: 0 success, 1 failed verification, 2 parse or usage
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .chains import Leveled, SumTail
from .degrees import (
    MAX_LISTED,
    MAX_STEPS,
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
from .ordinal import MAX_NESTING, OrdinalSyntaxError, parse
from .typecalc import (
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


class _Parser(argparse.ArgumentParser):
    """Reads a lone "--" option value, as in ``--signs=--``, as the text "--".

    argparse strips it and hands back [], which no option here can take.
    """

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


def _parse_sizes(text: str, flag: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers")


def _parts(args):
    if not args.parts:
        raise ValueError(f"{args.command} product needs --parts")
    return _parse_sizes(args.parts, "--parts")


def _n_m(args):
    if args.n is None or args.m is None:
        raise ValueError(f"types {args.family} needs --n and --m")
    return args.n, args.m


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
    return min(math.comb(size, n), 1 << 64)


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

# type family -> (its JSON records, how many there are in closed form, and the
# (amount, cap, what) triples besides the count that a listing keeps under
# their caps) for the parsed arguments
_TYPES = {
    "additive": (
        lambda args: [t.as_json() for t in enum_additive(*_n_m(args))],
        lambda args: count_additive(*_n_m(args)),
        lambda args, count: (),
    ),
    "mult": (
        lambda args: [t.as_json() for t in enum_mult(*_n_m(args))],
        lambda args: count_mult(*_n_m(args)),
        lambda args, count: [(count * args.m, MAX_STEPS, "listed level counts")],
    ),
    "strict": (
        lambda args: [
            dict(t.as_json(), word=strict_to_word(t)) for t in enum_strict(*_n_m(args))
        ],
        lambda args: _strict_records(*_n_m(args)),
        lambda args, count: (),
    ),
    "power": (
        lambda args: list(enum_power(*_n_m(args))),
        lambda args: count_power(*_n_m(args)),
        lambda args, count: [(args.m, MAX_NESTING, "tree levels")],
    ),
    "product": (
        lambda args: [t.as_json() for t in enum_product_types(_parts(args))],
        lambda args: count_product(_parts(args)),
        lambda args, count: [(count * sum(_parts(args)), MAX_STEPS, "listed block indices")],
    ),
}


def _amounts(palette, points, parts):
    """A witness report's listed objects (its palette and the tuples of
    ``parts``-subsets of every instance's points) and, since an instance
    may hold no object at all, its instance points: (amount, what) pairs."""
    listed = palette + sum(math.prod(_subsets(p, k) for k in parts) for p in points)
    return [(listed, "listed objects"), (sum(points), "instance points")]


def _strict_amounts(args, sizes):
    """The strict report's size, and the m level counts of each palette type."""
    records = count_strict(args.n, args.m)
    amounts = _amounts(records, [per_level * args.m for per_level in sizes], [args.n])
    return amounts + [(records * args.m, "palette level counts")]


# witness family -> (coloring, instance of one size, the amounts a report
# of these sizes keeps under MAX_LISTED, in closed form, so that they bound
# the report before it builds anything) for the parsed arguments
_WITNESSES = {
    "additive": (
        lambda args: AdditiveWitness(args.n, args.m),
        lambda args, u: SumTail(tuple(range(u)), args.m),
        lambda args, sizes: _amounts(
            count_additive(args.n, args.m), [u + args.m for u in sizes], [args.n]
        ),
    ),
    "strict": (
        lambda args: StrictWitness(args.n, args.m),
        lambda args, per_level: Leveled(spread(tuple(range(per_level * args.m)), args.m)),
        _strict_amounts,
    ),
    "product": (
        lambda args: ProductWitness(_parts(args)),
        lambda args, u: tuple(range(u)),
        lambda args, sizes: _amounts(count_product(_parts(args)), sizes, _parts(args)),
    ),
}


# Each handler computes its result and returns (exit code, JSON model,
# text lines); main prints one form of it.


def _cmd_degree(args):
    entry = classify if args.command == "classify" else pipeline_bound
    result = entry(parse(args.ordinal), args.n, cap=args.cap)
    value = "infinity" if result.kind == "infinite" else result.value
    if result.kind == "finite-unbounded":
        value = "finite (no value computed)"
    lines = [f"T({args.n}, {args.ordinal}) [{result.kind}] = {value}"]
    lines += [f"  {step.rule}: {step.anchor}" for step in result.trace]
    return EXIT_OK, {"input": args.ordinal, "n": args.n, "result": result.as_json()}, lines


def _cmd_exact(args):
    value, label = _EXACT[args.family](args)
    model = {"family": args.family, "n": args.n, "value": value}
    return EXIT_OK, model, [f"T({args.n}, {label}) = {value}"]


def _cmd_types(args):
    listing, count, extras = _TYPES[args.family]
    count = count(args)
    if args.count_only:
        return EXIT_OK, count, [str(count)]
    for amount, cap, what in [(count, MAX_LISTED, "listed types"), *extras(args, count)]:
        check_cap(amount, cap, what)
    listing = listing(args)
    import json

    return EXIT_OK, listing, map(json.dumps, listing)


def _cmd_witness(args):
    sizes = _parse_sizes(args.sizes, "--sizes")
    if min(sizes) < 0:
        raise ValueError("--sizes must be >= 0")
    make_coloring, make_instance, amounts = _WITNESSES[args.family]
    for amount, what in amounts(args, sizes):
        check_cap(amount, MAX_LISTED, what)
    coloring = make_coloring(args)
    palette = coloring.palette
    rows = [(u, sorted(realized_colors(coloring, make_instance(args, u)))) for u in sizes]
    lines = ["sizes,palette,realized"] + [f"{u},{palette},{len(c)}" for u, c in rows]
    rows = [
        {"sizes": str(u), "palette": palette, "realized": len(c), "colors": c} for u, c in rows
    ]
    return EXIT_OK, {"family": args.family, "rows": rows}, lines


def _cmd_verify(args):
    report = run_all()
    return EXIT_OK if report.ok else EXIT_FAILED, None, report.lines()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than most requests, and parsing leaves it unchanged."""
    parser = _Parser(
        prog="ordramsey",
        description="Big Ramsey degree calculus for countable ordinals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("classify", "settle T(n, a) for an ordinal expression"),
        ("bound", "run the general pipeline bound with trace"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("ordinal", help="ordinal expression, e.g. 'w^3*2 + w*5 + 1'")
        p.add_argument("--n", type=int, required=True, help="subchain size")
        p.add_argument("--cap", type=int, default=5, help="resource cap on n")
        p.add_argument("--json", action="store_true", help="emit the JSON model")
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
        code, model, lines = args.func(args)
        if getattr(args, "json", False):
            import json  # only JSON output needs it; a module-level import costs every call

            lines = [json.dumps(model, indent=2)]
        for line in lines:
            print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull, so
        # the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except OrdinalSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        # covers bad flag values and out-of-scope arguments alike
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
