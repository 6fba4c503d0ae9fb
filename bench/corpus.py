"""Seeded request corpora for the three benchmark workloads.

Nothing here imports ``ordramsey``: a corpus is plain data (argument
vectors, ordinal strings and the structured facts the reference answers
are computed from), so the same seed always yields byte-identical inputs.

Every workload is cut into blocks whose composition is fixed and whose
contents the seed draws.  A run consumes whole blocks, so the mix of cheap
and expensive requests, and with it every percentile, is the same from
seed to seed; only coefficients, tails, flags and order change.
"""

from __future__ import annotations

import random

PIPELINE_DS = (2, 3, 4, 5)  # cli_mixed: d = 2..5
SWEEP_DS = (2, 3, 4, 5, 6)  # pipeline_sweep: d = 2..6
NS = (1, 2, 3, 4, 5)
CAP = 5  # the CLI's default --cap


_MALFORMED = (
    "w^",
    "w*",
    "w**{c}",
    "{c} +",
    "w^({c}",
    "w^{c})",
    "x",
    "w*0",
    "w^{c}*{c} + ",
    "",
    "w ^ ^ {c}",
    "w^(w + )",
)
_BEYOND = (
    "w^w",
    "w^w*{c}",
    "w^w*{c} + w^{e}*{c2} + {t}",
    "w^(w + 1)",
    "w^(w^2)*{c} + {t}",
    "w^(w*{c}) + w",
)
EXACT_FAMILIES = ("omega", "omega+m", "omega*m", "Z", "signed")


def render(terms, tail: int = 0) -> str:
    """Cantor normal form text for sum of w^e*c over ``terms`` plus ``tail``.

    ``terms`` lists (exponent, coefficient) pairs with exponents >= 1 in
    decreasing order.
    """
    parts = []
    for e, c in terms:
        text = "w" if e == 1 else f"w^{e}"
        parts.append(text if c == 1 else f"{text}*{c}")
    if tail or not parts:
        parts.append(str(tail))
    return " + ".join(parts)


def _pipeline_ordinal(rng: random.Random, d: int):
    """A random ordinal with leading exponent d: random coefficients, lower
    terms present with probability 1/2, and a finite tail half the time."""
    terms = [(d, rng.randint(1, 9))]
    terms += [(e, rng.randint(1, 9)) for e in range(d - 1, 0, -1) if rng.random() < 0.5]
    tail = rng.randint(1, 9) if rng.random() < 0.5 else 0
    return terms, tail


def _classify(rng, text, n, spec, cmd="classify", as_json=None):
    as_json = rng.random() < 0.5 if as_json is None else as_json
    argv = [cmd, text, "--n", str(n)] + (["--json"] if as_json else [])
    return {"argv": argv, "spec": dict(spec, cmd=cmd, text=text, n=n, json=as_json)}


def _cheap_requests(rng: random.Random) -> list:
    """Twelve cheap routes: closed forms, the tail rule over w*m, and the
    valueless kinds at and beyond w^w."""
    out = []
    for _ in range(2):
        c = rng.randint(0, 9)
        out.append(_classify(rng, str(c), rng.randint(0, 5), {"route": "finite", "c": c}))
    out.append(_classify(rng, "w", rng.randint(0, 5), {"route": "omega"}))
    m = rng.randint(1, 9)
    out.append(_classify(rng, render([(1, 1)], m), rng.randint(0, 5), {"route": "omega+m", "m": m}))
    m = rng.randint(2, 9)
    out.append(_classify(rng, render([(1, m)]), rng.randint(0, 5), {"route": "omega*m", "m": m}))
    for _ in range(2):
        m, p = rng.randint(2, 9), rng.randint(1, 9)
        out.append(_classify(rng, render([(1, m)], p), rng.randint(0, 5), {"route": "omega*m+p", "m": m, "p": p}))
    for _ in range(3):
        family = rng.choice(EXACT_FAMILIES)
        n, m = rng.randint(0, 5), rng.randint(1, 9)
        signs = "--"
        while signs == "--":  # argparse drops a lone "--" value, even as --signs=--
            signs = "".join(rng.choice("+-") for _ in range(rng.randint(1, 6)))
        argv = ["exact", family, "--n", str(n), "--m", str(m)]
        if family == "signed":
            argv.append(f"--signs={signs}")  # a sign string may start with '-'
        as_json = rng.random() < 0.5
        if as_json:
            argv.append("--json")
        out.append({"argv": argv, "spec": {"cmd": "exact", "family": family, "n": n, "m": m, "signs": signs, "json": as_json}})
    for n in (1, rng.randint(2, 5)):
        text = rng.choice(_BEYOND).format(
            c=rng.randint(2, 9), c2=rng.randint(1, 9), e=rng.randint(1, 9), t=rng.randint(1, 9)
        )
        out.append(_classify(rng, text, n, {"route": "beyond"}))
    return out


def _error_requests(rng: random.Random) -> list:
    """Two malformed ordinals (exit 2) and one n above the cap (exit 3)."""
    out = []
    for _ in range(2):
        text = rng.choice(_MALFORMED).format(c=rng.randint(1, 9))
        out.append(_classify(rng, text, rng.randint(1, 5), {"route": "malformed"}, cmd=rng.choice(("classify", "bound"))))
    cap = rng.randint(2, CAP)
    n = cap + rng.randint(1, 3)
    terms, tail = _pipeline_ordinal(rng, rng.choice(PIPELINE_DS))
    req = _classify(rng, render(terms, tail), n, {"route": "over-cap"}, cmd=rng.choice(("classify", "bound")))
    if cap != CAP:
        req["argv"] += ["--cap", str(cap)]
    out.append(req)
    return out


def cli_mixed(seed: int, blocks: int = 4) -> list:
    """Blocks of eighty CLI requests: forty-eight cheap routes, twelve that
    must fail, and twenty pipeline ordinals, one per (d, n) with d = 2..5
    and n = 1..5, sent to classify or bound with --json."""
    rng = random.Random(f"cli_mixed:{seed}")
    out = []
    for _ in range(blocks):
        block = []
        for _ in range(4):
            block += _cheap_requests(rng) + _error_requests(rng)
        for d in PIPELINE_DS:
            for n in NS:
                terms, tail = _pipeline_ordinal(rng, d)
                spec = {"route": "pipeline", "terms": terms, "tail": tail}
                block.append(_classify(rng, render(terms, tail), n, spec, rng.choice(("classify", "bound")), True))
        rng.shuffle(block)
        out.append(block)
    return out


def pipeline_sweep(seed: int, blocks: int = 40) -> list:
    """Blocks of twenty-five library calls, one per (d, n) with d = 2..6 and
    n = 1..5, each a random ordinal with that leading exponent sent to
    ``classify`` or ``pipeline_bound``."""
    rng = random.Random(f"pipeline_sweep:{seed}")
    out = []
    for _ in range(blocks):
        block = []
        for d in SWEEP_DS:
            for n in NS:
                terms, tail = _pipeline_ordinal(rng, d)
                call = rng.choice(("classify", "pipeline_bound"))
                block.append({"text": render(terms, tail), "n": n, "call": call, "terms": terms, "tail": tail})
        rng.shuffle(block)
        out.append(block)
    return out


def _witness(rng: random.Random, family: str) -> dict:
    if family == "product":
        parts = rng.choice(((1, 1), (2,), (1, 1, 1), (2, 1), (1, 2), (2, 2)))
        low = sum(parts)
        sizes = (low, low + 1)
        argv = ["witness", "product", "--parts", ",".join(map(str, parts))]
        spec = {"cmd": "witness", "family": family, "parts": list(parts)}
    else:
        n = rng.randint(1, 3)
        m = rng.randint(1, 4 if family == "additive" else 3)
        sizes = (n, n + 1)
        argv = ["witness", family, "--n", str(n), "--m", str(m)]
        spec = {"cmd": "witness", "family": family, "n": n, "m": m}
    argv += ["--sizes", ",".join(map(str, sizes))]
    return {"argv": argv, "spec": dict(spec, sizes=list(sizes))}


def _types(rng: random.Random, family: str) -> dict:
    if family == "strict":
        n, m = rng.randint(1, 5), rng.randint(1, 5)
    elif family == "additive":
        n, m = rng.randint(0, 5), rng.randint(0, 5)
    else:
        n, m = rng.randint(1, 3), rng.randint(1, 3)
    argv = ["types", family, "--n", str(n), "--m", str(m), "--count-only"]
    return {"argv": argv, "spec": {"cmd": "types", "family": family, "n": n, "m": m}}


def verify_enum(seed: int, blocks: int = 20) -> list:
    """Blocks of ten enumeration requests: ``verify`` twice at its default
    sizes, four ``witness`` reports at full-palette sizes and four
    ``types --count-only`` counts at the sizes verify uses."""
    rng = random.Random(f"verify_enum:{seed}")
    out = []
    for _ in range(blocks):
        block = [{"argv": ["verify"], "spec": {"cmd": "verify"}} for _ in range(2)]
        for family in ("additive", "strict", "product", rng.choice(("additive", "strict", "product"))):
            block.append(_witness(rng, family))
        for family in ("strict", "additive", "power", rng.choice(("strict", "additive", "power"))):
            block.append(_types(rng, family))
        rng.shuffle(block)
        out.append(block)
    return out


BUILDERS = {"cli_mixed": cli_mixed, "pipeline_sweep": pipeline_sweep, "verify_enum": verify_enum}
