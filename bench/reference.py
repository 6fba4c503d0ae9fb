"""Reference answers computed without importing ``ordramsey``.

Closed forms are written out inline.  Pipeline values follow a second
route: the power rule is summed over trees by the W_d recurrence

    bound_pow(n, d, T) = sum_r T[r] sum_i (-1)^i C(r, i) W_d(n, r - i)
    W_0(n, x) = [n = 1]
    W_d(n, x) = sum_k C(x, k) (W_{d-1}(., x))^{*k}(n)

instead of enumerating the d^(n-1) trees.  Realizable product types are
counted by a recursion over level sets rather than by inclusion and
exclusion over ranks.  The ``check_*`` functions decide whether one
response is right.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import comb

EXIT_OK, EXIT_PARSE, EXIT_RESOURCE = 0, 2, 3


def binom(m: int, j: int) -> int:
    return comb(m, j) if j >= 0 else 0


def tail_rule(n: int, m: int, table) -> int:
    """T(n, a + m) <= sum_j C(m, j) T(n - j, a)."""
    return sum(binom(m, j) * table[n - j] for j in range(n + 1))


@lru_cache(maxsize=None)
def _w_column(d: int, n_max: int, x: int) -> tuple:
    """W_d(n, x) for n = 0..n_max."""
    col = [0] * (n_max + 1)
    if n_max >= 1:
        col[1] = 1
    for _ in range(d):
        nxt = [0] * (n_max + 1)
        power = [1] + [0] * n_max  # the 0-fold convolution
        for k in range(1, n_max + 1):
            power = [sum(power[i] * col[n - i] for i in range(n + 1)) for n in range(n_max + 1)]
            for n in range(n_max + 1):
                nxt[n] += binom(x, k) * power[n]
        col = nxt
    return tuple(col)


def power_rule(n: int, d: int, table) -> int:
    """The power rule's sum over (n, d)-trees, by the W_d recurrence."""
    total = 0
    for r in range(n * d + 1):
        inner = sum((-1) ** i * binom(r, i) * _w_column(d, n, r - i)[n] for i in range(r + 1))
        total += table[r] * inner
    return total


def pipeline(terms, tail: int, n: int):
    """(value, power table) of the general pipeline bound for n >= 1.

    The core is a subsum of (w*m + 1)^d with m its largest coefficient and
    d its leading exponent; tables run to rank n*d.
    """
    m = max(c for _, c in terms)
    d = terms[0][0]
    r_max = n * d
    base = [m**j for j in range(r_max + 1)]
    lifted = [tail_rule(j, 1, base) for j in range(r_max + 1)]
    powered = [1] + [power_rule(j, d, lifted) for j in range(1, n + 1)]
    value = tail_rule(n, tail, powered) if tail else powered[n]
    return value, powered


@lru_cache(maxsize=None)
def product_palette(parts: tuple) -> int:
    """Realizable types with level counts ``parts``: sequences of nonempty
    level sets that use level l exactly parts[l] times."""
    if not any(parts):
        return 1
    live = [l for l, x in enumerate(parts) if x]
    total = 0
    for mask in range(1, 1 << len(live)):
        rest = list(parts)
        for bit, l in enumerate(live):
            if mask >> bit & 1:
                rest[l] -= 1
        total += product_palette(tuple(rest))
    return total


def ordered_bell(s: int) -> int:
    a = [1]
    for k in range(1, s + 1):
        a.append(sum(binom(k, j) * a[k - j] for j in range(1, k + 1)))
    return a[s]


def expected_classify(spec: dict):
    """(exit code, kind, value) the calculator must produce for ``spec``."""
    route, n = spec["route"], spec["n"]
    if route == "malformed":
        return EXIT_PARSE, None, None
    if route == "over-cap":
        return EXIT_RESOURCE, None, None
    if n == 0:
        return EXIT_OK, "exact", 1
    if route == "finite":
        c = spec["c"]
        return EXIT_OK, "exact", binom(c, n) if c >= n else 1
    if route == "omega":
        return EXIT_OK, "exact", 1
    if route == "omega+m":
        return EXIT_OK, "exact", sum(binom(spec["m"], j) for j in range(n + 1))
    if route == "omega*m":
        return EXIT_OK, "exact", spec["m"] ** n
    if route == "omega*m+p":
        table = [spec["m"] ** j for j in range(n + 1)]
        return EXIT_OK, "upper-bound", tail_rule(n, spec["p"], table)
    if route == "beyond":
        return EXIT_OK, ("finite-unbounded" if n == 1 else "infinite"), None
    value, _ = pipeline(spec["terms"], spec["tail"], n)
    return EXIT_OK, "upper-bound", value


def expected_exact(spec: dict) -> int:
    family, n, m = spec["family"], spec["n"], spec["m"]
    if family == "omega":
        return 1
    if family == "omega+m":
        return sum(binom(m, j) for j in range(n + 1))
    if family == "omega*m":
        return m**n
    if family == "Z":
        return 2**n
    return len(spec["signs"]) ** n


def expected_types(spec: dict) -> int:
    family, n, m = spec["family"], spec["n"], spec["m"]
    if family == "strict":
        return m**n
    if family == "additive":
        return sum(binom(m, j) for j in range(n + 1))
    return m ** (n - 1)


def witness_palette(spec: dict) -> int:
    """Full palette; every size in the corpus is large enough to realize it."""
    family = spec["family"]
    if family == "product":
        return product_palette(tuple(spec["parts"]))
    n, m = spec["n"], spec["m"]
    if family == "additive":
        return sum(binom(m, j) for j in range(n + 1))
    return m**n


_TEXT_RESULT = re.compile(r"T\((\d+), (.*)\) \[([a-z-]+)\] = (.*)")
_TEXT_EXACT = re.compile(r"T\((\d+), (.*)\) = (\d+)")
_VERIFY_TOTAL = re.compile(r"(\d+) checks: (\d+) ok, (\d+) flagged, (\d+) mismatched")
_VERIFY_LINE = re.compile(r"\[(ok|flagged|mismatch)\] ([a-z0-9-]+) (.*?): (.*)")


def _params(text: str) -> dict:
    return dict(item.split("=", 1) for item in text.split())


def check_classify_json(spec: dict, out: dict) -> bool:
    """A ``DegreeResult`` JSON model (as the library or ``--json`` gives it)."""
    _, kind, value = expected_classify(spec)
    if out.get("kind") != kind or out.get("value") != value:
        return False
    if spec["route"] == "pipeline":
        _, powered = pipeline(spec["terms"], spec["tail"], spec["n"])
        steps = [s for s in out["trace"] if s["rule"] == "bound-pow"]
        return len(steps) == 1 and steps[0]["value"] == powered
    return True


def _check_verify(stdout: str) -> bool:
    lines = stdout.splitlines()
    total = _VERIFY_TOTAL.fullmatch(lines[-1]) if lines else None
    if not total or int(total[4]) != 0 or int(total[1]) != len(lines) - 1:
        return False
    for line in lines[:-1]:
        match = _VERIFY_LINE.fullmatch(line)
        if not match or match[1] == "mismatch":
            return False
        status, name, params, detail = match.groups()
        if name not in ("additive-count", "strict-count", "product-count-all-ones"):
            continue
        params = _params(params)
        if name == "additive-count":
            n, m = int(params["n"]), int(params["m"])
            want = sum(binom(m, j) for j in range(n + 1))
        elif name == "strict-count":
            want = int(params["m"]) ** int(params["n"])
        else:
            want = ordered_bell(int(params["s"]))
        if status != "ok" or int(detail) != want:
            return False
    return True


def check_cli(spec: dict, returncode: int, stdout: str) -> bool:
    """Whether one CLI response (exit code and standard output) is right."""
    cmd = spec["cmd"]
    if cmd == "verify":
        return returncode == EXIT_OK and _check_verify(stdout)
    if cmd in ("classify", "bound"):
        code, kind, value = expected_classify(spec)
        if returncode != code:
            return False
        if code != EXIT_OK:
            return stdout == ""
        if spec["json"]:
            model = json.loads(stdout)
            if model["input"] != spec["text"] or model["n"] != spec["n"]:
                return False
            return check_classify_json(spec, model["result"])
        match = _TEXT_RESULT.fullmatch(stdout.splitlines()[0])
        shown = {"infinite": "infinity", "finite-unbounded": "finite (no value computed)"}
        return bool(match) and match.groups() == (
            str(spec["n"]), spec["text"], kind, shown.get(kind, str(value))
        )
    if returncode != EXIT_OK:
        return False
    if cmd == "exact":
        want = expected_exact(spec)
        if spec["json"]:
            return json.loads(stdout) == {"family": spec["family"], "n": spec["n"], "value": want}
        match = _TEXT_EXACT.fullmatch(stdout.strip())
        return bool(match) and int(match[3]) == want
    if cmd == "types":
        return stdout.strip() == str(expected_types(spec))
    palette = witness_palette(spec)
    rows = [f"{s},{palette},{palette}" for s in spec["sizes"]]
    return stdout.splitlines() == ["sizes,palette,realized"] + rows
