"""Compare what two source trees admit: the same seeded ``classify`` and
``pipeline_bound`` requests, each tree in a fresh interpreter.

    python tests/admission_sweep.py OLD_SRC NEW_SRC [--seed 1] [--count 2000]

Each request is an ordinal on the ``w*m + p`` route or the pipeline
(d <= 40, coefficients and tails of up to 7000 bits) at n <= 1200 with the
n cap raised to n, so most sit near the answer and work caps.  The script
prints how many give the same answer, are refused alike, are newly
admitted, are newly refused, are refused with a changed message, or are
answered differently, and lists each request that is newly admitted,
newly refused or answered differently.  It exits 1 when a request is newly
refused or answered differently.  pytest does not collect it (its name
does not start with ``test_``); 2000 requests take about 20 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter


def requests(seed: int, count: int) -> list:
    """``count`` seeded [entry, ordinal text, n] triples, the coefficients
    mostly sized so that R = n*d ranks of them land near the answer cap."""
    rng = random.Random(seed)

    def coefficient(rank):
        if rng.random() < 0.3:
            return rng.randint(1, 9)
        bits = min(7000, max(1, round(rng.uniform(0.3, 1.5) * 14_000 / rank)))
        return rng.randint(2 ** (bits - 1), 2**bits - 1)

    out = []
    for _ in range(count):
        d = rng.choice([1, rng.randint(2, 6), rng.randint(2, 40)])
        n = rng.choice([rng.randint(1, 8), rng.randint(1, 200), rng.randint(1, 1200)])
        terms = [f"{'w' if d == 1 else f'w^{d}'}*{coefficient(n * d)}"]
        if d > 1 and rng.random() < 0.5:
            terms.append(f"w*{coefficient(n * d)}")
        if rng.random() < 0.7:
            terms.append(str(coefficient(n)))
        out.append([rng.choice(["classify", "pipeline_bound"]), " + ".join(terms), n])
    return out


def work(lines) -> None:
    """Answer each request read from ``lines``: one JSON line apiece, the
    digest of the result's JSON model and the answer's bits, or the refusal."""
    from ordramsey import degrees
    from ordramsey.ordinal import parse

    for entry, text, n in json.load(lines):
        try:
            result = getattr(degrees, entry)(parse(text), n, cap=n)
        except degrees.ResourceCapError as exc:
            print(json.dumps({"refused": str(exc)}))
            continue
        model = json.dumps(result.as_json(), sort_keys=True).encode()
        bits = result.value.bit_length() if result.value else 0
        print(json.dumps({"answer": hashlib.sha256(model).hexdigest()[:16], "bits": bits}))


def run(src: str, batch: list) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--work"],
        input=json.dumps(batch),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def kind(old: dict, new: dict) -> str:
    if "answer" in old:
        if "refused" in new:
            return "newly refused"
        return "same answer" if old == new else "answered differently"
    if "answer" in new:
        return "newly admitted"
    return "refused alike" if old == new else "refusal message changed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--work", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.work:
        work(sys.stdin)
        return 0
    if not (args.old_src and args.new_src):
        parser.error("give the old and the new src/ directories")
    batch = requests(args.seed, args.count)
    kinds = Counter()
    for request, old, new in zip(batch, run(args.old_src, batch), run(args.new_src, batch)):
        found = kind(old, new)
        kinds[found] += 1
        if found in ("newly admitted", "newly refused", "answered differently"):
            entry, text, n = request
            shown = text if len(text) < 80 else f"{text[:60]}... ({len(text)} chars)"
            print(f"{found}: {entry}({shown!r}, n={n}): {old} -> {new}")
    for name in (
        "same answer",
        "refused alike",
        "newly admitted",
        "newly refused",
        "refusal message changed",
        "answered differently",
    ):
        print(f"{name}: {kinds[name]}")
    return 1 if kinds["newly refused"] or kinds["answered differently"] else 0


if __name__ == "__main__":
    sys.exit(main())
