"""The ordramsey benchmark.

Usage: ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from anywhere inside a checkout; NAME is one of ``cli_mixed``,
``pipeline_sweep``, ``verify_enum`` or ``all``.

Each workload is a closed loop with one caller.  With ``--trace 0`` the
run reports the end-to-end metrics.  With ``--trace 1`` it makes the same
untraced pass, replays those requests under the tracer (see
``tracer.py``), checks that both passes answered alike, and reports the
per-layer metrics instead.  Every answer is checked against
``reference.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import reference
import tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

# Set-ups are timed before and after the measured pass, so that their
# median spans the run rather than one second of it.
SETUPS_BEFORE, SETUPS_AFTER = 6, 5
MIN_REQUESTS = 100  # so that at least ten samples lie beyond the p90
PASS_BUDGET_S = 70.0  # hard stop for one pass, to keep a run under 180 s
# Whole blocks of the timed pass replayed under the tracer, about ten
# seconds of requests each, so that a traced run costs little more than
# an untraced one.
TRACE_BLOCKS = {"cli_mixed": 1, "pipeline_sweep": 20, "verify_enum": 4}

UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# (metric, span or count, how) -- "total" is inclusive seconds per request,
# "self" self seconds per request, "calls" spans per request, "count" a
# counter per request, "hits" the lru hit ratio of that cache.
LAYER_METRICS = (
    ("degrees.bound_pow_s", "degrees.bound_pow", "total"),
    ("degrees.bound_pow_calls", "degrees.bound_pow", "calls"),
    ("degrees.product_bound_calls", "degrees.product_bound", "calls"),
    ("degrees.product_bound_self_s", "degrees.product_bound", "self"),
    ("typecalc.enum_power_s", "typecalc.enum_power", "total"),
    ("typecalc.trees", "typecalc.trees", "count"),
    ("typecalc.out_degrees_s", "typecalc.out_degrees", "total"),
    ("typecalc.rank_counts_s", "typecalc.rank_counts", "total"),
    ("typecalc.rank_counts_calls", "typecalc.rank_counts", "calls"),
    ("typecalc.rank_counts_hit_ratio", "typecalc.rank_counts", "hits"),
    ("typecalc.enum_power_hit_ratio", "typecalc.enum_power", "hits"),
    ("cli.main_s", "cli.main", "total"),
    ("ordinal.parse_s", "ordinal.parse", "total"),
    ("ordinal.parse_calls", "ordinal.parse", "calls"),
    ("degrees.classify_self_s", "degrees.classify", "self"),
    ("degrees.bound_add_s", "degrees.bound_add", "total"),
    ("chains.enumerate_embeddings_s", "chains.enumerate_embeddings", "total"),
    ("chains.embeddings", "chains.embeddings", "count"),
    ("chains.order_points_s", "chains.order_points", "total"),
    ("chains.order_points_hit_ratio", "chains.order_points", "hits"),
    ("typecalc.enum_mult_s", "typecalc.enum_mult", "total"),
    ("typecalc.types", "typecalc.types", "count"),
    ("typecalc.mult_type_s", "typecalc.mult_type", "total"),
    ("typecalc.mult_type_calls", "typecalc.mult_type", "calls"),
    ("typecalc.reconstruct_s", "typecalc.reconstruct", "total"),
    ("witness.realized_colors_s", "witness.realized_colors", "total"),
    ("witness.realized_colors_calls", "witness.realized_colors", "calls"),
    ("verify.type_counts_s", "verify.type_counts", "total"),
    ("verify.product_bound_s", "verify.product_bound", "total"),
    ("verify.roundtrips_s", "verify.roundtrips", "total"),
    ("verify.finite_convention_s", "verify.finite_convention", "total"),
    ("verify.checks", "verify.checks", "count"),
    ("verify.mismatched", "verify.mismatched", "count"),
)
LAYER_UNITS = {"total": "s/req", "self": "s/req", "calls": "count/req", "count": "count/req", "hits": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # a set-up that never writes __pycache__ would recompile on every call
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ordramsey").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def check_module_path(path: str):
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"ordramsey imported from {path}, not from {SRC}")


def timed_setups(setup, count: int, release=None):
    """Seconds each of ``count`` calls of ``setup`` took, and the last result.

    ``release`` disposes of each result but the last, untimed.
    """
    times, value = [], None
    for i in range(count):
        if i and release:
            release(value)
        t0 = time.perf_counter()
        value = setup()
        times.append(time.perf_counter() - t0)
    return times, value


def end_to_end(setups, latencies, peak_rss_kb) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}


def per_layer(summary: dict, requests: int, traced_wall: float, untraced_wall: float) -> dict:
    spans, counts, caches = summary["spans"], summary["counts"], summary["caches"]
    out = {}
    for metric, key, how in LAYER_METRICS:
        if how == "hits":
            hits, misses = caches.get(key, (0, 0))
            value = hits / (hits + misses) if hits + misses else 0.0
        elif how == "count":
            value = counts.get(key, 0) / requests
        else:
            value = spans.get(key, {}).get(how, 0) / requests
        out[metric] = {"value": value, "unit": LAYER_UNITS[how]}
    main_total = spans.get("cli.main", {}).get("total", 0.0)
    overhead = (traced_wall - main_total) / requests if main_total else 0.0
    out["cli.overhead_s"] = {"value": overhead, "unit": "s/req"}
    out["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall - 1, "unit": "ratio"}
    return out


# -- CLI workloads ---------------------------------------------------


def _cli_request(argv, env, deadline):
    """(wall seconds, exit code, stdout) of one child process."""
    timeout = max(deadline - time.perf_counter(), 1.0)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        return time.perf_counter() - t0, proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, ""


def _probe(env) -> str:
    """Spawn and import like a CLI request does; return the module path."""
    proc = subprocess.run(
        [sys.executable, "-c", "import ordramsey, ordramsey.cli; print(ordramsey.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import ordramsey: {proc.stderr.strip()[-300:]}")
    return proc.stdout.strip()


def cli_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    cli = [sys.executable, "-m", "ordramsey"]

    def setup():
        blocks = corpus.BUILDERS[name](seed)
        check_module_path(_probe(env))
        return blocks

    blocks = corpus.BUILDERS[name](seed)
    _cli_request(cli + blocks[0][0]["argv"], env, time.perf_counter() + 60)  # warm-up, untimed
    setups, blocks = timed_setups(setup, SETUPS_BEFORE)

    deadline = time.perf_counter() + PASS_BUDGET_S
    done, started = [], time.perf_counter()
    for b in itertools.count():
        for req in blocks[b % len(blocks)]:
            if time.perf_counter() > deadline:
                break
            done.append((req, *_cli_request(cli + req["argv"], env, deadline)))
        elapsed = time.perf_counter() - started
        if time.perf_counter() > deadline or (elapsed >= seconds and len(done) >= MIN_REQUESTS):
            break
    failed = sum(not (code is not None and reference.check_cli(req["spec"], code, out)) for req, _, code, out in done)
    latencies = [wall for _, wall, _, _ in done]
    result = {"attempted": len(done), "failed": failed, "mismatched_traced": 0}
    if not trace:
        setups += timed_setups(setup, SETUPS_AFTER)[0]
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"] = end_to_end(setups, latencies, peak)
        return result

    span_dir = OUT / f"spans-{name}"
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    traced = [sys.executable, str(BENCH / "traced_cli.py")]
    deadline = time.perf_counter() + PASS_BUDGET_S
    summaries, traced_wall, untraced_wall = [], 0.0, 0.0
    for i, (req, wall, code, out) in enumerate(done[: TRACE_BLOCKS[name] * len(blocks[0])]):
        if time.perf_counter() > deadline:
            break
        span_file = span_dir / f"{i}.json"
        twall, tcode, tout = _cli_request(traced + [str(i), str(span_file)] + req["argv"], env, deadline)
        if (tcode, tout) != (code, out) or not span_file.exists():
            result["mismatched_traced"] += 1
            continue
        with open(span_file) as fh:
            summaries.append(json.load(fh)["summary"])
        traced_wall += twall
        untraced_wall += wall
    if not summaries:
        raise BenchError("no traced request completed")
    result["metrics"] = per_layer(tracer.merge(summaries), len(summaries), traced_wall, untraced_wall)
    return result


# -- library workload ------------------------------------------------


class Worker:
    """One ``libworker.py`` process, started and brought to ``ready``."""

    def __init__(self, env, job: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "libworker.py")],
            env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("library worker exited before it was ready")
            check_module_path(json.loads(line)["ready"])
        except BaseException:
            self.close()
            raise

    def run(self, timeout: float) -> dict:
        try:
            out, _ = self.proc.communicate("go\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.close()
            raise BenchError(f"library worker did not finish within {timeout:.0f} s")
        if self.proc.returncode != 0:
            raise BenchError(f"library worker exited with {self.proc.returncode}")
        return json.loads(out.splitlines()[-1])

    def quit(self):
        """End a worker that was never sent ``go``."""
        self.proc.stdin.close()
        self.proc.wait(timeout=30)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _job(blocks, seconds, max_blocks=None, trace=None) -> dict:
    return {
        "src": str(SRC),
        "blocks": [[{k: r[k] for k in ("text", "n", "call")} for r in block] for block in blocks],
        "seconds": seconds,
        "min_requests": MIN_REQUESTS,
        "max_blocks": max_blocks,
        "trace": trace,
    }


def sweep_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    blocks = corpus.pipeline_sweep(seed)
    Worker(env, _job([blocks[0][:1]], seconds, max_blocks=1)).run(60)  # warm-up, untimed

    def setup():
        return Worker(env, _job(corpus.pipeline_sweep(seed), seconds))

    setups, worker = timed_setups(setup, SETUPS_BEFORE, Worker.quit)
    reply = worker.run(PASS_BUDGET_S)

    # outputs are keyed "block:position", one per distinct request
    wrong = set()
    for key, out in reply["outputs"].items():
        c, j = map(int, key.split(":"))
        spec = dict(blocks[c][j], route="pipeline")
        if out.startswith("error") or not reference.check_classify_json(spec, json.loads(out)):
            wrong.add(key)
    executed = [f"{b % len(blocks)}:{j}" for b in range(reply["blocks"]) for j in range(len(blocks[0]))]
    failed = reply["inconsistent"] + sum(key in wrong for key in executed)
    latencies = reply["latencies"]
    result = {"attempted": len(latencies), "failed": failed, "mismatched_traced": 0}
    if not trace:
        more, last = timed_setups(setup, SETUPS_AFTER, Worker.quit)
        last.quit()
        result["metrics"] = end_to_end(setups + more, latencies, reply["rss_kb"])
        return result

    OUT.mkdir(exist_ok=True)
    replay = min(TRACE_BLOCKS[name], reply["blocks"])
    span_file = OUT / f"spans-{name}.json"
    traced = Worker(env, _job(blocks, seconds, max_blocks=replay, trace=str(span_file))).run(PASS_BUDGET_S)
    result["mismatched_traced"] = sum(out != reply["outputs"][k] for k, out in traced["outputs"].items())
    n = len(traced["latencies"])
    result["metrics"] = per_layer(traced["trace"], n, sum(traced["latencies"]), sum(latencies[:n]))
    return result


WORKLOADS = {"cli_mixed": cli_workload, "pipeline_sweep": sweep_workload, "verify_enum": cli_workload}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    info = run_info()
    result = WORKLOADS[name](name, seed, seconds, trace)
    info["loadavg_end"] = os.getloadavg()
    attempted, failed = result["attempted"], result["failed"]
    info.update(workload=name, seed=seed, trace=int(trace), failed_ratio=failed / max(attempted, 1))
    print("run " + json.dumps(info, sort_keys=True))
    if result["mismatched_traced"]:
        print(f"{name}: {result['mismatched_traced']} traced responses differ from untraced ones")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name} failed_ratio = {info['failed_ratio']:.6g} ({failed} of {attempted})")
    result["correct"] = failed == 0 and result["mismatched_traced"] == 0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ordramsey" / "__init__.py").is_file():
        print(f"no ordramsey sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{m}": e for name, r in results.items() for m, e in r["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
