"""Long-lived library process for the pipeline_sweep workload.

Protocol on standard input and output, one JSON line each way:

1. read the job (``src``, ``blocks``, ``seconds``, ``min_requests``,
   ``max_blocks``, ``trace``), import ``ordramsey`` from ``src`` and
   answer ``{"ready": ...}``;
2. on ``go``, call ``parse`` then ``classify`` or ``pipeline_bound`` for
   each request, block after block, until ``seconds`` have passed (or
   ``max_blocks`` blocks are done), then answer with latencies, outputs
   and peak RSS.  End of input instead of ``go`` exits quietly.

Only the library calls are timed; serializing and comparing outputs
happens between them.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from array import array


def main() -> int:
    job = json.loads(sys.stdin.readline())
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    import ordramsey
    from ordramsey import degrees, ordinal

    print(json.dumps({"ready": ordramsey.__file__}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    blocks, max_blocks = job["blocks"], job["max_blocks"]
    latencies = array("d")
    outputs = {}
    inconsistent = 0
    done = 0
    started = time.perf_counter()
    while True:
        cycle = done % len(blocks)
        for j, req in enumerate(blocks[cycle]):
            call = getattr(degrees, req["call"])
            if tracer:
                tracer.request = len(latencies)
            t0 = time.perf_counter()
            try:
                result = call(ordinal.parse(req["text"]), req["n"])
                t1 = time.perf_counter()
                out = json.dumps(result.as_json())
            except Exception as exc:  # counted as a wrong answer by the caller
                t1 = time.perf_counter()
                out = f"error: {exc!r}"
            latencies.append(t1 - t0)
            key = f"{cycle}:{j}"
            if outputs.setdefault(key, out) != out:
                inconsistent += 1
        done += 1
        if max_blocks is not None:
            if done >= max_blocks:
                break
        elif time.perf_counter() - started >= job["seconds"] and len(latencies) >= job["min_requests"]:
            break

    reply = {
        "latencies": latencies.tolist(),
        "outputs": outputs,
        "inconsistent": inconsistent,
        "blocks": done,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump(job["trace"]) if tracer else None,
    }
    print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
