"""Run one ``ordramsey`` CLI request under the tracer.

Usage: ``python3 bench/traced_cli.py REQUEST_ID SPAN_FILE ARGS...``

Standard output and the exit code are those of ``python3 -m ordramsey
ARGS...``; the spans of the request, with ``cli.main`` as their root, go
to SPAN_FILE when it ends.  Exits with 70 if ``ordramsey`` is not the copy
under this checkout's ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    request, span_file, args = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = Tracer().install()
    import ordramsey
    import ordramsey.cli

    if not Path(ordramsey.__file__).resolve().is_relative_to(SRC):
        print(f"ordramsey imported from {ordramsey.__file__}, not {SRC}", file=sys.stderr)
        return 70
    tracer.request = request
    try:
        code = tracer.span("cli.main", ordramsey.cli.main, args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    sys.stdout.flush()
    tracer.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
