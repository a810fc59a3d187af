"""Set-up warm-up: import frobrank, which compiles its bytecode, and run
a list of CLI commands in this one process.

Usage: python warmup.py JOBS_JSON

JOBS_JSON holds a list of [argv, stdout_path] pairs. Each argv goes to
``frobrank.cli.main`` and its stdout is written to stdout_path. Exits
with the first exit code that is neither 0 nor 1.
"""

from __future__ import annotations

import io
import json
import sys

from frobrank.cli import main as cli_main


def main() -> int:
    with open(sys.argv[1]) as fh:
        jobs = json.load(fh)
    real_stdout = sys.stdout
    for argv, path in jobs:
        sys.stdout = io.TextIOWrapper(io.BytesIO())
        try:
            code = cli_main(argv)
            data = sys.stdout.buffer.getvalue()
        finally:
            sys.stdout = real_stdout
        if code not in (0, 1):
            return code
        with open(path, "wb") as fh:
            fh.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
