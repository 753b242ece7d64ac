"""Start one tune-service process for the benchmark, optionally traced.

    python3 perfbench/launch.py --role backend [--trace FILE] -- <cli args>

Runs the same ``repro.automl.cli`` entry point as ``python -m
repro.automl.cli <cli args>``.  With ``--trace`` the role's layer wrappers
are installed first and the spans are written to FILE when the process
exits (the benchmark stops services with SIGINT, which the CLI handles as a
clean shutdown).
"""

from __future__ import annotations

import argparse
import atexit
import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import require_program  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", required=True, choices=("backend", "router"))
    parser.add_argument("--trace", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    require_program()
    if args.trace:
        from perfbench.tracer import Tracer, install
        tracer = Tracer()
        install(args.role, tracer)
        atexit.register(tracer.dump, args.trace)
    from repro.automl.cli import main as cli_main
    return cli_main(cli_args, out=functools.partial(print, flush=True))


if __name__ == "__main__":
    sys.exit(main())
