"""Traced launcher: ``repro`` with span wrappers around every layer.

    python3 benchmarks/system/launch.py --spans DIR -- serve --socket ...
    python3 benchmarks/system/launch.py --spans DIR -- stream ...

Installs :func:`tracing.install` and then runs ``repro.cli.main`` with
the arguments after ``--``; spans land in ``DIR/spans-<pid>.ndjson``.
"""

from __future__ import annotations

import argparse
import sys

from tracing import Tracer, install


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="span output directory")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no repro command after --")
    role = "consumer" if command[0] == "stream" else "front"
    tracer = Tracer(args.spans, role)
    install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
