"""``repro-client`` — one-shot client for the ``repro-served`` daemon.

A thin CLI over :class:`repro.serve.ServeClient`: compile IR through a
running daemon (``repro-client input.mlir --passes 'cse,dce'``), or poke
it with ``--ping``, ``--status`` and ``--shutdown``.  The optimized IR
prints to stdout exactly as ``repro-opt`` would print it, so the two
are drop-in interchangeable in scripts — the daemon just keeps the
caches warm between calls.

Exit status mirrors ``repro-opt``: 0 success, 1 compile/connection
failure, 2 usage errors, 130 on Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from typing import List, Optional

from ..serve import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ProtocolError,
    ServeClient,
    ServeError,
)
from . import read_input


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-client",
        description="Send compile requests to a repro-served daemon.")
    parser.add_argument(
        "inputs", nargs="*", default=["-"], metavar="input",
        help="input IR files, or '-' for stdin (default)")
    parser.add_argument(
        "--host", default=DEFAULT_HOST,
        help=f"daemon address (default {DEFAULT_HOST})")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"daemon port (default {DEFAULT_PORT})")
    parser.add_argument(
        "--passes", default=None, metavar="SPEC",
        help="pass pipeline spec to compile through")
    parser.add_argument(
        "--progress", action="store_true",
        help="stream per-pass progress events to stderr "
             "(bypasses the daemon's compile cache)")
    parser.add_argument(
        "--no-verify", action="store_true",
        help="ask the daemon to skip IR verification")
    parser.add_argument(
        "--print-locations", action="store_true",
        help="print source locations in the optimized output")
    parser.add_argument(
        "--report", action="store_true",
        help="print the compile's statistics and remarks to stderr")
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="socket timeout per request (default 60)")
    parser.add_argument(
        "--ping", action="store_true",
        help="check the daemon is alive and exit")
    parser.add_argument(
        "--status", action="store_true",
        help="print the daemon's status (JSON) and exit")
    parser.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to shut down and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: :func:`_main` plus graceful Ctrl-C (130)."""
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("repro-client: interrupted", file=sys.stderr)
        return 130


def _progress_printer(event: dict) -> None:
    phase = event.get("phase", "?")
    name = event.get("pass", "?")
    print(f"repro-client: [{phase}] {name}", file=sys.stderr)


def _main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    control = args.ping or args.status or args.shutdown
    if not control and not args.passes:
        print("repro-client: --passes is required to compile",
              file=sys.stderr)
        return 2

    try:
        client = ServeClient(host=args.host, port=args.port,
                             timeout=args.timeout)
    except OSError as exc:
        print(f"repro-client: cannot connect to "
              f"{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1

    with client:
        try:
            if args.ping:
                response = client.ping()
                print(f"repro-client: daemon alive "
                      f"(protocol {response.get('protocol')})")
                return 0
            if args.status:
                print(json.dumps(client.status(), indent=2, sort_keys=True))
                return 0
            if args.shutdown:
                client.shutdown()
                print("repro-client: daemon shutting down")
                return 0
            exit_code = 0
            for path in args.inputs:
                try:
                    ir = read_input(path)
                except OSError as exc:
                    print(f"repro-client: cannot read input: {exc}",
                          file=sys.stderr)
                    return 1
                try:
                    done = client.compile(
                        ir, args.passes,
                        progress=_progress_printer if args.progress
                        else None,
                        verify=not args.no_verify,
                        print_locations=args.print_locations)
                except ServeError as exc:
                    print(f"repro-client: {path}: {exc}", file=sys.stderr)
                    exit_code = max(exit_code, 1)
                    continue
                sys.stdout.write(done["text"])
                if args.report:
                    for pass_name, name, value in done["statistics"]:
                        print(f"  {pass_name}: {name} = {value}",
                              file=sys.stderr)
                    for remark in done["remarks"]:
                        print(f"  remark: {remark}", file=sys.stderr)
                    if done.get("cached"):
                        print("  compile-cache: served warm",
                              file=sys.stderr)
            return exit_code
        except (ServeError, ProtocolError, socket.timeout, OSError) as exc:
            print(f"repro-client: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
