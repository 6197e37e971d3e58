"""``repro-served`` — the persistent compile daemon.

Hosts a :class:`~repro.serve.CompileService` behind a threading TCP
server speaking the NDJSON protocol (:mod:`repro.serve.protocol`).
One daemon process keeps the expensive compiler state warm across any
number of client requests: the two-tier compile cache (in-memory LRU
over an optional on-disk store), the shared analysis manager, and a
pool of constructed pass managers.

Lifecycle contract (the PR 7 rules, extended to a daemon):

* On startup the daemon prints ``repro-served: listening on HOST:PORT``
  to stdout (flushed), so scripts and CI can scrape the bound port —
  essential with ``--port 0``.
* Ctrl-C (SIGINT) exits 130 after ``repro-served: interrupted``.
* SIGTERM drains cleanly and exits 0 after
  ``repro-served: terminated`` — a supervisor's stop is not an error.
* A client ``shutdown`` request also exits 0.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from .. import dialects  # noqa: F401 - registers ops and types
from ..serve import DEFAULT_HOST, DEFAULT_PORT, CompileService, ReproServer
from ..transforms.disk_cache import CACHE_DIR_ENV, cache_dir_from_env


class _Terminated(Exception):
    """SIGTERM arrived; unwind to a clean exit 0."""


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-served",
        description="Serve compile requests over newline-delimited JSON.")
    parser.add_argument(
        "--host", default=DEFAULT_HOST,
        help=f"address to bind (default {DEFAULT_HOST})")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"port to bind; 0 picks a free port (default {DEFAULT_PORT})")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="root of the persistent on-disk artifact cache "
             f"(default: ${CACHE_DIR_ENV} when set, else no disk tier)")
    parser.add_argument(
        "--max-entries", type=int, default=256, metavar="N",
        help="in-memory cache entries to keep (default 256)")
    parser.add_argument(
        "--max-cache-bytes", type=int, default=None, metavar="BYTES",
        help="on-disk cache budget in bytes (default 256 MiB)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: :func:`_main` plus the signal contract."""
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("repro-served: interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("repro-served: terminated", file=sys.stderr)
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.port < 0 or args.port > 65535:
        print("repro-served: --port must be 0..65535", file=sys.stderr)
        return 2
    cache_dir = args.cache_dir or cache_dir_from_env()

    try:
        service = CompileService(cache_dir=cache_dir,
                                 max_entries=args.max_entries,
                                 max_bytes=args.max_cache_bytes)
        server = ReproServer((args.host, args.port), service)
    except (OSError, ValueError) as exc:
        print(f"repro-served: cannot start: {exc}", file=sys.stderr)
        return 1

    def _on_sigterm(signum, frame):
        raise _Terminated()

    # SIGTERM is how a supervisor stops us: exit 0, not a crash.  The
    # handler raises out of serve_forever's poll loop in the main
    # thread; ``finally`` closes the socket before the process exits.
    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    print(f"repro-served: listening on {server.host}:{server.port}",
          flush=True)
    if cache_dir:
        print(f"repro-served: disk cache at {cache_dir}", file=sys.stderr)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
