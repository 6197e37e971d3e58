"""Functions in ``src/`` that tier-1 never calls.

Runs the tier-1 suite in this process with a ``sys.setprofile`` hook
(also installed on new threads through ``threading.setprofile``) that
records every code object it sees entered, then lists each function
defined under ``src/repro`` whose code object never ran::

    PYTHONPATH=src python tests/never_called.py [pytest args...]

With no arguments it runs what ``python -m pytest`` runs from the
repository root (``tests/`` and ``benchmarks/e2e/test_e2e.py``).

The hook is a plain function, so a test that saves ``sys.getprofile()``
and restores it afterwards gets a callable back; the plugin below
re-arms it before and after every test in case a test switched it off.
Work done in child processes (CLI tests that spawn ``python -m ...``,
pool workers) is not seen.

Every listed function must be named in ``never_called_allowlist.txt``
with the reason it stays; the script exits 1 when a function outside
the allowlist is listed, when an allowlist entry has no reason, or when
an entry is stale (the function now runs or no longer exists), and 2
when the suite itself fails.
"""

import pathlib
import sys
import threading
from inspect import CO_NEWLOCALS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = pathlib.Path(__file__).with_name("never_called_allowlist.txt")

#: Code objects entered, by identity: two functions with the same name,
#: first line and body in different files compare equal as code objects.
_seen = {}


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def _arm():
    sys.setprofile(_record)
    threading.setprofile(_record)


class RearmPlugin:
    """Re-arms the hook around every test."""

    def pytest_runtest_setup(self, item):
        _arm()

    def pytest_runtest_teardown(self, item, nextitem):
        _arm()


def _functions(code, module, prefix=""):
    """``(key, qualified name)`` of every function nested in ``code``."""
    for const in code.co_consts:
        if not hasattr(const, "co_code"):
            continue
        if const.co_name.startswith("<"):  # lambdas, comprehensions
            yield from _functions(const, module, prefix)
            continue
        qualname = prefix + const.co_name
        if const.co_flags & CO_NEWLOCALS:  # a function, not a class body
            yield _key(const), f"{module}:{qualname}"
        yield from _functions(const, module, qualname + ".")


def _key(code):
    return (str(pathlib.Path(code.co_filename).resolve()), code.co_firstlineno,
            code.co_name)


def defined_functions():
    """``{key: qualified name}`` of every function under ``src/repro``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        code = compile(path.read_text(), str(path.resolve()), "exec")
        found.update(_functions(code, module))
    return found


def read_allowlist(path=ALLOWLIST):
    """``{qualified name: reason}``; ``#`` starts a comment line and the
    reason follows the name after whitespace."""
    entries = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        entries[name] = reason.strip()
    return entries


def main(argv):
    import pytest

    sys.path[0] = str(ROOT)  # as under ``python -m pytest`` from the root
    _arm()
    status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT)])],
                         plugins=[RearmPlugin()])
    sys.setprofile(None)
    threading.setprofile(None)
    ran = {_key(code) for code in _seen.values()}
    defined = defined_functions()
    never = sorted(name for key, name in defined.items() if key not in ran)
    print(f"\n{len(never)} of {len(defined)} functions in src/ never called:")
    for name in never:
        print(f"  {name}")

    allowed = read_allowlist()
    unlisted = [name for name in never if name not in allowed]
    no_reason = [name for name, reason in allowed.items() if not reason]
    stale = sorted(set(allowed) - set(never))
    for title, names in (("not in the allowlist", unlisted),
                         ("allowlist entries without a reason", no_reason),
                         ("stale allowlist entries (called or gone)", stale)):
        if names:
            print(f"\n{title}:")
            for name in names:
                print(f"  {name}")
    if status != 0:
        print(f"\ntier-1 failed (pytest exit {int(status)}); the trace is incomplete")
        return 2
    return 1 if unlisted or no_reason or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
