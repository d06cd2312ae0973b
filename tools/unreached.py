"""Print the functions of a checkout's `src/taylorlab` that the artifact
digest run never enters.

    python3 tools/unreached.py [--checkout DIR]

It runs `tools/artifact_digests.py`'s run at its default seeds (the
digests themselves are dropped) under a `sys.setprofile` hook that
records every Python function entered, then prints, one per line as
`file:line  qualified name` in file and line order, each function defined
in the checkout's `src/taylorlab` that was never entered.  Comprehensions, generator expressions and
lambdas are not listed; their enclosing function is.  A method that the
byte-identity gate should see, and that is listed here, needs a digest
unit that reaches it.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import artifact_digests  # noqa: E402  (sets OPENBLAS_NUM_THREADS first)


def _defined(path: str):
    """(first line, qualified name) of every function the file defines."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    out = []
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if hasattr(const, "co_qualname"):
                stack.append(const)
                if not const.co_name.startswith("<"):
                    out.append((const.co_firstlineno, const.co_qualname))
    return sorted(out)


def unreached(checkout: str) -> list:
    package = os.path.join(checkout, "src", "taylorlab")
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as work:
        sys.setprofile(hook)
        try:
            artifact_digests.digests(checkout, artifact_digests.SEEDS, work)
        finally:
            sys.setprofile(None)
    out = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        out += [f"{name}:{line}  {qualname}"
                for line, qualname in _defined(path)
                if (os.path.realpath(path), line) not in entered
                and (path, line) not in entered]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args(argv)
    for line in unreached(os.path.abspath(args.checkout)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
