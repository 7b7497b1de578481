"""Run the wbary CLI with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py --spans FILE <wbary CLI arguments...>

Imports ``wbary.cli`` (and with it every wbary module), wraps the traced
functions, runs ``wbary.cli.main`` on the remaining arguments, writes the
spans to FILE and exits with the CLI's exit code.  FILE must lie outside
the CLI's ``--out`` directory so that directory's bytes stay as the
untraced CLI writes them.
"""

import sys

from tracing import Tracer


def main(argv):
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_cli.py --spans FILE <wbary arguments>",
              file=sys.stderr)
        return 2
    spans, rest = argv[1], argv[2:]
    import wbary.cli

    tracer = Tracer()
    tracer.install()
    sid = tracer.open("cli.main")
    try:
        code = wbary.cli.main(rest)
    finally:
        tracer.close(sid)
        tracer.uninstall()
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
