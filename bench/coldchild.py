"""Traced stand-in for ``python -m igk.cli``: one CLI invocation with spans.

Usage: python -X importtime coldchild.py SPANS.npz ARG...

Imports igk (timed by -X importtime), wraps its public boundary (see
``tracing``), runs ``igk.cli.main(ARG...)`` and writes the spans to
SPANS.npz.  Exit code,
stdout and stderr are those of the plain CLI; an uncaught exception still
ends in a traceback and exit 1, after the spans are written.
"""

import sys

import tracing


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    cli_main = rec.install()
    try:
        return cli_main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(path)


if __name__ == "__main__":
    sys.exit(main())
