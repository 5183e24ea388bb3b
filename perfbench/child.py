"""Run the adagev CLI in a child process with its functions traced.

    python3 perfbench/child.py SPANS_OUT ARG...

runs ``adagev ARG...`` like ``python -m adagev.cli ARG...`` and writes the
spans of the wrapped calls to SPANS_OUT, for the parent to merge. The
import of the program happens here, after the tracer, so that
``python -X importtime`` sees it as it would see a plain start.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import adagev
    import adagev.cli

    tracer = Tracer()
    tracer.install(adagev)
    try:
        code = adagev.cli.main(argv)
    except SystemExit as e:  # argparse exits after --help and on usage errors
        code = e.code if isinstance(e.code, int) else 1
    finally:
        tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
