"""Traced stand-in for the `germindex` command, used by cli_cold's traced pass.

    python3 bench/cli_child.py SPANS_FILE REQUEST_ID ARGS...

Times the import of germindex.cli as a span, wraps the layers (spans.py),
runs germindex.cli.main(ARGS), restores the bindings and writes the spans
to SPANS_FILE.  Stdout and the exit code are those of main.
"""

import json
import sys

import spans


def main() -> int:
    spans_file, request, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.request = request
    index = tracer.open(spans.IMPORT_SPAN)
    import germindex.cli
    tracer.close(index)
    bindings = spans.install(tracer)
    try:
        code = germindex.cli.main(args)
    finally:
        spans.restore(bindings)
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
