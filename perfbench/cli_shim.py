"""`python cli_shim.py SPANS_FILE ARGV...`: run the washburn CLI like
`python -m washburn.cli ARGV...`, with spans around the import and every
public layer function, and write the spans to SPANS_FILE on exit.

Used only by traced cli-session runs.
"""
import json
import sys

from tracer import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sid = tracer.open("import.washburn")
    import washburn.cli
    tracer.close(sid)
    tracer.install()
    try:
        return washburn.cli.main(argv)
    finally:
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
