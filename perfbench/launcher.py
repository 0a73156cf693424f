"""Run one traced ``enclosure-atlas`` command in a fresh interpreter.

    python perfbench/launcher.py SPANS_JSON [CLI ARGS...]

Times ``import enclosure_atlas.cli``, installs the span wrappers, calls
``main(argv)`` and writes the spans, counters, import time and the wall time
of ``main`` to SPANS_JSON for the parent process. With no CLI arguments it
only times the import. Exits with the command's exit code.
"""

import json
import sys
import time

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import enclosure_atlas.cli as cli

    import_s = time.perf_counter() - start
    record = {"import_s": import_s}
    code = 0
    if argv:
        tracer = spans.Tracer()
        tracer.install()
        tracer.begin_op(0)
        start = time.perf_counter()
        code = cli.main(argv)
        record["main_s"] = time.perf_counter() - start
        tracer.end_op()
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts[0])
        record["code"] = code
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
