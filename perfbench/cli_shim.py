"""Run one towertop command with tracing, as a child of the benchmark.

    python3 perfbench/cli_shim.py TRACE_FILE ARG...

Times ``import towertop.cli``, installs the benchmark's wrappers, calls
``towertop.cli.main(ARG...)`` under one root span, writes the spans,
counters and import time to TRACE_FILE, and exits with main's status.
"""

import sys
import time

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import towertop.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    with tracer.installed(), tracer.job(0):
        code = towertop.cli.main(argv)
    sys.stdout.flush()
    tracer.write(out_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
