"""One traced CLI invocation, for the traced pass of the cli_session workload.

    python bench/cli_child.py OUT.json LAUNCHED_AT <posetmetrics command line>

LAUNCHED_AT is the parent's time.perf_counter() when it started this
process; on Linux that clock is system-wide, so start-up time can be read
here.  Times the import of posetmetrics.cli, installs the tracer, runs
cli.main on the given arguments, restores the package, writes the raw spans
next to OUT.json and the folded totals into it, and exits with cli.main's
code.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    out = Path(sys.argv[1])
    launched_at = float(sys.argv[2])
    start = time.perf_counter()
    import posetmetrics.cli as cli

    imported = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
    with tracing.open_spans(out.with_suffix(".bin.gz")) as spans:
        covered_s = tracer.fold(spans)
    out.write_text(json.dumps({
        "import_s": imported - start,
        "start_s": imported - launched_at,
        "covered_s": covered_s,
        "totals": tracer.named_totals(),
        "codes_scanned": tracer.codes_scanned,
        "caches": tracing.cache_stats(),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
