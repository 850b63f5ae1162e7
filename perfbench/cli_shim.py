"""Run one meroconn CLI call with tracing, for the traced cli workload.

    python -X importtime perfbench/cli_shim.py STATS_JSON SPANS_CSV ARG...

Runs ``meroconn.cli.main(ARG...)`` under the tracer and writes the trace
summary to STATS_JSON and the spans to SPANS_CSV.  Standard output and
the exit code are the CLI's.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def main():
    stats_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import meroconn.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_item(0, meroconn.cli.main, argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["per_item"] = tracer.per_item()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
