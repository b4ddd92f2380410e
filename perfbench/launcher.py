"""Run one climfact command with span recording.

    python launcher.py SPANS_JSON RUN_ID <climfact cli arguments...>

Imports the same modules as ``python -m climfact.cli``,
wraps the public functions listed in ``spans.TARGETS``, runs
``climfact.cli.main`` as the root span and writes the spans to
SPANS_JSON when it returns. The exit code is main's.
"""

import json
import sys
import time


def main():
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import spans
    from climfact import (cli, climatology, config, factors, fira, ingest,
                          localproj, svgplot)

    recorder = spans.Recorder()
    spans.instrument(recorder, {
        "config": config, "ingest": ingest, "climatology": climatology,
        "localproj": localproj, "factors": factors, "fira": fira,
        "svgplot": svgplot,
    })
    entered = time.monotonic()
    code = recorder.call("cli.main", cli.main, (argv,), {})
    left = time.monotonic()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "main_entered": entered,
                   "main_exit": left, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
