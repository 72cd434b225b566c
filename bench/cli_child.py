"""`python -m conewave.cli` with the per-layer tracer installed.

Used by the traced run of the cli_calls workload in place of
`python -m conewave.cli ARGS`: it imports the CLI, wraps the timed
functions, calls `conewave.cli.main(ARGS)` and writes the aggregates as
JSON to the file named by BENCH_TRACE_OUT before exiting with main's code.
An uncaught exception still ends the process with code 1 and a traceback,
as it would under `-m`.
"""

import json
import os
import sys

from tracer import Tracer, install

import conewave.cli

tracer = Tracer()
install(tracer)
try:
    code = conewave.cli.main(sys.argv[1:])
finally:
    tracer.restore()
    with open(os.environ["BENCH_TRACE_OUT"], "w") as handle:
        json.dump(tracer.as_dict(), handle)
sys.exit(code)
