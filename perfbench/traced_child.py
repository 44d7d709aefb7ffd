"""Run one shoulderkin CLI command with its public calls recorded as spans.

    python3 traced_child.py SPANS_OUT RUN_ID PARENT_SPAN [COMMAND ARGS...]

Imports the package inside an ``import`` span, wraps the public functions
(see `spans.WRAPPED`), calls ``shoulderkin.cli.main`` with the command and
writes the spans and counters to SPANS_OUT when it returns. With no command
the child only imports the package. The exit code is the command's.
"""
import sys

import spans

out, run_id, parent = sys.argv[1:4]
tracer = spans.Tracer(run_id, parent or None)
with tracer.span(spans.IMPORT_SPAN):
    import shoulderkin
code = 0
try:
    if sys.argv[4:]:
        spans.install(tracer)
        code = shoulderkin.cli.main(sys.argv[4:])
finally:
    tracer.dump(out)
sys.exit(code)
