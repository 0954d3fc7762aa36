"""One benchmark operation, run in a fresh Python process.

    python3 bench/op.py SPEC_JSON [SPANS_FILE]

Builds the inputs the spec describes, runs the operation once and prints
one JSON line: the monotonic time at which the inputs were ready, the
operation's wall time, the process's peak RSS and the output.  With a
spans file the run is traced: the tracer is installed before the inputs
are built, the per-name counters go into the JSON line and the recorded
spans into the file.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    spans_path = argv[1] if len(argv) > 1 else None
    import extbound  # noqa: F401  (the import is part of set-up)
    import workloads

    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        inputs = tracer.run_span("bench.setup", lambda: workloads.build_inputs(spec))
    else:
        inputs = workloads.build_inputs(spec)
    t_ready = time.monotonic()
    if tracer is not None:
        output = tracer.run_span("bench.op", lambda: workloads.run_op(spec, inputs))
    else:
        output = workloads.run_op(spec, inputs)
    t_done = time.monotonic()

    result = {"t_ready": t_ready, "op_s": t_done - t_ready,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "output": output}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.table()
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
