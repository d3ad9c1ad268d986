"""Run one chromaq CLI command the way the `chromaq` console script does,
and report timing stamps to the benchmark.

    python3 perfbench/child.py [--probe] [--trace] -- <chromaq arguments>

The process stamps CLOCK_MONOTONIC (the same clock the parent reads, so the
parent can subtract its spawn time) when its first line runs, which times
the interpreter's own start, and again after it imports `chromaq.cli`; then
it calls `chromaq.cli.main`. `--probe` stops after the import. `--trace` installs the
outside-in tracer first and adds its summary to the stamp. The stamp is the
last line of stderr: `PERFBENCH_STAMP {json}`.
"""

import sys
import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    sep = sys.argv.index("--")
    flags, argv = sys.argv[1:sep], sys.argv[sep + 1:]

    from chromaq import cli

    stamp = {"started": STARTED, "ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    code = 0
    if "--probe" not in flags:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        code = cli.main(argv)
        sys.stdout.flush()
        if tracer is not None:
            stamp["trace"] = tracer.summary()

    import json
    import resource

    stamp["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("PERFBENCH_STAMP " + json.dumps(stamp) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
