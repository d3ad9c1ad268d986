#!/usr/bin/env python3
"""The chromaq benchmark: three workloads, each run in fresh child processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is verify_default, verify_deep, compute_cold, or `all` for the three in
turn. BENCHMARK.json lists only verify_default and compute_cold (GATED):
verify_deep fits only two processes into a run, too few to be steady on a
shared host. Run it from the root of a checkout; it needs `src/chromaq`
there. See perfbench/README.md for what each workload and metric means.

With `--trace 0` the workload repeats a fixed number of times that scales
with S (see ITERATIONS) and the end-to-end metrics are printed. With
`--trace 1` the workload runs once untraced and once traced, and the
per-layer metrics are printed instead. Every output is checked against the
exact expected values kept in perfbench/expected/. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
the exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import CHECKS, EXACTNUM_COUNTERS, GROUPS, MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED_JOBS = BENCH / "expected" / "verify_jobs.json"
EXPECTED_COMPUTE = BENCH / "expected" / "compute.json"

WORKLOADS = ("verify_default", "verify_deep", "compute_cold")
GATED = ("verify_default", "compute_cold")  # the workloads in BENCHMARK.json
VERIFY_ARGV = {
    "verify_default": ["verify", "all", "--json"],
    "verify_deep": ["verify", "all", "--deep", "--json"],
}

# compute_cold: one batch holds one request for every (verb, n), with
# as-expand drawn once per |Area| in AS_AREAS, so every seed asks for the same
# amount of work: only which graph or path is drawn changes. d-coeffs at
# n = 6 is drawn twice, so a run's 11th slowest request (req_tail_s) falls
# inside that group, which rebuilds the degree-6 Hall-Littlewood table in
# every process, rather than on the edge between it and the next group.
SIZES = (5, 6)
GRAPH_VERBS = ("csf", "d-coeffs", "e-expand")
AS_AREAS = (4, 8)
TWICE = ("d-coeffs", 6)

# Iterations of an untraced run of REF_SECONDS, scaled by --seconds / REF_SECONDS.
# The count does not depend on measured speed, so a faster program repeats the
# same work and its sample counts and req_tail_s percentile stay comparable.
# verify_deep gets two iterations (about 60 s at the seed commit) because one
# deep process alone follows the machine's speed drift too closely.
REF_SECONDS = 32
ITERATIONS = {"verify_default": 12, "verify_deep": 2, "compute_cold": 9}
PROBES = 24           # import-only processes per run, for setup_s and speed
# The reference speed: a child's interpreter start (spawn to the first line of
# child.py) takes this long. It only sets the scale of the timings.
STARTUP_REF_S = 0.04
TAIL_BEYOND = 10      # req_tail_s: the sample with this many beyond it
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("req_p50_s", "s"),
    ("req_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment without CHROMAQ_THREADS (the thread pool is
    slower on 2 cores) and without PYTHON* settings such as
    PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED, which would change import
    and output costs from what an installed `chromaq` pays."""
    env = {k: v for k, v in os.environ.items()
           if k != "CHROMAQ_THREADS" and not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"  # set/frozenset order, hence counts, repeat
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Proc:
    code: int | None
    stdout: bytes
    latency: float
    setup: float | None
    rss_kb: int | None
    trace: dict | None
    startup: float | None = None  # spawn to the first line of child.py


def spawn(argv: list, *, probe: bool = False, trace: bool = False) -> Proc:
    flags = (["--probe"] if probe else []) + (["--trace"] if trace else [])
    cmd = [sys.executable, str(BENCH / "child.py"), *flags, "--", *argv]
    start = _now()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        try:
            out, err = p.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            out, err = p.communicate()
    end = _now()
    stamp = None
    for line in reversed(err.decode(errors="replace").splitlines()):
        if line.startswith("PERFBENCH_STAMP "):
            stamp = json.loads(line.split(" ", 1)[1])
            break
    if stamp is None:
        return Proc(p.returncode, out, end - start, None, None, None)
    return Proc(p.returncode, out, end - start, stamp["ready"] - start,
                stamp["maxrss_kb"], stamp.get("trace"), stamp["started"] - start)


# ---------------------------------------------------------------------------
# workloads and the correctness gate
# ---------------------------------------------------------------------------

@dataclass
class Iteration:
    wall: float = 0.0
    procs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def verify_failures(proc: Proc, expected: list) -> int:
    """Expected jobs that did not report `pass`, plus unexpected reports."""
    want = {tuple(j) for j in expected}
    if proc.code != 0:
        return len(want)
    try:
        reports = json.loads(proc.stdout)
        got = [(r["check"], r["n"], r["q"]) for r in reports]
        passed = {job for job, r in zip(got, reports) if r["status"] == "pass"}
    except (ValueError, KeyError, TypeError):
        return len(want)
    unexpected = len(got) - len(set(got)) + len(set(got) - want)
    return len(want - passed) + unexpected


def compute_ok(proc: Proc, expected_response) -> bool:
    if proc.code != 0:
        return False
    try:
        return json.loads(proc.stdout) == expected_response
    except ValueError:
        return False


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        if name in VERIFY_ARGV:
            self.jobs = json.loads(EXPECTED_JOBS.read_text())[name]
        else:
            self.expected: dict = {}
            self.pools: dict = {}
            for e in json.loads(EXPECTED_COMPUTE.read_text()):
                self.expected[(e["verb"], e["index"])] = e["response"]
                stratum = (e["verb"], e["n"], e["area"] if e["verb"] == "as-expand" else None)
                self.pools.setdefault(stratum, []).append(e["index"])
            for pool in self.pools.values():
                pool.sort()

    def batch(self) -> list:
        """The next seeded compute_cold batch of (verb, index) requests."""
        reqs = []
        for n in SIZES:
            for verb in GRAPH_VERBS + ("llt",):
                for _ in range(2 if (verb, n) == TWICE else 1):
                    reqs.append((verb, self.rng.choice(self.pools[(verb, n, None)])))
            for a in AS_AREAS:
                reqs.append(("as-expand", self.rng.choice(self.pools[("as-expand", n, a)])))
        self.rng.shuffle(reqs)
        return reqs

    def requests(self) -> list:
        """The argv lists of one run of the workload."""
        if self.name in VERIFY_ARGV:
            return [VERIFY_ARGV[self.name]]
        return [["compute", verb, index] for verb, index in self.batch()]

    def run_once(self, requests: list, trace: bool = False) -> Iteration:
        it = Iteration()
        start = _now()
        for argv in requests:
            proc = spawn(argv, trace=trace)
            it.procs.append(proc)
            if self.name in VERIFY_ARGV:
                it.attempted += len(self.jobs)
                it.failed += verify_failures(proc, self.jobs)
            else:
                it.attempted += 1
                it.failed += not compute_ok(proc, self.expected[(argv[1], argv[2])])
        it.wall = _now() - start
        return it


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies: list) -> tuple[float, str]:
    """The latency with TAIL_BEYOND samples beyond it, and its percentile.

    A run with fewer than 4 * TAIL_BEYOND samples (the verify workloads, with
    one process per iteration) takes the sample with a quarter of them beyond
    it instead, rounded up, so one slow process does not decide the metric;
    never more than (n - 1) // 2, so it is never below the median.
    """
    xs = sorted(latencies)
    beyond = min(TAIL_BEYOND, -(-len(xs) // 4), (len(xs) - 1) // 2)
    k = len(xs) - beyond - 1
    return xs[k], f"p{100 * (k + 1) / len(xs):.1f} ({beyond} of {len(xs)} beyond)"


def end_to_end(iters: list, probes: list) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, each timing scaled to the reference
    speed.

    The host's speed drifts by up to 2x over seconds to minutes. Every
    child measures the speed it runs at as its interpreter start, work that
    no change to chromaq can move, so each timing is multiplied by
    STARTUP_REF_S / (median interpreter start over the run's children).
    README.md gives the measurements behind this.
    """
    procs = [p for it in iters for p in it.procs]
    # a process that died before its stamp has no setup or RSS; it already
    # counts as failed, and the [0] keeps the report printable
    setups = [p.setup for p in procs + probes if p.setup is not None] or [0.0]
    rss = [p.rss_kb for p in procs + probes if p.rss_kb is not None] or [0]
    lat = [p.latency for p in procs]
    tail_value, tail_label = tail(lat)
    measured = {
        "wall_s": statistics.median(it.wall for it in iters),
        "setup_s": statistics.median(setups),
        "req_p50_s": statistics.median(lat),
        "req_tail_s": tail_value,
    }
    startups = [p.startup for p in procs + probes if p.startup is not None] or [STARTUP_REF_S]
    speed = STARTUP_REF_S / statistics.median(startups)
    values = {k: v * speed for k, v in measured.items()}
    values["peak_rss_mb"] = max(rss) / 1024
    samples = {"wall_s": len(iters), "setup_s": len(setups), "requests": len(lat),
               "req_tail_percentile": tail_label, "measured": measured,
               "startup": {"samples": len(startups), "median_s": statistics.median(startups),
                           "speed": speed}}
    return {k: (values[k], unit) for k, unit in END_TO_END}, samples


def _sum_traces(traces: list) -> dict:
    agg = {"spans": 0, "induction_builds": 0, "orientations": 0,
           "self_s": {m: 0.0 for m in MODULES},
           "groups": {g: {"calls": 0, "s": 0.0, "max_s": 0.0} for g in GROUPS},
           "exactnum": {key: 0 for _, _, key in EXACTNUM_COUNTERS}}
    for t in traces:
        for key in ("spans", "induction_builds", "orientations"):
            agg[key] += t[key]
        for m, v in t["self_s"].items():
            agg["self_s"][m] += v
        for k, v in t["exactnum"].items():
            agg["exactnum"][k] += v
        for g, v in t["groups"].items():
            a = agg["groups"][g]
            a["calls"] += v["calls"]
            a["s"] += v["s"]
            a["max_s"] = max(a["max_s"], v["max_s"])
    return agg


# (metric, unit, group, field) read from the summed trace summaries
GROUP_METRICS = [
    ("bridge.jobs", "count", "bridge.job", "calls"),
    ("bridge.job_max_s", "s", "bridge.job", "max_s"),
    ("bridge.p_one_s", "s", "bridge.p_one", "s"),
    *[(f"bridge.{c}_s", "s", f"bridge.{c}", "s") for c in CHECKS],
    ("fqoracle.induction_s", "s", "fqoracle.induction", "s"),
    ("fqoracle.induce_calls", "count", "fqoracle.induce", "calls"),
    ("fqoracle.classfn_calls", "count", "fqoracle.classfn", "calls"),
    ("fqoracle.classfn_s", "s", "fqoracle.classfn", "s"),
    ("fqoracle.permchar_s", "s", "fqoracle.permchar", "s"),
    ("fqoracle.hess_calls", "count", "fqoracle.hess", "calls"),
    ("fqoracle.hess_s", "s", "fqoracle.hess", "s"),
    ("fqoracle.superclass_s", "s", "fqoracle.superclass", "s"),
    ("chromallt.csf_calls", "count", "chromallt.csf", "calls"),
    ("chromallt.csf_s", "s", "chromallt.csf", "s"),
    ("chromallt.llt_calls", "count", "chromallt.llt", "calls"),
    ("chromallt.llt_s", "s", "chromallt.llt", "s"),
    ("chromallt.as_calls", "count", "chromallt.as", "calls"),
    ("chromallt.as_s", "s", "chromallt.as", "s"),
    ("symfunc.basis_calls", "count", "symfunc.basis", "calls"),
    ("symfunc.basis_s", "s", "symfunc.basis", "s"),
    ("symfunc.expand_calls", "count", "symfunc.expand", "calls"),
    ("symfunc.expand_s", "s", "symfunc.expand", "s"),
    ("symfunc.to_sympoly_s", "s", "symfunc.to_sympoly", "s"),
    ("symfunc.plethysm_omega_s", "s", "symfunc.plethysm_omega", "s"),
    ("combinatorics.index_calls", "count", "combinatorics.index", "calls"),
    ("combinatorics.index_s", "s", "combinatorics.index", "s"),
    ("combinatorics.mobius_calls", "count", "combinatorics.mobius", "calls"),
    ("combinatorics.type_of_calls", "count", "combinatorics.type_of", "calls"),
]


def per_layer(traces: list, overhead_s: float) -> dict:
    agg = _sum_traces(traces)
    out = {f"{m}.self_s": (agg["self_s"][m], "s") for m in MODULES}
    for name, unit, group, key in GROUP_METRICS:
        out[name] = (agg["groups"][group][key], unit)
    out["fqoracle.induction_builds"] = (agg["induction_builds"], "count")
    out["chromallt.orientations"] = (agg["orientations"], "count")
    for key, value in agg["exactnum"].items():
        out[f"exactnum.{key}"] = (value, "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = Workload(name, seed)
    spawn([], probe=True)  # untimed: compiles .pyc and warms the file cache
    context: dict = {}
    if trace:
        requests = wl.requests()  # the same inputs, untraced then traced
        untraced = wl.run_once(requests)
        traced = wl.run_once(requests, trace=True)
        iters = [untraced, traced]
        traces = [p.trace for p in traced.procs if p.trace is not None]
        metrics = per_layer(traces, traced.wall - untraced.wall)
        context["tracing"] = {"untraced_wall_s": untraced.wall, "traced_wall_s": traced.wall,
                              "overhead_s": traced.wall - untraced.wall,
                              "spans": sum(t["spans"] for t in traces),
                              "processes": len(traced.procs)}
    else:
        count = max(1, round(ITERATIONS[name] * seconds / REF_SECONDS))
        probes, iters = [], []
        for i in range(count + 1):
            # PROBES import-only processes, spread over the gaps between
            # iterations, so setup_s and the speed sample the whole run
            gap = PROBES * (i + 1) // (count + 1) - PROBES * i // (count + 1)
            probes += [spawn([], probe=True) for _ in range(gap)]
            if i < count:
                iters.append(wl.run_once(wl.requests()))
        metrics, context["samples"] = end_to_end(iters, probes)
    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)
    return {"workload": name, "attempted": attempted, "failed": failed,
            "metrics": metrics, "context": context}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_context(seed: int, seconds: float, trace: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chromaq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": _commit(), "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "seconds": seconds, "trace": int(trace),
            "child_env": {"PYTHONHASHSEED": "0", "PYTHONPATH": "src",
                          "unset": "CHROMAQ_THREADS and other PYTHON* variables"}}


def report(result: dict) -> None:
    print(f"workload {result['workload']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    a, f = result["attempted"], result["failed"]
    print(f"  {'fail_frac':32s} {f / a:>14.6g} ratio  ({f} of {a} operations failed)")
    print("  context " + json.dumps(result["context"], sort_keys=True))


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=REF_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "chromaq" / "cli.py", EXPECTED_JOBS, EXPECTED_COMPUTE)
               if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; "
              "run from the root of a chromaq checkout", file=sys.stderr)
        return 2

    # One CPU for the benchmark and, by inheritance, every child: the host's
    # vCPUs slow down independently of each other, so the interpreter starts
    # that set the speed must be measured on the CPU the work runs on. The
    # children are single-threaded and the parent waits while one runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("context " + json.dumps(run_context(args.seed, args.seconds, bool(args.trace))))
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        report(r)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for name, (value, unit) in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
