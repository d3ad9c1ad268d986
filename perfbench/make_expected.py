#!/usr/bin/env python3
"""Regenerate the benchmark's expected outputs in perfbench/expected/.

    python3 perfbench/make_expected.py

Run it from the root of a checkout, and only at a commit whose outputs are
trusted: the benchmark counts every later difference as a failure.

- verify_jobs.json: the (check, n, q) list that `verify all` and
  `verify all --deep` report, every job passing.
- compute.json: the exact JSON response of `compute <verb> <index>` for
  every index compute_cold can draw: all Dyck paths (csf, d-coeffs,
  e-expand) and all tall Schroeder paths (llt) of the sizes in run.SIZES,
  and the tall paths with |Area| in run.AS_AREAS (as-expand).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run


def call(argv: list):
    from chromaq import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"chromaq {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":  # match the children's hash seed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, str(run.SRC))
    from chromaq.combinatorics import area, gen_dyck, gen_tall_schroder

    jobs = {}
    for name, argv in run.VERIFY_ARGV.items():
        reports = call(argv)
        if any(r["status"] != "pass" for r in reports):
            raise SystemExit(f"{name}: not every job passes")
        jobs[name] = [[r["check"], r["n"], r["q"]] for r in reports]
    run.EXPECTED_JOBS.write_text(json.dumps(jobs, indent=1) + "\n")

    entries = []
    for n in run.SIZES:
        requests = [(verb, pi, None) for verb in run.GRAPH_VERBS for pi in gen_dyck(n)]
        for sigma in gen_tall_schroder(n):
            requests.append(("llt", sigma, None))
            a = len(area(sigma))
            if a in run.AS_AREAS:
                requests.append(("as-expand", sigma, a))
        for verb, path, a in requests:
            entries.append({"verb": verb, "index": path.steps, "n": n, "area": a,
                            "response": call(["compute", verb, path.steps])})
    lines = ",\n".join(json.dumps(e, sort_keys=True, separators=(",", ":")) for e in entries)
    run.EXPECTED_COMPUTE.write_text("[\n" + lines + "\n]\n")
    print(f"{sum(map(len, jobs.values()))} jobs, {len(entries)} compute responses")


if __name__ == "__main__":
    main()
