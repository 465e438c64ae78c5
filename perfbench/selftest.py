#!/usr/bin/env python3
"""Self-tests of the benchmark, at a tiny scale (about a minute in all).

    python3 perfbench/selftest.py

Checks that
  - every end-to-end and per-layer metric in BENCHMARK.json is printed,
    with its unit, on every workload (and nothing else is);
  - fail_ratio is printed and is 0 with correct goldens, for a seed with
    goldens and for one checked against the reference path;
  - a doctored golden makes the gate fail: the unit counts as failed and
    the command exits nonzero, also under `--workload all`, where a
    workload killed by a signal fails the command as well;
  - the bypass predictions hold in the traced run: memsys reads 0 on
    collect-analyse, every trace.* metric reads 0 on paper-grid and
    collect-analyse, and memsys self time is at least half of
    paper-grid's traced wall time.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".bench_out", "selftest")
SCALE = "0.01"
WORKLOADS = ["paper-grid", "collect-analyse", "trace-roundtrip"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, goldens, trace, seed="0"):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", "1", "--trace", trace, "--scale", SCALE,
         "--goldens", goldens],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    goldens = os.path.join(TMP, "goldens.txt")

    # The first call builds; the goldens are checked against the
    # reference path before they are written.
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                    "--make-goldens", "--seeds", "0", "--scale", SCALE,
                    "--goldens", goldens],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    for kind, trace in (("end_to_end", "0"), ("per_layer", "1")):
        want = {m["name"]: m["unit"] for m in bench[kind]}
        for w in WORKLOADS:
            rc, res, text = run(w, goldens, trace)
            check(rc == 0 and res and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 5,
                  f"{w} --trace {trace}: exit 0, every unit correct")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            check(got == want, f"{w} --trace {trace}: metrics and units "
                  f"match BENCHMARK.json {kind}")
            printed = all(re.search(rf"^{re.escape(n)}\s+\S+\s+{re.escape(u)}$",
                                    text, re.M) for n, u in want.items())
            check(printed, f"{w} --trace {trace}: each metric printed with "
                  "its unit")
            check(re.search(r"^fail_ratio = 0 ratio$", text, re.M) is not None,
                  f"{w} --trace {trace}: fail_ratio printed as 0")
            if trace == "1":
                m = {n: v["value"] for n, v in res["metrics"].items()}
                if w != "trace-roundtrip":
                    check(all(v == 0 for n, v in m.items()
                              if n.startswith("trace.")),
                          f"{w}: every trace.* metric reads 0")
                if w == "collect-analyse":
                    check(all(v == 0 for n, v in m.items()
                              if n.startswith("memsys.")),
                          f"{w}: memsys.bank_s and every memsys.* read 0")
                if w == "paper-grid":
                    check(m["memsys.bank_s"] >= 0.5 * m["traced_wall_s"],
                          f"{w}: memsys self time >= half of traced wall "
                          f"({m['memsys.bank_s']:.3f} of "
                          f"{m['traced_wall_s']:.3f} s)")

    # A seed without goldens is checked against the reference path.
    rc, res, _ = run("trace-roundtrip", goldens, "0", seed="3")
    check(rc == 0 and res["correct"],
          "seed without goldens: passes against the reference path")

    # Doctor one golden digest: that unit must fail, and the command too.
    with open(goldens) as f:
        text = f.read()
    doctored = os.path.join(TMP, "doctored.txt")
    pattern = rf"(digest paper-grid {SCALE} 0 lp )([0-9a-f])"
    bad = re.sub(pattern,
                 lambda g: g.group(1) + ("1" if g.group(2) != "1" else "2"),
                 text)
    check(bad != text, "doctored golden differs from the real one")
    with open(doctored, "w") as f:
        f.write(bad)
    rc, res, _ = run("paper-grid", doctored, "0")
    check(rc != 0 and res is not None and not res["correct"]
          and res["failed"] >= 1 and res["failed"] < res["attempted"],
          "doctored golden: the lp unit fails and the command exits nonzero")

    rc, _, _ = run("all", goldens, "0")
    check(rc == 0, "--workload all with correct goldens exits 0")
    rc, _, _ = run("all", doctored, "0")
    check(rc != 0, "--workload all with a doctored paper-grid golden exits "
          "nonzero")
    sys.path.insert(0, HERE)
    from run import first_failure
    check(first_failure([0, -11, 0]) != 0 and first_failure([0, 0, 0]) == 0,
          "--workload all fails when a workload dies on a signal")

    shutil.rmtree(TMP, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
