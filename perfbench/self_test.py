#!/usr/bin/env python3
"""Self-test of the benchmark at a few ranks per workload.

    python3 perfbench/self_test.py

Run from the repository root. For every workload in BENCHMARK.json it runs
run.py --small in both modes and checks that:
  * the last stdout line is the result JSON with exactly the four result
    keys, verification passed, and no operation failed;
  * every end-to-end (--trace 0) or per-layer (--trace 1) metric is printed
    with the unit BENCHMARK.json gives it, and end-to-end values are
    nonzero;
  * the figures kept out of the JSON (cc_overhead_pct, ckpt_virt_ms,
    restart_virt_ms) are printed, and every virtual-time figure repeats
    exactly for a repeated seed;
  * vasp_chain survives its scheduled crashes;
  * a MANATEE_* variable in the environment makes the run fail without a
    result.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
VIRTUAL = ("job_virt_s", "cc_overhead_pct", "ckpt_virt_ms", "restart_virt_ms")
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(workload, trace, seed=7, env=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env, timeout=600)


def printed_figures(stdout):
    """The 'perfbench   <name> <value>' median lines before the JSON."""
    return {m.group(1): float(m.group(2))
            for m in re.finditer(r"^perfbench {3}(\S+)\s+(\S+)$", stdout, re.M)}


def check_result(workload, trace, proc):
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{label}: last line is not JSON")
        return None
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    check(result["correct"] is True, f"{label}: verification failed")
    check(result["failed"] == 0, f"{label}: {result['failed']} failed operations")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          f"{label}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        check(got.get("unit") == m["unit"], f"{label}: {m['name']} unit {got.get('unit')}")
        value = got.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {m['name']} value {value}")
        if not trace:
            check(value != 0, f"{label}: {m['name']} is 0")
    figures = printed_figures(proc.stdout)
    for name in VIRTUAL:
        check(name in figures, f"{label}: {name} not printed")
    return result, figures


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = check_result(workload, 0, run(workload, 0))
        traced = check_result(workload, 1, run(workload, 1))
        again = check_result(workload, 0, run(workload, 0))
        if plain and again:
            for name in VIRTUAL:
                check(plain[1].get(name) == again[1].get(name),
                      f"{workload}: {name} differs between two runs of one seed")
        if plain and traced:
            for name in VIRTUAL[1:]:
                check(math.isclose(plain[1].get(name, math.nan),
                                   traced[0]["metrics"][name]["value"], rel_tol=1e-8),
                      f"{workload}: traced {name} differs from untraced")
        if traced and workload == "vasp_chain":
            check(traced[0]["metrics"]["ckpt.crashes"]["value"] == 3,
                  "vasp_chain: did not survive 3 crashes")
        print(f"ok: {workload}", flush=True)

    env = dict(os.environ, MANATEE_SCHED="threads")
    proc = run(SPEC["workloads"][0]["name"], 0, env=env)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "a MANATEE_* variable did not stop the run")
    check("MANATEE_SCHED=threads" in proc.stdout, "the MANATEE_* variable was not recorded")

    print("self-test", "FAILED" if failures else "passed", flush=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
