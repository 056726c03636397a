"""Record a perfbench baseline: repeated runs of every workload.

    python3 perfbench/baseline.py

Runs run.py once per workload of BENCHMARK.json and seed 1..10 with
--trace 0, then once per workload with --trace 1 at seed 1, one process at
a time, with the run length of BENCHMARK.json.  Writes the machine it ran
on, every run's result, and for each end-to-end metric and job_tail_ms
the median, the quartiles and the spread (quartile distance over median)
to perfbench/baseline.json, with the layer map of spans.py.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = range(1, 11)


def machine():
    import mpmath

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=CHECKOUT, stdout=subprocess.PIPE, text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    for line in lines:  # printed by run.py, but not in its result line
        if line.startswith("  job_tail_ms "):
            result["job_tail_ms"] = float(line.split()[1])
    return result


def summary(results, names):
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] if name in r["metrics"] else r[name]
                  for r in results if name in r["metrics"] or name in r]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    return out


def main():
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = [m["name"] for m in bench["end_to_end"]] + ["job_tail_ms"]
    record = {"machine": machine(), "run_seconds": seconds, "seeds": list(SEEDS),
              "trace_seed": SEEDS[0], "layer_map": spans.LAYER_MAP, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        timed = [run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": summary(timed, names),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": timed,
            "correct": all(r["correct"] for r in timed) and traced["correct"],
        }
        for name, s in record["workloads"][workload]["end_to_end"].items():
            print("%s %-12s median %10.5g  spread %.3f" % (workload, name, s["median"], s["spread"]))
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
