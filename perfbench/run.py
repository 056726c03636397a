"""End-to-end and traced per-layer benchmark of mzvkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep_cold, sweep_warm, highprec, exact, or all (the four in turn,
metric names prefixed by the workload).  Run it from anywhere; it imports
mzvkit from the checkout's src/ and writes only a temporary directory in
the checkout, which it removes before it exits.

Load model: a closed loop with one client.  Each pass of a workload runs in
a fresh child interpreter (worker.py), started one at a time, so the
lru_caches, span memos and value cache start cold as they do for a user
who runs `mzv`.  A run lasts about S seconds, its set-up included (the
set-up-only children that time start-up and, on sweep_warm, the untimed
cache fill): passes repeat until the next one would end after S seconds,
but at least two run (with --trace 1: at least one untraced and one
traced, alternating).

--trace 0 prints the end-to-end metrics: setup_s (child start to first
job, median over every child start of the run), pass_s and cpu_s (first
job to last, medians over passes) and peak_rss_mb, and on a line of its
own job_tail_ms (per-job latency at the highest percentile that leaves
ten of two passes' jobs beyond it, over all the run's jobs).  The tail
is left out of the result line: with two or three passes of a few long
jobs it is the latency of one job, which moves with the host far more
than a whole pass does.  --trace 1 prints the per-layer metrics of
spans.py.  The last line of standard output is one JSON object; the exit
code is 1 when any output check or a zero the layer map predicts failed,
and 2 when the checkout has no mzvkit sources.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

MIN_PASSES = 2
SETUP_ONLY_CHILDREN = 12
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10


def spawn(tmp, jobs_path, cache, trace, setup_only=False):
    """Run one worker to completion; its result dict, or None if it failed."""
    out = tmp / "out.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_path), str(out), cache, str(trace)]
    if setup_only:
        cmd.append("setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.time()
    try:
        proc = subprocess.run(cmd, env=env, cwd=CHECKOUT, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print("worker timed out after %ds" % CHILD_TIMEOUT_S, file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("worker exited with %d" % proc.returncode, file=sys.stderr)
        return None
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    out.unlink()
    data["setup_s"] = data["ready"] - start
    return data


def tail(latencies, jobs_per_pass):
    """(value, percentile): latency at the highest percentile that leaves
    TAIL_BEYOND of two passes' jobs beyond it, read from every pooled job,
    so the percentile does not depend on how many passes fit in the run."""
    pool = 2 * jobs_per_pass
    keep = max(pool - TAIL_BEYOND, 1)
    ordered = sorted(latencies)
    return ordered[max(keep * len(ordered) // pool - 1, 0)], 100.0 * keep / pool


class Run:
    """One workload measured for a number of seconds; check(jobs, outputs)
    gives a pass/fail flag per job."""

    def __init__(self, workload, jobs, check, seconds, trace, tmp):
        self.workload, self.seconds, self.trace, self.tmp = workload, seconds, trace, tmp
        self.jobs, self.check = jobs, check
        self.jobs_path = tmp / "jobs.json"
        self.jobs_path.write_text(json.dumps(self.jobs), encoding="utf-8")
        self.fill = None
        self.attempted = self.failed = 0
        self.broken = []  # reasons the run cannot count as correct

    def cache(self):
        """The cache argument of the next child: sweep_cold starts from an
        empty file, sweep_warm from a copy of the filled one."""
        if self.workload == "sweep_cold":
            path = self.tmp / "cold.jsonl"
            path.write_text("", encoding="utf-8")
            return str(path)
        if self.workload == "sweep_warm":
            path = self.tmp / "warm.jsonl"
            shutil.copyfile(self.fill, path)
            return str(path)
        return "-"

    def prepare(self):
        if self.workload == "sweep_warm":
            self.fill = self.tmp / "fill.jsonl"
            self.fill.write_text("", encoding="utf-8")
            if spawn(self.tmp, self.jobs_path, str(self.fill), 0) is None:
                self.broken.append("cache fill failed")
        # the first child compiles bytecode, as installing the package does
        spawn(self.tmp, self.jobs_path, self.cache(), 0, setup_only=True)

    def one_pass(self, trace):
        data = spawn(self.tmp, self.jobs_path, self.cache(), trace)
        self.attempted += len(self.jobs)
        if data is None:
            self.failed += len(self.jobs)
            self.broken.append("a worker failed")
            return None
        for err in data["errors"]:
            print("job raised: " + err, file=sys.stderr)
        flags = self.check(self.jobs, data["outputs"])
        bad = flags.count(False)
        self.failed += bad
        if bad:
            print("%d outputs failed their check" % bad, file=sys.stderr)
        return data

    def measure(self):
        start = time.monotonic()  # the run's seconds include its set-up
        self.prepare()
        setups = []
        if not self.trace:
            for _ in range(SETUP_ONLY_CHILDREN):
                data = spawn(self.tmp, self.jobs_path, self.cache(), 0, setup_only=True)
                if data is not None:
                    setups.append(data["setup_s"])
        plain, traced, walls = [], [], []
        modes = itertools.cycle([0, 1] if self.trace else [0])
        while True:
            mode = next(modes)
            t0 = time.monotonic()
            data = self.one_pass(mode)
            walls.append(time.monotonic() - t0)
            if data is not None:
                (traced if mode else plain).append(data)
            done = (len(plain) >= 1 and len(traced) >= 1) if self.trace \
                else len(walls) >= MIN_PASSES
            if done and time.monotonic() - start + statistics.median(walls) > self.seconds:
                break
        return self.end_to_end(plain, setups) if not self.trace else self.per_layer(plain, traced)

    def end_to_end(self, passes, setups):
        if not passes:
            return {}, []
        setups += [p["setup_s"] for p in passes]
        latencies = [x for p in passes for x in p["latencies"]]
        tail_s, pct = tail(latencies, len(self.jobs))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        }
        notes = [
            "setup_s: median of %d child start-ups" % len(setups),
            "pass_s, cpu_s, peak_rss_mb: medians of %d passes" % len(passes),
            "job_tail_ms %.6g ms: p%.1f of %d pooled jobs, not in the result line"
            % (tail_s * 1e3, pct, len(latencies)),
        ]
        return metrics, notes

    def per_layer(self, plain, traced):
        if not plain or not traced:
            return {}, []
        per_pass = [spans.pass_metrics(p["spans"], p["cache_info"]) for p in traced]
        if not all(m.pop("_balanced") for m in per_pass):
            self.broken.append("layer self times do not add up to the traced pass")
        # one whole pass, the median one, so its layer times still add up
        chosen = sorted(per_pass, key=lambda m: m["trace.pass_s"])[(len(per_pass) - 1) // 2]
        chosen["trace.overhead_ratio"] = (statistics.median(p["pass_s"] for p in traced)
                                          / statistics.median(p["pass_s"] for p in plain))
        metrics = {name: (chosen[name], spans.unit_of(name)) for name in spans.PER_LAYER}
        notes = ["layers from the median of %d traced passes; overhead against %d untraced"
                 % (len(traced), len(plain))]
        notes += self.predictions(metrics)
        return metrics, notes

    def predictions(self, m):
        """The zeros the layer map predicts; a violated one makes the run
        incorrect."""
        checks = []
        if self.workload == "sweep_warm":
            checks.append(("no value is computed", m["numeric.eval.computed"][0] == 0))
        if self.workload == "exact":
            checks.append(("no numeric.eval or relations spans",
                           m["numeric.eval.calls"][0] == 0
                           and m["relations.spanning_set.calls"][0] == 0
                           and m["relations.pslq.calls"][0] == 0))
        else:
            checks.append(("no linalg spans", m["linalg.nullspace.calls"][0] == 0))
        self.broken += ["prediction violated: " + text for text, ok in checks if not ok]
        return ["prediction %s: %s" % (text, "holds" if ok else "VIOLATED")
                for text, ok in checks]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mzvkit" / "__init__.py").is_file():
        print("no mzvkit sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error("--workload must be one of %s or all" % ", ".join(workloads.WORKLOADS))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=CHECKOUT))
    metrics, attempted, failed, broken = {}, 0, 0, []
    try:
        for name in names:
            run = Run(name, workloads.make_jobs(name, args.seed), workloads.check_pass,
                      args.seconds, args.trace, tmp)
            found, notes = run.measure()
            attempted += run.attempted
            failed += run.failed
            broken += run.broken
            print("%s seed %d: %d jobs attempted, %d failed, fail_ratio %.4g (1)"
                  % (name, args.seed, run.attempted, run.failed, run.failed / run.attempted))
            for metric, (value, unit) in found.items():
                print("  %-34s %14.6g %s" % (metric, value, unit))
                key = metric if len(names) == 1 else "%s.%s" % (name, metric)
                metrics[key] = {"value": value, "unit": unit}
            for note in notes:
                print("  " + note)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for reason in broken:
        print("not correct: " + reason, file=sys.stderr)
    correct = failed == 0 and not broken
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
