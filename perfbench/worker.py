"""One pass of a perfbench workload, in a fresh interpreter.

    python worker.py JOBS_JSON OUT_JSON CACHE TRACE [setup-only]

Set-up is what a user of `mzv` pays before the first answer: importing
mzvkit and mpmath and loading the value cache (CACHE is a file path, or
"-" for a memory-only cache).  The pass then runs every job in order and
writes per-job latencies, outputs, the pass's wall and CPU time, its peak
RSS and, when TRACE is 1, the recorded spans to OUT_JSON.  Outputs are
checked by the parent, not here.
"""

import contextlib
import json
import resource
import sys
import time


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv):
    jobs_path, out_path, cache, trace = argv[:4]
    setup_only = argv[4:] == ["setup-only"]
    from mzvkit import dsh, finite, numeric, relations

    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        tracer.patch(spans.targets())
    numeric.configure_cache(None if cache == "-" else cache)
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    ready = time.time()
    result = {"ready": ready}
    if not setup_only:
        runners = {
            "congruence": lambda j: relations.check_main_congruence(
                tuple(j["index"]), digits=j["digits"]),
            "eval": lambda j: numeric.eval_admissible(tuple(j["index"]), j["digits"]),
            "dsh": lambda j: dsh.dsh_dimension(j["n"], j["d"]),
            "zeta_natural_F": lambda j: finite.zeta_natural_F(tuple(j["index"])),
            "modp": lambda j: [finite.zeta_natural_A_component(tuple(j["index"]), p).residue
                               for p in finite.primes_in_range(*j["primes"])],
            "direct_sum": lambda j: [numeric.direct_sum_natural(tuple(j["index"]), m)
                                     for m in range(1, j["max_M"] + 1)],
        }
        encoders = {
            "congruence": lambda r: {"verdict": r.verdict, "height": r.height(),
                                     "residual": r.residual},
            "eval": lambda r: r.to_decimal(r.digits + 10),
            "zeta_natural_F": lambda r: r.to_json_obj(),
            "direct_sum": lambda r: [str(q) for q in r],
        }
        latencies, outputs, errors = [], [], []
        cpu0 = _cpu()
        t0 = time.perf_counter()
        with tracer.span(spans.ROOT) if tracer else contextlib.nullcontext():
            for job in jobs:
                start = time.perf_counter()
                try:
                    raw = runners[job["kind"]](job)
                except Exception as exc:  # a failed job is counted, the pass goes on
                    latencies.append(time.perf_counter() - start)
                    outputs.append(None)
                    errors.append("%s: %s: %r" % (job, type(exc).__name__, exc))
                    continue
                latencies.append(time.perf_counter() - start)
                outputs.append(encoders.get(job["kind"], lambda r: r)(raw))
        result.update({
            "pass_s": time.perf_counter() - t0,
            "cpu_s": _cpu() - cpu0,
            "latencies": latencies,
            "outputs": outputs,
            "errors": errors,
        })
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.restore()
        result["spans"] = tracer.spans
        result["cache_info"] = spans.regularization_cache_info()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
