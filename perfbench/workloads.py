"""Job lists and output checks for the four perfbench workloads.

The seed permutes the exact jobs and orders the highprec pairs; every seed
gives the same jobs, so the same work, in another order.  A job is a JSON
object that worker.py runs; a check turns the outputs of one pass into one
pass/fail flag per job.
"""

import hashlib
import json
import random

from mpmath import mp, mpf

from mzvkit import finite, indices, relations

WORKLOADS = ("sweep_cold", "sweep_warm", "highprec", "exact")

SWEEP_DIGITS = 60
# one index of weight 6, 7 and 8 that is not self-dual, evaluated with its
# dual; a seed-drawn index would change the series work from seed to seed
HIGHPREC_INDICES = ((1, 3, 2), (2, 1, 1, 3), (1, 1, 3, 1, 2))
HIGHPREC_DIGITS = (120, 400, 60)  # the 60-digit request comes last: reuse
HIGHPREC_REFERENCE = 400
TOTALLY_ODD = [(1,), (3,), (1, 1), (3, 1), (1, 3), (1, 1, 1), (3, 3, 1)]
MODP_PRIMES = (5, 1000)
DIRECT_SUM_M = 50
FINITE_WEIGHT = 9

# dsh dimensions: n = 2 and n = 3 (d <= 8) are the tables frozen in the
# test suite; the rest were recorded with both pivot orders at the commit
# that added this benchmark
DSH_DIMS = {
    2: {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 0, 8: 1, 9: 0, 10: 1, 11: 0, 12: 2},
    3: {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 1, 9: 0, 10: 2},
    4: {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0},
}
# sha256 of the canonical JSON of every weight-9 zeta_natural_F combo, keyed
# by the comma-joined index; recorded at the same commit
FINITE_DIGEST = "e9bb4f73122e7851c7629e6710ec583ab373bc5c61e18b8df5cd3f1f17248fbd"


def dual(k):
    """The dual index: reverse the word of k and swap its letters."""
    word = indices.word_of_index(k)
    return indices.index_of_word("".join("A" if c == "B" else "B" for c in reversed(word)))


def make_jobs(workload, seed):
    rng = random.Random("%s:%d" % (workload, seed))
    if workload in ("sweep_cold", "sweep_warm"):
        # the order of `mzv relations sweep`, whatever the seed: a job's
        # latency includes the shared values it is first to need, so any
        # reordering moves the latency tail from seed to seed
        return [{"kind": "congruence", "index": list(k), "digits": SWEEP_DIGITS}
                for k in relations.opposite_parity_indices(8, 4)]
    if workload == "highprec":
        # the seed orders the weights and each pair; the digits keep their order
        pairs = [(k, dual(k)) if rng.random() < 0.5 else (dual(k), k) for k in HIGHPREC_INDICES]
        rng.shuffle(pairs)
        jobs = []
        for k, k_dual in pairs:
            for digits in HIGHPREC_DIGITS:
                for x, partner in ((k, k_dual), (k_dual, k)):
                    jobs.append({"kind": "eval", "index": list(x), "digits": digits,
                                 "partner": list(partner)})
        jobs.append({"kind": "eval", "index": [2], "digits": SWEEP_DIGITS, "anchor": "pi^2/6"})
        return jobs
    if workload == "exact":
        # the kinds keep one order, so the eliminations never run on top of
        # grown finite-value caches and peak memory does not depend on the
        # seed.  The dsh tables run in the order of `dimension_table`: their
        # few long jobs set the latency tail, and a seed order moved the
        # tail from seed to seed.  The seed permutes every other kind.
        dsh_jobs = [{"kind": "dsh", "n": n, "d": d}
                    for n in sorted(DSH_DIMS) for d in sorted(DSH_DIMS[n])]
        blocks = [
            [{"kind": "zeta_natural_F", "index": list(k)}
             for k in indices.indices_of_weight(FINITE_WEIGHT)],
            [{"kind": "modp", "index": list(k), "primes": list(MODP_PRIMES)} for k in TOTALLY_ODD],
            [{"kind": "direct_sum", "index": list(k), "max_M": DIRECT_SUM_M} for k in TOTALLY_ODD],
        ]
        for block in blocks:
            rng.shuffle(block)
        return dsh_jobs + [job for block in blocks for job in block]
    raise ValueError("unknown workload %r" % (workload,))


# ---------------------------------------------------------------------------
# output checks; an output of None means the job raised

def _close(a, b, tol_exp, digits):
    with mp.workdps(digits + 20):
        return abs(mpf(a) - mpf(b)) <= mpf(10) ** (-tol_exp)


def _check_congruence(out):
    return (out["verdict"] == "confirmed" and out["height"] < 10 ** 4
            and float(out["residual"]) < 1e-30)


def finite_digest(combos):
    """combos maps comma-joined indices to MzvCombo.to_json_obj() dicts."""
    text = json.dumps(combos, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_pass(jobs, outputs):
    """One flag per job: True when its output is present and correct."""
    ok = [out is not None for out in outputs]
    values = {(tuple(job["index"]), job["digits"]): out
              for job, out in zip(jobs, outputs) if job["kind"] == "eval" and out is not None}
    combos = {}
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out is None:
            continue
        kind = job["kind"]
        if kind == "congruence":
            ok[i] = _check_congruence(out)
        elif kind == "eval":
            digits = job["digits"]
            if "anchor" in job:
                with mp.workdps(digits + 20):
                    ok[i] = abs(mpf(out) - mp.pi ** 2 / 6) < mpf(10) ** -50
                continue
            partner = values.get((tuple(job["partner"]), digits))
            # BigReal.is_zero tolerance at D digits is 10^-(D-10)
            ok[i] = partner is not None and _close(out, partner, digits - 10, digits)
            if digits == SWEEP_DIGITS:
                ref = values.get((tuple(job["index"]), HIGHPREC_REFERENCE))
                ok[i] = ok[i] and ref is not None and _close(out, ref, 50, digits)
        elif kind == "dsh":
            ok[i] = out == DSH_DIMS[job["n"]][job["d"]]
        elif kind == "zeta_natural_F":
            combos[",".join(map(str, job["index"]))] = out
            ok[i] = all(sum(int(p) for p in key.strip("()").split(",") if p) == FINITE_WEIGHT
                        for key in out)
        elif kind == "modp":
            lo, hi = job["primes"]
            ok[i] = out == [0] * len(finite.primes_in_range(lo, hi))
        elif kind == "direct_sum":
            ok[i] = out == ["0"] * job["max_M"]
    if combos and finite_digest(combos) != FINITE_DIGEST:
        ok = [flag and job["kind"] != "zeta_natural_F" for job, flag in zip(jobs, ok)]
    return ok
