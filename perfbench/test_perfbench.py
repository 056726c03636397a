"""Tests of the benchmark itself: job lists, output checks, span arithmetic
and the tracing wrappers.

    python3 -m pytest perfbench
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mpmath import mp  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert workloads.make_jobs(workload, 7) == workloads.make_jobs(workload, 7)


def _weight(job):
    if job["kind"] == "dsh":
        return ("dsh", job["n"], job["d"])
    return (job["kind"], sum(job["index"]), job.get("digits"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_same_count_and_weights(workload):
    a = workloads.make_jobs(workload, 1)
    b = workloads.make_jobs(workload, 2)
    assert len(a) == len(b)
    assert Counter(map(_weight, a)) == Counter(map(_weight, b))
    if workload == "exact":
        assert a != b  # the seed permutes the order


def test_highprec_evaluates_the_same_dual_pairs_for_every_seed():
    first = Counter(map(json.dumps, workloads.make_jobs("highprec", 0)))
    for seed in range(1, 5):
        jobs = workloads.make_jobs("highprec", seed)
        assert Counter(map(json.dumps, jobs)) == first
        for job in (j for j in jobs if "partner" in j):
            assert workloads.dual(tuple(job["index"])) == tuple(job["partner"])
            assert tuple(job["index"]) != tuple(job["partner"])
    assert sorted(map(sum, workloads.HIGHPREC_INDICES)) == [6, 7, 8]


def _sweep_outputs(jobs):
    return [{"verdict": "confirmed", "height": 42, "residual": "1.0e-55"} for _ in jobs]


def _highprec_outputs(jobs):
    # a stand-in value per (weight, digits) that a correct evaluator would
    # give both members of a dual pair, with the 60-digit one cut from 400
    out = []
    for job in jobs:
        digits = job["digits"]
        with mp.workdps(digits + 20):
            if "anchor" in job:
                out.append(mp.nstr(mp.pi ** 2 / 6, digits + 10))
            else:
                v = mp.mpf(sum(job["index"])) / 7
                out.append(mp.nstr(v, digits + 10))
    return out


def _exact_outputs(jobs):
    from mzvkit import finite

    out = []
    for job in jobs:
        kind = job["kind"]
        if kind == "dsh":
            out.append(workloads.DSH_DIMS[job["n"]][job["d"]])
        elif kind == "zeta_natural_F":
            out.append(finite.zeta_natural_F(tuple(job["index"])).to_json_obj())
        elif kind == "modp":
            out.append([0] * len(finite.primes_in_range(*job["primes"])))
        else:
            out.append(["0"] * job["max_M"])
    return out


def test_correct_outputs_pass():
    jobs = workloads.make_jobs("sweep_cold", 3)
    assert all(workloads.check_pass(jobs, _sweep_outputs(jobs)))
    jobs = workloads.make_jobs("highprec", 3)
    assert all(workloads.check_pass(jobs, _highprec_outputs(jobs)))


def test_perturbed_sweep_outputs_fail():
    jobs = workloads.make_jobs("sweep_warm", 3)
    for field, bad in (("verdict", "inconclusive"), ("height", 10 ** 4), ("residual", "1e-20")):
        outputs = _sweep_outputs(jobs)
        outputs[5] = dict(outputs[5], **{field: bad})
        flags = workloads.check_pass(jobs, outputs)
        assert flags.count(False) == 1 and not flags[5]
    outputs = _sweep_outputs(jobs)
    outputs[0] = None  # the job raised
    assert workloads.check_pass(jobs, outputs).count(False) == 1


def test_perturbed_highprec_outputs_fail():
    jobs = workloads.make_jobs("highprec", 3)
    reuse = next(i for i, j in enumerate(jobs) if j["digits"] == 60 and "partner" in j)
    outputs = _highprec_outputs(jobs)
    with mp.workdps(100):
        outputs[reuse] = mp.nstr(mp.mpf(outputs[reuse]) + mp.mpf(10) ** -45, 80)
    flags = workloads.check_pass(jobs, outputs)
    assert not flags[reuse]
    outputs = _highprec_outputs(jobs)
    outputs[-1] = "1.6449"  # the zeta(2) anchor
    assert workloads.check_pass(jobs, outputs) == [True] * (len(jobs) - 1) + [False]


def test_perturbed_exact_outputs_fail():
    jobs = workloads.make_jobs("exact", 3)
    good = _exact_outputs(jobs)
    assert all(workloads.check_pass(jobs, good))
    kinds = [j["kind"] for j in jobs]

    modp = kinds.index("modp")
    outputs = list(good)
    outputs[modp] = [1] + good[modp][1:]  # one residue off by one
    assert workloads.check_pass(jobs, outputs).count(False) == 1

    dsh = kinds.index("dsh")
    outputs = list(good)
    outputs[dsh] = good[dsh] + 1
    assert workloads.check_pass(jobs, outputs).count(False) == 1

    direct = kinds.index("direct_sum")
    outputs = list(good)
    outputs[direct] = ["1/3"] + good[direct][1:]
    assert workloads.check_pass(jobs, outputs).count(False) == 1

    finite = kinds.index("zeta_natural_F")
    outputs = list(good)
    combo = dict(good[finite])
    key = next(iter(combo))
    combo[key] = combo[key] + "1"
    outputs[finite] = combo
    flags = workloads.check_pass(jobs, outputs)
    assert flags.count(False) == kinds.count("zeta_natural_F")


def test_self_times_on_nested_tree():
    tree = [
        ["pass", 0, 100, -1, None],
        ["a", 10, 40, 0, None],
        ["a.inner", 15, 25, 1, None],
        ["b", 50, 90, 0, None],
        ["c", 80, 95, 0, None],  # overlaps b: the union is counted once
        ["outside", 120, 130, -1, None],
    ]
    assert spans.self_times(tree) == [25, 20, 10, 40, 15, 10]
    assert spans.in_pass(tree) == [True] * 5 + [False]


def test_pass_metrics_tile_the_pass():
    tree = [
        ["numeric.cache.load", 0, 5, -1, None],
        ["pass", 10, 110, -1, None],
        ["relations.check", 12, 100, 1, "confirmed"],
        ["numeric.eval", 20, 60, 2, [8, 60]],
        ["numeric.cache.get", 21, 22, 3, False],
        ["numeric.cache.put", 58, 59, 3, None],
        ["numeric.eval", 70, 71, 2, [3, 60]],
        ["numeric.cache.get", 70, 71, 6, True],
        ["linalg.nullspace", 101, 108, 1, [12, 3]],
    ]
    m = spans.pass_metrics(tree, {"stuffle": [4, 2], "shuffle": [0, 0], "natural": [0, 0]})
    assert m.pop("_balanced")
    assert m["trace.pass_s"] == 100e-9
    assert m["trace.unattributed_s"] == pytest.approx(5e-9)
    assert m["numeric.eval.calls"] == 2 and m["numeric.eval.computed"] == 1
    assert m["numeric.eval.w8.d60.ms"] == pytest.approx(40e-6)
    assert m["numeric.cache.hit_ratio"] == 0.5
    assert m["numeric.cache.load_s"] == pytest.approx(5e-9)
    assert m["relations.self_s"] == pytest.approx(47e-9)
    assert m["linalg.nullspace.cells"] == 12 and m["linalg.nullspace.rank"] == 3
    assert m["relations.verdict.confirmed"] == 1
    assert m["regularization.stuffle.misses"] == 2
    assert set(spans.PER_LAYER) - set(m) == {"trace.overhead_ratio"}


@pytest.mark.parametrize("workload, metric", [
    ("sweep_cold", "linalg.nullspace.calls"),
    ("sweep_warm", "numeric.eval.computed"),
    ("highprec", "linalg.nullspace.calls"),
    ("exact", "numeric.eval.calls"),
    ("exact", "relations.pslq.calls"),
])
def test_violated_prediction_makes_the_run_incorrect(workload, metric, tmp_path):
    layers = {name: (0, spans.unit_of(name)) for name in spans.PER_LAYER}
    r = run.Run(workload, [], workloads.check_pass, 1, 1, tmp_path)
    r.predictions(layers)
    assert r.broken == []
    layers[metric] = (3, "count")
    notes = r.predictions(layers)
    assert len(r.broken) == 1 and any("VIOLATED" in note for note in notes)


def _bindings(modules):
    return {(name, key): value for name, module in modules.items()
            for key, value in vars(module).items()}


def test_patch_replaces_every_binding_and_restore_puts_them_back():
    from mzvkit import dsh, linalg, numeric, relations

    modules = {name: m for name, m in sys.modules.items()
               if name.split(".")[0] in ("mzvkit", "mpmath") and hasattr(m, "__dict__")}
    before = _bindings(modules)
    classes = {attr: vars(numeric.ValueCache)[attr] for attr in ("get", "put")}
    tracer = spans.Tracer()
    tracer.patch(spans.targets(), modules=list(modules.values()))
    try:
        assert dsh.nullspace is linalg.nullspace and hasattr(dsh.nullspace, "__wrapped__")
        assert relations.eval_admissible is numeric.eval_admissible
        assert relations.pslq is modules["mpmath"].pslq and hasattr(relations.pslq, "__wrapped__")
        for (name, key), value in before.items():
            now = vars(modules[name])[key]
            if now is not value:
                assert now.__wrapped__ is value
        with tracer.span(spans.ROOT):
            numeric.eval_admissible((2,), 20, cache=numeric.ValueCache())
        names = [s[spans.NAME] for s in tracer.spans]
        assert names == ["pass", "numeric.eval", "numeric.cache.get", "numeric.cache.put"]
    finally:
        tracer.restore()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(before[k] is v for k, v in after.items())
    assert {a: vars(numeric.ValueCache)[a] for a in classes} == classes


def test_benchmark_json_lists_the_printed_metrics(tmp_path):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == spans.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    passes = [{"setup_s": 0.1, "pass_s": 1.0, "cpu_s": 0.9, "latencies": [0.01] * 20,
               "maxrss_kb": 2048}] * 2
    r = run.Run("exact", [{}] * 20, workloads.check_pass, 1, 0, tmp_path)
    metrics, _ = r.end_to_end(passes, [0.1])
    assert {k: v[1] for k, v in metrics.items()} == {m["name"]: m["unit"]
                                                      for m in bench["end_to_end"]}


def test_tail_keeps_ten_of_two_passes_beyond():
    value, pct = run.tail(list(range(100)), 50)
    assert value == 89 and pct == 90.0
    value, pct = run.tail(list(range(150)), 50)  # three passes: fifteen beyond
    assert value == 134 and pct == 90.0
