"""Self-tests of the benchmark: seeded inputs, answer checks, span accounting."""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, wrapper_cost_ns  # noqa: E402


def _solve(inputs, index):
    """Load the inputs and answer job ``index`` as a sample would."""
    _, objs = workloads.load(inputs)
    job = inputs["jobs"][index]
    answer, keep = workloads.run_job(job, objs[index], inputs["budgets"])
    workloads.post_check_data(job, objs[index], answer, keep)
    return job, answer


# ---------------------------------------------------------------------------
# generators

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = json.dumps(workloads.generate(workload, 5), sort_keys=True)
    assert json.dumps(workloads.generate(workload, 5), sort_keys=True) == first
    assert json.dumps(workloads.generate(workload, 6), sort_keys=True) != first


def test_weight_distribution_closed_form():
    # RS [q+1, k] over F_4 (q = 4, k = 2): A_{n-1} = C(5,4)(4-1) = 15.
    assert checks.mds_weight_distribution(5, 2, 4) == [1, 0, 0, 0, 15, 0]
    # The k = 4 example over F_25, n = 6, as the library enumerates it.
    assert checks.mds_weight_distribution(6, 4, 25) == [1, 0, 0, 480, 7920, 76464, 305760]


# ---------------------------------------------------------------------------
# every checker accepts the real answer and rejects a corrupted one

def test_k4_check_rejects_off_by_one_enumerator():
    inputs = workloads.generate("k4-verify", 1)
    inputs["jobs"] = inputs["jobs"][:1]  # F_25, n = 6
    job, answer = _solve(inputs, 0)
    assert checks.check_job(job, answer) == []
    for corrupt in (
        lambda a: a["weight_enumerator"].__setitem__(-1, a["weight_enumerator"][-1] + 1),
        lambda a: a.__setitem__("min_distance", a["min_distance"] - 1),
        lambda a: a.__setitem__("system_min_distance", a["system_min_distance"] + 1),
        lambda a: a.__setitem__("pseudo_arc", False),
        lambda a: a["verification"].__setitem__("ok", False),
    ):
        bad = copy.deepcopy(answer)
        corrupt(bad)
        assert checks.check_job(job, bad)


def test_witness_check_rejects_flipped_verdict():
    inputs = workloads.generate("witness-decide", 2)
    kinds = {(j["expect"], j["tag"]): i for i, j in enumerate(inputs["jobs"])}
    for key in ((True, "rs9"), (False, "neg27")):
        job, answer = _solve(inputs, kinds[key])
        assert checks.check_job(job, answer) == []
        flipped = dict(answer, linearizable=not answer["linearizable"])
        assert checks.check_job(job, flipped)
    job, answer = _solve(inputs, kinds[(True, "rs9")])
    assert checks.check_job(job, dict(answer, linear_after_move=False))


def test_lemma_check_rejects_wrong_pair_total():
    job = {"kind": "lemma", "verifier": "zero_coeff"}
    good = {"ok": True, "pairs": 2304, "qualifying_pairs": 256, "max_m": 7, "q": 3, "h": 2}
    assert checks.check_job(job, good) == []
    for key, value in (("pairs", 2303), ("qualifying_pairs", 255), ("max_m", 6), ("ok", False)):
        assert checks.check_job(job, dict(good, **{key: value}))
    inputs = workloads.generate("lemma-battery", 1)
    index = next(i for i, j in enumerate(inputs["jobs"]) if j.get("verifier") == "two_nonzero")
    job, answer = _solve(inputs, index)
    assert checks.check_job(job, answer) == []
    assert checks.check_job(job, dict(answer, two_term_candidates=answer["two_term_candidates"] + 1))


def test_raised_and_malformed_answers_fail():
    job = {"kind": "witness", "expect": True}
    assert checks.check_job(job, {"error": "ValueError()"})
    assert checks.check_job(job, {})


def test_answer_mismatch_between_samples_counts_as_failure():
    good = {"answers": [{"m": 1}, {"m": 2}], "failures": []}
    assert run.count_failed([good, good], 2, 0) == (0, 0)
    drifted = {"answers": [{"m": 1}, {"m": 3}], "failures": [[1, "check"]]}
    assert run.count_failed([good, drifted], 2, 0) == (1, 1)
    assert run.count_failed([good], 2, 1) == (2, 0)


# ---------------------------------------------------------------------------
# spans

def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_span_self_times_add_up_to_wall_time():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.002))

    def middle_fn():
        _busy(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_fn)

    def outer_fn():
        _busy(0.001)
        middle()
        leaf()

    outer = tracer.wrap("outer", outer_fn)
    outer()
    summary = tracer.summary()["spans"]
    total_self = sum(s["self_s"] for s in summary.values())
    assert total_self == pytest.approx(summary["outer"]["total_s"], abs=1e-9)
    assert summary["leaf"]["calls"] == 3
    assert summary["leaf"]["self_s"] == summary["leaf"]["total_s"]
    assert summary["outer"]["self_s"] >= 0.001
    rows = [list(tracer.records[i:i + 6]) for i in range(0, len(tracer.records), 6)]
    parents = {r[0]: r[4] for r in rows}
    outer_seq = next(r[0] for r in rows if tracer.names[r[1]] == "outer")
    assert parents[outer_seq] == -1
    assert all(p in parents for s, p in parents.items() if s != outer_seq)


def test_install_traces_library_calls_and_uninstalls():
    import addmds
    from addmds import search
    from addmds.linpoly import LinearizedPoly

    originals = (addmds.linear_equivalence_witness, search.is_mds, LinearizedPoly.compose)
    inputs = workloads.generate("witness-decide", 3)
    _, objs = workloads.load(inputs)
    tracer = Tracer().install()
    try:
        assert search.is_mds is not originals[1]
        assert search.linear_equivalence_witness is addmds.linear_equivalence_witness
        workloads.run_job(inputs["jobs"][0], objs[0], inputs["budgets"])
    finally:
        tracer.uninstall()
    assert (addmds.linear_equivalence_witness, search.is_mds, LinearizedPoly.compose) == originals
    spans = tracer.summary()["spans"]
    assert spans["code.witness"]["calls"] == 1
    assert spans["linpoly.compose"]["calls"] > 0
    rows = [list(tracer.records[i:i + 6]) for i in range(0, len(tracer.records), 6)]
    assert [tracer.names[r[1]] for r in rows if r[4] == -1] == ["code.witness"]
    # every span nests under the one decision, so self times add up to it
    total_self = sum(s["self_s"] for s in spans.values())
    assert total_self == pytest.approx(spans["code.witness"]["total_s"], abs=1e-6)


def test_overhead_estimate_counts_every_traced_call():
    cost = wrapper_cost_ns()
    assert 0 < cost < 1e6
    sample = {"trace": {"spans": {"a": {"calls": 3000, "total_s": 0.2, "self_s": 0.1},
                                  "b": {"calls": 1000, "total_s": 0.1, "self_s": 0.1}},
                        "counters": {}, "wrapper_ns": 250.0},
              "wall_s": 2.001, "answers": [],
              "gf": {"table_mb": 0.0, "ns": {"mul": 1, "add": 1, "sub": 1, "frob": 1}}}
    value, unit = run.per_layer([sample])["trace.overhead_frac"]
    assert unit == "ratio"
    assert value == pytest.approx(0.001 / 2.0)  # 4000 calls * 250 ns over 2 s untraced


def test_peak_rss_is_the_sample_process_own():
    """A fresh sample reports its own peak, not that of a bloated parent."""
    bloat = b"\x01" * (160 * 2**20)  # written, so resident in this process
    proc = subprocess.run([sys.executable, "-c", "import sample; print(sample.peak_rss_mb())"],
                          cwd=BENCH, capture_output=True, text=True, timeout=60, check=True)
    del bloat
    assert float(proc.stdout) < 80


def test_normalized_time_leaves_out_calibrations_and_rescales():
    clock = hostspeed.Clock()
    slow = 2 * hostspeed.REF_CAL_S  # every calibration took twice the reference
    clock.cals = [(0.0, slow), (1.0, slow), (2.0, slow)]
    assert clock.raw(0.0, 3.0) == pytest.approx(3.0 - 3 * slow)
    scale = 0.5 ** hostspeed.WALL_SHARE
    assert clock.normalized(0.0, 3.0) == pytest.approx((3.0 - 3 * slow) * scale)
    # a window inside one stretch of program time
    assert clock.normalized(0.5, 0.75) == pytest.approx(0.25 * scale)
    assert hostspeed.rescale(1.0, hostspeed.REF_CAL_S, 0.5) == 1.0


def test_clock_calibrates_while_the_program_runs():
    clock = hostspeed.Clock().start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.5:
        sum(range(1000))
    end = time.perf_counter()
    clock.stop()
    inside = [min(t + d, end) - max(t, start) for t, d in clock.cals if t < end and t + d > start]
    assert len(inside) >= 3  # about one per PERIOD_S
    assert clock.raw(start, end) == pytest.approx(end - start - sum(inside))
    assert clock.normalized(start, end) > 0


# ---------------------------------------------------------------------------
# the contract around the command

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = {"trace": {"spans": {}, "counters": {}, "wrapper_ns": 1.0}, "wall_s": 1.0,
            "answers": [], "gf": {"table_mb": 1.0, "ns": {"mul": 1, "add": 1, "sub": 1, "frob": 1}}}
    layer = run.per_layer([fake])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "k4-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
