"""addmds benchmark: cold-process workloads with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` and
the command exits 2, printing no result, when ``src/addmds`` is missing.
Inputs come from the seed; every timed sample runs in a fresh interpreter
(``sample.py``), one after another.  The last stdout line is the JSON
result: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 6  # set-up-only processes before the timed samples of an untraced run
SAMPLE_TIMEOUT_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# samples

def run_sample(inputs_path: Path, mode: str, deadline: float, spans: Path | None = None):
    """Run sample.py in a fresh interpreter; returns (result or None, seconds)."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--inputs", str(inputs_path), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", PERFBENCH_SPAWN_T=repr(time.perf_counter()))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} sample timed out", file=sys.stderr)
        return None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {mode} sample exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None, elapsed
    return json.loads(lines[-1]), elapsed


def count_failed(samples: list, n_jobs: int, broken: int):
    """(failed jobs, answers differing from the first sample's).

    A job fails when a check rejects its answer, when it raised, or when its
    canonical answer differs from the first sample's.  A crashed sample
    fails all its jobs.  Each job of each sample counts at most once.
    """
    first = [json.dumps(a, sort_keys=True) for a in samples[0]["answers"]] if samples else []
    failed, mismatches = n_jobs * broken, 0
    for s in samples:
        bad = {i for i, _ in s["failures"]}
        for i, answer in enumerate(s["answers"]):
            if json.dumps(answer, sort_keys=True) != first[i]:
                mismatches += 1
                bad.add(i)
        failed += len(bad)
    return failed, mismatches


def percentile_report(values):
    """Nearest-rank p50 and p90, each only with at least ten samples beyond it."""
    xs = sorted(values)
    out = {}
    for p in (50, 90):
        rank = max(1, -(-p * len(xs) // 100))
        if len(xs) - rank >= 10:
            out[p] = xs[rank - 1]
    return out


# ---------------------------------------------------------------------------
# metadata (recorded, not gated)

def metadata(inputs: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "addmds").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "budgets": inputs["budgets"],
            "src_addmds_lines": src_lines}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced samples

def per_layer(traced: list) -> dict:
    """Per-layer metrics as {name: (value, unit)}: medians over traced samples.

    A function that a workload never calls reads 0, in its time and its
    counts alike.
    """
    def med(fn):
        return statistics.median(fn(s) for s in traced)

    def span(s, name, key):
        return s["trace"]["spans"].get(name, {}).get(key, 0)

    def count(s, name):
        return s["trace"]["counters"].get(name, 0)

    def rate(s):
        busy = span(s, "code.enum", "self_s")
        return count(s, "code.enum.codewords") / busy if busy else 0.0

    def overhead(s):
        # every traced call costs the calibrated wrapper time
        calls = sum(v["calls"] for v in s["trace"]["spans"].values())
        extra = calls * s["trace"]["wrapper_ns"] / 1e9
        return extra / (s["wall_s"] - extra)

    m = {"gf.build_s": (med(lambda s: span(s, "gf.build", "total_s")), "s"),
         "gf.table_mb": (med(lambda s: s["gf"]["table_mb"]), "MB")}
    for op in ("mul", "add", "sub", "frob"):
        m[f"gf.{op}_ns"] = (med(lambda s, op=op: s["gf"]["ns"][op]), "ns")
    for name in ("linalg.mat_det", "linalg.mat_rref", "linalg.mat_inv",
                 "linpoly.compose", "linpoly.inverse", "linpoly.is_invertible",
                 "code.witness", "propm.prop_triples", "propm.max_prop_m"):
        m[f"{name}.calls"] = (med(lambda s, n=name: span(s, n, "calls")), "count")
        m[f"{name}.self_s"] = (med(lambda s, n=name: span(s, n, "self_s")), "s")
    for name in ("code.enum", "geometry.scan", "geometry.pseudo_arc"):
        m[f"{name}.self_s"] = (med(lambda s, n=name: span(s, n, "self_s")), "s")
    for name in ("code.enum.codewords", "code.witness.negative", "code.witness.candidates",
                 "geometry.scan.messages", "search.hunt.space"):
        m[name] = (med(lambda s, n=name: count(s, n)), "count")
    m["code.enum.codewords_per_s"] = (med(rate), "1/s")
    for name in ("propm.verifier.zero_coeff", "propm.verifier.semilinear",
                 "propm.verifier.lm_prop", "propm.verifier.two_nonzero",
                 "propm.verifier.inverse", "search.hunt", "search.verify", "search.screen"):
        m[f"{name}.s"] = (med(lambda s, n=name: span(s, n, "total_s")), "s")
    m["propm.pruned_frac"] = (med(_pruned_frac), "ratio")
    m["trace.overhead_frac"] = (med(overhead), "ratio")
    return m


def _pruned_frac(sample) -> float:
    """pruned_by_upper_bound over non-monomial pairs, from lm_prop reports."""
    pruned = attempts = 0
    for ans in sample["answers"]:
        if ans.get("verifier") == "lm_prop":
            pruned += ans["pruned_by_upper_bound"]
            attempts += ans["pairs"] - ans["monomial_pairs"]
    return pruned / attempts if attempts else 0.0


# ---------------------------------------------------------------------------
# main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="addmds benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "addmds" / "__init__.py").is_file():
        return fail(f"no src/addmds under {ROOT}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import hostspeed
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    deadline = time.monotonic() + SAMPLE_TIMEOUT_S
    inputs = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs_path = OUT / f"inputs-{tag}.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    n_jobs = len(inputs["jobs"])

    mode = "trace" if args.trace else "pass"
    spans = OUT / f"spans-{args.workload}-{args.seed}.json" if args.trace else None
    samples, setups, setup_cals, durations = [], [], [], []
    broken = 0

    try:
        # Set-up-only processes, so that workloads with one timed sample per
        # run still take the median of several set-ups; a crashed one is broken.
        for _ in range(0 if args.trace else SETUP_PROBES):
            res, _ = run_sample(inputs_path, "setup", deadline)
            if res is None:
                broken += 1
                break
            setups.append(res["setup_s"])
            setup_cals += res.get("setup_cal_s", [])
        # timed samples while their total still fits in --seconds; the first always runs
        while True:
            res, took = run_sample(inputs_path, mode, deadline, spans)
            durations.append(took)
            if res is None:
                broken += 1
                break
            samples.append(res)
            setups.append(res["setup_s"])
            setup_cals += res.get("setup_cal_s", [])
            if sum(durations) + statistics.median(durations) > args.seconds:
                break
            if time.monotonic() + max(durations) > deadline:
                break
    finally:
        inputs_path.unlink(missing_ok=True)

    failed, mismatches = count_failed(samples, n_jobs, broken)
    failures = [f"job {i}: {msg}" for s in samples for i, msg in s["failures"]]
    attempted = n_jobs * (len(samples) + broken)

    # decision latencies only from untraced samples
    decisions = [] if args.trace else [t * 1000.0 for s in samples
                                       for t, k in zip(s["job_s"], s["kinds"]) if k == "witness"]
    pcts = percentile_report(decisions)
    meta = metadata(inputs)
    print(f"workload {args.workload} seed {args.seed}: {len(samples)} {mode} samples, "
          f"{len(setups)} set-ups, {attempted} jobs attempted")
    print("sample wall_s " + " ".join(f"{s['wall_s']:.3f}" for s in samples))
    if not args.trace:
        print("sample wall_raw_s " + " ".join(f"{s['wall_raw_s']:.3f}" for s in samples))
    print("setup_raw_s " + " ".join(f"{v:.4f}" for v in setups))
    print(f"failed_frac {failed / max(attempted, 1):.4f} ({failed} of {attempted})")
    for f in failures[:20]:
        print(f"  failure: {f}")
    if mismatches:
        print(f"  {mismatches} answers differ from the first sample's")
    if decisions:
        shown = ", ".join(f"decide_p{p}_ms {v:.3f} ms" for p, v in pcts.items())
        print(f"decisions {len(decisions)} (linear_equivalence_witness calls): "
              f"{shown or 'too few samples for a percentile'}")
    print("metadata " + json.dumps(meta, sort_keys=True))

    if not samples:
        metrics = {}
    elif args.trace:
        values = per_layer(samples)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        share = statistics.median(
            (s["trace"]["spans"].get("code.enum", {}).get("self_s", 0)
             + s["trace"]["spans"].get("geometry.scan", {}).get("self_s", 0)) / s["wall_s"]
            for s in samples)
        print(f"code.enum + geometry.scan self time: {100 * share:.1f} % of traced wall_s")
    else:
        # the median set-up, rescaled by the median calibration taken right after
        # the set-ups of this run (hostspeed.py)
        setup_s = hostspeed.rescale(statistics.median(setups), statistics.median(setup_cals),
                                    hostspeed.SETUP_SHARE)
        values = {"setup_s": setup_s,
                  "wall_s": statistics.median(s["wall_s"] for s in samples),
                  "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples)}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    correct = bool(metrics) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
