"""One timed sample of a workload, in a fresh interpreter.

    python3 perfbench/sample.py --inputs FILE --mode setup|pass|trace [--spans FILE]

``setup`` stops once the program is ready to run; ``pass`` also runs every
job once; ``trace`` runs the jobs with spans around each layer's calls
and per-operation ``gf`` timings.  Set-up time counts from the moment the
parent spawned this process (``PERFBENCH_SPAWN_T``, a ``time.perf_counter``
value, the system-wide monotonic clock) until the package is imported,
every tower is created with ``field_create`` and every input is decoded
from its JSON file.

In ``pass`` mode a ``hostspeed.Clock`` runs through the timed section:
``wall_s`` is normalised to the reference host speed and ``wall_raw_s`` is
the same span unscaled.  ``setup_s`` is unscaled here; right after the
set-up, outside every timing, the process takes ``SETUP_CALS``
calibrations (``setup_cal_s``), with which ``run.py`` rescales the run's
median set-up.

Prints one JSON object on stdout: timings, canonical answers, failures and
peak resident memory.  The peak is ``VmHWM`` of this process (Linux only),
not ``ru_maxrss``: on Linux, ``execve`` folds the parent's peak into the
child's ``ru_maxrss``, so that would read at least the orchestrator's peak.
"""

from __future__ import annotations

import os
import sys
import time

SPAWN_T = float(os.environ.get("PERFBENCH_SPAWN_T", time.perf_counter()))

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402

GF_REPEATS = 3  # timed passes per gf operation; the median is kept
SETUP_CALS = 10  # calibrations right after the set-up, outside every timing


def peak_rss_mb() -> float:
    """High-water resident memory of this process since its exec, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024.0


def gf_op_timings(tower, seed: int) -> dict:
    """Median time per mul/add/sub/frob call in ns, over seeded operands."""
    rng = random.Random(f"gf:{seed}")
    count = 20_000 if tower.add_np is not None else 1_000
    xs = [rng.randrange(1, tower.size) for _ in range(count)]
    ys = [rng.randrange(1, tower.size) for _ in range(count)]
    ops = {
        "mul": lambda: [tower.mul(a, b) for a, b in zip(xs, ys)],
        "add": lambda: [tower.add(a, b) for a, b in zip(xs, ys)],
        "sub": lambda: [tower.sub(a, b) for a, b in zip(xs, ys)],
        "frob": lambda: [tower.frob(a) for a in xs],
    }
    out = {}
    for name, op in ops.items():
        runs = []
        for _ in range(GF_REPEATS):
            start = time.perf_counter_ns()
            op()
            runs.append((time.perf_counter_ns() - start) / count)
        out[name] = sorted(runs)[GF_REPEATS // 2]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--spans", help="file for the raw span records (trace mode)")
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        from spans import Tracer, wrapper_cost_ns
        tracer = Tracer().install()
    import addmds
    if Path(addmds.__file__).resolve().parent != ROOT / "src" / "addmds":
        raise SystemExit(f"addmds imported from {addmds.__file__}, not from {ROOT / 'src'}")
    import checks
    import workloads

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    towers, objs = workloads.load(inputs)
    out = {"mode": args.mode, "setup_s": time.perf_counter() - SPAWN_T}
    if tracer is None:
        out["setup_cal_s"] = [hostspeed.calibrate() for _ in range(SETUP_CALS)]
    if args.mode == "setup":
        out["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(out))
        return 0

    jobs = inputs["jobs"]
    answers, keeps, job_s = [], [], []
    clock = None if tracer is not None else hostspeed.Clock().start()
    start = time.perf_counter()
    for i, (job, obj) in enumerate(zip(jobs, objs)):
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            answer, keep = workloads.run_job(job, obj, inputs["budgets"])
        except Exception as exc:  # a raised job is a failed job, never dropped
            traceback.print_exc()
            answer, keep = {"error": repr(exc)}, None
        job_s.append(time.perf_counter() - t0)
        answers.append(answer)
        keeps.append(keep)
    end = time.perf_counter()
    if tracer is not None:
        tracer.job = -1
        tracer.uninstall()
        out["wall_s"] = end - start
    else:
        clock.stop()
        out.update(wall_s=clock.normalized(start, end), wall_raw_s=clock.raw(start, end))

    failures = []
    for i, (job, obj, answer, keep) in enumerate(zip(jobs, objs, answers, keeps)):
        if "error" not in answer:
            try:
                workloads.post_check_data(job, obj, answer, keep)
            except Exception as exc:
                traceback.print_exc()
                answer["error"] = f"post-check raised {exc!r}"
        failures += [[i, msg] for msg in checks.check_job(job, answer)]

    out.update(job_s=job_s, kinds=[j["kind"] for j in jobs],
               answers=answers, failures=failures)
    if tracer is not None:
        out["trace"] = dict(tracer.summary(), wrapper_ns=wrapper_cost_ns())
        largest = max(towers.values(), key=lambda t: t.size)
        out["gf"] = {"tower": largest.descriptor(), "ns": gf_op_timings(largest, inputs["seed"]),
                     "table_mb": sum(t.add_np.nbytes + t.mul_np.nbytes
                                     for t in towers.values() if t.add_np is not None) / 2**20}
        if args.spans:
            tracer.write(args.spans)
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
