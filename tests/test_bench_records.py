"""Every committed BENCH_*.json is a complete before/after record."""

import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.removeprefix("BENCH_")))


def test_there_are_bench_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_complete(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert {"parent", "change", "host", "summary"} <= data.keys()
    assert data["summary"]
    lines = data["src_addmds_lines"]
    assert all(type(lines[side]) is int for side in ("parent", "change")), lines
    for workload, summary in data["summary"].items():
        assert summary["pairs"] >= 10, workload
        for side in ("parent", "change"):
            runs = [r for r in data.get("runs", []) if r["workload"] == workload and r["side"] == side]
            assert len(runs) in (0, summary["pairs"]), (workload, side)
        for metric in METRICS:
            for side in ("parent", "change"):
                stats = summary[metric][side]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (workload, metric, side)


@pytest.mark.parametrize("before, path", zip(RECORDS, RECORDS[1:]), ids=[p.name for p in RECORDS[1:]])
def test_bench_line_counts_chain(before, path):
    """Each record's parent line count is the change count of the record before it."""
    lines = [json.loads(p.read_text(encoding="utf-8"))["src_addmds_lines"] for p in (before, path)]
    assert lines[1]["parent"] == lines[0]["change"], (before.name, path.name)


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def test_newest_bench_line_count_is_its_tree():
    """The newest record's change count is src/addmds as committed with the
    record, or as it stands while the record is uncommitted, counted as
    ``perfbench/run.py`` counts it.  Edits to src/addmds after the record
    pass here; the next record's parent count meets them in the chain."""
    name = RECORDS[-1].name
    status = _git("status", "--porcelain", "--", name)
    if status.returncode:
        pytest.skip("not a git checkout")
    rev = _git("log", "-1", "--format=%H", "--", name).stdout.strip()
    if status.stdout or not rev:
        texts = [p.read_text(encoding="utf-8") for p in (ROOT / "src" / "addmds").glob("*.py")]
    else:
        files = _git("ls-tree", "--name-only", rev, "src/addmds/").stdout.split()
        texts = [_git("show", f"{rev}:{f}").stdout for f in files if f.endswith(".py")]
    record = json.loads(RECORDS[-1].read_text(encoding="utf-8"))["src_addmds_lines"]
    assert record["change"] == sum(len(text.splitlines()) for text in texts), name
