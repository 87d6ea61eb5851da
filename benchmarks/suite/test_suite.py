"""Tests of the benchmark suite itself.

Run:  PYTHONPATH=src python -m pytest benchmarks/suite

The smoke test drives two short workload runs end to end (about a
minute, plus a one-time cache build in a fresh checkout); the rest are
fast unit tests of the declaration, the span arithmetic and the
comparison verdicts.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_declaration_follows_the_grammar(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in declared["workloads"]]
    for metric in declared["end_to_end"] + declared["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25, metric
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_declared_workloads_are_the_harness_workloads(declared):
    import run
    from traffic import WORKLOADS

    names = [w["name"] for w in declared["workloads"]]
    assert names == list(run.WORKLOADS) == list(WORKLOADS)


def _span(pid, span_id, parent, name, start, end):
    return {"pid": pid, "id": span_id, "parent": parent, "name": name,
            "layer": name.split(".")[0], "tid": 1, "key": None, "args": None,
            "start": start, "end": end}


SYNTHETIC = [
    _span(1, 0, None, "runtime.run_batch", 0.0, 10.0),
    _span(1, 1, 0, "sim.batch_run", 1.0, 3.0),
    _span(1, 2, 0, "sim.core_run", 4.0, 8.0),
    _span(1, 3, 2, "sim.core_run", 5.0, 6.0),
    # Same span id in another process: must not be taken for a child.
    _span(2, 1, 0, "sim.batch_run", 0.5, 1.5),
    _span(2, 0, None, "runtime.run_batch", 0.0, 2.0),
]


def test_self_time_subtracts_direct_children_only():
    selfs = spans.self_times(SYNTHETIC)
    assert selfs[(1, 0)] == pytest.approx(10 - 2 - 4)
    assert selfs[(1, 2)] == pytest.approx(4 - 1)
    assert selfs[(1, 3)] == pytest.approx(1)
    assert selfs[(2, 0)] == pytest.approx(2 - 1)
    totals = spans.totals_by_name(SYNTHETIC)
    assert totals["runtime.run_batch"] == {"count": 2, "wall_s": 12.0, "self_s": 5.0}
    assert totals["sim.core_run"]["wall_s"] == pytest.approx(5.0)
    assert totals["sim.core_run"]["self_s"] == pytest.approx(4.0)


def test_layer_busy_does_not_double_count_nested_spans():
    # sim spans: 2 + 4 (the nested 1 is inside the 4) in pid 1, 1 in pid 2.
    assert spans.layer_busy(SYNTHETIC, "sim") == pytest.approx(7.0)
    assert [s["id"] for s in spans.in_window(SYNTHETIC, 0.9, 4.5)] == [1, 2]


def test_chrome_trace_has_complete_events_in_microseconds():
    trace = spans.chrome_trace(SYNTHETIC)
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(events) == len(SYNTHETIC)
    first = next(e for e in events if e["name"] == "sim.core_run" and e["dur"] == 4e6)
    assert first["ts"] == 4e6 and first["cat"] == "sim"
    assert any(e["ph"] == "M" for e in trace["traceEvents"])
    json.dumps(trace)


def test_installed_spans_record_and_uninstall(tmp_path):
    from repro.ingest.reassembly import Reassembler

    original = Reassembler.offer
    installation = spans.install(str(tmp_path))
    try:
        assert Reassembler.offer is not original
        assert Reassembler().offer(b"not a datagram") == []
    finally:
        installation.remove()
    assert Reassembler.offer is original
    (record,) = spans.load(str(tmp_path))
    assert record["name"] == "ingest.reassemble" and record["layer"] == "ingest"
    assert record["key"] is None and record["args"] == {"released": []}
    assert record["end"] >= record["start"] and record["pid"] == os.getpid()


def test_host_factor_is_a_trimmed_mean_over_its_window():
    host = hostspeed.HostSpeed("unused")
    ref = hostspeed.REFERENCE_S
    # 20 samples at the reference speed and one caught by a context
    # switch: the trimmed mean leaves it out.
    host.samples = [(float(t), ref) for t in range(20)] + [(5.5, 100 * ref)]
    assert host.factor(0.0, 19.0) == pytest.approx(1.0)
    host.samples += [(100.0 + t, 2 * ref) for t in range(10)]
    assert host.factor(100.0, 200.0) == pytest.approx(2.0)
    # No sample inside the window: all of them count.
    assert 1.0 < host.factor(50.0, 60.0) < 2.0


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]


@pytest.mark.parametrize(
    "change, better, bound, expected",
    [
        ([v * 1.2 for v in BASE], "higher", 0.1, "better"),  # every run better
        ([v * 0.8 for v in BASE], "higher", 0.1, "worse"),
        ([v * 0.97 for v in BASE], "higher", 0.1, "same"),
        ([v * 1.03 for v in BASE], "lower", 0.1, "same"),
        ([v * 1.2 for v in BASE], "lower", 0.1, "worse"),
        ([v * 0.8 for v in BASE], "lower", 0.1, "better"),
        ([v * (1.5 if i % 2 else 0.7) for i, v in enumerate(BASE)], "higher", 0.1,
         "unresolved"),
        # Per-layer metrics have no bound: only the paired-win rule.
        ([v * 1.05 for v in BASE], "higher", None, "better"),
        ([v * 0.95 for v in BASE], "higher", None, "worse"),
        ([v * (1.02 if i % 3 else 0.98) for i, v in enumerate(BASE)], "higher", None, "same"),
    ],
)
def test_compare_verdicts(change, better, bound, expected):
    assert compare.verdict(BASE, change, better, bound) == expected


def test_paired_wins_need_nine_tenths():
    base = [10.0] * 10
    change = [10.5] * 8 + [9.5] * 2  # 8 of 10 wins
    assert compare.verdict(base, change, "higher", None) == "same"
    change = [10.5] * 9 + [9.5]
    assert compare.verdict(base, change, "higher", None) == "better"


def _result(directory, name, workload="steady_mixed", seed=1, seconds=8, smoke=False,
            correct=True, valid=True, failed=0, value=10.0):
    record = {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"throughput_pps": {"value": value, "unit": "1/s"}},
        "workload": workload, "trace": False, "problems": [],
        "meta": {"seed": seed, "seconds": seconds, "smoke": smoke,
                 "client": {"valid": valid}},
    }
    directory.mkdir(exist_ok=True)
    with open(directory / ("result-%s.json" % name), "w") as fh:
        json.dump(record, fh)


def test_compare_keeps_only_full_valid_correct_runs(tmp_path):
    _result(tmp_path, "a", seed=1)
    _result(tmp_path, "b", seed=2, smoke=True, seconds=2)
    _result(tmp_path, "c", seed=3, correct=False)
    _result(tmp_path, "d", seed=4, valid=False)
    runs = compare.load_results([str(tmp_path)], trace=False)
    assert list(runs.metrics["steady_mixed"]) == [1]
    assert runs.seconds == {8}
    assert runs.skipped == {"smoke": 1, "failed a correctness check": 1,
                            "generator ran late": 1}


def test_compare_refuses_duplicate_runs_and_mixed_lengths(tmp_path, capsys):
    _result(tmp_path / "dup", "a", seed=1)
    _result(tmp_path / "dup", "b", seed=1)
    with pytest.raises(ValueError, match="seed 1"):
        compare.load_results([str(tmp_path / "dup")], trace=False)
    _result(tmp_path / "long", "a", seconds=12)
    assert compare.main([str(tmp_path / "dup" / "result-a.json"),
                         str(tmp_path / "long")]) == 2
    assert "different lengths" in capsys.readouterr().err


def test_compare_fails_on_more_failed_packets_or_incorrect_runs(tmp_path):
    for seed in range(1, 4):
        _result(tmp_path / "base", str(seed), seed=seed)
        _result(tmp_path / "same", str(seed), seed=seed)
        _result(tmp_path / "lossy", str(seed), seed=seed, failed=int(seed == 2))
    _result(tmp_path / "wrong", "1", seed=1)
    _result(tmp_path / "wrong", "2", seed=2, correct=False)
    base = str(tmp_path / "base")
    assert compare.main([base, str(tmp_path / "same")]) == 0
    assert compare.main([base, str(tmp_path / "lossy")]) == 1
    assert compare.main([base, str(tmp_path / "wrong")]) == 1


def test_stale_caches_are_removed_but_live_priming_stays(tmp_path, monkeypatch):
    import harness

    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    names = ["current", "previous", "current.tmp-%d" % dead.pid,
             "current.tmp-%d" % os.getpid()]
    for name in names:
        (tmp_path / name).mkdir()
    monkeypatch.setattr(harness, "CACHE_ROOT", str(tmp_path))
    harness.remove_stale_caches(str(tmp_path / "current"))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([names[0], names[3]])


def _bench_copy(tmp_path):
    """BENCHMARK.json plus the benchmark's own files, and nothing else."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_refuses_to_run_without_the_source_tree(tmp_path):
    root = _bench_copy(tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "steady_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _session_members(sid):
    """Pids of the processes in session *sid* (Linux).

    Zombies count: a child the run joined is gone, so a zombie here is
    a process that outlived the run and exited after it.
    """
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as fh:
                stat = fh.read()
        except OSError:
            continue
        session = stat.rsplit(")", 1)[1].split()[3]
        if int(session) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs Linux /proc")
def test_orphaned_descendants_are_reaped_before_exit():
    # The shell exits at once and leaves its background sleep orphaned:
    # adopted by the subreaper, it is killed and reaped before exit.
    code = (
        "import os, run\n"
        "assert run.become_subreaper()\n"
        "os.system('sleep 60 &')\n"
        "run.end_children()\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=HERE, start_new_session=True)
    assert proc.wait(timeout=60) == 0
    assert _session_members(proc.pid) == []


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_exactly_the_declared_metrics(declared, trace, tmp_path):
    # Output goes to a file, not a pipe: a leftover process holding the
    # pipe open would make reading it wait for that process to end.
    with open(tmp_path / "stdout.txt", "w+") as out, open(tmp_path / "stderr.txt", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "steady_mixed",
             "--seed", "3", "--trace", trace, "--smoke", "--out", str(tmp_path)],
            cwd=ROOT, stdout=out, stderr=err, text=True, start_new_session=True,
        )
        proc.wait(timeout=600)
        # Every process the run started has ended with it.
        leftover = _session_members(proc.pid) if os.path.isdir("/proc") else []
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    assert proc.returncode == 0, stdout[-3000:] + stderr[-3000:]
    assert leftover == []
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = declared["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    (result_file,) = tmp_path.glob("result-*.json")
    assert result_file.name == "result-steady_mixed-seed3-2s-trace%s-smoke.json" % trace
    if trace == "1":
        with open(tmp_path / "trace-steady_mixed-seed3-2s-trace1-smoke" / "trace.json") as fh:
            assert json.load(fh)["traceEvents"]
