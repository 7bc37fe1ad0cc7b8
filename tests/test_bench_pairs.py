"""`tools/bench_pairs.py` applies the claim rule to recorded pair readings."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# cases/s, (parent, change) per pair, as recorded in CHANGES.md.
PWL_DEEP_SEED_1 = [
    (2087.6, 2292.4), (2131.2, 2321.3), (2140.2, 2307.2), (2113.8, 2327.8), (2461.1, 2291.2),
    (2066.3, 2293.2), (2087.8, 2313.0), (2073.8, 2279.5), (2144.6, 2279.7), (2062.1, 2243.5),
]
GRID_EXACT_SEED_1 = [
    (2502.8, 2530.2), (2436.6, 2399.2), (2486.2, 2518.2), (2539.5, 2526.8), (2490.1, 2468.9),
    (2666.1, 2463.4), (2498.0, 2471.3), (2400.2, 2453.5), (2510.6, 2513.0), (2507.8, 2471.6),
]


def test_a_gain_beyond_the_parent_spread_in_9_of_10_pairs_is_resolved():
    v = bench_pairs.verdict(PWL_DEEP_SEED_1, "higher", 0.15)
    assert round(v["change"] * 100, 1) == 9.1
    assert (v["wins"], v["pairs"]) == (9, 10)
    assert (round(v["parent_q1"]), round(v["parent_q3"])) == (2072, 2141)
    assert v["verdict"] == "resolved"
    assert not v["past_bound"]


def test_a_change_inside_the_parent_spread_is_not_resolved():
    v = bench_pairs.verdict(GRID_EXACT_SEED_1, "higher", 0.15)
    assert round(v["change"] * 100, 1) == -1.2
    assert (v["wins"], v["pairs"]) == (4, 10)
    assert (round(v["parent_q1"], 1), round(v["parent_q3"], 1)) == (2473.8, 2517.8)
    assert v["verdict"] == "not resolved"
    assert not v["past_bound"]


def test_lower_is_better_and_the_bound_is_flagged():
    # Times: the change doubles every reading, past a 20 % bound.
    pairs = [(p, 2 * p) for p in (1.0, 1.1, 0.9, 1.05)]
    v = bench_pairs.verdict(pairs, "lower", 0.2)
    assert v["wins"] == 0 and v["verdict"] == "not resolved" and v["past_bound"]
    v = bench_pairs.verdict([(c, p) for p, c in pairs], "lower", 0.2)
    assert v["wins"] == 4 and v["verdict"] == "resolved" and not v["past_bound"]


def _line(throughput: float, correct: bool = True, failed: int = 0) -> dict:
    metrics = {"throughput_cases_per_s": {"value": throughput, "unit": "1/s"}}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


METRICS = [{"name": "throughput_cases_per_s", "better": "higher", "bound": 0.15}]


@pytest.mark.parametrize("broken", [_line(9.0, correct=False), _line(9.0, failed=1)])
def test_a_run_that_is_not_correct_makes_the_verdict_invalid(broken):
    runs = [{"first": "parent", "parent": _line(5.0), "change": _line(9.0)} for _ in range(9)]
    runs.append({"first": "change", "parent": _line(5.0), "change": broken})
    assert bench_pairs.summarize(runs, METRICS)["throughput_cases_per_s"]["verdict"] == "invalid"
    runs[-1]["change"] = _line(9.0)
    assert bench_pairs.summarize(runs, METRICS)["throughput_cases_per_s"]["verdict"] == "resolved"


def _tree(root: Path, throughput: float, log: Path) -> Path:
    """A tree whose `bench/run.py` logs its run and prints one final line."""
    (root / "bench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    script = (
        "import json, sys\n"
        f"open({str(log)!r}, 'a').write({root.name!r} + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
        "print('workload noise')\n"
        f"print(json.dumps({_line(throughput)!r}))\n"
    )
    (root / "bench" / "run.py").write_text(script)
    return root


def test_runs_alternate_and_append_to_the_record(tmp_path):
    log = tmp_path / "log.txt"
    parent = _tree(tmp_path / "parent", 100.0, log)
    change = _tree(tmp_path / "change", 120.0, log)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "w", "--seed", "3", "--seconds", "0.5"]
    argv += ["--pairs", "3", "--out", str(out), "--commits", "aaa", "bbb"]
    assert bench_pairs.main(argv) == 0
    assert bench_pairs.main(argv) == 0
    order = [line.split()[0] for line in log.read_text().splitlines()]
    assert order == ["parent", "change", "change", "parent", "parent", "change"] * 2
    assert "--workload w --seed 3 --seconds 0.5 --trace 0" in log.read_text()
    record = json.loads(out.read_text())
    assert len(record["runs"]) == 2
    entry = record["runs"][0]
    assert entry["inputs"]["commits"] == {"parent": "aaa", "change": "bbb"}
    assert entry["inputs"]["seed"] == 3 and entry["inputs"]["pairs"] == 3
    assert [pair["first"] for pair in entry["lines"]] == ["parent", "change", "parent"]
    v = entry["verdicts"]["throughput_cases_per_s"]
    assert (v["wins"], v["verdict"]) == (3, "resolved")


def _tier1_tree(root: Path, failing: bool = False) -> Path:
    """A tree whose Tier-1 suite has three quick tests, one of them slow
    enough to lead the durations and one that logs each run of the suite
    to `runs.txt` and passes only once the suite has run before, and
    optionally one failing test."""
    (root / "src").mkdir(parents=True)
    (root / "src" / "fakepkg.py").write_text("ANSWER = 42\n")
    (root / "tests").mkdir()
    body = (
        "import time\n"
        "from pathlib import Path\n"
        "import fakepkg\n\n"
        "def test_slow():\n    time.sleep(0.2)\n\n"
        "def test_answer():\n    assert fakepkg.ANSWER == 42\n\n"
        "def test_not_the_first_run():\n"
        "    log = Path(__file__).parents[1] / 'runs.txt'\n"
        "    earlier = log.read_text() if log.exists() else ''\n"
        "    log.write_text(earlier + 'run\\n')\n"
        "    assert earlier\n"
    )
    if failing:
        body += "\ndef test_broken():\n    assert fakepkg.ANSWER == 41\n"
    (root / "tests" / "test_fake.py").write_text(body)
    return root


def test_a_tier1_run_per_tree_is_recorded_as_its_own_entry(tmp_path, capsys, monkeypatch):
    # The fake suites need no Hypothesis, whose plugin takes most of a
    # pytest start.
    monkeypatch.setattr(bench_pairs, "TIER1", [*bench_pairs.TIER1, "-p", "no:hypothesispytest"])
    parent = _tier1_tree(tmp_path / "parent")
    change = _tier1_tree(tmp_path / "change", failing=True)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"runs": [{"inputs": {"workload": "w"}, "lines": []}]}))
    argv = [str(parent), str(change), "--tier1", "--out", str(out), "--commits", "aaa", "bbb"]
    assert bench_pairs.main(argv) == 1  # the change tree has a failing test
    record = json.loads(out.read_text())
    assert len(record["runs"]) == 2 and record["runs"][0]["inputs"] == {"workload": "w"}
    entry = record["runs"][1]
    assert entry["inputs"]["commits"] == {"parent": "aaa", "change": "bbb"}
    assert set(entry["inputs"]) == {"commits", "nproc", "python"}
    parent_run, change_run = entry["tier1"]["parent"], entry["tier1"]["change"]
    assert (parent_run["passed"], parent_run["failed"], parent_run["exit"]) == (3, 0, 0)
    assert (change_run["passed"], change_run["failed"]) == (3, 1)
    assert change_run["exit"] != 0
    # One untimed run before the recorded one, in each tree.
    for tree in (parent, change):
        assert (tree / "runs.txt").read_text() == "run\n" * 2
    for run in (parent_run, change_run):
        assert run["wall_s"] >= 0.2
        slowest = run["slowest"][0]
        assert slowest["test"] == "tests/test_fake.py::test_slow" and slowest["when"] == "call"
        assert 0.2 <= slowest["seconds"] <= run["wall_s"]
        assert len(run["slowest"]) <= 10
    shown = capsys.readouterr().out
    assert "parent tier-1: 3 passed" in shown and "change tier-1: 1 failed, 3 passed" in shown


def test_pairs_need_their_inputs_without_tier1(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--seed", "1"])
