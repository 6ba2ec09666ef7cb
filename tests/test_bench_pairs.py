"""The paired-run summary of tools/bench_pairs.py on made-up values: a gain
needs nine wins in ten and a median move beyond the base's spread, and a
metric that worsens beyond its bound is flagged; the edited-file list with
`git` stubbed; the pair records of a whole run with the runs stubbed. No
subprocess is started."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_pairs(base, change):
    return [{"base": {"work_per_s": b, "op_ms_p50": 100.0 / b},
             "change": {"work_per_s": c, "op_ms_p50": 100.0 / c}} for b, c in zip(base, change)]


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_clear_gain_is_shown_in_both_directions(bench_pairs):
    summary = bench_pairs.summarize(make_pairs(BASE, [v * 1.4 for v in BASE]), SPEC)
    for name in ("work_per_s", "op_ms_p50"):
        assert summary[name]["pairs_won"] == 10
        assert summary[name]["gain_shown"] and summary[name]["within_bound"]
    assert summary["work_per_s"]["change_over_base"] == pytest.approx(0.4)
    assert summary["work_per_s"]["base"]["median"] == pytest.approx(100.05)


def test_eight_wins_of_ten_show_no_gain(bench_pairs):
    change = [v * 1.4 for v in BASE[:8]] + [v * 0.99 for v in BASE[8:]]
    summary = bench_pairs.summarize(make_pairs(BASE, change), SPEC)["work_per_s"]
    assert summary["pairs_won"] == 8
    assert summary["change"]["median"] > summary["base"]["q3"]
    assert not summary["gain_shown"]


def test_ties_count_for_neither_side(bench_pairs):
    summary = bench_pairs.summarize(make_pairs(BASE, BASE), SPEC)["work_per_s"]
    assert summary["pairs_won"] == 0 and not summary["gain_shown"] and summary["within_bound"]


def test_move_inside_the_base_spread_shows_no_gain(bench_pairs):
    base = [60.0, 140.0] * 5
    summary = bench_pairs.summarize(make_pairs(base, [v + 1.0 for v in base]), SPEC)["work_per_s"]
    assert summary["pairs_won"] == 10
    assert not summary["gain_shown"]


@pytest.mark.parametrize("factor, within", [(0.76, True), (0.74, False)])
def test_bound_check(bench_pairs, factor, within):
    summary = bench_pairs.summarize(make_pairs(BASE, [v * factor for v in BASE]), SPEC)
    assert summary["work_per_s"]["within_bound"] is within
    # the same runs read as time per operation: 1/0.74 - 1 = +35% > 25%
    assert summary["op_ms_p50"]["within_bound"] is (1.0 / factor - 1.0 <= 0.25)
    assert summary["work_per_s"]["pairs_won"] == 0


def test_edited_files_include_untracked_ones(bench_pairs, monkeypatch):
    outputs = {("diff", "HEAD", "--name-only"): "src/vqgen/model.py\nREADME.md",
               ("ls-files", "--others", "--exclude-standard"): "src/vqgen/new_module.py"}
    monkeypatch.setattr(bench_pairs, "git", lambda *args: outputs[args])
    assert bench_pairs.edited_files() == ["src/vqgen/model.py", "README.md",
                                          "src/vqgen/new_module.py"]


def test_edited_files_empty_on_a_clean_tree(bench_pairs, monkeypatch):
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    assert bench_pairs.edited_files() == []


def test_pair_records_keep_each_runs_info(bench_pairs, monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["bench"], "run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": SPEC}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "f00d" if args[0] == "rev-parse" else "")
    monkeypatch.setattr(bench_pairs, "extract", lambda sha: tmp_path / f"base-{sha}")

    def run_once(tree, command, workload, seed, seconds):
        side = 0 if tree.name == "base-f00d" else 1
        info = {"workload": workload, "seed": seed, "rounds": 10 * seed + side,
                "setup_s": [0.1 * seed, 0.2, 0.3 + side], "check_s": 0.5 + side,
                "blas_threads": 1, "python": "3.11.7", "numpy": "2.4.6"}
        value = 100.0 + side
        return {"info": info, "correct": True, "attempted": 3, "failed": 0, "metrics": {
            "work_per_s": {"value": value}, "op_ms_p50": {"value": 100.0 / value}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--base", "HEAD~1", "--workload", "w", "--pairs", "2"]) == 0
    report = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert [(p["seed"], p["first"]) for p in report["pairs"]] == [(1, "base"), (2, "change")]
    second = report["pairs"][1]
    assert second["base_info"] == {"rounds": 20, "setup_s": [0.2, 0.2, 0.3], "check_s": 0.5}
    assert second["change_info"] == {"rounds": 21, "setup_s": [0.2, 0.2, 1.3], "check_s": 1.5}
    assert second["change"] == {"work_per_s": 101.0, "op_ms_p50": 100.0 / 101.0}
    assert report["summary"]["work_per_s"]["pairs_won"] == 2
