"""tools/bench_pair.py: the summary over synthetic runs, and keeping the runs
that completed before a crash."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def run(side, seed, metrics, workload="w", trace=0, correct=True, failed=0, passes=None):
    return {"side": side, "workload": workload, "seed": seed, "trace": trace,
            "passes": passes,
            "result": {"correct": correct, "failed": failed,
                       "metrics": {k: {"value": v} for k, v in metrics.items()}}}


def test_summarize_medians_ratio_wins_and_iqr():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 1.5, 2.5, 3.5]
    dof_parent = [10.0, 20.0, 30.0, 40.0]
    dof_change = [11.0, 19.0, 31.0, 41.0]
    runs = []
    for seed in range(4):
        runs.append(run("parent", seed, {"wall_s": parent[seed], "dof_per_s": dof_parent[seed]}))
        runs.append(run("change", seed, {"wall_s": change[seed], "dof_per_s": dof_change[seed]}))
    (row,) = bench_pair.summarize(runs)
    assert row["workload"] == "w" and row["trace"] == 0 and row["seeds"] == [0, 1, 2, 3]
    wall = row["metrics"]["wall_s"]
    assert wall["parent"] == 2.5 and wall["change"] == 2.0
    assert wall["ratio"] == pytest.approx(0.8)
    assert wall["change_better"] == 4  # lower is better
    # statistics.quantiles' exclusive method: 1.25 and 3.75
    assert wall["parent_iqr"] == pytest.approx(2.5)
    dof = row["metrics"]["dof_per_s"]
    assert dof["change_better"] == 3  # higher is better: seed 1 lost
    assert dof["parent"] == 25.0 and dof["change"] == 25.0
    assert row["all_correct"] is True


def test_summarize_correctness_traced_rows_and_one_sided_groups():
    runs = [run("parent", 1, {"wall_s": 1.0}), run("change", 1, {"wall_s": 1.0}, failed=1),
            run("parent", 1, {"wall_s": 2.0}, trace=1), run("change", 1, {"wall_s": 3.0}, trace=1),
            run("parent", 7, {"wall_s": 1.0}, workload="solo")]
    rows = {(r["workload"], r["trace"]): r for r in bench_pair.summarize(runs)}
    assert rows[("w", 0)]["all_correct"] is False
    traced = rows[("w", 1)]["metrics"]["wall_s"]
    assert traced["ratio"] == 1.5
    assert "change_better" not in traced and "parent_iqr" not in traced
    # one seed gives no quartiles
    assert "parent_iqr" not in rows[("w", 0)]["metrics"]["wall_s"]
    solo = rows[("solo", 0)]
    assert solo["seeds"] == [] and solo["metrics"] == {} and solo["all_correct"] is True


def test_summarize_gain_shown_and_pass_counts():
    # ten seeds; the parent's wall_s quartiles are 1.0175 and 1.0725 (IQR 0.055)
    parent = [1.0 + 0.01 * s for s in range(10)]
    metrics = {
        "wall_s": [p - 0.2 for p in parent[:9]] + [parent[9] + 0.1],  # wins 9, gain 0.2
        "op_p50_s": [p - 0.2 for p in parent[:8]] + [p + 0.1 for p in parent[8:]],  # wins 8
        "op_tail_s": [p - 0.01 for p in parent],  # wins 10, gain inside the IQR
        "setup_s": [p + 0.2 for p in parent],  # loses 10
    }
    runs = []
    for s in range(10):
        runs.append(run("parent", s, {k: parent[s] for k in metrics}, passes=3))
        runs.append(run("change", s, {k: v[s] for k, v in metrics.items()},
                        passes=4 if s < 6 else 3))
    runs.append(run("parent", 0, {k: 2.0 for k in metrics}, trace=1))
    runs.append(run("change", 0, {k: 1.0 for k in metrics}, trace=1))
    rows = {r["trace"]: r for r in bench_pair.summarize(runs)}
    got = rows[0]["metrics"]
    assert got["wall_s"]["parent_iqr"] == pytest.approx(0.055)
    assert got["wall_s"]["change_better"] == 9 and got["wall_s"]["gain_shown"] is True
    assert got["op_p50_s"]["change_better"] == 8 and got["op_p50_s"]["gain_shown"] is False
    assert got["op_tail_s"]["change_better"] == 10 and got["op_tail_s"]["gain_shown"] is False
    assert got["setup_s"]["gain_shown"] is False
    assert rows[0]["passes"] == {"parent": 3, "change": 4}
    # traced rows carry neither the flag nor pass counts
    assert "gain_shown" not in rows[1]["metrics"]["wall_s"] and "passes" not in rows[1]
    # runs recorded without pass counts give none
    (old,) = bench_pair.summarize([run("parent", 1, {"wall_s": 1.0}),
                                   run("change", 1, {"wall_s": 1.0})])
    assert old["passes"] == {"parent": None, "change": None}


def test_summarize_verdicts_by_the_benchmark_better_and_bound():
    tight = [1.0, 1.01, 1.02, 1.03]  # IQR 0.025, inside every bound
    wide = [1.0, 1.5, 2.0, 2.5]  # median 1.75, IQR 1.25, wider than every bound
    cases = {  # metric: (parent, change, verdict)
        "wall_s": (tight, [t + 0.3 for t in tight], "worse"),  # bound 0.24
        "op_p50_s": (tight, [t + 0.05 for t in tight], "held"),  # worse in all, inside bound
        "op_tail_s": (wide, [w + 0.1 for w in wide], "unresolved"),
        "setup_s": (wide, [0.5, 0.6, 0.7, 0.95], "held"),  # all beat the parent's best run
        "peak_rss_mb": ([100.0 * t for t in tight], [120.0 * t for t in tight],
                        "worse"),  # +20% is past its bound of 0.15
        "dof_per_s": ([10.0 * t for t in tight], [7.0 * t for t in tight],
                      "worse"),  # higher is better
    }
    runs = []
    for seed in range(4):
        runs.append(run("parent", seed, {k: v[0][seed] for k, v in cases.items()}))
        runs.append(run("change", seed, {k: v[1][seed] for k, v in cases.items()}))
    (row,) = bench_pair.summarize(runs)
    assert {k: e["verdict"] for k, e in row["metrics"].items()} == {
        k: v[2] for k, v in cases.items()}
    # a better median inside a wide spread, with runs that overlap the
    # parent's, is unresolved; a higher dof_per_s is held
    more = [run("parent", s, {"wall_s": wide[s], "dof_per_s": 10.0 * tight[s]}) for s in range(4)]
    more += [run("change", s, {"wall_s": wide[s] - 0.3, "dof_per_s": 11.0 * tight[s]})
             for s in range(4)]
    (row,) = bench_pair.summarize(more)
    assert row["metrics"]["wall_s"]["verdict"] == "unresolved"
    assert row["metrics"]["dof_per_s"]["verdict"] == "held"
    # one seed has no spread: held only when the change run is better
    for change, expect in ((0.9, "held"), (1.1, "unresolved"), (1.3, "worse")):
        (row,) = bench_pair.summarize([run("parent", 1, {"wall_s": 1.0}),
                                       run("change", 1, {"wall_s": change})])
        assert row["metrics"]["wall_s"]["verdict"] == expect
    # traced rows carry no verdict
    (row,) = bench_pair.summarize([run("parent", 1, {"wall_s": 1.0}, trace=1),
                                   run("change", 1, {"wall_s": 9.0}, trace=1)])
    assert "verdict" not in row["metrics"]["wall_s"]


def fake_checkout(root, body):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(body))
    return root


def test_crash_keeps_completed_runs_and_shows_stderr(tmp_path, capsys):
    good = fake_checkout(tmp_path / "parent", """\
        print('env: {"seed": 1}')
        print('timing: {"pass_s": [0.5, 0.4]}')
        print('{"correct": true, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}')
        """)
    bad = fake_checkout(tmp_path / "change", """\
        import sys
        print("the benchmark broke here", file=sys.stderr)
        sys.exit(3)
        """)
    out = tmp_path / "bench.json"
    code = bench_pair.main(["--parent", str(good), "--change", str(bad), "--workload", "w",
                            "--seeds", "1,2", "--out", str(out)])
    assert code == 1
    assert "the benchmark broke here" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert [(r["side"], r["seed"], r["passes"]) for r in doc["runs"]] == [("parent", 1, 2)]
    assert doc["summary"][0]["seeds"] == []
