"""tools/level_costs.py: the per-level V(2,0) costs on a small grid."""

import ast
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "level_costs.py"
_spec = importlib.util.spec_from_file_location("level_costs", TOOL)
level_costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(level_costs)


def test_level_costs_at_n27(capsys, monkeypatch):
    from mac3mg import grid, multigrid, smoothers

    monkeypatch.setattr(level_costs, "WARM_S", 0.0)

    wrapped = (multigrid._descend, smoothers.Smoother.sweep, grid.SaddleSystem.residual)
    assert level_costs.main(["--n", "27", "--schemes", "qdr,quzawa", "--repeats", "3"]) == 0
    # the clocks are taken off again
    assert (multigrid._descend, smoothers.Smoother.sweep,
            grid.SaddleSystem.residual) == wrapped
    out = json.loads(capsys.readouterr().out)
    assert out["cycle"] == "V(2,0)" and out["repeats"] == 3
    assert len(out["band_speedup_before_after"]) == 2
    assert [(r["scheme"], r["n"]) for r in out["results"]] == [("qdr", 27), ("quzawa", 27)]
    for r in out["results"]:
        assert list(r["from_level_ms"]) == ["27", "9", "3"]
        below = [r["from_level_ms"][k] for k in ("27", "9", "3")]
        assert all(t > 0.0 for t in below) and below == sorted(below, reverse=True)
        assert 0.0 < r["finest_residual_ms"] and 0.0 < r["finest_sweep_ms"] < r["cycle_ms"]
        assert r["share"] == round(
            2 * (r["finest_sweep_ms"] + r["finest_residual_ms"]) / r["cycle_ms"], 3)


def test_a_raising_wrapped_call_leaves_the_routines_as_they_were(monkeypatch):
    from mac3mg import grid, multigrid, smoothers

    monkeypatch.setattr(level_costs, "WARM_S", 0.0)
    descend, sweep = multigrid._descend, smoothers.Smoother.sweep

    def failing_sweep(self, *args, **kwargs):
        # the warm-up cycles run; the first sweep once the tool has wrapped it raises
        if multigrid._descend is not descend:
            raise np.linalg.LinAlgError("injected")
        return sweep(self, *args, **kwargs)

    monkeypatch.setattr(smoothers.Smoother, "sweep", failing_sweep)
    wrapped = (multigrid._descend, smoothers.Smoother.sweep, grid.SaddleSystem.residual)
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        level_costs.main(["--n", "27", "--schemes", "qdr", "--repeats", "1"])
    assert (multigrid._descend, smoothers.Smoother.sweep,
            grid.SaddleSystem.residual) == wrapped


def test_untraced_and_traced_cycles_alternate(capsys, monkeypatch):
    # cycle_ms and the per-level spans come from the same stretch: after the
    # warm-up, each repeat runs one untraced cycle and then one traced one
    from mac3mg import multigrid

    monkeypatch.setattr(level_costs, "WARM_S", 0.0)
    monkeypatch.syspath_prepend(str(TOOL.parents[1] / "perfbench"))
    import spans

    made = []

    class Recorded(spans.Span):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self.name)

    monkeypatch.setattr(spans, "Span", Recorded)
    v_cycle, traced = multigrid.v_cycle, []

    def recording(*args, **kwargs):
        before = len(made)
        out = v_cycle(*args, **kwargs)
        traced.append("descend" in made[before:])
        return out

    monkeypatch.setattr(multigrid, "v_cycle", recording)
    assert level_costs.main(["--n", "27", "--schemes", "qdr", "--repeats", "3"]) == 0
    capsys.readouterr()
    assert traced[-6:] == [False, True] * 3
    assert len(traced) > 6 and not any(traced[:-6])


def test_the_timing_tools_wrap_only_through_the_tracer():
    for name in ("level_costs.py", "lfa_split.py"):
        tree = ast.parse((TOOL.parent / name).read_text())
        calls = [node.func.id for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        assert "setattr" not in calls, name
