"""tools/output_diff.py: classifying two JSON outputs of one command."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"
_spec = importlib.util.spec_from_file_location("output_diff", TOOL)
output_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)


def runs(a, b, code_a=0, code_b=0):
    return (code_a, json.dumps(a).encode()), (code_b, json.dumps(b).encode())


def test_identical_bytes_and_exit_code():
    doc = {"rows": [{"rho": 0.5, "nu": 1}], "status": "ok"}
    assert output_diff.compare_runs(*runs(doc, doc)) == {"result": "identical"}


def test_float_differences_report_max_abs_rel_and_fields():
    a = {"rows": [{"rho": 0.5, "nu": 1}, {"rho": 0.25, "nu": 2}], "hist": [1.0, 2.0]}
    b = {"rows": [{"rho": 0.5 + 1e-15, "nu": 1}, {"rho": 0.25 + 2e-15, "nu": 2}],
         "hist": [1.0, 2.0]}
    res = output_diff.compare_runs(*runs(a, b))
    assert res["result"] == "floats"
    assert res["max_abs"] == abs(0.25 + 2e-15 - 0.25)
    assert res["max_rel"] == res["max_abs"] / (0.25 + 2e-15)
    assert res["fields"] == ["$.rows[].rho"]


def test_structural_mismatches():
    base = {"n": 27, "status": "converged", "pass": True, "x": 1.0, "l": [1.0], "z": None}
    for change in ({"n": 28}, {"status": "diverged"}, {"pass": False}, {"x": 1},
                   {"x": float("nan")}, {"l": [1.0, 2.0]}, {"z": 0.0}, {"extra": 1}):
        res = output_diff.compare_runs(*runs(base, {**base, **change}))
        assert res["result"] == "mismatch", change
    # a float change beside a structural one is still a mismatch
    res = output_diff.compare_runs(*runs(base, {**base, "x": 2.0, "n": 1}))
    assert res["result"] == "mismatch" and res["details"] == ["$.n: 27 != 1"]


def test_exit_code_formatting_and_non_json():
    doc = {"a": 1.0}
    res = output_diff.compare_runs(*runs(doc, doc, code_b=2))
    assert res == {"result": "mismatch", "details": ["exit code 0 != 2"]}
    res = output_diff.compare_runs((0, b'{"a": 1.0}'), (0, b'{"a":  1.0}'))
    assert res["result"] == "mismatch"
    res = output_diff.compare_runs((2, b""), (2, b"oops"))
    assert res["result"] == "mismatch"
    assert output_diff.compare_runs((2, b""), (2, b"")) == {"result": "identical"}


def test_nan_on_both_sides_is_equal():
    mismatches, floats = output_diff.diff({"r": float("nan")}, {"r": float("nan")})
    assert mismatches == [] and floats == []


def test_summarize_per_command():
    results = [
        (["mg-run", "--n", "27"], {"result": "floats", "max_abs": 1e-15, "max_rel": 2e-15,
                                   "fields": ["$.rows[].rho_lfa"]}),
        (["mg-run", "--n", "81"], {"result": "floats", "max_abs": 3e-15, "max_rel": 1e-15,
                                   "fields": ["$.rows[].rho_lfa"]}),
        (["selftest"], {"result": "identical"}),
    ]
    summary = output_diff.summarize(results)
    row = summary["mg-run"]
    assert (row["identical"], row["floats"], row["mismatch"]) == (0, 2, 0)
    assert row["max_abs"] == 3e-15 and row["max_rel"] == 2e-15
    assert row["fields"] == {"$.rows[].rho_lfa"}
    assert summary["selftest"]["identical"] == 1


def test_config_file_runs_read_the_files_they_name(tmp_path):
    cmds = output_diff.command_matrix(tmp_path)
    named = [c[c.index("--config") + 1] for c in cmds if "--config" in c]
    assert sorted(set(named)) == sorted(str(tmp_path / n) for n in output_diff.CONFIG_FILES)
    assert all(Path(path).read_text() for path in named)


def test_the_matrix_runs_mg_run_at_the_cli_default_size(tmp_path):
    # n = 81 is the largest size whose transfers use dense 1D matrices
    cmds = output_diff.command_matrix(tmp_path)
    sizes = {c[c.index("--n") + 1] for c in cmds if c[0] == "mg-run" and "--n" in c}
    assert {"27", "81", "243"} <= sizes
    assert ["mg-run", "--scheme", "qdr", "--n", "81"] in cmds
    # two-grid cycles at n = 243 solve n = 81 levels exactly, in both modes
    for bc in ("dirichlet", "periodic"):
        assert ["mg-run", "--scheme", "qibsr", "--n", "243", "--bc", bc] in cmds
    # p25t is the default; every other restriction's matrices run end to end too
    for tag in ("r1", "r9", "r9b"):
        assert ["mg-run", "--scheme", "qdr", "--n", "81", "--transfer", tag] in cmds


def test_the_matrix_lists_the_numerical_failures(tmp_path):
    # a huge alpha per scheme and a huge omega: exit code 2 and empty stdout
    cmds = output_diff.command_matrix(tmp_path)
    for scheme in output_diff.SCHEMES:
        assert ["smooth-opt", "--scheme", scheme, "--resolution", "9",
                "--alpha", "1e308"] in cmds
    assert ["twogrid-lfa", "--resolution", "9", "--omega", "1e308"] in cmds
