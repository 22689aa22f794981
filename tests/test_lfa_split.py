"""tools/lfa_split.py: the time split of the factor tables at a small resolution."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lfa_split.py"
_spec = importlib.util.spec_from_file_location("lfa_split", TOOL)
lfa_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lfa_split)


def test_lfa_split_at_resolution_27(capsys):
    from mac3mg import grid, twogrid

    wrapped = (twogrid._error_symbols, twogrid._error_matrices, twogrid._balance,
               twogrid._radius_bounds, np.linalg.eigvals, grid.BANDS)
    assert lfa_split.main(["--resolution", "27", "--repeats", "2",
                           "--schemes", "qdr,quzawa"]) == 0
    # the clocks are taken off again, and the chunk count restored
    assert (twogrid._error_symbols, twogrid._error_matrices, twogrid._balance,
            twogrid._radius_bounds, np.linalg.eigvals, grid.BANDS) == wrapped
    out = json.loads(capsys.readouterr().out)
    assert out["resolution"] == 27 and out["threads"] == 1 and out["bands"] == grid.BANDS
    assert [r["scheme"] for r in out["results"]] == ["qdr", "quzawa"]
    for r in out["results"]:
        parts = [r[k] for k in ("symbols_ms", "matrices_ms", "balance_ms", "bounds_ms",
                                "eigvals_ms")]
        # self times: the parts and the rest add up to the table
        assert all(t > 0.0 for t in parts) and sum(parts) < r["table_ms"]
        assert r["other_ms"] > 0.0
        assert abs(sum(parts) + r["other_ms"] - r["table_ms"]) < 0.01
        # the same four tables on the chunks, timed without the clocks
        assert r["bands_table_ms"] > 0.0
        # 15 wedge bases, four counts, four restrictions; one chunk solves
        # its largest bound at the 16th and the 256th power per table and
        # count, and few other bases reach its radius (quzawa's plateau
        # keeps the most: 31 of 240)
        assert r["eigvals_total"] == 15 * 4 * 4
        assert 16 <= r["eigvals_kept"] <= 0.15 * r["eigvals_total"]


def test_a_raising_eigvals_leaves_the_routines_and_bands_as_they_were(monkeypatch):
    from mac3mg import grid, twogrid

    def failing_eigvals(a):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    wrapped = (twogrid._error_symbols, twogrid._error_matrices, twogrid._balance,
               twogrid._radius_bounds, np.linalg.eigvals, grid.BANDS)
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        lfa_split.main(["--resolution", "27", "--repeats", "1", "--schemes", "qdr"])
    assert (twogrid._error_symbols, twogrid._error_matrices, twogrid._balance,
            twogrid._radius_bounds, np.linalg.eigvals, grid.BANDS) == wrapped
