"""Where the time of a two-grid factor table goes, printed as one JSON document.

    python3 tools/lfa_split.py --resolution 81 --repeats 7
    python3 tools/lfa_split.py --src ../base/src

For each scheme (LFA parameters) the script computes the four factor tables,
one per restriction, with nu = 1-4 at ``--resolution``, on one thread
(``grid.BANDS`` = 1, so the parts add up), and reports per table, as medians
over ``--repeats`` rounds after one untimed round:

- ``table_ms``: one ``two_grid_factor_table`` call;
- ``symbols_ms``: ``twogrid._error_symbols``, the batched symbol build;
- ``matrices_ms``: ``twogrid._error_matrices``, the error matrices ``E``
  assembled from the 3x3 harmonic blocks;
- ``balance_ms``: ``twogrid._balance``, the diagonal similarity before the
  bounds;
- ``bounds_ms``: ``twogrid._radius_bounds``, the power-norm bounds and their
  pruning;
- ``eigvals_ms``: ``np.linalg.eigvals``;
- ``other_ms``: the rest (smoother powers, chunk bookkeeping);
- ``eigvals_kept``: matrices handed to ``eigvals``, of ``eigvals_total``
  (wedge bases times the four counts), summed over the four tables;
- ``bands_table_ms``: one table on ``grid.BANDS`` chunks (the top-level
  ``bands``), with no spans, timed in rounds of its own after the split.

Each part is the summed self time of its routine's spans, recorded through
perfbench's ``Tracer`` (``perfbench/spans.py`` of this checkout): time in a
traced routine that it calls is that routine's, so the parts and
``other_ms`` add up to ``table_ms``.  The tracer keeps one span stack for all
threads, so the traced rounds run on one chunk.  A part whose routine a tree
lacks is null.

``--src`` picks the ``mac3mg`` source tree, so two checkouts can be measured
by the same script; by default it is this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUS = (1, 2, 3, 4)
PARTS = (("symbols_ms", "twogrid", "_error_symbols"),
         ("matrices_ms", "twogrid", "_error_matrices"),
         ("balance_ms", "twogrid", "_balance"),
         ("bounds_ms", "twogrid", "_radius_bounds"),
         ("eigvals_ms", "linalg", "eigvals"))


def lfa_split(scheme: str, resolution: int, repeats: int) -> dict:
    import numpy as np

    from mac3mg import grid, stencils, symbols, twogrid
    from mac3mg.symbols import reference_params
    from mac3mg.twogrid import TransferPair
    from spans import Tracer

    owners = {"twogrid": twogrid, "linalg": np.linalg}
    tracer = Tracer(enabled=True)
    params = reference_params(scheme)
    pairs = [TransferPair(r) for r in stencils.RESTRICTIONS]
    bands, grid.BANDS = grid.BANDS, 1
    rounds = []

    def tables() -> float:
        t0 = time.perf_counter()
        for pair in pairs:
            twogrid.two_grid_factor_table(params, pair, nus=NUS, n=resolution,
                                          h=1.0 / resolution)
        return time.perf_counter() - t0

    def matrices(args, kwargs):
        return None, {"matrices": np.asarray(args[0]).size // 27**2}

    try:
        for key, owner, name in PARTS:
            if hasattr(owners[owner], name):
                tracer.wrap(owners[owner], name, key, matrices if name == "eigvals" else None)
        for r in range(repeats + 1):
            tracer.phase = r  # each span is labelled with its round
            rounds.append({"table_ms": tables()})
    finally:
        grid.BANDS = bands
        tracer.unwrap_all()
    for span in tracer.spans:
        rounds[span.phase][span.name] = rounds[span.phase].get(span.name, 0.0) + span.self_time
    banded = [tables() for _ in range(repeats + 1)][1:]
    out = {"scheme": scheme}
    for key in ("table_ms", *(key for key, _, _ in PARTS)):
        vals = [r[key] for r in rounds[1:] if key in r]
        out[key] = round(statistics.median(vals) / len(pairs) * 1e3, 3) if vals else None
    out["other_ms"] = round(out["table_ms"] - sum(out[k] or 0.0 for k, _, _ in PARTS), 3)
    units = symbols.offset_units(resolution)
    side = int(((units > 0) & (3 * units <= resolution)).sum())
    wedge = side * (side + 1) // 2
    out["eigvals_kept"] = sum(s.attrs["matrices"] for s in tracer.spans
                              if s.name == "eigvals_ms" and s.phase == repeats)
    out["eigvals_total"] = wedge * len(NUS) * len(pairs)
    out["bands_table_ms"] = round(statistics.median(banded) / len(pairs) * 1e3, 3)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution", type=int, default=81)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--schemes", default="qdr,qbsr,qibsr,quzawa")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    results = [lfa_split(s, args.resolution, args.repeats) for s in args.schemes.split(",")]
    from mac3mg import grid

    print(json.dumps({"resolution": args.resolution, "nus": list(NUS), "threads": 1,
                      "bands": grid.BANDS, "repeats": args.repeats, "results": results},
                     indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
