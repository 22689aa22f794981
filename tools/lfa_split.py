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
  ``bands``), with no clocks, timed in rounds of its own after the split.

Each part is the self time of its routine: time in a clocked routine that it
calls is that routine's, so the parts and ``other_ms`` add up to
``table_ms``.  A part whose routine a tree lacks is null.

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

    owners = {"twogrid": twogrid, "linalg": np.linalg}
    spent, kept, saved, inner = {}, [0], [], []

    def clock(key, owner, name):
        fn = getattr(owner, name)

        def timed(*args):
            inner.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                dt = time.perf_counter() - t0
                spent[key] = spent.get(key, 0.0) + dt - inner.pop()
                if inner:
                    inner[-1] += dt
                if key == "eigvals_ms":
                    kept[0] += np.asarray(args[0]).size // 27**2

        saved.append((owner, name, fn))
        setattr(owner, name, timed)

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

    try:
        for key, owner, name in PARTS:
            if hasattr(owners[owner], name):
                clock(key, owners[owner], name)
        for _ in range(repeats + 1):
            spent.clear()
            kept[0] = 0
            rounds.append({"table_ms": tables(), **spent})
    finally:
        grid.BANDS = bands
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)
    banded = [tables() for _ in range(repeats + 1)][1:]
    rounds = rounds[1:]
    out = {"scheme": scheme}
    for key in ("table_ms", *(key for key, _, _ in PARTS)):
        vals = [r[key] for r in rounds if key in r]
        out[key] = round(statistics.median(vals) / len(pairs) * 1e3, 3) if vals else None
    out["other_ms"] = round(out["table_ms"] - sum(out[k] or 0.0 for k, _, _ in PARTS), 3)
    units = symbols.offset_units(resolution)
    side = int(((units > 0) & (3 * units <= resolution)).sum())
    wedge = side * (side + 1) // 2
    out["eigvals_kept"] = kept[0]
    out["eigvals_total"] = wedge * len(NUS) * len(pairs)
    out["bands_table_ms"] = round(statistics.median(banded) / len(pairs) * 1e3, 3)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution", type=int, default=81)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--schemes", default="qdr,qbsr,qibsr,quzawa")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    results = [lfa_split(s, args.resolution, args.repeats) for s in args.schemes.split(",")]
    from mac3mg import grid

    print(json.dumps({"resolution": args.resolution, "nus": list(NUS), "threads": 1,
                      "bands": grid.BANDS, "repeats": args.repeats, "results": results},
                     indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
