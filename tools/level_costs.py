"""Per-level costs of V(2,0) cycles, printed as one JSON document.

    python3 tools/level_costs.py --n 81,243,729 --schemes qdr,qibsr,quzawa
    python3 tools/level_costs.py --src ../base/src --n 243

For each scheme and finest size n (Dirichlet, ``p25t`` transfers, measured
parameters) the script runs V(2,0) cycles from a seeded random state with a
zero right-hand side and reports, as medians over ``--repeats`` cycles
after at least as many untimed ones and half a second:

- ``cycle_ms``: one whole cycle;
- ``finest_sweep_ms`` and ``finest_residual_ms``: one sweep and one
  ``SaddleSystem.residual`` call on the finest level, inside the cycles (the
  cycle computes each sweep's residual, so a sweep's time holds none);
- ``from_level_ms``: per level size, the time from that level down (the
  cycle's recursion entered at that level, its direct solve included);
- ``share``: two finest sweeps, each with its residual, divided by
  ``cycle_ms``.

``band_speedup_before_after`` times a fixed elementwise load on one thread
and in ``grid.BANDS`` bands before and after the cycles: banded timings mean
little from a run where it fell near or below 1 (another load held a core).

``multigrid._descend``, ``Smoother.sweep`` and ``SaddleSystem.residual``
record spans through perfbench's ``Tracer`` (``perfbench/spans.py`` of this
checkout), each span sized by the level it acts on.  They are wrapped once,
and each repeat then runs one cycle with the tracer off, timed whole for
``cycle_ms``, and one with it on, for the per-level times: so ``cycle_ms``,
the per-level medians and ``share`` come from the same stretch of the run.
The tracer keeps one span stack for all threads, which holds here:
the wrapped calls run on the caller's thread, and the band pool runs only
phase bodies.  ``--src`` picks the ``mac3mg`` source tree, so two checkouts
can be measured by the same script; by default it is this checkout's
``src/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NU1, NU2 = 2, 0
WARM_S = 0.5  # seconds of untimed work before each timing: cycles, or the probe's load


def level_costs(n: int, scheme: str, repeats: int, seed: int = 0) -> dict:
    from mac3mg import grid, multigrid, smoothers
    from mac3mg.symbols import reference_params
    from mac3mg.twogrid import TransferPair
    from spans import Tracer

    hier = multigrid.GridHierarchy(n, "dirichlet", reference_params(scheme, "measured"),
                                   TransferPair("p25t"))
    start = grid.random_state(n, "dirichlet", seed=seed)
    rhs = grid.StaggeredState.zeros(n, "dirichlet")
    state = start.copy()

    def cycle() -> float:
        for f, g in zip((state.u, state.v, state.p), (start.u, start.v, start.p)):
            f[...] = g
        t0 = time.perf_counter()
        multigrid.v_cycle(hier, state, rhs, NU1, NU2)
        return time.perf_counter() - t0

    # the first cycles build what the cycles build lazily
    warm = time.perf_counter() + WARM_S
    for i in itertools.count():
        if i >= repeats and time.perf_counter() > warm:
            break
        cycle()

    tracer, cycles = Tracer(), []
    try:
        tracer.wrap(smoothers.Smoother, "sweep", "sweep", lambda a, kw: (a[0].system.n, {}))
        tracer.wrap(grid.SaddleSystem, "residual", "residual", lambda a, kw: (a[0].n, {}))
        tracer.wrap(multigrid, "_descend", "descend", lambda a, kw: (hier.sizes[a[1]], {}))
        for _ in range(repeats):
            tracer.enabled = False
            cycles.append(cycle())
            tracer.enabled = True
            cycle()
    finally:
        tracer.unwrap_all()
    times: dict = {}
    for span in tracer.spans:
        times.setdefault((span.name, span.n), []).append(span.duration)

    ms = lambda xs: round(statistics.median(xs) * 1e3, 4)  # noqa: E731
    cycle_ms, sweep_ms, residual_ms = ms(cycles), ms(times["sweep", n]), ms(times["residual", n])
    return {
        "scheme": scheme,
        "n": n,
        "cycle_ms": cycle_ms,
        "finest_sweep_ms": sweep_ms,
        "finest_residual_ms": residual_ms,
        "from_level_ms": {str(m): ms(times["descend", m]) for m in hier.sizes},
        "share": round(NU1 * (sweep_ms + residual_ms) / cycle_ms, 3),
    }


def band_speedup(repeats: int = 20) -> float:
    """A fixed elementwise load's median time on one thread over its time in
    ``grid.BANDS`` bands: near the core count while the cores are free, and
    below 1 when a band waits on a core that something else holds."""
    import numpy as np
    from mac3mg import grid

    a = np.random.default_rng(0).random((486, 486))
    b = np.empty_like(a)

    def body(lo: int, hi: int) -> None:
        for _ in range(10):
            np.multiply(a[lo:hi], 1.0001, out=b[lo:hi])
            np.add(b[lo:hi], a[lo:hi], out=b[lo:hi])

    def timed(bands: int) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            grid.run_each(body, grid.cuts(len(a), bands))
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    # a process's new pool thread shares the caller's core for about 0.1 s,
    # until the kernel moves it
    warm = time.perf_counter() + WARM_S
    while time.perf_counter() < warm:
        timed(grid.BANDS)
    return round(timed(1) / timed(grid.BANDS), 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", default="81,243,729", help="finest sizes, comma separated")
    ap.add_argument("--schemes", default="qdr,qbsr,qibsr,quzawa")
    ap.add_argument("--repeats", type=int, default=15, help="cycles per median")
    ap.add_argument("--src", default=str(ROOT / "src"), help="the mac3mg source tree to measure")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import mac3mg
    from mac3mg import grid

    sizes = [int(x) for x in args.n.split(",")]
    schemes = args.schemes.split(",")
    speedup = [band_speedup()]
    results = [level_costs(n, s, args.repeats) for s in schemes for n in sizes]
    speedup.append(band_speedup())
    print(json.dumps({
        "src": str(Path(mac3mg.__file__).resolve().parent),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "bands": grid.BANDS, "cycle": f"V({NU1},{NU2})", "bc": "dirichlet",
        "transfer": "p25t", "params": "measured", "repeats": args.repeats,
        "band_speedup_before_after": speedup,
        "results": results,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
