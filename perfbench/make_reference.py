"""Regenerate ``reference.json``: the outputs the benchmark checks against.

Run from the root of a checkout of the commit whose outputs are the
reference (the seed-commit values shipped here come from the commit that
added the benchmark)::

    python3 perfbench/make_reference.py --seeds 0-31

The LFA factors do not depend on the seed and are stored once; the V-cycle
residual histories and the exact-243 iteration counts and rho_m are stored
per seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, cap_blas_threads, import_program


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    parser.add_argument("--workload", action="append",
                        help="only these workloads (default all); others keep their values")
    args = parser.parse_args(argv)
    cap_blas_threads()
    import_program()
    from workloads import WORKLOADS

    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        ctx = wl.setup()
        if wl.finest is None:
            res = wl.run_pass(ctx, 0)
            if res.errors:
                raise SystemExit(f"{name}: {res.errors}")
            reference[name] = wl.record(res)
            continue
        per_seed = {}
        for seed in args.seeds:
            res = wl.run_pass(ctx, seed)
            if res.errors:
                raise SystemExit(f"{name} seed {seed}: {res.errors}")
            per_seed[str(seed)] = wl.record(res)
            print(name, seed, json.dumps(per_seed[str(seed)]), flush=True)
        reference[name] = per_seed
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
