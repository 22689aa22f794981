"""Run perfbench on two checkouts, alternating which goes first, into one file.

    python3 tools/bench_pair.py --parent ../base --change . \
        --workload vcycle-729 --seeds 1,2,3 --out BENCH_transfers.json

Each checkout runs its own ``perfbench/run.py`` (which imports that
checkout's ``src/``).  For the i-th seed the parent goes first when i is
even and the change when i is odd.  After every run its ``env:`` line and
result line are appended to ``--out`` (created if missing), the file's
``summary`` is recomputed over all its runs, and the file is rewritten, so
a crash keeps the runs before it; a crashed run prints the tail of its
stderr and exits 1.  The summary gives, per workload and trace mode, each
metric's median on both sides, their ratio (change / parent) and, for
untraced runs, the number of seeds where the change was better, the
distance between the parent's quartiles and ``gain_shown``: the change won
at least 9 in 10 of the seeds and its median is better by more than that
distance.  Each untraced metric also gets a ``verdict``, judged by its
``better`` and ``bound`` in this checkout's ``BENCHMARK.json``:

- ``worse``: the change's median is worse than the parent's by more than
  ``bound`` times the parent's median;
- ``unresolved``: otherwise, when the parent's quartiles lie further apart
  than ``bound`` times its median (or one seed gives none) and not every
  change run is better than every parent run;
- ``held``: every other case.

Each untraced run also records its pass count (the length of
``pass_s`` on its ``timing:`` line), and the summary gives the median per
side: ``peak_rss_mb`` can grow with the passes a run fits in its time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class RunFailed(Exception):
    pass


def run_one(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise RunFailed(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{tail}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[len("env: "):]) for line in lines if line.startswith("env: "))
    timing = [json.loads(line[len("timing: "):]) for line in lines
              if line.startswith("timing: ")]
    return {"env": env, "result": json.loads(lines[-1]),
            "passes": len(timing[0]["pass_s"]) if timing else None}


def end_to_end() -> dict:
    """Each end-to-end metric's entry (``better``, ``bound``) in BENCHMARK.json, by name."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["end_to_end"]}


def verdict(a: list, b: list, sign: int, bound: float, iqr) -> str:
    """``a`` the parent's values and ``iqr`` their quartile distance (None for
    one seed), ``b`` the change's; ``sign`` is 1 when higher is better."""
    med_a = statistics.median(a)
    if sign * (statistics.median(b) - med_a) < -bound * med_a:
        return "worse"
    noisy = iqr is None or iqr > bound * med_a
    if noisy and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved"
    return "held"


def summarize(runs: list) -> list:
    judged = end_to_end()
    groups: dict = {}
    for run in runs:
        key = (run["workload"], run["trace"])
        groups.setdefault(key, {}).setdefault(run["side"], {})[run["seed"]] = run
    out = []
    for (workload, trace), sides in sorted(groups.items()):
        parent, change = sides.get("parent", {}), sides.get("change", {})
        seeds = sorted(set(parent) & set(change))
        row = {"workload": workload, "trace": trace, "seeds": seeds, "metrics": {}}
        for name in (parent[seeds[0]]["result"]["metrics"] if seeds else {}):
            a = [parent[s]["result"]["metrics"][name]["value"] for s in seeds]
            b = [change[s]["result"]["metrics"][name]["value"] for s in seeds]
            med_a, med_b = statistics.median(a), statistics.median(b)
            entry = {"parent": med_a, "change": med_b,
                     "ratio": med_b / med_a if med_a else None}
            if not trace:
                sign = 1 if judged[name]["better"] == "higher" else -1
                entry["change_better"] = sum(sign * (y - x) > 0 for x, y in zip(a, b))
                if len(a) > 1:
                    q1, _, q3 = statistics.quantiles(a, n=4)
                    entry["parent_iqr"] = q3 - q1
                    entry["gain_shown"] = (10 * entry["change_better"] >= 9 * len(a)
                                           and sign * (med_b - med_a) > q3 - q1)
                entry["verdict"] = verdict(a, b, sign, judged[name]["bound"],
                                           entry.get("parent_iqr"))
            row["metrics"][name] = entry
        if not trace:  # runs recorded before pass counts were kept have none
            counts = {side: [recs[s]["passes"] for s in seeds if recs[s].get("passes")]
                      for side, recs in (("parent", parent), ("change", change))}
            row["passes"] = {side: statistics.median(c) if c else None
                             for side, c in counts.items()}
        row["all_correct"] = all(r["result"]["correct"] and r["result"]["failed"] == 0
                                 for side in (parent, change) for r in side.values())
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                rec = run_one(getattr(args, side), args.workload, seed, args.seconds,
                              args.trace)
            except RunFailed as exc:
                print(f"run failed: {exc}", file=sys.stderr)
                return 1
            doc["runs"].append({"side": side, "workload": args.workload, "seed": seed,
                                "trace": args.trace, "first": side == order[0], **rec})
            doc["summary"] = summarize(doc["runs"])
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(side, args.workload, seed, json.dumps(rec["result"])[:160], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
