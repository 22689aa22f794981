"""Run the CLI command matrix in two checkouts and diff their outputs.

    python3 tools/output_diff.py --parent ../base --change .

Each command runs as ``python -m mac3mg.cli ...`` in its checkout, with that
checkout's ``src/`` on ``PYTHONPATH``.  Most end in ``--format json`` and
write to stdout.  The matrix:

- twogrid-lfa: every scheme and restriction, resolutions 27 and 81;
- smooth-opt: every scheme;
- mg-run: n = 27, every scheme, both boundary types; ``qdr`` at the
  CLI's default n = 81 with every restriction, whose cycles run every
  dense-level transfer matrix end to end; ``qibsr`` at n = 243 with
  both boundary types, whose two-grid cycles make n = 81 direct solves; and
  ``qbsr`` at n = 81 and 243 with both boundary types, whose Schur solves
  act on 81 or more points per side;
- compare: n = 27, every scheme;
- selftest;
- config files, written to a temporary directory that both checkouts read:
  an ``mg-run`` and a ``twogrid-lfa`` driven by one, a run whose flags
  override file values (every file run's own ``--format json`` overrides the
  file's ``format = csv``), and bad inputs as flags and as file lines (a bad
  choice, a bad integer, an unknown key, an out-of-range size), whose exit
  codes and empty stdout are compared;
- numerical failures, compared the same way: ``smooth-opt --alpha 1e308``
  for every scheme and ``twogrid-lfa --omega 1e308``;
- the default CSV output, compared as bytes: an ``mg-run`` and a
  ``compare``, whose CSV alone carries the ``two-periodic`` row;
- one ``mg-run --out`` into the temporary directory, compared by the file's
  content (stdout, which should be empty, before it).

Each command gets one of three results.  ``identical`` means the same exit
code and the same stdout bytes.  ``MISMATCH`` is a structural difference:
the exit code, a key, a list length, a type, an int, a string, a boolean, a
null, or a float that is finite on one side only.  ``floats`` means only
finite floats differ; the line gives the largest absolute and relative
differences and the fields where they occur.  A summary per command follows.
No tolerance is applied: the exit status is 1 on any structural mismatch,
else 0, and judging the float differences is left to the reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMES = ("qdr", "qbsr", "qibsr", "quzawa")
TRANSFERS = ("r1", "r9", "r9b", "p25t")
CONFIG_FILES = {
    "mg.cfg": "scheme = qdr\nn = 27\nbc = periodic\nnu = 1,2\nformat = csv\n",
    "lfa.cfg": "scheme = quzawa\ntransfer = r9\nomega = 0.9\nresolution = 27\nformat = csv\n",
    "bad-choice.cfg": "scheme = bogus\n",
    "bad-int.cfg": "n = x\n",
    "bad-key.cfg": "sch = qdr\n",
    "bad-range.cfg": "n = 10\n",
}
JSON = ["--format", "json"]


def command_matrix(tmp: Path) -> list:
    """The commands; the config files they read are written into ``tmp``."""
    for name, text in CONFIG_FILES.items():
        (tmp / name).write_text(text)
    cfg = {name: str(tmp / name) for name in CONFIG_FILES}
    cmds = [["twogrid-lfa", "--scheme", s, "--transfer", t, "--resolution", str(r)]
            for r in (27, 81) for s in SCHEMES for t in TRANSFERS]
    cmds += [["smooth-opt", "--scheme", s] for s in SCHEMES]
    cmds += [["mg-run", "--scheme", s, "--n", "27", "--bc", bc]
             for s in SCHEMES for bc in ("dirichlet", "periodic")]
    # the CLI's default size: every transfer on dense 1D matrices, p25t by default
    cmds.append(["mg-run", "--scheme", "qdr", "--n", "81"])
    cmds += [["mg-run", "--scheme", "qdr", "--n", "81", "--transfer", t] for t in TRANSFERS
             if t != "p25t"]
    # the size the benchmark's two-grid solve runs, over an n = 81 direct solve
    cmds += [["mg-run", "--scheme", "qibsr", "--n", "243", "--bc", bc]
             for bc in ("dirichlet", "periodic")]
    # the Schur solve's fast transforms and wall capacitance at 81 and 243 per side
    cmds += [["mg-run", "--scheme", "qbsr", "--n", n, "--bc", bc]
             for n in ("81", "243") for bc in ("dirichlet", "periodic")]
    cmds += [["compare", "--scheme", s, "--n", "27"] for s in SCHEMES]
    cmds.append(["selftest"])
    cmds += [["mg-run", "--config", cfg["mg.cfg"]],
             ["twogrid-lfa", "--config", cfg["lfa.cfg"]],
             ["twogrid-lfa", "--config", cfg["lfa.cfg"], "--scheme", "qdr", "--nu", "2,3"]]
    cmds += [["twogrid-lfa", "--scheme", "bogus"], ["mg-run", "--n", "x"],
             ["mg-run", "--nu", "1,a"], ["smooth-opt", "--resolution", "10"]]
    cmds += [["mg-run", "--config", cfg[name]]
             for name in ("bad-choice.cfg", "bad-int.cfg", "bad-key.cfg", "bad-range.cfg")]
    cmds += [["smooth-opt", "--scheme", s, "--resolution", "9", "--alpha", "1e308"]
             for s in SCHEMES]
    cmds.append(["twogrid-lfa", "--resolution", "9", "--omega", "1e308"])
    cmds = [cmd + JSON for cmd in cmds]
    # the default CSV, compare's with its two-periodic row, and one file
    cmds += [["mg-run", "--scheme", "qdr", "--n", "27"],
             ["compare", "--scheme", "qdr", "--n", "27"]]
    cmds.append(["mg-run", "--scheme", "quzawa", "--n", "27", *JSON,
                 "--out", str(tmp / "out.json")])
    return cmds


def run_one(checkout: Path, args: list) -> tuple:
    """``(exit code, output bytes)`` of one command in ``checkout``: its
    stdout, followed for an ``--out`` run by the file it wrote, which is then
    removed so that the other checkout's run writes it afresh."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, "-m", "mac3mg.cli", *args],
                          cwd=checkout, env=env, capture_output=True)
    if "--out" not in args:
        return proc.returncode, proc.stdout
    path = Path(args[args.index("--out") + 1])
    written = path.read_bytes() if path.exists() else b""
    path.unlink(missing_ok=True)
    return proc.returncode, proc.stdout + written


def diff(a, b) -> tuple:
    """Structural mismatches and float differences between two JSON values.

    Returns ``(mismatches, floats)``: ``mismatches`` describes each place
    where keys, lengths, types, ints, strings, booleans, nulls or non-finite
    floats differ, and ``floats`` holds ``(path, abs_diff, rel_diff)`` for
    each pair of finite floats that differ.
    """
    mismatches, floats = [], []

    def walk(x, y, p):
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                return
            if math.isfinite(x) and math.isfinite(y):
                d = abs(x - y)
                floats.append((p, d, d / max(abs(x), abs(y))))
            else:
                mismatches.append(f"{p}: {x!r} != {y!r}")
        elif type(x) is not type(y):
            mismatches.append(f"{p}: {type(x).__name__} != {type(y).__name__}")
        elif isinstance(x, dict):
            if x.keys() != y.keys():
                mismatches.append(f"{p}: keys on one side only {sorted(x.keys() ^ y.keys())}")
            for k in sorted(x.keys() & y.keys()):
                walk(x[k], y[k], f"{p}.{k}")
        elif isinstance(x, list):
            if len(x) != len(y):
                mismatches.append(f"{p}: length {len(x)} != {len(y)}")
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{p}[{i}]")
        elif x != y:
            mismatches.append(f"{p}: {x!r} != {y!r}")

    walk(a, b, "$")
    return mismatches, floats


def compare_runs(parent: tuple, change: tuple) -> dict:
    """Classify two ``(exit code, output bytes)`` runs of one command.  Output
    that is not JSON, such as CSV, is identical or a mismatch."""
    if parent == change:
        return {"result": "identical"}
    mismatches = [] if parent[0] == change[0] else [f"exit code {parent[0]} != {change[0]}"]
    try:
        more, floats = diff(json.loads(parent[1]), json.loads(change[1]))
    except ValueError:
        return {"result": "mismatch", "details": mismatches + ["output differs and is not JSON"]}
    mismatches += more
    if not mismatches and not floats:
        mismatches.append("stdout differs in formatting only")
    if mismatches:
        return {"result": "mismatch", "details": mismatches}
    return {"result": "floats",
            "max_abs": max(f[1] for f in floats),
            "max_rel": max(f[2] for f in floats),
            "fields": sorted({re.sub(r"\[\d+\]", "[]", f[0]) for f in floats})}


def summarize(results: list) -> dict:
    """Per command name: result counts, largest float differences, fields."""
    out: dict = {}
    for args, res in results:
        row = out.setdefault(args[0], {"identical": 0, "floats": 0, "mismatch": 0,
                                       "max_abs": 0.0, "max_rel": 0.0, "fields": set()})
        row[res["result"]] += 1
        if res["result"] == "floats":
            row["max_abs"] = max(row["max_abs"], res["max_abs"])
            row["max_rel"] = max(row["max_rel"], res["max_rel"])
            row["fields"].update(res["fields"])
    return out


def describe(res: dict) -> str:
    if res["result"] == "identical":
        return "identical"
    if res["result"] == "mismatch":
        return "MISMATCH " + "; ".join(res["details"][:5])
    return (f"floats max abs {res['max_abs']:.3g} max rel {res['max_rel']:.3g} "
            f"in {', '.join(res['fields'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for cmd in command_matrix(Path(tmp)):
            res = compare_runs(run_one(args.parent, cmd), run_one(args.change, cmd))
            results.append((cmd, res))
            print(f"{' '.join(cmd)}: {describe(res)}", flush=True)
    print("summary:")
    for name, row in summarize(results).items():
        line = (f"  {name}: {row['identical']} identical, {row['floats']} floats, "
                f"{row['mismatch']} mismatch")
        if row["floats"]:
            line += (f"; max abs {row['max_abs']:.3g}, max rel {row['max_rel']:.3g} "
                     f"in {', '.join(sorted(row['fields']))}")
        print(line)
    return 1 if any(res["result"] == "mismatch" for _, res in results) else 0


if __name__ == "__main__":
    sys.exit(main())
