"""Command line front end for the smoothing analysis and multigrid runs.

Commands
--------
smooth-opt   analytic optimal parameters next to the sampled smoothing factor
twogrid-lfa  predicted two-grid convergence factors rho(nu) for nu = 1..4
mg-run       measured two-grid and V-cycle convergence factors on a real grid
compare      mg-run plus LFA predictions plus a periodic cross-validation
selftest     fast internal consistency checks (exit 3 on mismatch)

Configuration may come from ``--config FILE`` holding ``key = value`` lines
(keys are the long flag names: scheme, transfer, nu, n, bc, omega, alpha,
sigma, omega-j, resolution, seed, out, format; ``#`` starts a comment).  Each
line is parsed as the flag ``--key=value`` by the same parser as the command
line, which takes no abbreviations, and flags override file values.  Every
bad input prints ``config error: ...`` and exits 1.  Environment variables
are never consulted, and no timestamps are emitted, so rerunning a command
with the same configuration reproduces the output byte for byte.

Output is CSV (one row per table cell, values rounded to three decimals,
configuration carried in columns) or JSON (raw values, full configuration
echo, and per-iteration residual histories for the measured runs).

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 selftest mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from . import analytic
from .grid import check_size
from .multigrid import GridHierarchy, solve
from .stencils import RESTRICTIONS
from .symbols import (SCHEMES, RelaxParams, check_resolution, reference_params,
                      smoothing_factor)
from .twogrid import TransferPair, two_grid_factor_table


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


@dataclass
class ExperimentConfig:
    command: str
    scheme: str = "qibsr"
    transfer: str = "p25t"
    nus: tuple = (1, 2, 3, 4)
    n: int = 81
    bc: str = "dirichlet"
    omega: float | None = None
    alpha: float | None = None
    sigma: float | None = None
    omega_j: float | None = None
    resolution: int = 81
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        if not self.nus or any(nu < 1 for nu in self.nus):
            raise ConfigError("nu list must contain positive integers")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        try:
            check_size(self.n)
            check_resolution(self.resolution)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.n < 9:
            raise ConfigError(f"grid size {self.n} has one level, cycles need n >= 9")
        resolve_params(self, "lfa")  # both purposes check the overrides alike


def _parse_nus(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad nu list {text!r}: {exc}") from None


def load_config_file(path: str) -> dict:
    """Read the key = value configuration format."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file values and flags (highest precedence); a
    file line ``key = value`` parses as the flag ``--key=value``.  The file's
    values are checked on their own first, so a parse or range error in the
    file names it, whether or not a flag overrides the value."""
    def merged(*layers) -> ExperimentConfig:
        cfg = ExperimentConfig(**{key: value for layer in layers
                                  for key, value in vars(layer).items()
                                  if value is not None and key != "config"})
        cfg.validate()
        return cfg

    if not args.config:
        return merged(args)
    tokens = {f"--{key.replace('_', '-')}={value}": key
              for key, value in load_config_file(args.config).items()}
    try:
        parsed, unknown = make_parser().parse_known_args([args.command, *tokens])
        if unknown or parsed.config is not None:
            key = tokens[unknown[0]] if unknown else "config"
            raise ConfigError(f"unknown config key {key!r}")
        merged(parsed)
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    return merged(parsed, args)


def resolve_params(cfg: ExperimentConfig, purpose: str) -> RelaxParams:
    """Reference parameters for the scheme with any overrides applied."""
    base = reference_params(cfg.scheme, purpose)
    try:
        return RelaxParams(
            scheme=cfg.scheme,
            omega=base.omega if cfg.omega is None else cfg.omega,
            alpha=base.alpha if cfg.alpha is None else cfg.alpha,
            sigma=base.sigma if cfg.sigma is None else cfg.sigma,
            omega_j=base.omega_j if cfg.omega_j is None else cfg.omega_j,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _params_record(params: RelaxParams) -> dict:
    rec = {"omega": params.omega, "alpha": params.alpha}
    if params.sigma is not None:
        rec["sigma"] = params.sigma
    if params.omega_j is not None:
        rec["omega_j"] = params.omega_j
    return rec


def _emit(cfg: ExperimentConfig, rows: list, extras: dict | None = None) -> None:
    """Write rows as CSV or a full JSON report to cfg.out or stdout."""
    if cfg.fmt == "csv":
        buf = io.StringIO()
        fieldnames = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            rendered = {}
            for key, value in row.items():
                if isinstance(value, float):
                    rendered[key] = "nan" if math.isnan(value) else f"{value:.3f}"
                else:
                    rendered[key] = value
            writer.writerow(rendered)
        text = buf.getvalue()
    else:
        report = {"config": asdict(cfg), "rows": rows}
        if extras:
            report.update(extras)
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=True) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_smooth_opt(cfg: ExperimentConfig) -> int:
    """Analytic optimum beside the sampled smoothing factor at the optimum."""
    optima = {
        "qdr": analytic.optimal_qdr,
        "qbsr": analytic.optimal_qbsr,
        "qibsr": analytic.optimal_qbsr,
        "quzawa": analytic.optimal_uzawa,
    }
    result = optima[cfg.scheme]()
    params = resolve_params(cfg, "lfa")
    with _numerical("eigensolver failure"):
        sampled = smoothing_factor(params, n=cfg.resolution)
    row = {
        "scheme": cfg.scheme,
        "mu_analytic": result.mu_opt,
        "mu_sampled": sampled,
        "gap": abs(sampled - result.mu_opt),
        "ratio": None if result.ratio is None else float(result.ratio),
        "resolution": cfg.resolution,
        **_params_record(params),
    }
    _emit(cfg, [row], {"mu_rational": str(result.mu_rational), "under_root": result.under_root})
    return 0


@contextmanager
def _numerical(what: str):
    """A ``LinAlgError`` inside is a numerical failure (exit 2), not a traceback."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: {exc}") from None


def _factor_table(cfg: ExperimentConfig, params: RelaxParams, pair: TransferPair) -> dict:
    """Two-grid factor table at the configured resolution."""
    with _numerical("eigensolver failure"):
        return two_grid_factor_table(params, pair, nus=tuple(sorted(set(cfg.nus))),
                                     n=cfg.resolution, h=1.0 / cfg.resolution)


def cmd_twogrid_lfa(cfg: ExperimentConfig) -> int:
    """Predicted two-grid factors rho(nu) for the configured transfer pair."""
    params = resolve_params(cfg, "lfa")
    table = _factor_table(cfg, params, TransferPair(cfg.transfer))
    rows = []
    for nu in sorted(table):
        rows.append({
            "scheme": cfg.scheme,
            "transfer": cfg.transfer,
            "nu": nu,
            "rho_lfa": table[nu],
            "resolution": cfg.resolution,
            **_params_record(params),
        })
    _emit(cfg, rows)
    return 0


def _measured_rows(cfg: ExperimentConfig, cycles=("two", "v")):
    """Run the solver for every (cycle, nu) cell; divergence is per-cell."""
    params = resolve_params(cfg, "measured")
    pair = TransferPair(cfg.transfer)
    hier = GridHierarchy(cfg.n, cfg.bc, params, pair)
    lfa = _factor_table(cfg, params, pair)
    rows, histories, failed = [], {}, False
    for cycle in cycles:
        for nu in sorted(set(cfg.nus)):
            with _numerical("direct solve failure"):
                report = solve(hier, nu, 0, cycle=cycle, seed=cfg.seed)
            failed = failed or report.diverged
            rows.append({
                "scheme": cfg.scheme,
                "transfer": cfg.transfer,
                "cycle": cycle,
                "nu": nu,
                "rho_m": report.rho_m if not report.diverged else float("nan"),
                "rho_lfa": lfa[nu],
                "iterations": report.iterations,
                "status": report.status,
                "n": cfg.n,
                "bc": cfg.bc,
                "seed": cfg.seed,
                **_params_record(params),
            })
            histories[f"{cycle}-nu{nu}"] = list(report.residual_norms)
    return params, rows, histories, failed


def cmd_mg_run(cfg: ExperimentConfig) -> int:
    """Measured two-grid and V-cycle factors beside the LFA prediction."""
    _, rows, histories, failed = _measured_rows(cfg)
    _emit(cfg, rows, {"residual_histories": histories})
    return 2 if failed else 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    """Measured versus predicted report plus a periodic cross-validation.

    The periodic check takes the spectral radius of the two-grid nu = 1 cycle
    by Arnoldi on a small torus, where boundary effects are absent, so it
    must land on the LFA lattice prediction within 1e-6.
    """
    from .multigrid import cycle_spectral_radius
    from .twogrid import periodic_lattice_factor

    params, rows, histories, failed = _measured_rows(cfg)
    n_per = min(cfg.n, 27)
    pair = TransferPair(cfg.transfer)
    hier = GridHierarchy(n_per, "periodic", params, pair)
    with _numerical("periodic check failure"):
        measured, cycles = cycle_spectral_radius(hier, 1, 0, "two", seed=cfg.seed)
        rho_h = periodic_lattice_factor(params, pair, 1, 0, n=n_per)
    gap = abs(measured - rho_h)
    ok = bool(math.isfinite(measured) and gap <= 1e-6)
    periodic = {"n": n_per, "nu": 1, "rho_m": measured, "rho_lfa_lattice": rho_h,
                "gap": gap, "pass": ok}
    if cfg.fmt == "csv":
        # the measured rows' columns, in their order
        rows.append({**rows[0], "cycle": "two-periodic", "nu": 1, "rho_m": measured,
                     "rho_lfa": rho_h, "iterations": cycles,
                     "status": "pass" if ok else "fail", "n": n_per, "bc": "periodic"})
    _emit(cfg, rows, {"residual_histories": histories, "periodic_check": periodic})
    return 2 if (failed or not math.isfinite(measured)) else 0


def cmd_selftest(cfg: ExperimentConfig) -> int:
    """Fast consistency checks; exit 3 when any expectation fails."""
    from .multigrid import assemble_two_grid_matrix
    from .twogrid import periodic_lattice_factor

    checks = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append({"check": name, "pass": bool(ok), "detail": detail})

    r = analytic.optimal_qdr()
    record("analytic-rationals",
           r.mu_rational == Fraction(17, 47) and r.ratio == Fraction(36, 47),
           f"mu={r.mu_rational} ratio={r.ratio}")
    record("uzawa-reference-point",
           analytic.uzawa_params_from_omega(1) == (Fraction(47, 36), Fraction(15, 32)),
           "omega=1 maps to (47/36, 15/32)")

    sampled = smoothing_factor(reference_params("qbsr", "lfa"), n=81)
    record("sampled-smoothing", abs(sampled - 17.0 / 47.0) <= 1e-3,
           f"sampled={sampled:.6f} analytic={17.0 / 47.0:.6f}")

    params = reference_params("qibsr", "measured")
    pair = TransferPair("p25t")
    rho = np.abs(np.linalg.eigvals(assemble_two_grid_matrix(9, params, pair, 1, 0))).max()
    lattice = periodic_lattice_factor(params, pair, 1, 0, n=9)
    record("periodic-equivalence", abs(rho - lattice) <= 1e-8,
           f"matrix={rho:.10f} lattice={lattice:.10f}")

    ratio = analytic.cost_ratio()
    record("cost-ratio", abs(ratio - 2.78) <= 0.01, f"ratio={ratio:.6f}")

    rows = [{"check": c["check"], "status": "pass" if c["pass"] else "FAIL",
             "detail": c["detail"]} for c in checks]
    _emit(cfg, rows, {"checks": checks})
    return 0 if all(c["pass"] for c in checks) else 3


COMMANDS = {
    "smooth-opt": cmd_smooth_opt,
    "twogrid-lfa": cmd_twogrid_lfa,
    "mg-run": cmd_mg_run,
    "compare": cmd_compare,
    "selftest": cmd_selftest,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a bad flag, value or command
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    """The parser of the command line and of config file lines; flags are
    taken by their full names only."""
    parser = _Parser(
        prog="mac3mg",
        allow_abbrev=False,
        description="Smoothing analysis and multigrid experiments for the "
        "staggered Stokes discretization with coarsening by three.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower(), allow_abbrev=False)
        p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("--transfer", choices=tuple(RESTRICTIONS))
        p.add_argument("--nu", type=_parse_nus, dest="nus", metavar="NU", help="e.g. 1,2,3,4")
        p.add_argument("--n", type=int, help="finest grid cells per side")
        p.add_argument("--bc", choices=("dirichlet", "periodic"))
        p.add_argument("--omega", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--omega-j", dest="omega_j", type=float)
        p.add_argument("--resolution", type=int, help="frequency samples per axis for LFA sweeps")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
        p.add_argument("--config", help="key = value config file")
    return parser


def main(argv=None) -> int:
    try:
        cfg = build_config(make_parser().parse_args(argv))
        return COMMANDS[cfg.command](cfg)
    except SystemExit as exc:  # --help; a bad input raises ConfigError
        return exc.code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
