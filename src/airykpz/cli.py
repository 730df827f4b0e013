"""Batch command-line surface.

One subcommand per verification suite; each emits a machine-readable
table (CSV or JSON) with one row per grid cell, and exits 0 exactly when
every row meets its tolerance.  Failing rows are enumerated on stderr.
Output is byte-stable for identical configuration (including the seed).
A cell reads a result shared with other cells (an Airy or KPZ moment
series or a K_u matrix per C, an F2(a)) with ``errors.value``, so a
refusal is its error row.
A C, T or u that ``ModelParams`` refuses, an order that ``errors.check_order``
refuses and an unwritable ``--out`` raise for the whole command instead: a
usage error (exit 2), before any row and before any Monte Carlo draw.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .airy_side import airy_h_moments, airy_mult_stat, tracy_widom_f2
from .errors import AiryKpzError, ConfigurationError, check_order, checked_exp, outcome, value
from .kpz_side import kpz_laplaces, kpz_moments
from .params import ModelParams
from .quadrature import FREDHOLM_NODES, MOMENT_RTOL, gauss_legendre

__all__ = ["RunConfig", "VerificationRow", "main",
           "run_verify_theorem1", "run_verify_theorem2", "run_tw_limit", "run_mc_check"]

_VALUE_COLS = ("lhs_value", "rhs_value", "abs_diff", "rel_diff", "aux", "status")


@dataclass
class RunConfig:
    command: str
    C_list: list = field(default_factory=list)
    u_list: list = field(default_factory=list)
    a_list: list = field(default_factory=list)
    T_list: list = field(default_factory=list)
    k_max: int = 3
    nodes: int = 0              # 0 = module defaults
    samples: int = 2000
    matrix_size: int = 400
    keep_top: int = 48
    seed: int = 12345
    tol: float = 0.0            # 0 = command default
    format: str = "csv"
    output_path: str = "-"


@dataclass
class VerificationRow:
    labels: dict
    lhs_value: float = math.nan
    rhs_value: float = math.nan
    aux: str = ""
    passed: bool = True
    error: str = ""

    @property
    def status(self) -> str:
        if self.error:
            return f"error: {self.error}"
        return "ok" if self.passed else "fail"

    @property
    def abs_diff(self) -> float:
        return abs(self.lhs_value - self.rhs_value)

    @property
    def rel_diff(self) -> float:
        return self.abs_diff / max(abs(self.rhs_value), 1e-300)

    def as_dict(self, label_names) -> dict:
        d = {name: self.labels.get(name, "") for name in label_names}
        d.update(lhs_value=self.lhs_value, rhs_value=self.rhs_value,
                 abs_diff=self.abs_diff, rel_diff=self.rel_diff,
                 aux=self.aux, status=self.status)
        return d


def _row_or_error(labels: dict, cell, *args) -> VerificationRow:
    """The row ``cell(labels, *args)`` builds, or the error row naming what
    it raised, so one bad cell does not stop the grid."""
    try:
        return cell(labels, *args)
    except AiryKpzError as exc:
        return VerificationRow(labels=labels, error=f"{type(exc).__name__}: {exc}",
                               passed=False)


def _derive_grid(cfg: RunConfig) -> list[tuple[float, float]]:
    """(C, T) pairs from whichever list was supplied; a non-positive C or T
    raises DomainError."""
    if bool(cfg.C_list) == bool(cfg.T_list):
        raise ConfigurationError("supply one nonempty list: either --C or --T")
    if cfg.C_list:
        return [(C, ModelParams.from_C(C, 0.0).T) for C in cfg.C_list]
    return [(ModelParams.from_T(T, 0.0).C, T) for T in cfg.T_list]


def _check_overrides(cfg: RunConfig) -> None:
    """--nodes is 0 (default) or an order gauss_legendre takes, --tol 0 or
    finite positive; anything else is a usage error, raised before any cell."""
    if cfg.nodes < 0:
        raise ConfigurationError(f"--nodes must be >= 0 (0 = default), got {cfg.nodes}")
    if cfg.nodes:
        gauss_legendre(cfg.nodes)
    if not 0.0 <= cfg.tol < math.inf:
        raise ConfigurationError(f"--tol must be finite and >= 0 (0 = default), got {cfg.tol}")


def _no_cells(command: str) -> ConfigurationError:
    return ConfigurationError(f"{command}: the grid has no cells, so nothing would be checked")


def run_verify_theorem2(cfg: RunConfig) -> list[VerificationRow]:
    """Moment identity: airy_h_moment(k, C) vs kpz_moment(k, T=2C^3)."""
    check_order("verify-theorem2 --k-max", cfg.k_max)
    _check_overrides(cfg)
    nodes = cfg.nodes or None
    tol = cfg.tol or MOMENT_RTOL

    def cell(labels, lhs, rhs):
        row = VerificationRow(labels=labels, lhs_value=value(lhs), rhs_value=value(rhs),
                              aux=f"tol={tol:g};nodes={cfg.nodes or 'auto'}")
        row.passed = row.rel_diff < tol
        return row

    # one series per side and C: the Airy one at the highest order its grid
    # supports, the KPZ one up to its first refused order
    return [_row_or_error({"C": C, "T": T, "k": k}, cell, lhs, rhs)
            for C, T in _derive_grid(cfg)
            for k, (lhs, rhs) in enumerate(zip(airy_h_moments(cfg.k_max, C, nodes),
                                               kpz_moments(cfg.k_max, T, nodes)), start=1)]


def run_verify_theorem1(cfg: RunConfig) -> list[VerificationRow]:
    """Laplace identity: airy_mult_stat(u, C) vs kpz_laplaces(C, us), T = 2C^3."""
    _check_overrides(cfg)
    n = cfg.nodes or FREDHOLM_NODES
    tol = cfg.tol or 1e-6

    def cell(labels, C, u, rhs):
        row = VerificationRow(labels=labels,
                              lhs_value=airy_mult_stat(ModelParams.from_C(C, u), n),
                              rhs_value=value(rhs),
                              aux=f"tol={tol:g};nodes={n}")
        row.passed = row.abs_diff < tol
        return row

    # one K_u Airy matrix per C, on the grid of its largest u that fits
    return [_row_or_error({"C": C, "T": T, "u": u}, cell, C, u, rhs)
            for C, T in _derive_grid(cfg)
            for u, rhs in zip(cfg.u_list, kpz_laplaces(C, cfg.u_list, n))]


def run_tw_limit(cfg: RunConfig) -> list[VerificationRow]:
    """Large-time limit: the multiplicative statistic at
    u = exp(-(T/2)^(1/3) a) against the Tracy-Widom law F2(a); the gap
    must shrink along the increasing T ladder."""
    if any(not -6.0 <= a <= 4.0 for a in cfg.a_list):
        raise ConfigurationError("a values must lie in [-6, 4]")
    _check_overrides(cfg)
    T_list = cfg.T_list or [8.0, 64.0, 512.0]
    if any(t2 <= t1 for t1, t2 in zip(T_list, T_list[1:])):
        raise ConfigurationError("the T ladder must be increasing")
    ladder = [(T, ModelParams.from_T(T, 0.0).C) for T in T_list]
    tol = cfg.tol or 0.05

    def cell(labels, a, C, f2, prev, last):
        u = checked_exp(f"tw-limit at a = {a}, C = {C}: u =", -C * a)
        lhs = airy_mult_stat(ModelParams.from_C(C, u))
        row = VerificationRow(labels=labels, lhs_value=lhs, rhs_value=value(f2))
        ok_mono = prev is None or row.abs_diff <= prev + 1e-12
        row.aux = f"tol={tol:g};nonincreasing={'na' if prev is None else str(ok_mono).lower()}"
        row.passed = ok_mono and (not last or row.abs_diff < tol)
        return row

    rows = []
    for a in cfg.a_list:
        f2 = outcome(tracy_widom_f2, a)     # one F2(a) for the whole ladder
        prev = None
        for i, (T, C) in enumerate(ladder):
            row = _row_or_error({"a": a, "T": T, "C": C}, cell, a, C, f2, prev,
                                i == len(ladder) - 1)
            prev = None if row.error else row.abs_diff
            rows.append(row)
    return rows


def run_mc_check(cfg: RunConfig) -> list[VerificationRow]:
    """Monte Carlo estimates against the analytic Airy-side pipeline."""
    # imported here, not at module level: montecarlo loads scipy, which no
    # other subcommand needs
    from .montecarlo import (MAX_H_ORDER, MIN_KEPT, _check_draw, draw_edge_samples,
                             estimate_h_moment, estimate_mult_stat)

    if cfg.samples < 100:
        raise ConfigurationError("mc-check needs at least 100 samples")
    # known before any draw: every estimator row would reject the samples,
    # some h_k row would reject its order, or the grid would yield no row
    if cfg.keep_top < MIN_KEPT:
        raise ConfigurationError(f"mc-check needs --keep-top >= {MIN_KEPT}; the estimators "
                                 f"reject fewer kept points per draw")
    if cfg.k_max:   # 0 asks for no h_k row
        check_order("mc-check --k-max", cfg.k_max, MAX_H_ORDER)
    _check_overrides(cfg)
    grid = _derive_grid(cfg)
    if not cfg.k_max and not cfg.u_list:
        raise _no_cells(cfg.command)
    # the draw's own argument check: a bad --seed stays a usage error even
    # when no cell needs samples
    _check_draw(cfg.matrix_size, cfg.keep_top, cfg.seed, 0)

    def h_moment_cell(labels, ref, k, C):
        ref = value(ref)
        est = estimate_h_moment(samples, k, C)
        tol = max(3.0 * est.stderr, (cfg.tol or 0.07) * abs(ref))
        row = VerificationRow(labels=labels, lhs_value=est.mean, rhs_value=ref,
                              aux=f"stderr={est.stderr:.6g};tol={tol:.6g}"
                                  f";samples={est.n_samples}")
        row.passed = row.abs_diff <= tol
        return row

    def mult_stat_cell(labels, ref, u, C):
        ref = value(ref)
        est = estimate_mult_stat(samples, u, C)
        tol = max(3.0 * est.stderr, cfg.tol or 0.03)
        row = VerificationRow(labels=labels, lhs_value=est.mean, rhs_value=ref,
                              aux=f"stderr={est.stderr:.6g};bias={est.bias_bound:.3g}"
                                  f";flagged={str(est.flagged).lower()};tol={tol:.6g}"
                                  f";samples={est.n_samples}")
        row.passed = row.abs_diff <= tol and not est.flagged
        return row

    # a bad u is refused by its ModelParams here, as a usage error, before
    # any series; every deterministic reference comes before the draw, so a
    # cell whose reference raises is an error row that needs no samples
    params = [[ModelParams.from_C(C, u) for u in cfg.u_list] for C, _ in grid]
    cells = []
    for (C, T), ps in zip(grid, params):
        refs = airy_h_moments(cfg.k_max, C) if cfg.k_max else []   # none at --k-max 0
        cells += [({"kind": "h_moment", "param": k, "C": C, "T": T}, h_moment_cell, ref, k, C)
                  for k, ref in enumerate(refs, start=1)]
        cells += [({"kind": "mult_stat", "param": u, "C": C, "T": T}, mult_stat_cell,
                   outcome(airy_mult_stat, p), u, C) for u, p in zip(cfg.u_list, ps)]
    samples = (draw_edge_samples(cfg.matrix_size, cfg.keep_top, cfg.seed, cfg.samples)
               if any(not isinstance(cell[2], Exception) for cell in cells) else None)
    return [_row_or_error(labels, cell, ref, param, C) for labels, cell, ref, param, C in cells]


# per subcommand: its runner, its label columns and the flags the runner
# reads (--format and --out apply to all)
COMMANDS = {
    "verify-theorem2": (run_verify_theorem2, ("C", "T", "k"),
                        ("--C", "--T", "--k-max", "--nodes", "--tol")),
    "verify-theorem1": (run_verify_theorem1, ("C", "T", "u"),
                        ("--C", "--T", "--u", "--nodes", "--tol")),
    "tw-limit": (run_tw_limit, ("a", "T", "C"), ("--a", "--T", "--tol")),
    "mc-check": (run_mc_check, ("kind", "param", "C", "T"),
                 ("--C", "--T", "--u", "--k-max", "--samples", "--matrix-size",
                  "--keep-top", "--seed", "--tol")),
}


# ----------------------------------------------------------------------
# rendering

def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def render(rows: list[VerificationRow], command: str, fmt: str) -> str:
    _, labels, _ = COMMANDS[command]
    names = labels + _VALUE_COLS
    if fmt == "json":
        # NaN from error rows is not a JSON literal
        payload = [{key: None if isinstance(val, float) and not math.isfinite(val) else val
                    for key, val in row.as_dict(labels).items()} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")   # quotes the commas of error statuses
    writer.writerow(names)
    for row in rows:
        d = row.as_dict(labels)
        writer.writerow([_fmt(d[name]) for name in names])
    return out.getvalue()


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


_FLAGS = {
    "--C": dict(dest="C_list", type=_parse_float_list, help="comma list of Airy scalings C"),
    "--T": dict(dest="T_list", type=_parse_float_list,
                help="comma list of KPZ times T (T = 2C^3)"),
    "--u": dict(dest="u_list", type=_parse_float_list,
                help="comma list of Laplace variables u"),
    "--a": dict(dest="a_list", type=_parse_float_list,
                help="comma list of reference points a"),
    "--k-max": dict(type=int),
    "--nodes": dict(type=int, help="quadrature resolution override (0 = defaults)"),
    "--samples": dict(type=int),
    "--matrix-size": dict(type=int),
    "--keep-top": dict(type=int),
    "--seed": dict(type=int),
    "--tol": dict(type=float, help="tolerance override (0 = command default)"),
    "--format": dict(choices=("csv", "json")),
    "--out": dict(dest="output_path", help="output path (default: stdout)"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="airykpz",
        description="Verify the KPZ/Airy one-point identities numerically.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (runner, _, flags) in COMMANDS.items():
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        # flags left out keep their RunConfig defaults
        sp = sub.add_parser(name, help=doc, description=doc,
                            argument_default=argparse.SUPPRESS)
        for flag in flags + ("--format", "--out"):
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def run(cfg: RunConfig) -> tuple[list[VerificationRow], str]:
    """Rows and rendered text of one command; a grid with no cells checks
    nothing and raises ConfigurationError."""
    rows = COMMANDS[cfg.command][0](cfg)
    if not rows:
        raise _no_cells(cfg.command)
    return rows, render(rows, cfg.command, cfg.format)


def _check_out(path: str) -> None:
    """--out is stdout ("-") or a writable file in an existing directory;
    checked without creating or truncating the file."""
    parent = os.path.dirname(path) or "."
    if path != "-" and (os.path.isdir(path) or not os.path.isdir(parent) or not os.access(
            path if os.path.exists(path) else parent, os.W_OK)):
        raise ConfigurationError(f"--out {path}: not a writable file in an existing directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    try:
        _check_out(cfg.output_path)
        rows, text = run(cfg)
    except AiryKpzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.output_path == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    failures = [row for row in rows if not row.passed]
    for row in failures:
        print(f"FAIL {cfg.command} {row.labels}: |diff|={row.abs_diff:.3e} "
              f"rel={row.rel_diff:.3e} status={row.status}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
