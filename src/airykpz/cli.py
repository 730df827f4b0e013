"""Batch command-line surface.

One subcommand per verification suite; each emits a machine-readable
table (CSV or JSON) with one row per grid cell, and exits 0 exactly when
every row meets its tolerance.  Failing rows are enumerated on stderr.
Output is byte-stable for identical configuration (including the seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from .airy_side import (airy_h_moment, airy_mult_stat, default_mult_stat_grid,
                        tracy_widom_f2)
from .errors import AiryKpzError
from .kpz_side import default_kpz_outer_rule, kpz_laplace, kpz_moment
from .montecarlo import draw_edge_samples, estimate_h_moment, estimate_mult_stat
from .params import ModelParams

__all__ = ["RunConfig", "VerificationRow", "main",
           "run_verify_theorem1", "run_verify_theorem2", "run_tw_limit", "run_mc_check"]

COMMANDS = ("verify-theorem2", "verify-theorem1", "tw-limit", "mc-check")

_HEADERS = {
    "verify-theorem2": ("C", "T", "k"),
    "verify-theorem1": ("C", "T", "u"),
    "tw-limit": ("a", "T", "C"),
    "mc-check": ("kind", "param", "C", "T"),
}
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


def _error_row(labels: dict, exc: Exception) -> VerificationRow:
    return VerificationRow(labels=labels, error=f"{type(exc).__name__}: {exc}",
                           passed=False)


def _derive_grid(cfg: RunConfig) -> list[tuple[float, float]]:
    """(C, T) pairs from whichever list was supplied."""
    if cfg.C_list and cfg.T_list:
        raise AiryKpzError("supply either a C list or a T list, not both")
    if cfg.C_list:
        return [(C, 2.0 * C ** 3) for C in cfg.C_list]
    return [((T / 2.0) ** (1.0 / 3.0), T) for T in cfg.T_list]


def run_verify_theorem2(cfg: RunConfig) -> list[VerificationRow]:
    """Moment identity: airy_h_moment(k, C) vs kpz_moment(k, T=2C^3)."""
    if cfg.k_max > 4:
        raise AiryKpzError("verify-theorem2 supports k_max <= 4")
    nodes = cfg.nodes or None
    rows = []
    for C, T in _derive_grid(cfg):
        for k in range(1, cfg.k_max + 1):
            labels = {"C": C, "T": T, "k": k}
            tol = cfg.tol or (1e-5 if k <= 3 else 1e-3)
            try:
                lhs = airy_h_moment(k, C, nodes_per_axis=nodes)
                rhs = kpz_moment(k, T, nodes_per_axis=nodes)
            except (AiryKpzError, OverflowError) as exc:
                rows.append(_error_row(labels, exc))
                continue
            row = VerificationRow(labels=labels, lhs_value=lhs, rhs_value=rhs,
                                  aux=f"tol={tol:g};nodes={cfg.nodes or 'auto'}")
            row.passed = row.rel_diff < tol
            rows.append(row)
    return rows


def run_verify_theorem1(cfg: RunConfig) -> list[VerificationRow]:
    """Laplace identity: airy_mult_stat(u, C) vs kpz_laplace(u, T=2C^3)."""
    if any(u < 0 for u in cfg.u_list):
        raise AiryKpzError("u values must be >= 0")
    n = cfg.nodes or 80
    rows = []
    for C, T in _derive_grid(cfg):
        for u in cfg.u_list:
            labels = {"C": C, "T": T, "u": u}
            tol = cfg.tol or 1e-6
            try:
                params = ModelParams.from_C(C, u)
                lhs = airy_mult_stat(params, default_mult_stat_grid(params, n))
                rhs = kpz_laplace(params, default_kpz_outer_rule(params, n))
            except (AiryKpzError, OverflowError) as exc:
                rows.append(_error_row(labels, exc))
                continue
            row = VerificationRow(labels=labels, lhs_value=lhs, rhs_value=rhs,
                                  aux=f"tol={tol:g};nodes={n}")
            row.passed = row.abs_diff < tol
            rows.append(row)
    return rows


def run_tw_limit(cfg: RunConfig) -> list[VerificationRow]:
    """Large-time limit: the multiplicative statistic at
    u = exp(-(T/2)^(1/3) a) against the Tracy-Widom law F2(a); the gap
    must shrink along the increasing T ladder."""
    if any(not -6.0 <= a <= 4.0 for a in cfg.a_list):
        raise AiryKpzError("a values must lie in [-6, 4]")
    T_list = cfg.T_list or [8.0, 64.0, 512.0]
    if any(t2 <= t1 for t1, t2 in zip(T_list, T_list[1:])):
        raise AiryKpzError("the T ladder must be increasing")
    tol = cfg.tol or 0.05
    rows = []
    for a in cfg.a_list:
        prev = None
        for i, T in enumerate(T_list):
            C = (T / 2.0) ** (1.0 / 3.0)
            labels = {"a": a, "T": T, "C": C}
            try:
                params = ModelParams.from_C(C, math.exp(-C * a))
                lhs = airy_mult_stat(params)
                rhs = tracy_widom_f2(a)
            except (AiryKpzError, OverflowError) as exc:
                rows.append(_error_row(labels, exc))
                prev = None
                continue
            diff = abs(lhs - rhs)
            if prev is None:
                mono, ok_mono = "na", True
            else:
                ok_mono = diff <= prev + 1e-12
                mono = "true" if ok_mono else "false"
            passed = ok_mono and (i < len(T_list) - 1 or diff < tol)
            rows.append(VerificationRow(labels=labels, lhs_value=lhs, rhs_value=rhs,
                                        aux=f"tol={tol:g};nonincreasing={mono}",
                                        passed=passed))
            prev = diff
    return rows


def run_mc_check(cfg: RunConfig) -> list[VerificationRow]:
    """Monte Carlo estimates against the analytic Airy-side pipeline."""
    if cfg.samples < 100:
        raise AiryKpzError("mc-check needs at least 100 samples")
    samples = draw_edge_samples(cfg.matrix_size, cfg.keep_top, cfg.seed, cfg.samples)
    rows = []
    for C, T in _derive_grid(cfg):
        for k in range(1, cfg.k_max + 1):
            labels = {"kind": "h_moment", "param": k, "C": C, "T": T}
            try:
                est = estimate_h_moment(samples, k, C)
                ref = airy_h_moment(k, C)
            except (AiryKpzError, OverflowError) as exc:
                rows.append(_error_row(labels, exc))
                continue
            tol = max(3.0 * est.stderr, (cfg.tol or 0.07) * abs(ref))
            row = VerificationRow(labels=labels, lhs_value=est.mean, rhs_value=ref,
                                  aux=f"stderr={est.stderr:.6g};tol={tol:.6g}"
                                      f";samples={est.n_samples}")
            row.passed = row.abs_diff <= tol
            rows.append(row)
        for u in cfg.u_list:
            labels = {"kind": "mult_stat", "param": u, "C": C, "T": T}
            try:
                est = estimate_mult_stat(samples, u, C)
                ref = airy_mult_stat(ModelParams.from_C(C, u))
            except (AiryKpzError, OverflowError) as exc:
                rows.append(_error_row(labels, exc))
                continue
            tol = max(3.0 * est.stderr, cfg.tol or 0.03)
            row = VerificationRow(labels=labels, lhs_value=est.mean, rhs_value=ref,
                                  aux=f"stderr={est.stderr:.6g};bias={est.bias_bound:.3g}"
                                      f";flagged={str(est.flagged).lower()};tol={tol:.6g}"
                                      f";samples={est.n_samples}")
            row.passed = row.abs_diff <= tol and not est.flagged
            rows.append(row)
    return rows


_RUNNERS = {
    "verify-theorem2": run_verify_theorem2,
    "verify-theorem1": run_verify_theorem1,
    "tw-limit": run_tw_limit,
    "mc-check": run_mc_check,
}


# ----------------------------------------------------------------------
# rendering

def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def render(rows: list[VerificationRow], command: str, fmt: str) -> str:
    names = _HEADERS[command] + _VALUE_COLS
    if fmt == "json":
        payload = [row.as_dict(_HEADERS[command]) for row in rows]
        for row in payload:   # NaN from error rows is not a JSON literal
            for key, val in row.items():
                if isinstance(val, float) and not math.isfinite(val):
                    row[key] = None
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(names)]
    for row in rows:
        d = row.as_dict(_HEADERS[command])
        lines.append(",".join(_fmt(d[name]) for name in names))
    return "\n".join(lines) + "\n"


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

# the flags each runner reads; --format and --out apply to all
_COMMAND_FLAGS = {
    "verify-theorem2": ("--C", "--T", "--k-max", "--nodes", "--tol"),
    "verify-theorem1": ("--C", "--T", "--u", "--nodes", "--tol"),
    "tw-limit": ("--a", "--T", "--tol"),
    "mc-check": ("--C", "--T", "--u", "--k-max", "--samples", "--matrix-size",
                 "--keep-top", "--seed", "--tol"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="airykpz",
        description="Verify the KPZ/Airy one-point identities numerically.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        doc = (_RUNNERS[name].__doc__ or "").strip().splitlines()[0]
        # flags left out keep their RunConfig defaults
        sp = sub.add_parser(name, help=doc, description=doc,
                            argument_default=argparse.SUPPRESS)
        for flag in _COMMAND_FLAGS[name] + ("--format", "--out"):
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def run(cfg: RunConfig) -> tuple[list[VerificationRow], str]:
    rows = _RUNNERS[cfg.command](cfg)
    return rows, render(rows, cfg.command, cfg.format)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    try:
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
