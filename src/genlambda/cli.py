"""Command-line interface.

Subcommands: qexp, cusps, minpoly, counts, sums, cm, verify. Output is JSON
by default (format "text" gives aligned listings). Exit codes: 0 success,
1 verification failure (a failed build self-check, windows too short to
verify, a j-reduction that leaves a remainder or an off-grid series, or a
packed-digit overflow in the product kernel prints an error: line),
2 usage or environment error (such as --prec below the minimum or an --out
file that cannot be written). The disk cache directory for built minimal
polynomials comes from GENLAMBDA_CACHE_DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass

from . import cmval, counts, minpoly
from .forms import (
    e_series,
    g_pow_series,
    j_series,
    lambda_classical_series,
)
from .lam import lambda_basis_series, lambda_series
from .modgroup import SL2Mat, cusp_reps, nu_pair, nu_statistics
from .qseries import QSeries

CACHE_ENV = "GENLAMBDA_CACHE_DIR"


@dataclass
class Config:
    level: int
    prec: int | None = None
    tol: float = 1e-9
    threads: int = 1
    fmt: str = "json"
    out: str | None = None
    cache_dir: str | None = None

    def __post_init__(self):
        if self.level < 3:
            raise ValueError("level must be >= 3")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.fmt not in ("json", "text"):
            raise ValueError("format must be json or text")


def _emit(cfg: Config, payload, text_lines=None):
    if cfg.fmt == "text" and text_lines is not None:
        body = "\n".join(text_lines) + "\n"
    else:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _series_text(s: QSeries) -> list[str]:
    lines = [f"# level {s.level}, window [{s.ord}, {s.prec})"]
    for k, c in s.items():
        lines.append(f"q^{k:<5d} {c}")
    return lines


def _warn_level6(n: int):
    if n == 6:
        print(
            "warning: level 6 is outside the range of the structure theorems; "
            "results are computed but not claimed",
            file=sys.stderr,
        )


def _cmd_qexp(cfg: Config, args) -> int:
    n = cfg.level
    prec = cfg.prec if cfg.prec is not None else 2 * n + 10
    form = args.form
    if form == "e":
        if len(args.indices) != 2:
            raise ValueError("qexp e needs two indices R S")
        r, s = (int(x) for x in args.indices)
        series = e_series(r, s, n, prec)
    elif form == "j":
        series = j_series(n, prec)
    elif form == "g":
        series = g_pow_series(n, prec)
    elif form == "lambda-classical":
        series = lambda_classical_series(prec, n)
    elif form == "lambda":
        if args.matrix:
            a, b, c, d = (int(x) for x in args.matrix.split(","))
            series = lambda_series(SL2Mat(a, b, c, d, n), prec)
        elif args.basis:
            r1, s1, r2, s2 = (int(x) for x in args.basis.split(","))
            series = lambda_basis_series((r1, s1), (r2, s2), n, prec)
        else:
            raise ValueError("qexp lambda needs --matrix a,b,c,d or --basis r1,s1,r2,s2")
    else:
        raise ValueError(f"unknown form {form!r}")
    _emit(cfg, series.to_json_obj(), _series_text(series))
    return 0


def _cmd_cusps(cfg: Config, args) -> int:
    n = cfg.level
    payload = []
    for rep in cusp_reps(n):
        m = rep.matrix
        payload.append(
            {
                "a": rep.a,
                "c": rep.c,
                "class": rep.cls,
                "matrix": [[m.a, m.b], [m.c, m.d]],
                "nu_orbit": [nu_pair(rep.a, rep.c, n)] * n,
            }
        )
    text = [
        f"({e['a']},{e['c']})  {e['class']}  nu={e['nu_orbit'][0]:+d}  "
        f"matrix={e['matrix']}"
        for e in payload
    ]
    _emit(cfg, payload, text)
    return 0


def _cmd_minpoly(cfg: Config, args) -> int:
    n = cfg.level
    _warn_level6(n)
    F = minpoly.build_F(n, cfg.prec, threads=cfg.threads, cache_dir=cfg.cache_dir)
    if args.action == "build":
        _emit(cfg, F.to_json_obj())
        return 0
    # verify
    report = minpoly.verify_theorem1(F)
    lines = report.lines()
    ok = report.ok
    for y in (0, 1728, random.Random(n).choice([5, 7, 11, 13, 2025])):
        cert = minpoly.specialize_and_factor(F, y)
        lines.append(f"[{'PASS' if cert.ok else 'FAIL'}] specialization y={y}: {cert.detail}")
        ok = ok and cert.ok
    for line in lines:
        print(line)
    return 0 if ok else 1


def _cmd_counts(cfg: Config, args) -> int:
    rep = counts.count_report(cfg.level)
    obj = rep.to_json_obj()
    text = [
        f"N={rep.n}  d_N={rep.d}  cusps={rep.cusps}",
        f"ell={rep.ell}  t={rep.t}  (enum)",
        f"ell={rep.ell_prop4}  t={rep.t_prop4}  (sum formulas"
        + ("" if rep.prop4_claimed else "; not claimed at level 6")
        + ")",
    ]
    if rep.ell_prime_power is not None:
        text.append(f"ell={rep.ell_prime_power}  t={rep.t_prime_power}  (prime power)")
    text.append(f"routes agree: {rep.agree}")
    _emit(cfg, obj, text)
    return 0 if rep.agree or not rep.prop4_claimed else 1


def _cmd_sums(cfg_unused, args) -> int:
    max_m = args.max_M
    bad = []
    checked = 0
    for m in range(1, max_m + 1):
        for L in _divisors(m):
            for kind in ("I", "J"):
                for k in (0, 1):
                    want = counts.sum_enum(kind, k, L, m)
                    try:
                        got = counts.sum_closed(kind, k, L, m)
                    except counts.OutOfBranchError:
                        continue
                    checked += 1
                    if got != want:
                        bad.append((kind, k, L, m, got, want))
    if args.verify:
        print(f"checked {checked} closed-form evaluations up to M={max_m}; "
              f"{len(bad)} disagreements")
        for entry in bad[:10]:
            print("  mismatch:", entry)
        return 0 if not bad else 1
    print(json.dumps({"checked": checked, "mismatches": len(bad)}))
    return 0 if not bad else 1


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _cmd_cm(cfg: Config, args) -> int:
    n = cfg.level
    if args.action == "eval":
        if not args.tau:
            raise ValueError("cm eval needs --tau re,im")
        re, im = (float(x) for x in args.tau.split(","))
        tau = complex(re, im)
        if args.basis:
            r1, s1, r2, s2 = (int(x) for x in args.basis.split(","))
            pairs = ((r1, s1), (r2, s2))
            val = cmval.eval_lambda_numeric(pairs, n, tau, tol=cfg.tol)
        elif args.matrix:
            a, b, c, d = (int(x) for x in args.matrix.split(","))
            val = cmval.eval_lambda_numeric(SL2Mat(a, b, c, d, n), n, tau, tol=cfg.tol)
        else:
            val = cmval.eval_lambda_numeric(SL2Mat.identity(n), n, tau, tol=cfg.tol)
        _emit(cfg, {"re": val.real, "im": val.imag}, [f"{val.real:+.15g} {val.imag:+.15g}i"])
        return 0
    # verify
    ok = True
    lines = []
    if n in (3, 4):
        rep = cmval.verify_cm_table(n)
        lines += rep.lines()
        ok = ok and rep.ok
        rep = cmval.verify_identities(n)
        lines += rep.lines()
        ok = ok and rep.ok
    angles = [math.pi * (0.55 + 0.35 * k / 9) for k in range(10)]
    rng = random.Random(99)
    pts = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.3)) for _ in range(5)]
    rep = cmval.unit_circle_check(n, angles, pts)
    lines += rep.lines()
    ok = ok and rep.ok
    for line in lines:
        print(line)
    return 0 if ok else 1


def _cmd_verify(cfg: Config, args) -> int:
    levels = [int(x) for x in args.levels.split(",")] if args.levels else [3, 4]
    ok = True
    for n in levels:
        print(f"===== level {n} =====")
        _warn_level6(n)
        ell, t = nu_statistics(n)
        rep = counts.count_report(n)
        agree = rep.agree or not rep.prop4_claimed
        print(f"[{'PASS' if agree else 'FAIL'}] counting routes: ell={ell} t={t}")
        ok = ok and agree
        # nu formula against the actual series across the transversal
        from .modgroup import transversal

        mismatch = 0
        for cr in transversal(n):
            if lambda_series(cr.matrix, n + 2).order() != nu_pair(
                cr.matrix.a, cr.matrix.c, n
            ):
                mismatch += 1
        print(f"[{'PASS' if not mismatch else 'FAIL'}] order formula over {len(transversal(n))} cosets")
        ok = ok and not mismatch
        code = _cmd_minpoly(cfg_for(cfg, n), argparse.Namespace(action="verify"))
        ok = ok and code == 0
        if n in (3, 4, 5):
            code = _cmd_cm(cfg_for(cfg, n), argparse.Namespace(action="verify"))
            ok = ok and code == 0
    print("ALL CHECKS PASSED" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


def cfg_for(cfg: Config, n: int) -> Config:
    return Config(
        level=n,
        prec=cfg.prec,
        tol=cfg.tol,
        threads=cfg.threads,
        fmt=cfg.fmt,
        out=None,
        cache_dir=cfg.cache_dir,
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="genlambda",
        description="Exact q-expansions of generalized lambda modular functions, "
        "their minimal polynomial over K_N(j), counting formulas, and numeric "
        "verification.",
    )

    def add_common(target, suppress):
        d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
        target.add_argument("--level", "-N", type=int, default=d(3), help="level N >= 3")
        target.add_argument(
            "--prec", type=int, default=d(None), help="series precision override"
        )
        target.add_argument("--tol", type=float, default=d(1e-9), help="numeric tolerance")
        target.add_argument("--threads", type=int, default=d(1), help="worker processes")
        target.add_argument(
            "--format", dest="fmt", choices=["json", "text"], default=d("json")
        )
        target.add_argument("--out", default=d(None), help="write output to a file")

    add_common(p, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    add_common(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qexp", help="print a q-expansion", parents=[common])
    q.add_argument("form", choices=["e", "j", "g", "lambda-classical", "lambda"])
    q.add_argument("indices", nargs="*", help="R S for the e form")
    q.add_argument("--matrix", default=None, help="a,b,c,d for lambda")
    q.add_argument("--basis", default=None, help="r1,s1,r2,s2 for lambda")

    sub.add_parser("cusps", help="cusp classes with matrices and orders", parents=[common])

    mp = sub.add_parser(
        "minpoly", help="build or verify the minimal polynomial", parents=[common]
    )
    mp.add_argument("action", choices=["build", "verify"])

    sub.add_parser("counts", help="degree and pole counts by all routes", parents=[common])

    sm = sub.add_parser("sums", help="closed-form vs enumerated sums", parents=[common])
    sm.add_argument("--max-M", dest="max_M", type=int, default=100)
    sm.add_argument("--verify", action="store_true")

    cm = sub.add_parser(
        "cm", help="numeric evaluation and value tables", parents=[common]
    )
    cm.add_argument("action", choices=["eval", "verify"])
    cm.add_argument("--tau", default=None, help="re,im of the point")
    cm.add_argument("--matrix", default=None)
    cm.add_argument("--basis", default=None)

    v = sub.add_parser(
        "verify", help="run every module's verification report", parents=[common]
    )
    v.add_argument("--all", action="store_true", help="default level set 3,4")
    v.add_argument("--levels", default=None, help="comma-separated levels")

    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        cfg = Config(
            level=args.level,
            prec=args.prec,
            tol=args.tol,
            threads=args.threads,
            fmt=args.fmt,
            out=args.out,
            cache_dir=os.environ.get(CACHE_ENV),
        )
        if args.command == "qexp":
            return _cmd_qexp(cfg, args)
        if args.command == "cusps":
            return _cmd_cusps(cfg, args)
        if args.command == "minpoly":
            return _cmd_minpoly(cfg, args)
        if args.command == "counts":
            return _cmd_counts(cfg, args)
        if args.command == "sums":
            return _cmd_sums(cfg, args)
        if args.command == "cm":
            return _cmd_cm(cfg, args)
        if args.command == "verify":
            return _cmd_verify(cfg, args)
        raise ValueError(f"unknown command {args.command!r}")
    except (
        minpoly.SelfCheckError,
        minpoly.ReductionError,
        minpoly.PrecisionError,
        minpoly.GridSupportError,
    ) as exc:  # a build or check whose result cannot be verified
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # the product kernel's digit-overflow guard
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
