"""Checks of genlambda's outputs against the independent oracle.

Each check takes a `run` object with an `rng` (random.Random) and a
`require(ok, what)` method that records a failed check. None of them uses
genlambda arithmetic: program outputs enter only as JSON-style data
(coordinates, integer matrix entries, complex numbers, booleans).
"""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction

from mpmath import mp

import oracle

# Class-number-one CM points other than rho and i: (discriminant, j).
CM_POINTS = [
    (-7, -3375), (-8, 8000), (-11, -32768), (-12, 54000), (-16, 287496),
    (-19, -884736), (-27, -12288000), (-28, 16581375), (-43, -884736000),
    (-67, -147197952000), (-163, -640320**3),
]

RESIDUAL_DPS = 160  # working precision (digits) for Lambda and j
RESIDUAL_BITS = 512  # fraction bits of the fixed-point evaluation of F(Lambda, j)
RESIDUAL_BOUND = 1e-100  # relative residual that counts as a root
VALUE_DPS = 20  # working precision for the oracle values of the values workload
VALUE_TOL = 1e-9  # |program - oracle| <= VALUE_TOL * max(1, |oracle|)
UNIT_TOL = 1e-9  # | |Lambda(e^(i theta))| - 1 |


def cm_tau(d: int):
    """The CM point of discriminant d at the working precision."""
    half = mp.sqrt(-d) / 2
    return mp.mpc(0, half) if d % 4 == 0 else mp.mpc(0.5, half)


def _groups(run, values, what: str, tol: float = 1e-12, band: float = 1e-9):
    """Group labels of equal values (see oracle.equal_groups), or None after
    recording a failure when the grouping is ambiguous. The defaults suit
    oracle values; program values are double precision."""
    try:
        return oracle.equal_groups(values, tol, band)
    except ValueError as exc:
        run.require(False, f"{what}: {exc}")
        return None


def _sizes(labels) -> list[int]:
    return sorted(Counter(labels).values())


def random_tau(rng):
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))


def check_F(run, F: oracle.BivariateF, n: int, label: str):
    """F is monic of X-degree d_N, and at deg_Y F + 2 seeded points its
    d_N roots are the d_N distinct values Lambda_A(tau), A in SL2(Z/N)/+-1.

    Two monic polynomials of X-degree d_N sharing d_N distinct roots at more
    j-values than their Y-degree are equal, so this pins F down.
    """
    d = oracle.degree(n)
    mats = oracle.psl2_mod(n)
    shape = {
        f"{label}: level {F.level}, expected {n}": F.level == n,
        f"{label}: |SL2(Z/N)/+-1| = {len(mats)} but d_N = {d}": len(mats) == d,
        f"{label}: X-degree {F.d}, d_N = {d}": F.d == d and len(F.exact) == d + 1,
        f"{label}: not monic in X": F.is_monic(),
    }
    for what, ok in shape.items():
        run.require(ok, what)
    if not all(shape.values()):
        return
    with mp.workdps(RESIDUAL_DPS):
        j_seen = []
        for _ in range(F.y_degree() + 2):
            tau = random_tau(run.rng)
            j = oracle.j_invariant(tau)
            run.require(all(abs(j - other) > 1e-6 * abs(j) for other in j_seen),
                        f"{label}: repeated j-value at {tau}")
            j_seen.append(j)
            roots = oracle.lambda_values(tau, n, mats)
            coeffs = F.x_coefficients(j, RESIDUAL_BITS)
            worst = F.max_relative_residual(coeffs, roots, RESIDUAL_BITS)
            run.require(worst < RESIDUAL_BOUND,
                        f"{label}: |F(Lambda, j)| relative residual {worst:.2e} at tau={tau}")
            labels = _groups(run, roots, f"{label} at tau={tau}")
            run.require(labels is None or len(set(labels)) == len(roots),
                        f"{label}: repeated roots at tau={tau}")


def _coords_of(poly) -> list:
    """Rational coordinates of a tuple of program field elements, read from
    their JSON form."""
    return [[Fraction(int(num), int(den)) for num, den in c.to_json_obj()["coords"]]
            for c in poly]


def check_certificates(run, F: oracle.BivariateF, outputs: dict, y_values):
    """Every certificate is ok; the cube and square bases are right modulo a
    split prime; the conjugate values fall into triples at rho, pairs at i
    and are distinct at every other class-number-one CM point."""
    n, d = F.level, F.d
    expected = ["check_root_identity", "verify_theorem1", "q0_structure"] + [
        f"specialize y={y}" for y in y_values]
    run.require(sorted(outputs) == sorted(expected),
                f"certificates returned: {sorted(outputs)}")
    if "check_root_identity" in outputs:
        run.require(outputs["check_root_identity"] is True, "check_root_identity is not True")
    if "verify_theorem1" in outputs:
        run.require(outputs["verify_theorem1"].ok, "verify_theorem1 reports a failed clause")
    if "q0_structure" in outputs:
        run.require(outputs["q0_structure"][0] is True, "q0_structure reports failure")
    p, w = oracle.split_prime(n, 2**61)
    for y, mult, kind in ((0, 3, "cube"), (1728, 2, "square")):
        cert = outputs.get(f"specialize y={y}")
        if cert is None:
            continue
        run.require(cert.ok and cert.kind == kind and cert.multiplicity == mult,
                    f"y={y}: certificate {cert.kind} ok={cert.ok}")
        base = cert.base
        if not base:
            run.require(False, f"y={y}: no base returned")
            continue
        coords = _coords_of(base)
        run.require(len(coords) == d // mult + 1, f"y={y}: deg H = {len(coords) - 1}")
        run.require(oracle.reduce_coords(coords[-1], p, w) == 1, f"y={y}: H not monic")
        h = [oracle.reduce_coords(c, p, w) for c in coords]
        run.require(oracle.poly_pow_mod(h, mult, p) == F.x_coefficients_mod(y, p, w),
                    f"y={y}: H^{mult} != F(X, {y}) mod {p}")
    for _, y in CM_POINTS:
        cert = outputs.get(f"specialize y={y}")
        if cert is not None:
            run.require(cert.ok and cert.kind == "squarefree",
                        f"y={y}: certificate {cert.kind} ok={cert.ok}")
    check_cm_multiplicities(run, n)


def check_cm_multiplicities(run, n: int):
    """Oracle values at rho, i and the other class-number-one CM points."""
    d = oracle.degree(n)
    mats = oracle.psl2_mod(n)
    with mp.workdps(30):
        rho = mp.mpc(0.5, mp.sqrt(3) / 2)
        for tau, size, name in ((rho, 3, "rho"), (mp.mpc(0, 1), 2, "i")):
            labels = _groups(run, oracle.lambda_values(tau, n, mats), f"N={n} at {name}")
            run.require(labels is None or _sizes(labels) == [size] * (d // size),
                        f"N={n}: values at {name} do not fall into {d // size} groups of {size}")
        for disc, y in CM_POINTS:
            tau = cm_tau(disc)
            j = oracle.j_invariant(tau)
            run.require(abs(j - y) <= 1e-20 * max(1, abs(y)), f"j(tau_{disc}) != {y}")
            labels = _groups(run, oracle.lambda_values(tau, n, mats), f"N={n} at {disc}")
            run.require(labels is None or len(set(labels)) == d,
                        f"N={n}: repeated values at the CM point {disc}")


def check_values(run, points, mats: dict, values: dict) -> float:
    """Every program value is within VALUE_TOL of the oracle. At i and rho
    the program's values of each level group exactly as the oracle's do,
    in groups whose sizes are multiples of 2 at i and of 3 at rho. Returns
    the largest relative error seen."""
    worst = 0.0
    multiple = {"i": 2, "(1+sqrt(-3))/2": 3}
    with mp.workdps(VALUE_DPS):
        for label, tau in points:
            for n, row in mats.items():
                got = values[(label, n)]
                want = [complex(o) for o in
                        oracle.lambda_values(tau, n, [(m.a, m.b, m.c, m.d) for m in row])]
                for g, o in zip(got, want):
                    if g is not None:
                        worst = max(worst, abs(g - o) / max(1.0, abs(o)))
                if label not in multiple or None in got:
                    continue
                mine = _groups(run, got, f"N={n} at {label}", tol=1e-10, band=1e-7)
                theirs = _groups(run, want, f"oracle, N={n} at {label}")
                if mine is None or theirs is None:
                    continue
                run.require(mine == theirs, f"N={n}: values at {label} group unlike the oracle's")
                run.require(all(k % multiple[label] == 0 for k in _sizes(mine)),
                            f"N={n}: group sizes {_sizes(mine)} at {label}")
    run.require(worst <= VALUE_TOL, f"value off the oracle by {worst:.2e} (relative)")
    return worst


def check_unit_circle(run, evaluate, angles: dict, reports: dict):
    """|Lambda(e^(i theta))| = 1 for the program's values, which also match
    the oracle there; the program's own unit_circle_check passes."""
    for n, thetas in angles.items():
        rep = reports.get(n)
        if rep is None:
            continue
        run.require(rep.ok and len(rep.entries) == len(thetas),
                    f"N={n}: unit_circle_check reports failure")
        for theta in thetas:
            tau = cmath.exp(1j * theta)
            v = evaluate(n, tau)
            run.require(abs(abs(v) - 1) <= UNIT_TOL, f"N={n}: |Lambda(e^(i{theta:.3f}))| != 1")
            with mp.workdps(VALUE_DPS):
                o = complex(oracle.lambda_values(tau, n, [(1, 0, 0, 1)])[0])
            run.require(abs(v - o) <= VALUE_TOL * max(1.0, abs(o)),
                        f"N={n}: Lambda(e^(i{theta:.3f})) off the oracle")
