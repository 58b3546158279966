"""Frozen outputs of the build and the certificate layer.

`tests/data/golden_N<n>.json` (N = 3, 4, 5) holds the cube and square
bases of F(X, 0) and F(X, 1728), and the verdicts of `check_root_identity`
on perturbed copies of F. The files were written by the Newton-root,
schoolbook-product and CycNum-Horner engines that the integer kernels
replaced; every later engine must reproduce them exactly. One verdict per
level was edited since: F itself at the matrix (0, -1; 1, 0), where
lambda∘A has a pole, was PrecisionError until `check_root_identity` added
d*|nu_A| to its margin at poles, and is True.

`tests/data/golden_F.json` holds the sha256 of `build_F(n).to_json()` for
N = 3, 4, 5 and 7, the verdicts of `check_root_identity` on F(7) with +1 on
the constant term of P_i for i = 88..96 (a change there first shows at
q^(168 - i), around the end of the window the check reads), and the
`verify_theorem1` report lines of F and of perturbed copies for the same
levels. It was written by the uncapped product tree and Horner loop and
the CycNum theorem checks, before the demand-bounded windows.

Rewrite the files (only from a trusted engine) with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
from fractions import Fraction

import pytest

from genlambda.cyclotomic import CycNum
from genlambda.minpoly import (
    BivarPoly,
    PrecisionError,
    build_F,
    check_root_identity,
    specialize_and_factor,
    verify_theorem1,
)
from genlambda.modgroup import SL2Mat

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
LEVELS = (3, 4, 5)
F_LEVELS = (3, 4, 5, 7)
EDGE_N7 = range(88, 97)


def _golden_path(n: int) -> str:
    return os.path.join(DATA, f"golden_N{n}.json")


def perturb(F: BivarPoly, spec) -> BivarPoly:
    """F with `delta` added to coordinate `coord` of the Y^m coefficient of P_i."""
    if spec is None:
        return F
    i, m, coord, delta = spec
    n = F.level
    poly = list(F.P[i]) + [CycNum.zero(n)] * max(m + 1 - len(F.P[i]), 0)
    coords = list(poly[m].coords)
    coords[coord] += Fraction(delta)
    poly[m] = CycNum(n, coords)
    P = F.P[:i] + (tuple(poly),) + F.P[i + 1 :]
    return BivarPoly(level=n, d=F.d, ell=F.ell, t=F.t, prec=F.prec, P=P)


def cases(F: BivarPoly) -> list[dict]:
    """Perturbations, matrices and windows whose verdicts the files freeze.

    They cover both outcomes: True (F itself, at infinity and at the cusps
    of two other matrices, one of them a pole of lambda∘A, and perturbations
    of low-index P_i that the default window misses) and False."""
    n, d, ell, t = F.level, F.d, F.ell, F.t
    phi = len(F.P[0][0].coords)
    specs = [
        None,
        [1, 0, 0, "1"],
        [2, 0, 0, "-1"],
        [d // 3, 1, 0, "1"],
        [d // 2, 0, 0, "1"],
        [n * t, ell, 0, "-1"],
        [d - 1, 0, phi - 1, "1/7"],
        [d, 0, 0, "1"],
    ]
    matrices = [[1, -1, 1, 0], [0, -1, 1, 0]]
    out = [{"perturb": s, "matrix": None, "window": None} for s in specs]
    for mat in matrices:
        out += [{"perturb": s, "matrix": mat, "window": None} for s in (None, specs[1], specs[5])]
    out += [
        {"perturb": None, "matrix": None, "window": 1},
        {"perturb": specs[1], "matrix": None, "window": 5 * n},
        {"perturb": specs[4], "matrix": None, "window": 5 * n},
    ]
    return out


def verdict(F: BivarPoly, case: dict):
    G = perturb(F, case["perturb"])
    mats = None
    if case["matrix"] is not None:
        mats = [SL2Mat(*case["matrix"], F.level)]
    try:
        return check_root_identity(G, mats, case["window"])
    except PrecisionError:
        return "PrecisionError"


def _poly_json(p):
    return None if p is None else [c.to_json_obj() for c in p]


def golden_record(F: BivarPoly) -> dict:
    return {
        "N": F.level,
        "cube": _poly_json(specialize_and_factor(F, 0).base),
        "square": _poly_json(specialize_and_factor(F, 1728).base),
        "verdicts": [dict(case, result=verdict(F, case)) for case in cases(F)],
    }


def _load(n: int) -> dict:
    with open(_golden_path(n), encoding="utf-8") as fh:
        return json.load(fh)


def f_sha256(F: BivarPoly) -> str:
    return hashlib.sha256(F.to_json().encode()).hexdigest()


def edge_cases() -> list[dict]:
    return [{"perturb": [i, 0, 0, "1"], "matrix": None, "window": None} for i in EDGE_N7]


def theorem1_specs(F: BivarPoly) -> list:
    """Perturbations that break each clause of verify_theorem1 in turn, one
    that keeps every clause (a change mirrored by its conjugate), and one
    whose P_i keeps a trailing zero coefficient."""
    n, d, ell, t = F.level, F.d, F.ell, F.t
    phi = len(F.P[0][0].coords)
    return [
        None,
        [[d, 0, 0, "1"]],
        [[1, 0, 0, "1/7"]],
        [[d - 1, 0, phi - 1, "1/2"], [1, 0, phi - 1, "1"]],
        [[2, 1, 0, "1"]],
        [[n * t, ell + 1, 0, "-1"]],
        [[d // 2, 0, 1, "1"]],
        [[d // 3, 0, 0, "2"], [d - d // 3, 0, 0, "2"]],
        [[d // 2 + 1, ell + 2, 0, "0"]],
    ]


def theorem1_lines(F: BivarPoly, spec) -> list[str]:
    G = F
    for s in spec or ():
        G = perturb(G, s)
    return verify_theorem1(G).lines()


def build_record() -> dict:
    built = {n: build_F(n) for n in F_LEVELS}
    return {
        "sha256": {str(n): f_sha256(F) for n, F in built.items()},
        "edge_N7": [dict(case, result=verdict(built[7], case)) for case in edge_cases()],
        "theorem1": {
            str(n): [
                {"perturb": s, "lines": theorem1_lines(F, s)} for s in theorem1_specs(F)
            ]
            for n, F in built.items()
        },
    }


def _load_build() -> dict:
    with open(os.path.join(DATA, "golden_F.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("n", LEVELS)
def test_bases_match_golden(n, built_levels):
    F, gold = built_levels[n], _load(n)
    assert _poly_json(specialize_and_factor(F, 0).base) == gold["cube"]
    assert _poly_json(specialize_and_factor(F, 1728).base) == gold["square"]


@pytest.mark.parametrize("n", LEVELS)
def test_root_identity_verdicts_match_golden(n, built_levels):
    F, gold = built_levels[n], _load(n)
    assert cases(F) == [
        {k: v for k, v in g.items() if k != "result"} for g in gold["verdicts"]
    ]
    outcomes = {g["result"] for g in gold["verdicts"]}
    assert outcomes == {True, False}
    for g in gold["verdicts"]:
        assert verdict(F, g) == g["result"], g


@pytest.mark.parametrize("n", F_LEVELS)
def test_F_json_matches_golden_sha256(n):
    assert f_sha256(build_F(n)) == _load_build()["sha256"][str(n)]


def test_root_identity_edge_verdicts_match_golden():
    F, gold = build_F(7), _load_build()["edge_N7"]
    assert [{k: v for k, v in g.items() if k != "result"} for g in gold] == edge_cases()
    assert {g["result"] for g in gold} == {True, False}
    for g in gold:
        assert verdict(F, g) == g["result"], g


@pytest.mark.parametrize("n", F_LEVELS)
def test_theorem1_lines_match_golden(n):
    F, gold = build_F(n), _load_build()["theorem1"][str(n)]
    assert [g["perturb"] for g in gold] == theorem1_specs(F)
    assert any("FAIL" in line for g in gold for line in g["lines"])
    for g in gold:
        assert theorem1_lines(F, g["perturb"]) == g["lines"], g["perturb"]


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for n in LEVELS:
        with open(_golden_path(n), "w", encoding="utf-8") as fh:
            json.dump(golden_record(build_F(n)), fh, sort_keys=True, indent=1)
            fh.write("\n")
        print("wrote", _golden_path(n))
    path = os.path.join(DATA, "golden_F.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(build_record(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    print("wrote", path)
