import hashlib
import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from genlambda.cyclotomic import CycNum
from genlambda.forms import (
    e_series,
    e_transform,
    g_pow_series,
    j_series,
    lambda_classical_series,
    lambda_level2_series,
    leading_theta,
)
from genlambda.modgroup import SL2Mat
from genlambda.qseries import QSeries


def test_e_series_examples():
    s = e_series(0, 1, 3, 4)
    assert s.coeff(0) == Fraction(-1, 3)
    assert s.coeff(1).is_zero() and s.coeff(2).is_zero()
    assert s.coeff(3) == -3
    s = e_series(1, 0, 3, 2)
    assert s.ord == 1 and s.coeff(1) == 1
    with pytest.raises(ValueError):
        e_series(0, 0, 5, 4)


def test_e_series_symmetry_and_periodicity():
    for (r, s, n) in [(1, 2, 5), (2, 3, 7), (0, 1, 4), (2, 0, 4), (3, 3, 8)]:
        assert e_series(r, s, n, 14) == e_series(-r, -s, n, 14)
        assert e_series(r + n, s + n, n, 14) == e_series(r, s, n, 14)


def test_e_series_truncation_soundness():
    for (r, s, n) in [(1, 0, 3), (0, 2, 5), (2, 1, 4), (3, 2, 7)]:
        short = e_series(r, s, n, 9)
        long = e_series(r, s, n, 18)
        assert short.agrees(long)


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_e_series_galois(n):
    for ell in range(2, n):
        if math.gcd(ell, n) != 1:
            continue
        for (r, s) in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            if (r % n, s % n) == (0, 0):
                continue
            lhs = e_series(r, s, n, 12).sigma(ell)
            rhs = e_series(r, (s * ell) % n, n, 12)
            assert lhs == rhs, (n, ell, r, s)


def test_e_transform():
    T = SL2Mat.T(5)
    S = SL2Mat.S(5)
    assert e_transform((1, 0), T) == (1, 1)
    assert e_transform((0, 1), S) == (4, 0)
    assert e_transform((1, 2), SL2Mat.identity(5)) == (1, 2)


def test_e_transform_matches_series():
    # the slash action on indices is consistent with matrix composition used
    # in the lambda ratio; spot check associativity of the index action
    n = 5
    A = SL2Mat(2, 1, 1, 1, n)
    B = SL2Mat.T(n, 2)
    for idx in [(1, 0), (0, 1), (2, 3)]:
        assert e_transform(e_transform(idx, A), B) == e_transform(idx, A * B)


def test_leading_theta_examples():
    z = CycNum.zeta(3)
    th, o = leading_theta((1, 0), (1, 1), 3)
    assert th == 1 - z and o == 1
    th, o = leading_theta((0, 1), (1, 1), 3)
    assert th == Fraction(-1, 3) and o == 0
    with pytest.raises(ValueError):
        leading_theta((2, 1), (2, 3), 4)  # indices opposite mod 4


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_leading_theta_vs_series(n):
    rng = random.Random(n)
    pairs = [
        ((r1, s1), (r2, s2))
        for (r1, s1), (r2, s2) in itertools.product(
            itertools.product(range(n), repeat=2), repeat=2
        )
        if (r1, s1) != (0, 0)
        and (r2, s2) != (0, 0)
        and ((r1 - r2) % n, (s1 - s2) % n) != (0, 0)
        and ((r1 + r2) % n, (s1 + s2) % n) != (0, 0)
    ]
    rng.shuffle(pairs)
    for idx1, idx2 in pairs[:40]:
        diff = e_series(*idx1, n, 9) - e_series(*idx2, n, 9)
        th, o = leading_theta(idx1, idx2, n)
        assert diff.order() == o
        assert diff.leading() == th


def test_j_series():
    j = j_series(3, 10)
    assert j.ord == -3
    assert j.coeff(-3) == 1
    assert j.coeff(0) == 744
    assert j.coeff(3) == 196884
    assert j.coeff(1).is_zero() and j.coeff(2).is_zero()
    j5 = j_series(5, 12)
    assert j5.ord == -5 and j5.coeff(0) == 744


def test_j_lambda_relation():
    # the independent oracle for j's coefficients: the degree-6 relation with
    # the classical lambda series, checked exactly over more than 40 terms
    prec = 50
    j = j_series(4, prec)
    lam = lambda_classical_series(prec + 20)
    one = QSeries.one(4, prec + 20)
    lhs = j * lam * lam * (lam - one) * (lam - one)
    rhs = ((lam * lam - lam + one) ** 3) * 256
    ok, lo, hi = lhs.agreement(rhs)
    assert ok and hi - lo >= 40


def test_g_pow_series():
    g3 = g_pow_series(3, 10)
    assert g3.ord == -3 and g3.coeff(-3) == 1
    g4 = g_pow_series(4, 10)
    assert g4.ord == -4 and g4.coeff(-4) == 1
    assert all(c.is_integral() for _, c in g3.items())
    with pytest.raises(ValueError):
        g_pow_series(5, 10)


def test_lambda_classical():
    lam = lambda_classical_series(12)
    assert lam.ord == 2 and lam.coeff(2) == 16
    assert all(c.is_integral() for _, c in lam.items())
    with pytest.raises(ValueError):
        lambda_classical_series(12, 5)


def test_lambda_level2_convention():
    # (x-1)/x of the product expansion; simple pole of residue -1/16 in q_h
    lam2 = lambda_level2_series(10)
    assert lam2.ord == -2
    assert lam2.coeff(-2) == Fraction(-1, 16)
    # both conventions satisfy the j relation
    prec = 30
    j = j_series(4, prec)
    one = QSeries.one(4, lam2.prec)
    lam2 = lambda_level2_series(prec + 16)
    one = QSeries.one(4, lam2.prec)
    lhs = j * lam2 * lam2 * (lam2 - one) * (lam2 - one)
    rhs = ((lam2 * lam2 - lam2 + one) ** 3) * 256
    assert lhs.agrees(rhs)


FORMS = {
    "j_series": j_series,
    "g_pow_series": g_pow_series,
    "lambda_classical_series": lambda_classical_series,
    "lambda_level2_series": lambda_level2_series,
}


def test_generators_match_frozen_sha256():
    """The sha256 of each generator's JSON, frozen from the schoolbook and
    Fraction-recurrence integer series that the product engine replaced:
    j_series for N = 3..9, g_pow_series for N = 3, 4 and both lambda
    series, each at three precisions."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "forms_sha256.json")
    with open(path, encoding="utf-8") as fh:
        frozen = json.load(fh)
    assert len(frozen) == 33
    for entry in frozen:
        series = FORMS[entry["call"]](*entry["args"])
        assert hashlib.sha256(series.to_json().encode()).hexdigest() == entry["sha256"], entry
