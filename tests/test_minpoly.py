import json
import random
from fractions import Fraction

import pytest

from genlambda import polyk as pk
from genlambda.cyclotomic import CycNum
from genlambda.forms import j_series
import genlambda.minpoly as mp
from genlambda.minpoly import (
    BivarPoly,
    GridSupportError,
    PrecisionError,
    ReductionError,
    build_F,
    check_root_identity,
    product_poly,
    q0_structure,
    rational_j_expression,
    reduce_to_j,
    specialize_and_factor,
    verify_theorem1,
)
from genlambda.modgroup import transversal
from genlambda.qseries import QSeries


def test_degrees(built_levels):
    for n, (d, ell) in {3: (12, 1), 4: (24, 1), 5: (60, 4)}.items():
        F = built_levels[n]
        assert F.d == d
        assert F.y_degree() == ell == F.ell


def test_monic_and_tail(built_levels):
    for n in (3, 4, 5):
        F = built_levels[n]
        assert F.P[0] == (CycNum.one(n),)
        assert F.P[F.d] == (CycNum.one(n),)


def test_product_poly_shape():
    coeffs = product_poly(3)
    assert len(coeffs) == 13
    # X^12 coefficient is the constant series 1
    top = coeffs[12]
    assert top.ord == 0 and top.coeff(0) == 1
    assert all(k % 3 == 0 for k, _ in coeffs[0].items())


def _as_cyc(level, poly):
    """The CycNum windows of an X-polynomial in the integer form (den,
    windows of coordinate rows), or of one window (den, window)."""
    den, windows = poly
    windows = [windows] if isinstance(windows, tuple) else windows
    return [
        (o, p, tuple(CycNum(level, [Fraction(x, den) for x in row]) for row in rows))
        for o, p, rows in windows
    ]


def _linear_factor_leaf(n, rep, leaf_prec, one_prec):
    """prod_i (X - f(zeta^i q)) multiplied out factor by factor on dense
    series, then compressed to the q^N grid."""
    from genlambda.lam import lambda_series
    from genlambda.minpoly import _compress
    from genlambda.qseries import xpoly_mul_windows

    f = lambda_series(rep.matrix, leaf_prec)
    one = QSeries.one(n, one_prec)
    poly = [(0, one_prec, one.coeffs)]
    for i in range(n):
        g = -f.twist(i)
        poly = xpoly_mul_windows(n, poly, [(g.ord, g.prec, g.coeffs), (0, one_prec, one.coeffs)])
    return [_as_cyc(n, _compress(QSeries(n, o, cs, p)))[0] for (o, p, cs) in poly]


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_power_sum_leaves_match_linear_factors(n):
    """The orbit leaves from power sums and Newton's identities equal the
    product of the N linear factors, windows included, at every cusp."""
    from genlambda.minpoly import _orbit_poly
    from genlambda.modgroup import cusp_reps, nu_statistics

    ell, _ = nu_statistics(n)
    leaf_prec = n * (ell + 2) + n * ell + 2 * n
    one_prec = leaf_prec + n * ell + n
    for rep in cusp_reps(n):
        got = _as_cyc(n, _orbit_poly(n, rep.pair, "min", leaf_prec, one_prec))
        assert got == _linear_factor_leaf(n, rep, leaf_prec, one_prec), rep.pair


def test_reduce_to_j_examples():
    j = j_series(3, 12)
    assert reduce_to_j(j) == (CycNum.zero(3), CycNum.one(3))
    c = QSeries.monomial(3, Fraction(5, 7), 0, 9)
    assert reduce_to_j(c) == (CycNum.from_rational(3, Fraction(5, 7)),)
    f = j * j - j * 1488
    assert reduce_to_j(f) == (
        CycNum.zero(3),
        CycNum.from_rational(3, -1488),
        CycNum.one(3),
    )


def test_reduce_rejects_off_grid():
    bad = QSeries.from_coeff_map(3, {-3: 1, 1: 1}, -3, 6)
    with pytest.raises(GridSupportError):
        reduce_to_j(bad)


def test_reduce_rejects_non_modular():
    # a grid series that is not a polynomial in j leaves a remainder
    bad = QSeries.from_coeff_map(3, {-3: 1, 0: 744, 3: 196883}, -3, 7)
    with pytest.raises(ReductionError):
        reduce_to_j(bad)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_theorem_suite(n, built_levels):
    report = verify_theorem1(built_levels[n])
    assert report.claimed
    assert report.ok, report.lines()


def test_root_identity_random_matrices(built_levels):
    rng = random.Random(17)
    for n in (3, 4, 5):
        mats = [cr.matrix for cr in transversal(n)]
        picks = rng.sample(mats, 3)
        assert check_root_identity(built_levels[n], picks)


def test_specializations_cube_square(built_levels):
    for n in (3, 4, 5):
        F = built_levels[n]
        cube = specialize_and_factor(F, 0)
        assert cube.ok and pk.deg(cube.base) == F.d // 3
        assert not cube.base[0].is_zero()
        square = specialize_and_factor(F, 1728)
        assert square.ok and pk.deg(square.base) == F.d // 2
        assert not square.base[0].is_zero()
        free = specialize_and_factor(F, 7)
        assert free.ok and free.kind == "squarefree"


def test_h1_matches_published_roots_exactly(built_levels):
    # the cube root of F(X, 0) for level 3 has the four published linear factors
    n = 3
    z = CycNum.zeta(n)
    one = CycNum.one(n)
    cert = specialize_and_factor(built_levels[3], 0)
    expected = pk.pmul(
        pk.pmul((z - 1, one), ((z - 1) / 3, one)),
        pk.pmul((z + 1, one), (-(z + 1), one)),
    )
    assert cert.base == expected


def test_h2_matches_published_roots(built_levels):
    # the square root of F(X, 1728) for level 3: pair the six published roots
    # into K_3 quadratics and compare exactly, then match roots numerically
    n = 3
    z = CycNum.zeta(n)
    one = CycNum.one(n)
    zero = CycNum.zero(n)
    cert = specialize_and_factor(built_levels[3], 1728)
    q1 = (z * z + 1, 2 * z, one)  # (X + z)^2 + 1
    q2 = ((z * z + 1), CycNum.from_rational(n, -2), one)  # (X - 1)^2 + z^2
    q3 = ((one + z) * (one + z), zero, one)  # X^2 + (1 + z)^2
    assert cert.base == pk.pmul(pk.pmul(q1, q2), q3)

    import cmath

    import numpy as np

    zc = cmath.exp(2j * cmath.pi / 3)
    published = [
        1j - zc,
        -1j - zc,
        1 - 1j * zc,
        1 + 1j * zc,
        1j + 1j * zc,
        -1j - 1j * zc,
    ]
    coeffs = [c.embed() for c in reversed(cert.base)]
    roots = list(np.roots(coeffs))
    for target in published:
        best = min(range(len(roots)), key=lambda k: abs(roots[k] - target))
        assert abs(roots[best] - target) < 1e-10
        roots.pop(best)


def test_rational_j_expression_level3(built_levels):
    n = 3
    z = CycNum.zeta(n)
    one = CycNum.one(n)
    Q0, Q1 = rational_j_expression(built_levels[3])
    B = pk.pmul(
        pk.pmul((z - 1, one), ((z - 1) / 3, one)),
        pk.pmul((z + 1, one), (-(z + 1), one)),
    )
    C = pk.pmul(pk.pmul((CycNum.zero(n), one), (-one, one)), (z, one))
    sqrt_m3 = 1 + 2 * z
    assert pk.pmul(Q1, pk.ppow(C, 3)) == pk.pscale(
        pk.pmul(pk.ppow(B, 3), Q0), 81 * sqrt_m3
    )
    # Q0 itself is proportional to C^3
    lc = Q0[-1]
    assert Q0 == pk.pscale(pk.ppow(C, 3), lc)


def test_rational_j_expression_level4(built_levels):
    n = 4
    i = CycNum.zeta(n)
    one = CycNum.one(n)
    zero = CycNum.zero(n)
    Q0, Q1 = rational_j_expression(built_levels[4])
    quads = [
        (-i, -(one - 2 * i), one),
        (-i, -(2 * one - i), one),
        (one, -one, one),
        (-one, i, one),
    ]
    B = (one,)
    for q in quads:
        B = pk.pmul(B, q)
    C = (one,)
    for root_neg in (zero, i, -one, i - 1, -(one - i) / 2):
        C = pk.pmul(C, (root_neg, one))
    assert pk.pmul(Q1, pk.ppow(C, 4)) == pk.pscale(pk.pmul(pk.ppow(B, 3), Q0), 64)
    with pytest.raises(ValueError):
        rational_j_expression(built_levels[5])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_q0_structure(n, built_levels):
    ok, detail = q0_structure(built_levels[n])
    assert ok, detail


def test_convention_independence(built_levels):
    for n in (3, 4):
        alt = build_F(n, convention="max")
        assert alt.to_json() == built_levels[n].to_json()


def test_precision_doubling_bit_identical(built_levels):
    for n in (3, 4):
        base = built_levels[n]
        doubled = build_F(n, prec=2 * n * (base.ell + 2))
        assert doubled.to_json() == base.to_json()


def test_json_round_trip_and_revalidation(built_levels, tmp_path):
    F = built_levels[3]
    loaded = BivarPoly.from_json_obj(json.loads(F.to_json()))
    assert loaded.to_json() == F.to_json()
    assert verify_theorem1(loaded).ok
    assert check_root_identity(loaded)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_default_build_is_at_the_proved_window(n):
    """The default product is known through q^0 on the q^N grid and no
    further (target_g = 1), the window the module docstring proves exact."""
    _, meta = mp._product_poly_compact(n)
    assert meta["target"] == n and meta["target_g"] == 1


def test_proved_window_matches_doubled_old_window(built_levels):
    """At N = 5 the default window (through q^0) and twice the old one
    (q^60, with 11 grid terms past q^0 re-checked) give the same F."""
    F = built_levels[5]
    assert F.prec == 5
    assert build_F(5, prec=2 * 5 * (F.ell + 2)).to_json() == F.to_json()


def test_reduce_rejects_short_j_powers():
    """A j-power too short to reach grid 0 leaves the constant term unread:
    PrecisionError, not a P_i with its constant term dropped."""
    n = 3
    (den, coeffs), meta = mp._product_poly_compact(n)
    ell = meta["ell"]
    polar = [w for w in coeffs if w[0] < 0]
    assert polar
    enough = mp._j_powers_compact(n, n * ell, ell)  # j known below grid 1
    short = mp._j_powers_compact(n, n * ell - n, ell)  # j known below grid 0
    for w in polar:
        assert mp._reduce_compact(n, (den, w), enough, ell)
        with pytest.raises(PrecisionError):
            mp._reduce_compact(n, (den, w), short, ell)


def test_prec_below_minimum_rejected():
    with pytest.raises(ValueError):
        build_F(3, prec=5)


def test_level6_runs_with_unclaimed_report():
    F6 = build_F(6)
    assert F6.d == 72
    rep = verify_theorem1(F6)
    assert not rep.claimed
    assert rep.lines()[0].startswith("level 6")


def test_threads_parameter_matches_serial():
    import genlambda.minpoly as mp

    serial, _ = mp._product_poly_compact(3, threads=1)
    parallel, _ = mp._product_poly_compact(3, threads=2)
    assert serial == parallel


def test_pool_failure_warns_and_falls_back(monkeypatch):
    import concurrent.futures

    import genlambda.minpoly as mp

    class BrokenPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no processes here")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
    serial, _ = mp._product_poly_compact(3, threads=1)
    with pytest.warns(RuntimeWarning, match="OSError"):
        fallback, _ = mp._product_poly_compact(3, threads=2)
    assert fallback == serial


def test_memo_keeps_only_checked_builds(monkeypatch):
    import genlambda.minpoly as mp

    calls = []
    real = mp.check_root_identity

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mp, "_MEMO", {})
    monkeypatch.setattr(mp, "check_root_identity", counting)
    unchecked = build_F(3, self_check=False)
    assert calls == []
    checked = build_F(3)
    assert len(calls) == 1
    assert checked.to_json() == unchecked.to_json()
    assert build_F(3) is checked and len(calls) == 1


def _raise_p1_constant(F):
    """F with +1 on the constant term of P_1: F(lambda, j) = 0 fails, but
    the change first shows at q^(d-1), beyond the checked window."""
    n = F.level
    c = F.P[1][0]
    P = (F.P[0], (c + 1,) + F.P[1][1:]) + F.P[2:]
    return BivarPoly(level=n, d=F.d, ell=F.ell, t=F.t, prec=F.prec, P=P)


@pytest.mark.xfail(
    strict=True,
    reason="check_root_identity reads a window that a change to the constant "
    "term of P_1 of F(4) does not reach; a proved window is future work",
)
def test_root_identity_rejects_low_index_change(built_levels):
    assert not check_root_identity(_raise_p1_constant(built_levels[4]))


@pytest.mark.parametrize("n", [3, 4])
def test_root_identity_at_every_cusp(n, built_levels):
    """The check reaches its window at each cusp, poles of lambda∘A
    included; at the pole cusp (0, 1) it also rejects the change to P_1
    that passes at infinity."""
    from genlambda.modgroup import cusp_reps

    F = built_levels[n]
    for rep in cusp_reps(n):
        assert check_root_identity(F, [rep.matrix]), rep.pair
        if rep.pair == (0, 1):
            assert not check_root_identity(_raise_p1_constant(F), [rep.matrix])


def test_self_check_failure_is_named(monkeypatch):
    import genlambda.minpoly as mp

    monkeypatch.setattr(mp, "_MEMO", {})
    monkeypatch.setattr(mp, "check_root_identity", lambda *args, **kwargs: False)
    with pytest.raises(mp.SelfCheckError, match="self-check failed"):
        build_F(3)
    assert issubclass(mp.SelfCheckError, AssertionError)
