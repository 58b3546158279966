import json
import random
from fractions import Fraction

import pytest

from genlambda import polyk as pk
from genlambda.cyclotomic import CycNum
from genlambda.forms import j_series
from genlambda.minpoly import (
    BivarPoly,
    GridSupportError,
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


def test_disk_cache(tmp_path):
    import genlambda.minpoly as mp

    cache = str(tmp_path / "cache")
    mp._MEMO.pop((3, 9, "min"), None)
    F1 = build_F(3, cache_dir=cache)
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1
    mp._MEMO.pop((3, 9, "min"), None)
    F2 = build_F(3, cache_dir=cache)  # loads and revalidates
    assert F1.to_json() == F2.to_json()
    # semantic corruption: parses fine, fails the root-identity revalidation
    obj = json.loads(files[0].read_text())
    entry = obj["P"][3]["poly"][0]["coords"][0]
    entry[0] = str(int(entry[0]) + 1)
    files[0].write_text(json.dumps(obj))
    mp._MEMO.pop((3, 9, "min"), None)
    F3 = build_F(3, cache_dir=cache)
    assert F3.to_json() == F1.to_json()


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


@pytest.mark.xfail(
    strict=True,
    reason="the disk cache revalidates with the same window, so it reuses "
    "an F(4) whose P_1 constant term was changed",
)
def test_disk_cache_rebuilds_low_index_change(built_levels, tmp_path, monkeypatch):
    import genlambda.minpoly as mp

    F = built_levels[4]
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"F_N4_p{F.prec}_v{mp.FORMAT_VERSION}.json").write_text(
        _raise_p1_constant(F).to_json()
    )
    monkeypatch.setattr(mp, "_MEMO", {})
    assert build_F(4, cache_dir=str(cache)).to_json() == F.to_json()


def test_disk_cache_concurrent_writers(built_levels, tmp_path):
    """Two processes rewrite one cache file at the same time: neither
    fails, no temporary file is left, and the file holds F."""
    import os
    import subprocess
    import sys
    import time

    import genlambda
    import genlambda.minpoly as mp

    src = os.path.dirname(os.path.dirname(os.path.abspath(genlambda.__file__)))
    path = tmp_path / "cache" / "F_N3.json"
    code = (
        "import sys, time\n"
        "from genlambda import minpoly as mp\n"
        "F = mp.build_F(3, self_check=False)\n"
        "start = float(sys.argv[2])\n"
        "while time.time() < start:\n"
        "    time.sleep(0.005)\n"
        "while time.time() < start + 0.5:\n"
        "    mp._store_cached(sys.argv[1], F)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = str(time.time() + 3)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code, str(path), start], env=env, stderr=subprocess.PIPE
        )
        for _ in range(2)
    ]
    errors = [p.communicate(timeout=120)[1].decode() for p in procs]
    assert [p.returncode for p in procs] == [0, 0], errors
    assert os.listdir(path.parent) == [path.name]
    F = built_levels[3]
    assert mp._load_cached(str(path), 3, F.prec).to_json() == F.to_json()


def test_disk_cache_rebuilds_wrong_shape(built_levels, tmp_path, monkeypatch):
    """A cached F(3) whose ellN is wrong passes the root identity but is
    rejected by the shape check, rebuilt and rewritten."""
    import genlambda.minpoly as mp

    F = built_levels[3]
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / f"F_N3_p{F.prec}_v{mp.FORMAT_VERSION}.json"
    obj = json.loads(F.to_json())
    obj["ellN"] = 2
    path.write_text(json.dumps(obj))
    assert check_root_identity(BivarPoly.from_json_obj(obj))
    monkeypatch.setattr(mp, "_MEMO", {})
    G = build_F(3, cache_dir=str(cache))
    assert G.ell == 1 and G.to_json() == F.to_json()
    assert path.read_text() == F.to_json()


def test_self_check_failure_is_named(monkeypatch):
    import genlambda.minpoly as mp

    monkeypatch.setattr(mp, "_MEMO", {})
    monkeypatch.setattr(mp, "check_root_identity", lambda *args, **kwargs: False)
    with pytest.raises(mp.SelfCheckError, match="self-check failed"):
        build_F(3)
    assert issubclass(mp.SelfCheckError, AssertionError)


def test_load_cached_rebuilds_mutated_json(built_levels, tmp_path):
    """A cache file changed at one place (a value replaced, removed or
    duplicated) or cut short is loaded as a level-3 F that passes the root
    identity, or rejected for a rebuild; no exception escapes."""
    import copy

    from hypothesis import given, settings
    from hypothesis import strategies as st

    import genlambda.minpoly as mp

    F = built_levels[3]
    base = json.loads(F.to_json())
    path = tmp_path / "F.json"
    values = st.one_of(
        st.integers(-3, 12),
        st.sampled_from([10**30, "9" * 5000, "1/2", 1e300, float("inf"), float("nan")]),
        st.sampled_from([[], {}, None, True]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=4),
        st.lists(st.integers(-2, 2), max_size=3),
    )

    @st.composite
    def mutated(draw):
        obj = copy.deepcopy(base)
        places = []

        def walk(node):
            keys = node if isinstance(node, dict) else range(len(node))
            for k in keys:
                places.append((node, k))
                if isinstance(node[k], (dict, list)):
                    walk(node[k])

        walk(obj)
        node, k = draw(st.sampled_from(places))
        action = draw(st.sampled_from(["replace", "remove", "duplicate"]))
        if action == "replace":
            node[k] = draw(values)
        elif action == "remove":
            del node[k]
        elif isinstance(node, list):
            node.insert(k, copy.deepcopy(node[k]))
        else:
            node[k] = [node[k], node[k]]
        text = json.dumps(obj)
        if draw(st.booleans()):
            text = text[: draw(st.integers(0, len(text)))]
        return text

    @settings(max_examples=300, deadline=None)
    @given(mutated())
    def inner(text):
        path.write_text(text)
        G = mp._load_cached(str(path), 3, F.prec)
        if G is not None:
            assert (G.level, G.d, len(G.P)) == (3, F.d, F.d + 1)
            assert all(c.level == 3 for p in G.P for c in p)
            assert check_root_identity(G)

    inner()
