import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlambda.cyclotomic import CycNum, get_context
from genlambda.qseries import QSeries, WindowError


def test_mul_identity_window():
    s = QSeries.from_coeff_map(3, {1: 1, 2: 1}, 1, 3)
    one = QSeries.one(3, 3)
    assert (s * one) == s


def test_mul_window_arithmetic():
    a = QSeries.monomial(3, 1, -1, 2)
    b = QSeries.monomial(3, 1, 1, 4)
    p = a * b
    assert (p.ord, p.prec) == (0, 3)
    assert p.coeff(0) == 1


def test_mul_cyclotomic_coefficients():
    z = CycNum.zeta(3)
    p = QSeries.monomial(3, 1 - z, 1, 5) * QSeries.monomial(3, z, 1, 5)
    assert p.coeff(2) == CycNum(3, (1, 2))  # (z - z^2) = 1 + 2z


def test_inverse_geometric():
    g = QSeries.from_coeff_map(3, {0: 1, 1: -1}, 0, 7)
    gi = g.inverse()
    assert all(gi.coeff(k) == 1 for k in range(7))


def test_inverse_monomial():
    m = QSeries.monomial(5, 2, 3, 9)
    mi = m.inverse()
    assert mi.ord == -3 and mi.prec == 3
    assert mi.coeff(-3) == Fraction(1, 2)
    prod = m * mi
    assert prod.coeff(0) == 1 and prod.is_zero() is False


def test_inverse_of_e_constant():
    from genlambda.forms import e_series

    s = e_series(0, 1, 3, 3)
    assert s.coeff(0) == Fraction(-1, 3)
    assert s.inverse().coeff(0) == -3


def test_order():
    s = QSeries.from_coeff_map(4, {2: 1, 3: 1}, 2, 5)
    assert s.order() == 2
    s = QSeries.monomial(4, 5, -3, 2)
    assert s.order() == -3
    with pytest.raises(WindowError):
        QSeries.zero(4, 5).order()


def test_agreement():
    a = QSeries.from_coeff_map(3, {0: 1, 1: 2}, 0, 5)
    b = QSeries.from_coeff_map(3, {0: 1, 1: 2}, 0, 8)
    ok, lo, hi = a.agreement(b)
    assert ok and (lo, hi) == (0, 5)
    c = QSeries.from_coeff_map(3, {0: 1, 1: 3}, 0, 8)
    assert not a.agrees(c)
    with pytest.raises(WindowError):
        a.agreement(QSeries.from_coeff_map(3, {7: 1}, 7, 9))


def test_truncate_and_shift_and_twist():
    z = CycNum.zeta(5)
    s = QSeries.from_coeff_map(5, {1: z, 3: 1}, 1, 6)
    assert s.truncate(3).prec == 3
    assert s.shift(2).ord == 3 and s.shift(2).coeff(3) == z
    tw = s.twist(1)
    assert tw.coeff(1) == z * z and tw.coeff(3) == z**3


def test_json_round_trip():
    z = CycNum.zeta(4)
    s = QSeries.from_coeff_map(4, {-2: z, 0: Fraction(1, 3)}, -2, 4)
    assert QSeries.from_json_obj(json.loads(s.to_json())) == s
    obj = s.to_json_obj()
    assert obj["ord"] == -2 and obj["prec"] == 4 and len(obj["coeffs"]) == 6


def _series(level, lo=-4, width_max=8):
    phi = get_context(level).phi
    coord = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    coeff = st.tuples(*[coord] * phi).map(lambda t: CycNum(level, t))
    return st.builds(
        lambda o, cs: QSeries(level, o, cs, o + len(cs)),
        st.integers(min_value=lo, max_value=4),
        st.lists(coeff, min_size=1, max_size=width_max),
    )


def _assert_same_function(x, y):
    """Windows permitting, the two series describe the same function."""
    if x.is_zero() or y.is_zero():
        if x.is_zero() and y.is_zero():
            return
        nz, z = (x, y) if y.is_zero() else (y, x)
        assert nz.ord >= z.prec  # difference hides beyond the zero window
        return
    try:
        ok, _, _ = x.agreement(y)
    except WindowError:
        return  # disjoint windows: nothing to compare
    assert ok and x.ord == y.ord


@pytest.mark.parametrize("level", [3, 4, 5])
def test_ring_axioms_on_windows(level):
    @given(_series(level), _series(level), _series(level))
    def inner(a, b, c):
        _assert_same_function((a * b) * c, a * (b * c))
        _assert_same_function(a * (b + c), a * b + a * c)
        _assert_same_function(a * b, b * a)

    inner()


@pytest.mark.parametrize("level", [3, 5])
def test_double_inverse(level):
    @given(_series(level))
    def inner(a):
        if a.is_zero():
            return
        back = a.inverse().inverse()
        assert back.agrees(a)

    inner()


def test_window_bookkeeping_formulas():
    # output prec follows min(a.prec + b.ord, b.prec + a.ord) exactly
    a = QSeries.from_coeff_map(3, {-1: 2, 0: 1}, -1, 4)
    b = QSeries.from_coeff_map(3, {2: 1}, 2, 9)
    p = a * b
    assert p.ord == 1
    assert p.prec == min(4 + 2, 9 + (-1))
    # composing in different orders agrees on the common window
    c = QSeries.from_coeff_map(3, {0: 1, 1: 1}, 0, 6)
    assert ((a * b) * c).agrees(a * (b * c))


def _truncate(w, limit):
    """The window w = (ord, prec, coeffs) cut to exponents below limit."""
    o, p, cs = w
    if limit >= p:
        return w
    cs = cs[: max(limit - o, 0)]
    k = 0
    while k < len(cs) and cs[k].is_zero():
        k += 1
    return (limit, limit, ()) if k == len(cs) else (o + k, limit, tuple(cs[k:]))


def _window(level):
    """A normalized window with a possibly negative ord, or an empty one."""
    nonempty = _series(level, lo=-5, width_max=6).map(lambda s: (s.ord, s.prec, s.coeffs))
    empty = st.integers(-4, 6).map(lambda p: (p, p, ()))
    return st.one_of(nonempty, nonempty, empty)


@pytest.mark.parametrize("level", [3, 4, 5, 7])
def test_xpoly_mul_limit_is_truncated_product(level):
    from genlambda.qseries import xpoly_mul_windows

    poly = st.lists(_window(level), min_size=1, max_size=3)

    @given(poly, poly, st.integers(-8, 12))
    def inner(p, q, limit):
        full = xpoly_mul_windows(level, p, q)
        capped = xpoly_mul_windows(level, p, q, limit=limit)
        assert capped == [_truncate(w, limit) for w in full]
        assert all(w[1] <= limit for w in capped)

    inner()


def _as_rows(P):
    """CycNum windows in the integer form (den, windows of coordinate rows),
    over the least common denominator."""
    den = math.lcm(1, *(fr.denominator for _, _, cs in P for c in cs for fr in c.coords))
    return den, [(o, p, [[int(fr * den) for fr in c.coords] for c in cs]) for o, p, cs in P]


def _as_cyc(level, poly):
    """The CycNum windows of an X-polynomial in the integer form."""
    den, windows = poly
    return [
        (o, p, tuple(CycNum(level, [Fraction(x, den) for x in row]) for row in rows))
        for o, p, rows in windows
    ]


@pytest.mark.parametrize("level", [3, 4, 5, 7])
def test_product_tree_limit_is_truncated_product(level):
    """Demand-bounded tree against the same tree without limits, on monic
    leaves (leading coefficient 1 at q^0) like the orbit leaves."""
    from genlambda.minpoly import _tree_mul_compact
    from genlambda.qseries import xpoly_mul_windows

    def tree(leaves):
        if len(leaves) == 1:
            return leaves[0]
        mid = len(leaves) // 2
        return xpoly_mul_windows(level, tree(leaves[:mid]), tree(leaves[mid:]))

    one = (0, 9, (CycNum.one(level),) + (CycNum.zero(level),) * 8)
    leaf = st.lists(_window(level), min_size=1, max_size=2).map(lambda cs: cs + [one])

    @given(st.lists(leaf, min_size=1, max_size=5), st.integers(1, 6))
    def inner(leaves, limit):
        full = tree(leaves)
        capped = _tree_mul_compact(level, [_as_rows(p) for p in leaves], limit)
        assert _as_cyc(level, capped) == [_truncate(w, limit) for w in full]

    inner()


def _schoolbook(level, P, Q, limit=None):
    """xpoly_mul_windows by the definition: the window rule, then every
    coefficient as a plain sum of CycNum products."""
    out = []
    zero = CycNum.zero(level)
    for k in range(len(P) + len(Q) - 1):
        pairs = [(P[i], Q[k - i]) for i in range(len(P)) if 0 <= k - i < len(Q)]
        o = min(a[0] + b[0] for a, b in pairs)
        p = min(min(a[1] + b[0], b[1] + a[0]) for a, b in pairs)
        if limit is not None:
            p = min(p, limit)
        coeffs = []
        for e in range(o, p):
            acc = zero
            for (oa, _, ca), (ob, _, cb) in pairs:
                for ia, x in enumerate(ca):
                    ib = e - oa - ia - ob
                    if 0 <= ib < len(cb):
                        acc = acc + x * cb[ib]
            coeffs.append(acc)
        out.append(_strip((o, p, tuple(coeffs))))
    return out


def _strip(w):
    o, p, cs = w
    k = 0
    while k < len(cs) and cs[k].is_zero():
        k += 1
    return (p, p, ()) if k == len(cs) else (o + k, p, tuple(cs[k:]))


def _wide_window(level):
    """Windows whose coordinates include values beyond 4,300 decimal digits,
    which int() and format() refuse to convert as strings."""
    phi = get_context(level).phi
    huge = 10**4301
    coord = st.one_of(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.sampled_from([Fraction(huge + 3), Fraction(-huge, 7), Fraction(1, huge)]),
    )
    coeff = st.tuples(*[coord] * phi).map(lambda t: CycNum(level, t))
    nonempty = st.builds(
        lambda o, cs: _strip((o, o + len(cs), tuple(cs))),
        st.integers(min_value=-5, max_value=4),
        st.lists(coeff, min_size=1, max_size=5),
    )
    return st.one_of(nonempty, _window(level))


@pytest.mark.parametrize("engine", ["pairs", "whole", "blocked"])
@pytest.mark.parametrize("level", [3, 4, 5, 7, 8, 9, 12])
def test_xpoly_mul_matches_schoolbook(level, engine, monkeypatch):
    """Both engines, and the decimal engine in its one-product and q-blocked
    layouts, against the definition."""
    import genlambda.qseries as qs

    monkeypatch.setattr(qs, "_PAIRS_PER_LANE", float("inf") if engine == "pairs" else 0)
    wide = st.lists(st.one_of(_window(level), _wide_window(level)), min_size=1, max_size=3)
    poly = st.lists(_window(level), min_size=1, max_size=3)
    caps = st.sampled_from([1 << 60] if engine != "blocked" else [1, 60, 400, 5000])

    @settings(max_examples=25)
    @given(wide, poly, st.one_of(st.none(), st.integers(-8, 12)), caps)
    def inner(p, q, limit, cap):
        monkeypatch.setattr(qs, "_DIGIT_CAP", cap)
        assert qs.xpoly_mul_windows(level, p, q, limit=limit) == _schoolbook(level, p, q, limit)

    inner()


def test_decimal_engine_blocks_large_products(monkeypatch):
    """A product whose operands exceed the digit cap is split into q-blocks,
    multiplying only the block pairs below the limit."""
    import decimal

    import genlambda.qseries as qs

    products = []
    real = qs._decimal_context()

    class Counting:
        def __getattr__(self, name):
            return getattr(real, name)

        def multiply(self, a, b):
            products.append((len(str(a)), len(str(b))))
            return real.multiply(a, b)

    monkeypatch.setattr(qs, "_decimal_context", lambda: Counting())
    monkeypatch.setattr(qs, "_PAIRS_PER_LANE", 0)
    monkeypatch.setattr(qs, "_DIGIT_CAP", 2000)
    coeff = CycNum(5, (1, -2, 3, 4))
    w = (0, 40, (coeff,) * 40)
    got = qs.xpoly_mul_windows(5, [w, w], [w], limit=30)
    assert got == _schoolbook(5, [w, w], [w], 30)
    # 56 digits per q-lane make blocks of 18 lanes, two per operand; the
    # pair of second blocks starts at q^36, past the limit
    assert len(products) == 3
    assert all(max(a, b) <= 2000 + 1 for a, b in products)  # digits, and a sign
    assert (real.prec, real.Emax) == (decimal.MAX_PREC, decimal.MAX_EMAX)


@st.composite
def _growing_poly(draw, level, limit):
    """An X-polynomial whose coordinates grow along q, by a factor of up to
    10^40 per step; with `limit`, one coordinate of 10^400 may sit in a
    q-lane at or just beyond it, which a product computes but never reads."""
    phi = get_context(level).phi
    growth = draw(st.sampled_from([1, 3, 10**5, 10**40]))
    poly = []
    for _ in range(draw(st.integers(1, 3))):
        o = draw(st.integers(-5, 4))
        cs = []
        for i in range(draw(st.integers(0, 7))):
            coords = [
                Fraction(draw(st.integers(-9, 9)) * growth**i, draw(st.sampled_from([1, 1, 2, 7])))
                for _ in range(phi)
            ]
            cs.append(coords)
        if limit is not None and draw(st.booleans()):
            e = limit + draw(st.integers(0, 2))
            if o <= e < o + len(cs):
                cs[e - o][draw(st.integers(0, phi - 1))] = Fraction(-(10**400))
        poly.append(_strip((o, o + len(cs), tuple(CycNum(level, c) for c in cs))))
    return poly


@pytest.mark.parametrize("engine", ["pairs", "whole", "blocked"])
@pytest.mark.parametrize("level", [3, 4, 5, 7, 12])
def test_mul_rows_matches_schoolbook(level, engine, monkeypatch):
    """The integer-form product against the definition, with coordinates
    that grow along q and a large coordinate in a computed lane that no
    window reads; the result is over its least common denominator."""
    import genlambda.qseries as qs

    monkeypatch.setattr(qs, "_PAIRS_PER_LANE", float("inf") if engine == "pairs" else 0)
    caps = st.sampled_from([1 << 60] if engine != "blocked" else [1, 200, 3000, 20000])

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.one_of(st.none(), st.integers(-6, 10)), caps)
    def inner(data, limit, cap):
        monkeypatch.setattr(qs, "_DIGIT_CAP", cap)
        p = data.draw(_growing_poly(level, limit))
        q = data.draw(_growing_poly(level, None))
        den, windows = qs._mul_rows(level, _as_rows(p), _as_rows(q), limit=limit)
        assert _as_cyc(level, (den, windows)) == _schoolbook(level, p, q, limit)
        assert math.gcd(den, *(x for _, _, rows in windows for row in rows for x in row)) == 1

    inner()


@pytest.mark.parametrize("level", [3, 4, 5, 7, 12])
def test_rows_inverse_is_inverse(level):
    """f * f^-1 = 1 on the window of the inverse, for series with negative
    ords and leading coefficients that are not integral."""
    from genlambda.qseries import _invert_rows

    phi = get_context(level).phi
    coord = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    coeff = st.tuples(*[coord] * phi).map(lambda t: CycNum(level, t))
    lead = st.tuples(*[coord] * phi).filter(any).map(lambda t: CycNum(level, t))
    lead = st.one_of(lead.filter(lambda c: not c.is_integral()), lead)

    @settings(max_examples=40, deadline=None)
    @given(lead, st.lists(coeff, max_size=9), st.integers(-4, 3))
    def inner(c0, rest, o):
        f = QSeries(level, o, (c0, *rest), o + 1 + len(rest))
        den, ((_, _, rows),) = _as_rows([(0, 0, f.coeffs)])
        width = f.prec - f.ord
        d_inv, inv = _invert_rows(level, den, rows, width)
        assert len(inv) == width
        ((_, _, coeffs),) = _as_cyc(level, (d_inv, [(0, 0, inv)]))
        g = QSeries(level, -o, coeffs, f.prec - 2 * o)
        assert g == f.inverse()
        ((po, pp, prod),) = _schoolbook(
            level, [(f.ord, f.prec, f.coeffs)], [(g.ord, g.prec, g.coeffs)]
        )
        assert (po, pp) == (0, width)
        assert prod == (CycNum.one(level),) + (CycNum.zero(level),) * (width - 1)

    inner()
