from fractions import Fraction

from genlambda import polyk as pk
from genlambda.cyclotomic import CycNum


def test_basic_arithmetic():
    n = 3
    one = CycNum.one(n)
    z = CycNum.zeta(n)
    p = pk.pmul((CycNum.from_rational(n, -1), one), (-z, one))
    assert p == (z, -(one + z), one)  # (X-1)(X-z)
    assert pk.peval(p, z).is_zero()
    assert pk.peval(p, CycNum.one(n)).is_zero()
    assert pk.pderiv(p) == (-(one + z), CycNum.from_rational(n, 2))
    assert pk.deg(p) == 2 and pk.deg(()) == -1


def test_nth_root():
    n = 3
    one = CycNum.one(n)
    z = CycNum.zeta(n)
    h = (CycNum.from_rational(n, 3), z, one)
    assert pk.nth_root_monic(pk.ppow(h, 3), 3, n) == h
    assert pk.nth_root_monic(pk.ppow(h, 2), 2, n) == h
    spoiled = pk.padd(pk.ppow(h, 3), pk.constant(n, 1))
    assert pk.nth_root_monic(spoiled, 3, n) is None


def test_squarefree_certificate():
    n = 3
    one = CycNum.one(n)
    g = pk.pmul((one, one), (CycNum.from_rational(n, -2), one))
    assert pk.squarefree_certificate(g, n)
    assert not pk.squarefree_certificate(pk.pmul(g, (one, one)), n)
    n5 = 5
    z5 = CycNum.zeta(n5)
    poly = pk.pmul(
        (z5 / 3, CycNum.one(n5)),
        (CycNum.from_rational(n5, Fraction(2, 7)), CycNum.one(n5)),
    )
    assert pk.squarefree_certificate(poly, n5)


def test_monic_from_roots_and_conj():
    n = 4
    i = CycNum.zeta(n)
    p = pk.monic_from_roots(n, [i, -i], multiplicity=2)
    # (X - i)^2 (X + i)^2 = (X^2 + 1)^2
    x2p1 = (CycNum.one(n), CycNum.zero(n), CycNum.one(n))
    assert p == pk.pmul(x2p1, x2p1)
    assert pk.pconj((i, CycNum.one(n))) == (-i, CycNum.one(n))


# -- differential tests of the integer kernels against schoolbook CycNum ----

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

import genlambda.qseries as qs
from genlambda.cyclotomic import get_context

KERNEL_LEVELS = (3, 4, 5, 6, 7, 8, 9, 12)


def ref_mul(p, q):
    """Schoolbook product on CycNum, the reference for pmul."""
    if not p or not q:
        return ()
    out = [CycNum.zero(p[0].level)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return pk.trim(out)


def ref_pow(p, e):
    out = (CycNum.one(p[0].level),)
    for _ in range(e):
        out = ref_mul(out, p)
    return out


coordinate = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60),
)


@st.composite
def polys(draw, level, max_len=7):
    phi = get_context(level).phi
    coeffs = draw(
        st.lists(st.lists(coordinate, min_size=phi, max_size=phi), max_size=max_len)
    )
    return pk.trim(tuple(CycNum(level, c) for c in coeffs))


@contextlib.contextmanager
def engine(data):
    """Force one of the product engines of qseries: the pair loop, the whole
    decimal product, or the decimal product cut into blocks."""
    saved = qs._PAIRS_PER_LANE, qs._DIGIT_CAP
    name = data.draw(st.sampled_from(["pairs", "whole", "blocked"]))
    qs._PAIRS_PER_LANE = float("inf") if name == "pairs" else 0
    if name == "blocked":
        qs._DIGIT_CAP = data.draw(st.sampled_from([1, 200, 3000, 20000]))
    try:
        yield
    finally:
        qs._PAIRS_PER_LANE, qs._DIGIT_CAP = saved


@settings(max_examples=150)
@given(st.data())
def test_pmul_ppow_match_schoolbook(data):
    n = data.draw(st.sampled_from(KERNEL_LEVELS))
    p, q = data.draw(polys(n)), data.draw(polys(n))
    with engine(data):
        assert pk.pmul(p, q) == ref_mul(p, q)
        if p:
            e = data.draw(st.integers(0, 4))
            assert pk.ppow(p, e) == ref_pow(p, e)


@given(st.data())
def test_nth_root_and_peval_match_reference(data):
    n = data.draw(st.sampled_from(KERNEL_LEVELS))
    h = pk.trim(data.draw(polys(n, max_len=5)) + (CycNum.one(n),))
    r = data.draw(st.sampled_from((2, 3)))
    f = ref_pow(h, r)
    assert pk.nth_root_monic(f, r, n) == h
    spoiled = pk.padd(f, pk.constant(n, data.draw(st.sampled_from((1, -2, Fraction(1, 3))))))
    assert pk.nth_root_monic(spoiled, r, n) is None
    x = data.draw(polys(n, max_len=1))
    x = x[0] if x else CycNum.zero(n)
    acc = CycNum.zero(n)
    for c in reversed(f):
        acc = acc * x + c
    assert pk.peval(f, x) == acc
