"""Generators of the exact q-expansions: the weight-2 division values
E(tau; r, s), the modular invariant j, eta-quotient powers, and the
classical lambda function used as a level-4 helper.

All series live in the common variable q = exp(2*pi*i*tau/N); series that
are really functions of q^N (j, the eta quotients) carry zero coefficients
off the N-grid so products need no variable changes. Their integer
factors (E4, eta powers, the products of the classical lambda) are
multiplied, powered and inverted as level-1 QSeries in x = q^N or q^(N/2),
on the product engine of `qseries`, and then spread onto the q-grid.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import CycNum
from .modgroup import SL2Mat, brace_mu
from .qseries import QSeries


def e_transform(idx: tuple[int, int], m: SL2Mat) -> tuple[int, int]:
    """Index transformation under weight-2 slash action: (r, s) -> (r, s) * A."""
    r, s = idx
    n = m.level
    return ((m.a * r + m.c * s) % n, (m.b * r + m.d * s) % n)


@lru_cache(maxsize=None)
def e_series(r: int, s: int, n: int, prec: int) -> QSeries:
    """Exact expansion of E(tau; r, s) to exponents < prec.

    Two cases: for r ≡ 0 the series is the constant w/(1-w)^2 plus the
    double sum n(w^n + w^-n - 2) q^(mnN); otherwise it starts with
    sum n u^n for u = w q^{r} and carries the same double-sum tail, with
    w = zeta^(mu(r) s).
    """
    r, s = r % n, s % n
    if (r, s) == (0, 0):
        raise ValueError("index (0, 0) is excluded")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    br, mu = brace_mu(r, n)
    omega = CycNum.zeta(n, (mu * s) % n)
    acc: dict[int, CycNum] = {}

    def add(k: int, c: CycNum):
        if k < prec:
            acc[k] = acc[k] + c if k in acc else c

    if br == 0:
        one = CycNum.one(n)
        const = omega / ((one - omega) * (one - omega))
        add(0, const)
        m_ = 1
        while m_ * n < prec:
            nn = 1
            while m_ * nn * n < prec:
                w_n = CycNum.zeta(n, (mu * s * nn) % n)
                term = (w_n + CycNum.zeta(n, (-mu * s * nn) % n) - 2) * nn
                add(m_ * nn * n, term)
                nn += 1
            m_ += 1
    else:
        nn = 1
        while nn * br < prec:
            add(nn * br, CycNum.zeta(n, (mu * s * nn) % n) * nn)
            nn += 1
        nn = 1
        # smallest double-sum exponent for given n is n*(N - {r}) >= n*N/2 > 0
        while nn * (n - br) < prec:
            m_ = 1
            while m_ * nn * n - nn * br < prec:
                w_n = CycNum.zeta(n, (mu * s * nn) % n)
                base = m_ * nn * n
                add(base + nn * br, w_n * nn)
                add(base - nn * br, CycNum.zeta(n, (-mu * s * nn) % n) * nn)
                add(base, CycNum.from_rational(n, -2 * nn))
                m_ += 1
            nn += 1
    return QSeries.from_coeff_map(n, acc, 0, prec)


def leading_theta(
    idx1: tuple[int, int], idx2: tuple[int, int], n: int
) -> tuple[CycNum, int]:
    """Leading coefficient and order of E(idx1) - E(idx2).

    Requires idx1, idx2 nonzero mod N and idx1 not ≡ +-idx2. If {r1} > {r2}
    the roles are swapped internally and the sign of theta flipped.
    """
    r1, s1 = idx1[0] % n, idx1[1] % n
    r2, s2 = idx2[0] % n, idx2[1] % n
    if (r1, s1) == (0, 0) or (r2, s2) == (0, 0):
        raise ValueError("index (0, 0) is excluded")
    if (r1 - r2) % n == 0 and (s1 - s2) % n == 0:
        raise ValueError("indices are congruent; difference vanishes")
    if (r1 + r2) % n == 0 and (s1 + s2) % n == 0:
        raise ValueError("indices are opposite; difference vanishes")
    br1, mu1 = brace_mu(r1, n)
    br2, mu2 = brace_mu(r2, n)
    sign = 1
    if br1 > br2:
        (br1, mu1, s1), (br2, mu2, s2) = (br2, mu2, s2), (br1, mu1, s1)
        sign = -1
    w1 = CycNum.zeta(n, (mu1 * s1) % n)
    w2 = CycNum.zeta(n, (mu2 * s2) % n)
    one = CycNum.one(n)
    if br1 == br2:
        if br1 != 0 and 2 * br1 != n:
            theta = w1 - w2
        elif 2 * br1 == n:
            theta = -(w1 - w2) * (one - w1 * w2) / (w1 * w2)
        else:
            theta = (w1 - w2) * (one - w1 * w2) / (
                (one - w1) * (one - w1) * (one - w2) * (one - w2)
            )
    else:
        if br1 != 0:
            theta = w1
        else:
            theta = w1 / ((one - w1) * (one - w1))
    if sign < 0:
        theta = -theta
    if theta.is_zero():
        raise ArithmeticError("leading coefficient vanished; invalid index pair")
    return theta, br1


# ---------------------------------------------------------------------------
# eta-type products and j
# ---------------------------------------------------------------------------


def _euler_product(terms: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - x^n) to x^(terms-1), by the pentagonal
    number theorem."""
    out = [0] * terms
    out[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= terms and g2 >= terms:
            break
        sign = -1 if k % 2 else 1
        if g1 < terms:
            out[g1] += sign
        if g2 < terms:
            out[g2] += sign
        k += 1
    return out


def _eta_power(step: int, terms: int, e: int) -> QSeries:
    """prod_{n>=1} (1 - x^(step n))^e to x^(terms-1), as a level-1 series."""
    coeffs = [0] * terms
    coeffs[::step] = _euler_product((terms - 1) // step + 1)
    return QSeries(1, 0, coeffs, terms) ** e


def _spread(n: int, s: QSeries, step: int, shift: int, prec: int) -> QSeries:
    """The level-n series sum c_m q^(step m + shift) to exponents < prec, from
    a level-1 series sum c_m x^m with integer coefficients c_m."""
    coeffs = {}
    for m, c in s.items():
        k = step * m + shift
        if k < prec:
            (v,) = c.coords
            assert v.denominator == 1
            coeffs[k] = CycNum.from_rational(n, v)
    return QSeries.from_coeff_map(n, coeffs, shift, prec)


def _sigma_k(m: int, k: int) -> int:
    return sum(d**k for d in range(1, m + 1) if m % d == 0)


@lru_cache(maxsize=None)
def j_series(n: int, prec: int) -> QSeries:
    """Expansion of the modular invariant j = E4^3 / Delta in q, supported on
    the N-grid, order -N, integer coefficients (744 constant term)."""
    if prec <= -n:
        raise ValueError("window must reach beyond the pole order -N")
    terms = (prec - 1) // n + 2  # x-coefficients needed, x = q^N
    e4 = QSeries(1, 0, [1] + [240 * _sigma_k(m, 3) for m in range(1, terms)], terms)
    return _spread(n, e4**3 * _eta_power(1, terms, 24).inverse(), n, -n, prec)


@lru_cache(maxsize=None)
def g_pow_series(n: int, prec: int) -> QSeries:
    """The eta quotient (eta(tau)/eta(N tau))^(24/(N-1)) for N in {3, 4}:
    q^-N prod (1-q^(Nn))^e / prod (1-q^(N^2 n))^e with e = 24/(N-1)."""
    if n not in (3, 4):
        raise ValueError("eta-quotient power is only a generator for N = 3, 4")
    e = 24 // (n - 1)
    terms = (prec - 1) // n + 2  # x-coefficients needed, x = q^N
    ratio = _eta_power(1, terms, e) * _eta_power(n, terms, e).inverse()
    return _spread(n, ratio, n, -n, prec)


@lru_cache(maxsize=None)
def lambda_classical_series(prec: int, n: int = 4) -> QSeries:
    """The classical elliptic modular lambda as a series in q^(N/2):
    16 q_h prod ((1 + q_h^(2m)) / (1 + q_h^(2m-1)))^8 with q_h = q^(N/2).

    Defined in even-level context only (level 4 in practice).
    """
    if n % 2 != 0:
        raise ValueError("classical lambda needs an even-level context")
    h = n // 2
    terms = max((prec - 1) // h + 1, 2)  # t-coefficients, t = q_h
    # numerator prod (1 + t^(2m)), denominator prod (1 + t^(2m-1)), in place
    num, den = [1] + [0] * (terms - 1), [1] + [0] * (terms - 1)
    for k in range(1, terms):
        f = den if k % 2 else num
        for i in range(terms - 1, k - 1, -1):
            f[i] += f[i - k]
    ratio = QSeries(1, 0, num, terms) * QSeries(1, 0, den, terms).inverse()
    # the ratio of the two products is integral; power it as integers
    assert all(c.is_integral() for c in ratio.coeffs)
    # the leading 16 q_h shifts everything by one t
    return _spread(n, ratio**8 * 16, h, h, prec)


def lambda_level2_series(prec: int, n: int = 4) -> QSeries:
    """The level-2 generalized lambda in the swapped-basis convention,
    (lam - 1)/lam applied to the classical product expansion.

    The two conventions are cross-ratios of the same three half-period
    values taken in different orders; this is the one entering the level-4
    identity with the degree-24 lambda function. Order -N/2 (simple pole at
    the infinite cusp).
    """
    h = n // 2
    base = lambda_classical_series(prec + 3 * h, n)
    inv = base.inverse()
    return (QSeries.one(n, inv.prec) - inv).truncate(prec)
