"""q-expansions of the generalized lambda function.

Everything is computed from the single defining ratio of E-differences:

    L(tau; Q1, Q2) = (E(Q1) - E(Q1 + Q2)) / (E(Q2) - E(Q1 + Q2)),

pairs taken mod N. Composition with an integer matrix A acts on the index
pairs as row vectors, so L∘A is the ratio with rows (a, b), (c, d) of A.
"""

from __future__ import annotations

import math

from .forms import e_series, leading_theta
from .modgroup import SL2Mat
from .qseries import QSeries, WindowError, _from_rows, _invert_rows, _mul_rows, _to_rows


def _pair_mod(q, n: int) -> tuple[int, int]:
    return (q[0] % n, q[1] % n)


def is_basis(q1, q2, n: int) -> bool:
    """True iff {Q1, Q2} generate (Z/N)^2, i.e. det(Q1; Q2) is a unit mod N."""
    det = (q1[0] * q2[1] - q1[1] * q2[0]) % n
    return math.gcd(det, n) == 1


def lambda_basis_series(q1, q2, n: int, prec: int) -> QSeries:
    """Exact series of L(tau; Q1, Q2) from the defining E-ratio.

    The returned window ends exactly at `prec`; the E-expansions are padded
    internally so the division never eats into the requested window.
    """
    den, w = _lambda_rows(q1, q2, n, prec)
    ((o, p, coeffs),) = _from_rows(n, den, [w])
    return QSeries(n, o, coeffs, p)


def _lambda_rows(q1, q2, n: int, prec: int):
    """L(tau; Q1, Q2) in the integer form (den, (ord, prec, rows)).

    The ratio runs on integer rows: the inverse of the E-difference below
    is taken only as far as the window ending at `prec` reads it, and the
    product is capped at `prec` before its denominator is reduced.
    """
    q1, q2 = _pair_mod(q1, n), _pair_mod(q2, n)
    if not is_basis(q1, q2, n):
        raise ValueError(f"{q1}, {q2} is not a basis of (Z/{n})^2")
    q3 = ((q1[0] + q2[0]) % n, (q1[1] + q2[1]) % n)
    pad = prec + n  # denominator order is at most N/2; pad covers the division
    num = e_series(q1[0], q1[1], n, pad) - e_series(q3[0], q3[1], n, pad)
    den = e_series(q2[0], q2[1], n, pad) - e_series(q3[0], q3[1], n, pad)
    if num.is_zero() or den.is_zero():
        raise WindowError("insufficient precision for the E-ratio")
    num = _to_rows([(num.ord, num.prec, num.coeffs)])
    d, ((od, pd, rows),) = _to_rows([(den.ord, den.prec, den.coeffs)])
    width = max(1, min(pd - od, prec - num[1][0][0] + od))  # inverse terms below q^prec
    d_inv, inv = _invert_rows(n, d, rows, width)
    d, (out,) = _mul_rows(n, num, (d_inv, [(-od, width - od, inv)]), limit=prec)
    if not out[2]:
        raise WindowError("requested precision leaves an empty window")
    return d, out


def lambda_series(m: SL2Mat, prec: int) -> QSeries:
    """Exact series of L∘A for A in SL2(Z); order equals nu(A)."""
    return lambda_basis_series((m.a, m.b), (m.c, m.d), m.level, prec)


def lambda_k_series(k: int, n: int, prec: int) -> QSeries:
    """L_k = L(tau; (1,0), (0,k)) for k prime to N."""
    return lambda_basis_series((1, 0), (0, k), n, prec)


def lambda_leading(m: SL2Mat) -> tuple:
    """(leading coefficient, order) of L∘A, from the theta case table alone."""
    n = m.level
    a, b, c, d = m.a % n, m.b % n, m.c % n, m.d % n
    th_num, o_num = leading_theta((a, b), ((a + c) % n, (b + d) % n), n)
    th_den, o_den = leading_theta((c, d), ((a + c) % n, (b + d) % n), n)
    return th_num / th_den, o_num - o_den


def w_series(idx1, idx2, n: int, prec: int) -> QSeries:
    """W(tau; r1, s1, r2, s2) = (E(r1,s1) - E(r2,s2)) / (E(r1,-s1) - E(r2,-s2))."""
    r1, s1 = idx1[0] % n, idx1[1] % n
    r2, s2 = idx2[0] % n, idx2[1] % n
    leading_theta((r1, s1), (r2, s2), n)  # validates the index pair
    pad = prec + n
    num = e_series(r1, s1, n, pad) - e_series(r2, s2, n, pad)
    den = e_series(r1, -s1 % n, n, pad) - e_series(r2, -s2 % n, n, pad)
    return (num * den.inverse()).truncate(prec)


def galois_partner_rows(m: SL2Mat, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Index rows of L_k ∘ A_k where A_k ≡ (a, bk; c k^-1, d) mod N.

    Row arithmetic gives (1,0) A_k = (a, bk) and (0,k) A_k = (c, kd), so the
    sigma_k twist of L∘A can be checked without lifting A_k to SL2(Z).
    """
    n = m.level
    return ((m.a % n, (m.b * k) % n), (m.c % n, (m.d * k) % n))
