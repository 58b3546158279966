"""An independent numeric model of the level-N lambda functions.

This module shares no code with genlambda: it imports only mpmath and the
standard library. Everything it computes comes from classical formulas.

- The Weierstrass function of the lattice Z + tau Z from Jacobi theta
  functions (nome q = exp(pi i tau)):
      wp(z) = (pi th2 th3 th4(pi z) / th1(pi z))^2 - pi^2/3 (th2^4 + th3^4).
- Lambda_A(tau) = (wp(P1) - wp(P3)) / (wp(P2) - wp(P3)) with P = (r tau + s)/N
  for the rows (r, s) = (a, b), (c, d) and (a + c, b + d) of A.
- j(tau) = 1728 kleinj(tau).
- SL2(Z/N)/{+-1}, enumerated here from its definition, and
  d_N = (N^3/2) prod_{p | N} (1 - p^-2).
- F(X, Y) read from its JSON form, with zeta_N embedded as exp(2 pi i/N)
  and evaluated in fixed point, or, for exact checks, reduced modulo a
  prime p = 1 (mod N).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp

# ---------------------------------------------------------------------------
# elliptic functions
# ---------------------------------------------------------------------------


class Lattice:
    """The lattice Z + tau Z at the working precision of mpmath."""

    def __init__(self, tau):
        self.tau = mp.mpc(tau)
        if self.tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")
        self.nome = mp.exp(1j * mp.pi * self.tau)
        t2 = mpmath.jtheta(2, 0, self.nome)
        t3 = mpmath.jtheta(3, 0, self.nome)
        self._scale = (mp.pi * t2 * t3) ** 2
        self._shift = mp.pi**2 / 3 * (t2**4 + t3**4)

    def wp(self, z):
        x = mp.pi * z
        ratio = mpmath.jtheta(4, x, self.nome) / mpmath.jtheta(1, x, self.nome)
        return self._scale * ratio**2 - self._shift

    def torsion_wp(self, n: int) -> dict:
        """wp((r tau + s)/N) for every nonzero (r, s) mod N."""
        out = {}
        for r in range(n):
            for s in range(n):
                if (r, s) == (0, 0):
                    continue
                key = ((-r) % n, (-s) % n)
                out[(r, s)] = out[key] if key in out else self.wp((r * self.tau + s) / n)
        return out


def lambda_from_wp(wp_table: dict, n: int, a: int, b: int, c: int, d: int):
    """Lambda_A from a table of wp at the N-division points."""
    p1 = wp_table[(a % n, b % n)]
    p2 = wp_table[(c % n, d % n)]
    p3 = wp_table[((a + c) % n, (b + d) % n)]
    return (p1 - p3) / (p2 - p3)


def lambda_values(tau, n: int, matrices) -> list:
    """[Lambda_A(tau) for A in matrices], each A a 4-tuple (a, b, c, d)."""
    table = Lattice(tau).torsion_wp(n)
    return [lambda_from_wp(table, n, *m) for m in matrices]


def j_invariant(tau):
    return 1728 * mpmath.kleinj(mp.mpc(tau))


# ---------------------------------------------------------------------------
# the group SL2(Z/N) / {+-1}
# ---------------------------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def degree(n: int) -> int:
    """d_N = (N^3/2) prod_{p | N} (1 - p^-2)."""
    value = Fraction(n**3, 2)
    for p in prime_factors(n):
        value *= 1 - Fraction(1, p * p)
    if value.denominator != 1:
        raise ValueError(f"d_N is not an integer for N = {n}")
    return int(value)


def psl2_mod(n: int) -> list[tuple[int, int, int, int]]:
    """One representative (a, b, c, d) of each class of SL2(Z/N) / {+-1}."""
    seen = set()
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n != 1:
                        continue
                    m = (a, b, c, d)
                    neg = tuple((-x) % n for x in m)
                    key = min(m, neg)
                    if key not in seen:
                        seen.add(key)
                        out.append(key)
    return out


# ---------------------------------------------------------------------------
# F(X, Y) from its JSON form
# ---------------------------------------------------------------------------

# A complex number z in fixed point is the integer pair round(2^bits * z).


def to_fixed(z, bits: int) -> tuple[int, int]:
    z = mp.mpc(z)
    return int(mp.nint(mp.ldexp(z.real, bits))), int(mp.nint(mp.ldexp(z.imag, bits)))


def fixed_mul(a, b, bits: int) -> tuple[int, int]:
    return (a[0] * b[0] - a[1] * b[1]) >> bits, (a[0] * b[1] + a[1] * b[0]) >> bits


def fixed_log2_abs(a, bits: int):
    """log2 |a| for a fixed-point pair, None for zero."""
    square = a[0] * a[0] + a[1] * a[1]
    return 0.5 * math.log2(square) - bits if square else None


class BivariateF:
    """F(X, Y) = sum_i P_i(Y) X^(d - i) with P_i over Q(zeta_N).

    `exact[i][m]` is the list of rational power-basis coordinates of the
    coefficient of Y^m in P_i.
    """

    def __init__(self, obj: dict):
        self.level = int(obj["N"])
        self.d = int(obj["dN"])
        entries = sorted(obj["P"], key=lambda e: int(e["i"]))
        if [int(e["i"]) for e in entries] != list(range(len(entries))):
            raise ValueError("P entries are not indexed 0..d")
        self.exact = []
        for e in entries:
            poly = []
            for c in e["poly"]:
                if int(c["N"]) != self.level:
                    raise ValueError("coefficient level differs from N")
                poly.append([Fraction(int(num), int(den)) for num, den in c["coords"]])
            self.exact.append(poly)

    def y_degree(self) -> int:
        return max(len(p) for p in self.exact) - 1

    def is_monic(self) -> bool:
        """The X^d coefficient P_0 is the constant 1."""
        lead = self.exact[0]
        return len(lead) == 1 and lead[0][0] == 1 and not any(lead[0][1:])

    # -- complex embedding, in fixed point ------------------------------------
    # mp's working precision must carry at least `bits` bits.

    def _embedded(self, bits: int) -> list:
        """Fixed-point coefficients of every P_i, zeta = exp(2 pi i / N)."""
        cache = getattr(self, "_emb_cache", None)
        if cache is None or cache[0] != bits:
            zeta = mp.expjpi(mpmath.mpf(2) / self.level)
            powers = [to_fixed(zeta**k, bits) for k in range(len(self.exact[0][0]))]
            emb = [[(sum(x.numerator * zr // x.denominator for x, (zr, _) in zip(coords, powers)),
                     sum(x.numerator * zi // x.denominator for x, (_, zi) in zip(coords, powers)))
                    for coords in poly] for poly in self.exact]
            cache = (bits, emb)
            self._emb_cache = cache
        return cache[1]

    def x_coefficients(self, y, bits: int) -> list:
        """Fixed-point coefficients of F(X, y), ascending in X."""
        fy = to_fixed(y, bits)
        out = []
        for poly in reversed(self._embedded(bits)):
            acc = (0, 0)
            for c in reversed(poly):
                acc = fixed_mul(acc, fy, bits)
                acc = (acc[0] + c[0], acc[1] + c[1])
            out.append(acc)
        return out

    @staticmethod
    def max_relative_residual(coeffs: list, roots: list, bits: int) -> float:
        """max over x in roots of |F(x)| / sum_k |c_k| |x|^k, for ascending
        fixed-point coefficients `coeffs` and complex roots."""
        log_abs = [fixed_log2_abs(c, bits) for c in coeffs]
        worst = 0.0
        for x in roots:
            fx = to_fixed(x, bits)
            acc = (0, 0)
            for c in reversed(coeffs):
                acc = fixed_mul(acc, fx, bits)
                acc = (acc[0] + c[0], acc[1] + c[1])
            lx = fixed_log2_abs(fx, bits)
            terms = [la + k * lx for k, la in enumerate(log_abs) if la is not None]
            top = max(terms)
            log_scale = top + math.log2(math.fsum(2.0 ** (t - top) for t in terms))
            log_res = fixed_log2_abs(acc, bits)
            if log_res is not None:
                worst = max(worst, 2.0 ** max(log_res - log_scale, -1e4))
        return worst

    # -- reduction modulo a split prime -------------------------------------

    def x_coefficients_mod(self, y: int, p: int, w: int) -> list[int]:
        """F(X, y) mod p with zeta -> w, ascending in X."""
        red = [[reduce_coords(coords, p, w) for coords in poly] for poly in self.exact]
        out = []
        for i in range(self.d, -1, -1):
            acc = 0
            for c in reversed(red[i]):
                acc = (acc * y + c) % p
            out.append(acc)
        return out


def reduce_coords(coords, p: int, w: int) -> int:
    """sum_k coords[k] w^k mod p for rational coordinates."""
    acc, wk = 0, 1
    for x in coords:
        if x.denominator % p == 0:
            raise ZeroDivisionError("prime divides a denominator")
        acc = (acc + x.numerator * pow(x.denominator, -1, p) * wk) % p
        wk = wk * w % p
    return acc


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def split_prime(n: int, lower: int) -> tuple[int, int]:
    """The least prime p = 1 (mod N) above `lower`, and w of exact order N mod p."""
    p = lower + (1 - lower) % n
    if p <= lower:
        p += n
    while not is_probable_prime(p):
        p += n
    for g in range(2, p):
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in prime_factors(n)):
            return p, w
    raise ValueError("no element of order N")


def poly_mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [v % p for v in out]


def poly_pow_mod(a: list[int], e: int, p: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = poly_mul_mod(out, a, p)
    return out


# ---------------------------------------------------------------------------
# grouping of conjugate values
# ---------------------------------------------------------------------------


def equal_groups(values, tol: float, band: float) -> list[int]:
    """Label each value with the index of its group of equal values,
    compared in double precision; labels are numbered in order of first
    appearance, so equal partitions give equal label lists.

    a and b count as equal when |a - b| <= tol * max(1, |a|, |b|). Raises
    ValueError when a pair is neither equal nor farther apart than `band`
    in the same relative measure, or when equality is not transitive.
    """
    pts = [complex(v) for v in values]
    labels = [-1] * len(pts)
    count = 0
    for i, a in enumerate(pts):
        if labels[i] < 0:
            labels[i] = count
            count += 1
        for k in range(i + 1, len(pts)):
            b = pts[k]
            dist = abs(a - b) / max(1.0, abs(a), abs(b))
            if dist <= tol:
                if labels[k] < 0:
                    labels[k] = labels[i]
                elif labels[k] != labels[i]:
                    raise ValueError("equality of values is not transitive")
            elif dist <= band:
                raise ValueError(f"values neither equal nor well separated ({dist:.1e})")
    return labels
