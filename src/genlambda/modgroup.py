"""Combinatorics of the principal congruence subgroup of level N.

Cusp classes are pairs (a, c) mod N with gcd(a, c, N) = 1, identified with
(-a, -c); they split into swap-paired classes (a not congruent to +-c) and
self-paired ones. Each class carries a fixed integer lift to SL2(Z), and the
coset transversal is built from those lifts times powers of T = (1 1; 0 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .ntheory import egcd, prime_divisors


@dataclass(frozen=True)
class SL2Mat:
    """Integer matrix (a b; c d) of determinant 1, tagged with a level."""

    a: int
    b: int
    c: int
    d: int
    level: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix determinant must be 1")
        if self.level < 1:
            raise ValueError("level must be >= 1")

    def __mul__(self, other: "SL2Mat") -> "SL2Mat":
        if not isinstance(other, SL2Mat):
            return NotImplemented
        if self.level != other.level:
            raise ValueError("level mismatch")
        return SL2Mat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.level,
        )

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def identity(level: int) -> "SL2Mat":
        return SL2Mat(1, 0, 0, 1, level)

    @staticmethod
    def T(level: int, i: int = 1) -> "SL2Mat":
        return SL2Mat(1, i, 0, 1, level)

    @staticmethod
    def S(level: int) -> "SL2Mat":
        return SL2Mat(0, 1, -1, 0, level)


def brace_mu(x: int, n: int) -> tuple[int, int]:
    """Reduce x mod n into [0, n/2] with a sign: x ≡ mu * brace (mod n).

    mu is +1 when 2x ≡ 0 (mod n), else +1 or -1 according to which side of
    n/2 the residue falls on.
    """
    if n <= 2:
        raise ValueError("level must be > 2")
    r = x % n
    brace = min(r, n - r)
    if (2 * x) % n == 0:
        mu = 1
    else:
        mu = 1 if 2 * r < n else -1
    return brace, mu


def nu_pair(a: int, c: int, n: int) -> int:
    """Order of the q-expansion of the lambda function composed with any
    A ≡ (a *; c *) mod N, from the bracket formula."""
    ba = brace_mu(a, n)[0]
    bc = brace_mu(c, n)[0]
    bac = brace_mu(a + c, n)[0]
    return min(ba, bac) - min(bc, bac)


def nu(m: SL2Mat) -> int:
    return nu_pair(m.a, m.c, m.level)


def canonical_pair(a: int, c: int, n: int) -> tuple[int, int]:
    """The smaller of (a, c) and (-a, -c) with residues in [0, n)."""
    p = (a % n, c % n)
    q = ((-a) % n, (-c) % n)
    return min(p, q)


def lift_to_sl2(a: int, c: int, n: int) -> SL2Mat:
    """Deterministic lift of (a, c) mod N, gcd(a, c, N) = 1, to SL2(Z) with
    first column ≡ (a, c) mod N."""
    a0, c0 = a % n, c % n
    if math.gcd(math.gcd(a0, c0), n) != 1:
        raise ValueError(f"gcd({a}, {c}, {n}) != 1")
    if (a0, c0) == (1, 0):
        return SL2Mat.identity(n)
    z = c0 if c0 != 0 else n
    t = 0
    while math.gcd(a0 + t * n, z) != 1:
        t += 1
    x = a0 + t * n
    g, u, v = egcd(x, z)
    assert g == 1
    # x*u + z*v = 1  ->  det (x, -v; z, u) = x*u + v*z = 1
    return SL2Mat(x, -v, z, u, n)


@dataclass(frozen=True)
class CuspRep:
    """One cusp class of level N.

    cls is "S1" for swap-paired classes and "S2" for a ≡ +-c classes. For the
    primary member of an S1 pair, `partner` holds the derived matrix
    (z, -w; x, -y) handed to the swapped cusp (c, a); the swapped cusp's own
    `matrix` is that derived matrix and its `partner` is None.
    """

    a: int
    c: int
    cls: str
    matrix: SL2Mat
    partner: SL2Mat | None = None

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.c)


def _partner_matrix(m: SL2Mat) -> SL2Mat:
    x, y, z, w = m.entries()
    return SL2Mat(z, -w, x, -y, m.level)


@lru_cache(maxsize=None)
def cusp_reps(n: int, convention: str = "min") -> tuple[CuspRep, ...]:
    """Canonical representatives of the cusp classes of level N.

    Exactly d_N / N classes. Within a swap pair {(a,c), (c,a)} the member
    selected by `convention` ("min": lexicographically smaller canonical
    pair; "max": larger) is lifted directly; the other receives the derived
    partner matrix. The convention changes matrices, never the class list.
    """
    if n < 3:
        raise ValueError("level must be >= 3")
    if convention not in ("min", "max"):
        raise ValueError("convention must be 'min' or 'max'")
    pairs = set()
    for a in range(n):
        for c in range(n):
            if math.gcd(math.gcd(a, c), n) == 1:
                pairs.add(canonical_pair(a, c, n))
    reps: dict[tuple[int, int], CuspRep] = {}
    for a, c in sorted(pairs):
        if (a, c) in reps:
            continue
        if (a + c) % n == 0 or (a - c) % n == 0:
            reps[(a, c)] = CuspRep(a, c, "S2", lift_to_sl2(a, c, n))
            continue
        swapped = canonical_pair(c, a, n)
        first, second = sorted([(a, c), swapped])
        primary, secondary = (first, second) if convention == "min" else (second, first)
        m = lift_to_sl2(primary[0], primary[1], n)
        mp = _partner_matrix(m)
        reps[primary] = CuspRep(primary[0], primary[1], "S1", m, partner=mp)
        reps[secondary] = CuspRep(secondary[0], secondary[1], "S1", mp)
    return tuple(reps[key] for key in sorted(reps))


@dataclass(frozen=True)
class CosetRep:
    """A transversal element A * T^i with its cusp tag."""

    matrix: SL2Mat
    cusp: tuple[int, int]
    shift: int


@lru_cache(maxsize=None)
def transversal(n: int, convention: str = "min") -> tuple[CosetRep, ...]:
    """The full coset transversal {A T^i : A in the cusp matrix set, 0 <= i < N},
    of size d_N = (N^3/2) * prod_{p | N} (1 - p^-2)."""
    out = []
    for rep in cusp_reps(n, convention):
        m = rep.matrix
        for i in range(n):
            out.append(CosetRep(m * SL2Mat.T(n, i), rep.pair, i))
    return tuple(out)


def degree_dn(n: int) -> int:
    """d_N = (N^3/2) prod_{p|N} (1 - p^-2), the index [SL2(Z) : +-Gamma(N)]."""
    if n < 3:
        raise ValueError("level must be >= 3")
    num = n**3
    den = 2
    for p in prime_divisors(n):
        num *= p * p - 1
        den *= p * p
    assert num % den == 0
    return num // den


def cusp_count(n: int) -> int:
    return degree_dn(n) // n


def nu_orbit(rep: CuspRep, n: int) -> list[int]:
    """[nu(A T^i) for i in 0..N-1]; constant along the orbit."""
    return [nu_pair(rep.a, rep.c, n)] * n


def nu_statistics(n: int) -> tuple[int, int]:
    """(ell, t) by direct enumeration: ell = total pole order of the lambda
    function over the cusp classes, t = number of pole cusps."""
    vals = [nu_pair(r.a, r.c, n) for r in cusp_reps(n)]
    ell = -sum(v for v in vals if v < 0)
    t = sum(1 for v in vals if v < 0)
    return ell, t
