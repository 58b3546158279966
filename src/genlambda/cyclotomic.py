"""Exact arithmetic in the cyclotomic field K_N = Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) with exact
rational coordinates, reduced modulo the N-th cyclotomic polynomial, so
representations are canonical and equality is coordinate-wise.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from functools import lru_cache

from .ntheory import divisors, euler_phi


class LevelMismatchError(ValueError):
    """Raised when two elements of different cyclotomic levels are combined."""


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, constant-first coefficient lists.
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    out = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[dd + k]
        if c % den[dd] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[dd]
        out[k] = q
        if q:
            for j in range(dd + 1):
                num[k + j] -= q * den[j]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n):
        if d < n:
            num = _poly_divide_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


class CycContext:
    """Per-level immutable context: Phi_N and power-basis reduction tables."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("level must be >= 1")
        self.level = n
        self.phi = euler_phi(n)
        self.cyclo = cyclotomic_polynomial(n)
        # rows[k] = coordinates of z^k in the power basis, for 0 <= k < max_exp
        max_exp = max(2 * self.phi - 1, n)
        rows: list[tuple[int, ...]] = []
        cur = [0] * self.phi
        cur[0] = 1
        rows.append(tuple(cur))
        for _ in range(1, max_exp):
            nxt = [0] + cur[: self.phi - 1]
            lead = cur[self.phi - 1]
            if lead:
                # z^phi = -(Phi - x^phi), Phi monic
                for j in range(self.phi):
                    nxt[j] -= lead * self.cyclo[j]
            cur = nxt
            rows.append(tuple(cur))
        self.power_rows = tuple(rows)

    def reduce(self, digits) -> list:
        """Power-basis coordinates of sum_k digits[k] z^k, for 2 phi - 1
        digits: the terms of degree >= phi are reduced mod Phi_N."""
        phi = self.phi
        vec = list(digits[:phi])
        rows = self.power_rows
        for k in range(phi, len(digits)):
            ck = digits[k]
            if ck:
                row = rows[k]
                for j in range(phi):
                    if row[j]:
                        vec[j] += ck * row[j]
        return vec

    def __repr__(self):
        return f"CycContext(N={self.level}, phi={self.phi})"


@lru_cache(maxsize=None)
def get_context(n: int) -> CycContext:
    return CycContext(n)


_ZERO = Fraction(0)


class CycNum:
    """An element of K_N = Q(zeta_N) in the canonical power basis.

    Immutable; arithmetic is exact. Mixed operations with int and Fraction
    are supported and treated as rational scalars of the same level.
    """

    __slots__ = ("level", "coords", "_hash")

    def __init__(self, level: int, coords):
        ctx = get_context(level)
        coords = tuple(
            c if type(c) is Fraction else Fraction(c) for c in coords
        )
        if len(coords) != ctx.phi:
            raise ValueError(
                f"need {ctx.phi} coordinates for level {level}, got {len(coords)}"
            )
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, level: int, coords: tuple) -> "CycNum":
        # internal fast path: coords must already be a well-sized Fraction tuple
        self = object.__new__(cls)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    def __reduce__(self):
        return (CycNum, (self.level, self.coords))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(level: int) -> "CycNum":
        return CycNum(level, (0,) * get_context(level).phi)

    @staticmethod
    def one(level: int) -> "CycNum":
        return CycNum.from_rational(level, 1)

    @staticmethod
    def from_rational(level: int, value) -> "CycNum":
        ctx = get_context(level)
        coords = [Fraction(value)] + [_ZERO] * (ctx.phi - 1)
        return CycNum(level, coords)

    @staticmethod
    def zeta(level: int, k: int = 1) -> "CycNum":
        """zeta_N^k as an exact element."""
        ctx = get_context(level)
        row = ctx.power_rows[k % level]
        return CycNum(level, row)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.level != self.level:
                raise LevelMismatchError(
                    f"level mismatch: {self.level} vs {other.level}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(self.level, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._make(
            self.level, tuple(a + b for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._make(
            self.level, tuple(a - b for a, b in zip(self.coords, o.coords))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycNum._make(self.level, tuple(-a for a in self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycNum._make(self.level, tuple(a * f for a in self.coords))
        ctx = get_context(self.level)
        phi = ctx.phi
        a, b = self.coords, o.coords
        conv = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = list(conv[:phi])
        rows = ctx.power_rows
        for k in range(phi, 2 * phi - 1):
            ck = conv[k]
            if ck:
                row = rows[k]
                for j in range(phi):
                    if row[j]:
                        out[j] += ck * row[j]
        return CycNum._make(self.level, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = CycNum.one(self.level)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inv(self) -> "CycNum":
        """Multiplicative inverse: the product of the other Galois
        conjugates, divided by the norm (their product with self, a
        rational)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in K_N")
        import math

        n = self.level
        rest = CycNum.one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                rest = rest * self.sigma(k)
        return rest * (1 / (self * rest).coords[0])

    # -- Galois and embeddings ----------------------------------------------

    def sigma(self, ell: int) -> "CycNum":
        """The automorphism zeta -> zeta^ell, for gcd(ell, N) = 1."""
        n = self.level
        import math

        if math.gcd(ell, n) != 1:
            raise ValueError(f"sigma_{ell} undefined: gcd({ell}, {n}) != 1")
        ctx = get_context(n)
        phi = ctx.phi
        out = [_ZERO] * phi
        for i, ci in enumerate(self.coords):
            if ci:
                row = ctx.power_rows[(i * ell) % n]
                for j in range(phi):
                    if row[j]:
                        out[j] += ci * row[j]
        return CycNum(n, out)

    def conj(self) -> "CycNum":
        """Complex conjugation, sigma_{N-1}."""
        return self.sigma(self.level - 1)

    def embed(self) -> complex:
        """Evaluate at zeta = exp(2*pi*i/N) in double precision."""
        z = cmath.exp(2j * cmath.pi / self.level)
        acc = 0j
        for c in reversed(self.coords):
            acc = acc * z + float(c)
        return acc

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_integral(self) -> bool:
        """True iff the element lies in Z[zeta] (power basis is integral)."""
        return all(c.denominator == 1 for c in self.coords)

    # -- plumbing -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(self.level, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.level == other.level and self.coords == other.coords

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.level, self.coords))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}*{var}")
        if not terms:
            return "0"
        s = terms[0]
        for t in terms[1:]:
            s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return s

    def __repr__(self):
        return f"CycNum(N={self.level}, '{self}')"

    def to_json_obj(self) -> dict:
        return {
            "N": self.level,
            "coords": [[str(c.numerator), str(c.denominator)] for c in self.coords],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json_obj(obj: dict) -> "CycNum":
        coords = [Fraction(int(num), int(den)) for num, den in obj["coords"]]
        return CycNum(int(obj["N"]), coords)

