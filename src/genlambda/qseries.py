"""Truncated Laurent series in q = exp(2*pi*i*tau/N) over K_N.

A QSeries knows its level N, the exponent `ord` of its first stored
coefficient, and an exclusive precision bound `prec`: every coefficient of
q^k with ord <= k < prec is stored exactly. Precision is propagated through
arithmetic and never silently extended.

Multiplication runs on an integer kernel: coefficients are put over a common
denominator, each K_N coordinate vector is packed into a single big integer
(digits in base 2^B), and the q-convolution becomes plain integer
multiply-accumulate. The packing width B is chosen from coefficient bounds
so digits never overlap.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .cyclotomic import CycNum, LevelMismatchError, get_context

try:  # optional: GMP-backed integers make the product kernels much faster
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - environment without gmpy2
    _mpz = None

_ZERO = Fraction(0)

# above this pair-work estimate, products switch to the single-big-integer
# (Kronecker substitution) engine when gmpy2 is available
_KRONECKER_THRESHOLD = 1_000_000


class WindowError(ValueError):
    """Raised when an operation would need coefficients outside known windows."""


class QSeries:
    """Truncated Laurent series with CycNum coefficients. Immutable."""

    __slots__ = ("level", "ord", "prec", "coeffs")

    def __init__(self, level: int, ord: int, coeffs, prec: int):
        coeffs = tuple(
            c if isinstance(c, CycNum) else CycNum.from_rational(level, c)
            for c in coeffs
        )
        if prec - ord != len(coeffs):
            raise ValueError(
                f"window [{ord}, {prec}) wants {prec - ord} coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            if c.level != level:
                raise LevelMismatchError("coefficient level differs from series level")
        # normalize: strip leading zeros so coeffs[0] != 0 unless all-zero
        k = 0
        while k < len(coeffs) and coeffs[k].is_zero():
            k += 1
        if k:
            ord += k
            coeffs = coeffs[k:]
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "ord", ord)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    def __reduce__(self):
        return (QSeries, (self.level, self.ord, self.coeffs, self.prec))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(level: int, prec: int) -> "QSeries":
        return QSeries(level, prec, (), prec)

    @staticmethod
    def one(level: int, prec: int) -> "QSeries":
        return QSeries.monomial(level, 1, 0, prec)

    @staticmethod
    def monomial(level: int, coeff, k: int, prec: int) -> "QSeries":
        if prec <= k:
            raise WindowError("monomial exponent outside window")
        c = coeff if isinstance(coeff, CycNum) else CycNum.from_rational(level, coeff)
        coeffs = [c] + [CycNum.zero(level)] * (prec - k - 1)
        return QSeries(level, k, coeffs, prec)

    @staticmethod
    def from_coeff_map(level: int, entries: dict, ord: int, prec: int) -> "QSeries":
        zero = CycNum.zero(level)
        coeffs = [zero] * (prec - ord)
        for k, v in entries.items():
            if ord <= k < prec:
                coeffs[k - ord] = v if isinstance(v, CycNum) else CycNum.from_rational(level, v)
            elif v:
                raise WindowError(f"entry at exponent {k} outside window [{ord}, {prec})")
        return QSeries(level, ord, coeffs, prec)

    # -- inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        """True iff the series vanishes identically within its window."""
        return not self.coeffs

    def order(self) -> int:
        """Exponent of the first nonzero coefficient.

        Raises WindowError on an all-zero window (insufficient precision to
        tell the order).
        """
        if self.is_zero():
            raise WindowError(
                f"series vanishes on its whole window [{self.ord}, {self.prec}); order unknown"
            )
        return self.ord

    def coeff(self, k: int) -> CycNum:
        if not self.ord <= k < self.prec:
            raise WindowError(f"exponent {k} outside window [{self.ord}, {self.prec})")
        return self.coeffs[k - self.ord]

    def leading(self) -> CycNum:
        if self.is_zero():
            raise WindowError("zero window has no leading coefficient")
        return self.coeffs[0]

    def items(self):
        for k, c in enumerate(self.coeffs, start=self.ord):
            if not c.is_zero():
                yield k, c

    # -- ring operations -------------------------------------------------------

    def _check_level(self, other: "QSeries"):
        if self.level != other.level:
            raise LevelMismatchError(f"level mismatch: {self.level} vs {other.level}")

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_level(other)
        prec = min(self.prec, other.prec)
        ord = min(self.ord, other.ord, prec)
        zero = CycNum.zero(self.level)
        out = [zero] * (prec - ord)
        for src in (self, other):
            for i, c in enumerate(src.coeffs, start=src.ord):
                if i >= prec:
                    break
                out[i - ord] = out[i - ord] + c
        return QSeries(self.level, ord, out, prec)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QSeries(
            self.level, self.ord, tuple(-c for c in self.coeffs), self.prec
        )

    def __mul__(self, other):
        if isinstance(other, QSeries):
            self._check_level(other)
            ord_, prec, coeffs = _mul_windows(
                self.level,
                (self.ord, self.prec, self.coeffs),
                (other.ord, other.prec, other.coeffs),
            )
            return QSeries(self.level, ord_, coeffs, prec)
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "QSeries":
        c = c if isinstance(c, CycNum) else CycNum.from_rational(self.level, c)
        if c.is_zero():
            return QSeries.zero(self.level, self.prec)
        return QSeries(
            self.level, self.ord, tuple(c * x for x in self.coeffs), self.prec
        )

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries(self.level, self.ord + k, self.coeffs, self.prec + k)

    def twist(self, i: int) -> "QSeries":
        """Substitute q -> zeta^i q; the coefficient of q^k picks up zeta^(i k)."""
        n = self.level
        out = [CycNum.zeta(n, (i * k) % n) * c for k, c in enumerate(self.coeffs, self.ord)]
        return QSeries(n, self.ord, out, self.prec)

    def sigma(self, ell: int) -> "QSeries":
        """Apply the Galois map sigma_ell to every coefficient."""
        return QSeries(
            self.level, self.ord, tuple(c.sigma(ell) for c in self.coeffs), self.prec
        )

    def conj_coeffs(self) -> "QSeries":
        return self.sigma(self.level - 1)

    def truncate(self, prec: int) -> "QSeries":
        """Restrict the window to exponents < prec."""
        if prec >= self.prec:
            return self
        if prec < self.ord:
            return QSeries.zero(self.level, prec)
        return QSeries(self.level, self.ord, self.coeffs[: prec - self.ord], prec)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; needs a nonzero leading coefficient.

        For f = c q^o (1 + g) the result has ord -o and prec = prec(f) - 2 o.
        """
        if self.is_zero():
            raise WindowError("cannot invert a series that vanishes on its window")
        n = self.level
        o = self.ord
        width = self.prec - self.ord
        c0 = self.coeffs[0]
        c0_inv = c0.inv()
        unit = [c0_inv * x for x in self.coeffs]  # 1 + g, length = width
        inv_unit = _invert_unit(n, unit, width)
        coeffs = [c0_inv * x for x in inv_unit]
        return QSeries(n, -o, coeffs, self.prec - 2 * o)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = QSeries.one(self.level, self.prec - self.ord)
        base = self
        first = True
        while k:
            if k & 1:
                result = base if first else result * base
                first = False
            k >>= 1
            if k:
                base = base * base
        return result

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.level == other.level
            and self.ord == other.ord
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.level, self.ord, self.prec, self.coeffs))

    def agreement(self, other: "QSeries") -> tuple[bool, int, int]:
        """Compare on the intersection of windows.

        Returns (equal, lo, hi) where [lo, hi) is the window intersection and
        the comparison additionally covers stripped leading zeros (exponents
        below a normalized order are known-zero). Raises WindowError if the
        intersection is empty.
        """
        self._check_level(other)
        lo = max(self.ord, other.ord)
        hi = min(self.prec, other.prec)
        if hi <= lo:
            raise WindowError("windows do not intersect")
        cmp_lo = min(self.ord, other.ord)
        zero = CycNum.zero(self.level)
        for k in range(cmp_lo, hi):
            a = self.coeffs[k - self.ord] if self.ord <= k < self.prec else zero
            b = other.coeffs[k - other.ord] if other.ord <= k < other.prec else zero
            if a != b:
                return False, lo, hi
        return True, lo, hi

    def agrees(self, other: "QSeries") -> bool:
        return self.agreement(other)[0]

    # -- numerics and serialization -----------------------------------------------

    def evaluate(self, q: complex) -> complex:
        """Sum the stored window at a complex value of q."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * q + c.embed()
        return acc * q**self.ord

    def to_json_obj(self) -> dict:
        return {
            "N": self.level,
            "ord": self.ord,
            "prec": self.prec,
            "coeffs": [c.to_json_obj() for c in self.coeffs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json_obj(obj: dict) -> "QSeries":
        coeffs = [CycNum.from_json_obj(c) for c in obj["coeffs"]]
        return QSeries(int(obj["N"]), int(obj["ord"]), coeffs, int(obj["prec"]))

    def __str__(self):
        parts = []
        for k, c in self.items():
            parts.append(f"({c})*q^{k}")
            if len(parts) >= 8:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.prec})"

    def __repr__(self):
        return f"QSeries(N={self.level}, [{self.ord},{self.prec}), '{self}')"


# ---------------------------------------------------------------------------
# integer kernel
# ---------------------------------------------------------------------------


def _digit_width(max_a: int, max_b: int, terms: int) -> int:
    """Bits per packed digit, a multiple of 8, for sums of `terms` products of
    coordinates bounded by max_a and max_b: no digit can overflow."""
    width = max_a.bit_length() + max_b.bit_length() + terms.bit_length() + 2
    return max(8, (width + 7) & ~7)


def _pack_rows(rows, width: int):
    """One int per row of signed digits (lowest first) in base 2^width.

    Each digit is biased by 2^(width-1) into `width // 8` bytes, so a row
    packs in time linear in its length; width is a multiple of 8 and every
    |digit| < 2^(width-1)."""
    nbytes = width >> 3
    half = 1 << (width - 1)
    biases = {}
    packed = []
    for row in rows:
        if not any(row):
            packed.append(0)
            continue
        bias = biases.get(len(row))
        if bias is None:
            bias = biases[len(row)] = int.from_bytes(
                half.to_bytes(nbytes, "little") * len(row), "little"
            )
        buf = b"".join([(v + half).to_bytes(nbytes, "little") for v in row])
        packed.append(int.from_bytes(buf, "little") - bias)
    return packed


def _unpack_digits(x: int, width: int, count: int):
    """The `count` balanced base-2^width digits of x, in linear time: adding
    the bias 2^(width-1) to every digit makes them all bytes-aligned and
    nonnegative. Raises ArithmeticError if x does not fit."""
    nbytes = width >> 3
    half = 1 << (width - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * count, "little")
    try:
        buf = (x + bias).to_bytes(nbytes * count, "little")
    except OverflowError:
        raise ArithmeticError("packed-digit overflow: width chosen too small") from None
    return [
        int.from_bytes(buf[i : i + nbytes], "little") - half
        for i in range(0, nbytes * count, nbytes)
    ]


def _int_rows(polys):
    """One common denominator for a list of CycNum sequences, and their
    integer coordinate rows. Returns (den, rows per sequence, largest
    |coordinate| (at least 1), longest sequence length (at least 1))."""
    den = 1
    for cs in polys:
        for c in cs:
            for fr in c.coords:
                d = fr.denominator
                if d != 1:
                    den = den * d // math.gcd(den, d)
    packed = []
    maxabs = 1
    maxlen = 1
    for cs in polys:
        rows = []
        for c in cs:
            row = []
            for fr in c.coords:
                v = fr.numerator * (den // fr.denominator)
                row.append(v)
                if v < 0:
                    v = -v
                if v > maxabs:
                    maxabs = v
            rows.append(row)
        if len(rows) > maxlen:
            maxlen = len(rows)
        packed.append(rows)
    return den, packed, maxabs, maxlen


def _mac_rows(acc, xs, ys, base: int, limit: int):
    """acc[base + a + b] += xs[a] * ys[b] for every base + a + b < limit: the
    integer pair loop of the packed product kernels."""
    for ia, x in enumerate(xs):
        if not x:
            continue
        off = base + ia
        room = limit - off
        if room <= 0:
            break
        if room >= len(ys):
            for jb, y in enumerate(ys):
                if y:
                    acc[off + jb] += x * y
        else:
            for jb in range(room):
                y = ys[jb]
                if y:
                    acc[off + jb] += x * y


def _norm_window(level, ord_, prec, coeffs):
    k = 0
    while k < len(coeffs) and coeffs[k].is_zero():
        k += 1
    if k == len(coeffs):
        return (prec, prec, ())
    return (ord_ + k, prec, tuple(coeffs[k:]))


def xpoly_mul_windows(level, P, Q, *, limit=None):
    """Product of two X-polynomials whose coefficients are series windows.

    P and Q are lists of (ord, prec, coeffs-of-CycNum) indexed by X-power;
    the return value has length len(P) + len(Q) - 1 in the same shape, with
    leading zero coefficients stripped per window. With `limit`, every
    output window ends at or before it: the result is the uncapped product
    truncated at `limit`, and no coefficient at or beyond it is computed
    (the pair loop skips those pairs). All coefficient
    arithmetic runs packed: one denominator per polynomial, one big-int
    per series coefficient, plain integer multiply-accumulate across both
    the X- and q-dimensions, one Fraction reconstruction per output entry.
    Large products are delegated to a Kronecker-substitution engine (one
    giant integer multiplication) when gmpy2 is installed; results are
    identical either way.
    """
    lenp, lenq = len(P), len(Q)
    out_len = lenp + lenq - 1
    ords = [None] * out_len
    precs = [None] * out_len
    for i, (oa, pa, _) in enumerate(P):
        for j, (ob, pb, _) in enumerate(Q):
            k = i + j
            o = oa + ob
            pr = min(pa + ob, pb + oa)
            if ords[k] is None or o < ords[k]:
                ords[k] = o
            if precs[k] is None or pr < precs[k]:
                precs[k] = pr
    if limit is not None:
        precs = [min(pr, limit) for pr in precs]
    ctx = get_context(level)
    phi = ctx.phi
    da, rows_p, ma, la = _int_rows([cs for (_, _, cs) in P])
    db, rows_q, mb, lb = _int_rows([cs for (_, _, cs) in Q])
    width = _digit_width(ma, mb, min(lenp, lenq) * min(la, lb) * phi)
    if _mpz is not None and lenp * lenq * la * lb >= _KRONECKER_THRESHOLD:
        return _mac_kronecker(
            level, P, Q, ords, precs, rows_p, rows_q, da * db, width, phi
        )
    packed_p = [_pack_rows(rows, width) for rows in rows_p]
    packed_q = [_pack_rows(rows, width) for rows in rows_q]
    accs = [[0] * max(precs[k] - ords[k], 0) for k in range(out_len)]
    for i, pa_rows in enumerate(packed_p):
        if not pa_rows:
            continue
        oa = P[i][0]
        for j, qb_rows in enumerate(packed_q):
            if qb_rows:
                k = i + j
                base = oa + Q[j][0] - ords[k]
                _mac_rows(accs[k], pa_rows, qb_rows, base, precs[k] - ords[k])
    den = da * db
    zero = CycNum.zero(level)
    out = []
    for k in range(out_len):
        coeffs = []
        for x in accs[k]:
            if not x:
                coeffs.append(zero)
                continue
            vec = ctx.reduce(_unpack_digits(x, width, 2 * phi - 1))
            coeffs.append(
                CycNum._make(level, tuple(Fraction(v, den) for v in vec))
            )
        out.append(_norm_window(level, ords[k], precs[k], coeffs))
    return out


def _mac_kronecker(level, P, Q, ords, precs, rows_p, rows_q, den, width, phi):
    """Same product as the pair loop, via one giant-integer multiplication.

    Coordinates are split into nonnegative and negative parts so byte-level
    digit extraction needs no borrow handling; lane layout is
    (X-power, q-exponent, zeta-power) with 2*phi - 1 zeta slots per entry.
    """
    phis = 2 * phi - 1
    nbytes = (width + 7) // 8
    wbits = nbytes * 8

    def frame(poly):
        lo, hi = None, None
        for (o, p, cs) in poly:
            if cs:
                lo = o if lo is None else min(lo, o)
                hi = p if hi is None else max(hi, p)
        return lo, hi

    lo_a, hi_a = frame(P)
    lo_b, hi_b = frame(Q)
    out_len = len(P) + len(Q) - 1
    if lo_a is None or lo_b is None:
        return [
            _norm_window(level, ords[k], precs[k], ())
            for k in range(out_len)
        ]
    la = hi_a - lo_a
    lb = hi_b - lo_b
    lq = la + lb  # q-lanes in the output frame
    base_out = lo_a + lo_b

    def build(poly, rows, lo):
        block = phis * nbytes
        buf_pos = bytearray(len(poly) * lq * block)
        buf_neg = bytearray(len(poly) * lq * block)
        for i, (o, _, cs) in enumerate(poly):
            lanes = rows[i]
            for e_idx, row in enumerate(lanes):
                lane = i * lq + (o - lo) + e_idx
                off = lane * block
                for z, v in enumerate(row):
                    if v:
                        pos = off + z * nbytes
                        if v > 0:
                            buf_pos[pos : pos + nbytes] = v.to_bytes(
                                nbytes, "little"
                            )
                        else:
                            buf_neg[pos : pos + nbytes] = (-v).to_bytes(
                                nbytes, "little"
                            )
        return (
            _mpz(int.from_bytes(buf_pos, "little")),
            _mpz(int.from_bytes(buf_neg, "little")),
        )

    ap, an = build(P, rows_p, lo_a)
    bp, bn = build(Q, rows_q, lo_b)
    prod_pos = ap * bp + an * bn
    prod_neg = ap * bn + an * bp
    block = phis * nbytes
    total = out_len * lq * block + block
    bytes_pos = int(prod_pos).to_bytes(total, "little")
    bytes_neg = int(prod_neg).to_bytes(total, "little")
    rows_tab = get_context(level).power_rows
    zero = CycNum.zero(level)
    out = []
    for k in range(out_len):
        o_k, p_k = ords[k], precs[k]
        coeffs = []
        for e in range(o_k, p_k):
            if e < base_out:
                coeffs.append(zero)  # below both frames: identically zero
                continue
            lane = k * lq + (e - base_out)
            off = lane * block
            vec = [0] * phi
            nonzero = False
            for z in range(phis):
                pos = off + z * nbytes
                dv = int.from_bytes(bytes_pos[pos : pos + nbytes], "little") - int.from_bytes(
                    bytes_neg[pos : pos + nbytes], "little"
                )
                if dv:
                    nonzero = True
                    if z < phi:
                        vec[z] += dv
                    else:
                        row = rows_tab[z]
                        for j in range(phi):
                            if row[j]:
                                vec[j] += dv * row[j]
            if nonzero:
                coeffs.append(
                    CycNum._make(level, tuple(Fraction(v, den) for v in vec))
                )
            else:
                coeffs.append(zero)
        out.append(_norm_window(level, o_k, p_k, coeffs))
    return out


def _mul_windows(level, a, b):
    """Multiply two coefficient windows (ord, prec, coeffs of CycNum).

    Returns (ord, prec, coeffs) with prec = min(a.prec + b.ord, b.prec + a.ord).
    The exponent unit is abstract: the same routine serves dense q-series and
    q^N-grid compressed series.
    """
    return xpoly_mul_windows(level, [a], [b])[0]


def _invert_unit(level, unit, width: int):
    """Invert a series with constant term 1 to `width` terms, by Newton iteration."""
    one = CycNum.one(level)
    inv = [one]
    known = 1
    while known < width:
        target = min(2 * known, width)
        # r = unit * inv truncated to `target`; then inv <- inv*(2 - r)
        _, _, r = _mul_windows(level, (0, target, tuple(unit[:target])), (0, target, tuple(inv)))
        r = list(r) + [CycNum.zero(level)] * (target - len(r))
        two_minus_r = [(2 - r[0])] + [-c for c in r[1:target]]
        _, _, nxt = _mul_windows(level, (0, target, tuple(inv)), (0, target, tuple(two_minus_r)))
        inv = list(nxt) + [CycNum.zero(level)] * (target - len(nxt))
        known = target
    return inv[:width]
