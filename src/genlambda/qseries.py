"""Truncated Laurent series in q = exp(2*pi*i*tau/N) over K_N.

A QSeries knows its level N, the exponent `ord` of its first stored
coefficient, and an exclusive precision bound `prec`: every coefficient of
q^k with ord <= k < prec is stored exactly. Precision is propagated through
arithmetic and never silently extended.

Products run on integers: coefficients go over a common denominator, so
each is a row of phi(N) coordinates, and a product of two rows has
2 phi - 1 zeta-slots, reduced mod Phi_N afterwards. Two engines form the
same sums. The pair loop packs each row into one int (slots in base 2^B)
and multiplies every pair of coefficients that lands in an output window;
its cost grows with the pairs. The decimal engine is a Kronecker
substitution in base 10^D through `decimal` (libmpdec, whose
number-theoretic transform multiplies n digits in O(n log n)); its cost
grows with the output, a string slice and an int per zeta-slot.

Size rule: the decimal engine runs from _PAIRS_PER_LANE = 150 operand
pairs (the product of the operands' nonzero coefficient counts) per output
coefficient. Timing both engines on every product of a cold build_F(7)
(2-vCPU x86-64, Python 3.11), the pair loop took 0.4-0.7 of the decimal
engine's time from 1 to 128 pairs per output coefficient (series
inverses, the Newton sums of the orbit leaves, low tree nodes), and the
decimal engine 0.3-0.85 of the pair loop's from 165 up (the dense powers
f^m, upper tree nodes).

Digit cap: a Decimal product takes scratch space in proportion to its
operands, so an operand over _DIGIT_CAP = 2^18 digits is cut into blocks
of q-lanes. The tree of a cold build_F(7) took 4.4 s at a peak RSS of
29 MiB, against 6.2 s and 29 MiB at 2^17, 4.5 s and 34 MiB at 2^19, and
3.8 s and 65 MiB uncapped.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CycNum, LevelMismatchError, get_context

_DIGIT_CAP = 1 << 18
_PAIRS_PER_LANE = 150


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
    truncated at `limit`. The size rule picks the pair loop or the decimal
    engine (see the module docstring); results are identical either way.
    """
    lenp, lenq = len(P), len(Q)
    out_len = lenp + lenq - 1
    terms = [[(P[i], Q[k - i]) for i in range(max(0, k - lenq + 1), min(k, lenp - 1) + 1)]
          for k in range(out_len)]
    ords = [min(a[0] + b[0] for a, b in ab) for ab in terms]
    precs = [min(min(a[1] + b[0], b[1] + a[0]) for a, b in ab) for ab in terms]
    if limit is not None:
        precs = [min(pr, limit) for pr in precs]
    ctx = get_context(level)
    da, rows_p, ma, la = _int_rows([cs for (_, _, cs) in P])
    db, rows_q, mb, lb = _int_rows([cs for (_, _, cs) in Q])
    bound = ma * mb * min(lenp, lenq) * min(la, lb) * ctx.phi  # |any product slot|
    P = [(o, rows) for (o, _, _), rows in zip(P, rows_p)]
    Q = [(o, rows) for (o, _, _), rows in zip(Q, rows_q)]
    nz_p, nz_q = [sum(any(row) for _, rows in F for row in rows) for F in (P, Q)]
    lanes = sum(max(p - o, 0) for o, p in zip(ords, precs))
    mac = _decimal_mac if nz_p * nz_q >= _PAIRS_PER_LANE * lanes else _pair_mac
    accs = mac(P, Q, ords, precs, bound, ctx)
    den = da * db
    zero = CycNum.zero(level)
    out = []
    for k in range(out_len):
        coeffs = [
            zero if vec is None else CycNum._make(level, tuple(Fraction(v, den) for v in vec))
            for vec in accs[k]
        ]
        accs[k] = None
        out.append(_norm_window(level, ords[k], precs[k], coeffs))
    return out


def _pair_mac(P, Q, ords, precs, bound: int, ctx):
    """P and Q list (ord, integer rows) by X-power, and every product slot
    is below `bound` in absolute value. Returns, per output X-power, the
    power-basis integer vector of each coefficient of its window [ords[k],
    precs[k]) (None for 0), from the integer pair loop."""
    width = _digit_width(bound, 1, 1)
    packed_p = [_pack_rows(rows, width) for _, rows in P]
    packed_q = [_pack_rows(rows, width) for _, rows in Q]
    accs = [[0] * max(precs[k] - ords[k], 0) for k in range(len(ords))]
    for i, (oa, _) in enumerate(P):
        for j, (ob, _) in enumerate(Q):
            k = i + j
            _mac_rows(accs[k], packed_p[i], packed_q[j], oa + ob - ords[k], precs[k] - ords[k])
    slots = 2 * ctx.phi - 1
    return [
        [ctx.reduce(_unpack_digits(x, width, slots)) if x else None for x in acc]
        for acc in accs
    ]


@lru_cache(maxsize=None)
def _decimal_context():
    import decimal

    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


def _decimal_mac(P, Q, ords, precs, bound: int, ctx):
    """The same vectors as _pair_mac, by Kronecker substitution in base 10^D.

    A lane is one coefficient: 2 phi - 1 zeta-slots of D digits, 2 |slot| <
    10^D, each written and read biased by h = 10^D / 2 into [0, 10^D).
    Lanes run (X-power, q-exponent), `stride` q-lanes per X-power. Operands
    over _DIGIT_CAP digits are cut into blocks of b q-lanes; the products
    of blocks s and t start at q-offset (s + t) b, and are summed and
    unpacked once per s + t while that offset is below every window's end.
    """
    from decimal import Decimal

    dctx = _decimal_context()
    phi = ctx.phi
    slots = 2 * phi - 1
    digits = (2 * bound).bit_length() * 30103 // 100000 + 1  # 10^D > 2 bound
    h = 5 * 10 ** (digits - 1)
    h_str = str(Decimal(h))
    zero_lane = h_str * slots
    empty = h_str * (slots - phi)  # slots phi..2 phi - 2 of an operand lane
    lane_w = slots * digits
    int_ok = digits <= (sys.get_int_max_str_digits() or digits)
    accs = [[None] * max(precs[k] - ords[k], 0) for k in range(len(ords))]
    spans = [[(o, o + len(rows)) for o, rows in F if rows] for F in (P, Q)]
    if not all(spans):
        return accs
    (lo_a, hi_a), (lo_b, hi_b) = [(min(sp)[0], max(e for _, e in sp)) for sp in spans]
    top = max(precs)
    hi_a, hi_b = min(hi_a, top - lo_b), min(hi_b, top - lo_a)  # drop what no window reads
    if hi_a <= lo_a or hi_b <= lo_b:
        return accs
    ba, bb = hi_a - lo_a, hi_b - lo_b
    per_lane = max(len(P), len(Q)) * lane_w
    if (ba + bb - 1) * per_lane > _DIGIT_CAP:
        ba = bb = max(1, (_DIGIT_CAP // per_lane + 1) // 2)
    stride = ba + bb - 1

    def pack(v):
        return str(Decimal(v + h)).zfill(digits)

    def blocks(F, lo, hi, size):
        out = []
        for start in range(lo, hi, size):
            lanes = []  # ascending
            for i, (o, rows) in enumerate(F):
                if i:
                    lanes.append(zero_lane * (stride - size))
                for e in range(start, start + size):
                    row = rows[e - o] if o <= e < min(o + len(rows), hi) else None
                    if row is None or not any(row):
                        lanes.append(zero_lane)
                    else:
                        lanes.append(empty + "".join([pack(v) for v in reversed(row)]))
            text = "".join(reversed(lanes))
            out.append(dctx.subtract(Decimal(text), Decimal(h_str * (len(text) // digits))))
        return out

    blocks_p = blocks(P, lo_a, hi_a, ba)
    blocks_q = blocks(Q, lo_b, hi_b, bb)
    total = len(ords) * stride * lane_w
    bias = Decimal(h_str * (total // digits))
    for u in range(len(blocks_p) + len(blocks_q) - 1):
        e0 = lo_a + lo_b + u * ba  # ba == bb whenever u > 0
        if e0 >= top:
            break
        value = bias
        for s in range(max(0, u - len(blocks_q) + 1), min(u + 1, len(blocks_p))):
            value = dctx.add(value, dctx.multiply(blocks_p[s], blocks_q[u - s]))
        text = str(value)
        if len(text) > total or text[0] == "-":
            raise ArithmeticError("packed-digit overflow: width chosen too small")
        text = text.zfill(total)
        for k, acc in enumerate(accs):
            ok = ords[k]
            for e in range(max(e0, ok), min(e0 + stride, precs[k])):
                end = total - (k * stride + e - e0) * lane_w
                lane = text[end - lane_w : end]
                if lane == zero_lane:
                    continue
                cut = [lane[x - digits : x] for x in range(lane_w, 0, -digits)]
                vec = ctx.reduce(
                    [int(c) - h for c in cut] if int_ok else [int(Decimal(c)) - h for c in cut]
                )
                cur = acc[e - ok]
                acc[e - ok] = vec if cur is None else [x + y for x, y in zip(cur, vec)]
    return accs


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
