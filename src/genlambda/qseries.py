"""Truncated Laurent series in q = exp(2*pi*i*tau/N) over K_N.

A QSeries knows its level N, the exponent `ord` of its first stored
coefficient, and an exclusive precision bound `prec`: every coefficient of
q^k with ord <= k < prec is stored exactly. Precision is propagated through
arithmetic and never silently extended.

Products run on one integer form, and _mul_rows is the one product
engine: series products, polyk.pmul and the integer series of forms all
reach it. An X-polynomial with series coefficients is (den, windows), one
least common denominator and, per X-power, a window (ord, prec, rows)
with a row of phi(N) power-basis coordinates times den per coefficient.
After each product _mul_rows divides den and every int by their gcd (the
gcd step), which gives the ints of Fraction arithmetic over one common
denominator. CycNum coefficients are built only at the API boundary. Rows
are shared between windows and never changed in place.

A product of two rows has 2 phi - 1 zeta-slots, reduced mod Phi_N
afterwards. The pair loop packs each row into one int (slots in base 2^B)
and multiplies every pair of coefficients that lands in an output window.
The decimal engine is a Kronecker substitution in base 10^D through
`decimal` (libmpdec multiplies n digits in O(n log n) by a number-theoretic
transform); its cost grows with the output.

Size rule: the decimal engine runs from _PAIRS_PER_LANE = 150 operand
pairs (the product of the operands' nonzero coefficient counts, before
the width rule drops lanes) per output coefficient. Timing both engines
on every product of a cold build_F(7) (2-vCPU x86-64, Python 3.11), the
pair loop took 0.4-0.7 of the decimal engine's time from 1 to 128 pairs
per output coefficient, and the decimal engine 0.3-0.85 of the pair
loop's from 165 up.

Width rule: a product slot sums at most `count` products of two
coordinates. Operand q-lanes whose every product lands at or beyond the
largest window end are dropped; a kept lane's peak is its largest
|coordinate| over all X-powers. The slot bound is `count` times the
largest product of two peaks over the lane pairs an engine multiplies:
those landing below the largest window end for the pair loop, all kept
pairs in one Decimal product, and in the blocked layout the block pairs
whose q-offset lies below that end. Coefficients grow along q, so at the
root of the N = 7 product tree D falls from 135 to 98 digits.

Digit cap: an operand over _DIGIT_CAP = 2^18 digits is cut into blocks of
b q-lanes, since a Decimal product takes scratch space in proportion to
its operands; b is chosen from the width of all kept pairs, and D then
from the block pairs. With one width for all lanes, the tree of a cold
build_F(7) took 4.4 s at a peak RSS of 29 MiB, against 6.2 s and 29 MiB
at 2^17, 4.5 s and 34 MiB at 2^19, and 3.8 s and 65 MiB uncapped.
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
            ((ord_, prec, coeffs),) = xpoly_mul_windows(
                self.level,
                [(self.ord, self.prec, self.coeffs)],
                [(other.ord, other.prec, other.coeffs)],
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
        den, (rows,) = _int_rows([self.coeffs])
        d_inv, inv = _invert_rows(n, den, rows, self.prec - o)
        ((_, _, coeffs),) = _from_rows(n, d_inv, [(0, 0, inv)])
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


def _digit_width(bound: int) -> int:
    """Bits per packed digit, a multiple of 8, for digits below `bound` in
    absolute value: no digit can overflow."""
    return max(8, (bound.bit_length() + 11) & ~7)


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
    integer coordinate rows: (den, rows per sequence)."""
    den = 1
    for cs in polys:
        for c in cs:
            for fr in c.coords:
                d = fr.denominator
                if d != 1:
                    den = den * d // math.gcd(den, d)
    return den, [[[fr.numerator * (den // fr.denominator) for fr in c.coords] for c in cs]
                 for cs in polys]


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


# ---------------------------------------------------------------------------
# the integer form: (den, windows (ord, prec, rows of phi ints))
# ---------------------------------------------------------------------------


def _rows_norm(og, pg, rows):
    """Strip leading zero rows from an integer window (ord, prec, rows)."""
    k = next((k for k, row in enumerate(rows) if any(row)), len(rows))
    return (pg, pg, []) if k == len(rows) else (og + k, pg, rows[k:])


def _rows_add(a, b, phi: int):
    """Sum of two integer windows under QSeries.__add__'s window rule."""
    pg = min(a[1], b[1])
    og = min(a[0], b[0], pg)
    out = [[0] * phi for _ in range(pg - og)]
    for (o, _, rows) in (a, b):
        for idx, row in enumerate(rows, start=o):
            if idx >= pg:
                break
            acc = out[idx - og]
            for z, x in enumerate(row):
                acc[z] += x
    return _rows_norm(og, pg, out)


def _reduced(den: int, windows):
    """The gcd step: divide den and every int of the windows by their gcd,
    so den is the least common denominator of the coefficients."""
    g = den
    for _, _, rows in windows:
        for row in rows:
            g = math.gcd(g, *row)
            if g == 1:
                return den, windows
    return den // g, [(o, p, [[x // g for x in row] for row in rows]) for o, p, rows in windows]


def _common_den(polys):
    """One X-polynomial in the integer form from single windows (den, [w]):
    the windows over the least common multiple of their denominators."""
    den = math.lcm(*(d for d, _ in polys))
    out = []
    for d, (w,) in polys:
        s = den // d
        out.append(w if s == 1 else (w[0], w[1], [[x * s for x in row] for row in w[2]]))
    return den, out


def _to_rows(P):
    """The integer form (den, windows) of an X-polynomial of CycNum windows."""
    den, rows = _int_rows([cs for (_, _, cs) in P])
    return den, [(o, p, r) for (o, p, _), r in zip(P, rows)]


def _cyc(level: int, den: int, row) -> CycNum:
    return CycNum._make(level, tuple(Fraction(v, den) for v in row))


def _from_rows(level: int, den: int, windows):
    """The CycNum windows of an X-polynomial in the integer form."""
    zero = CycNum.zero(level)
    return [
        (o, p, tuple(_cyc(level, den, row) if any(row) else zero for row in rows))
        for o, p, rows in windows
    ]


def xpoly_mul_windows(level, P, Q, *, limit=None):
    """Product of two X-polynomials whose coefficients are series windows.

    P and Q are lists of (ord, prec, coeffs-of-CycNum) indexed by X-power;
    the return value has length len(P) + len(Q) - 1 in the same shape, with
    leading zero coefficients stripped per window. With `limit`, every
    output window ends at or before it: the uncapped product truncated
    there. A wrapper of _mul_rows."""
    den, out = _mul_rows(level, _to_rows(P), _to_rows(Q), limit=limit)
    return _from_rows(level, den, out)


def _mul_rows(level, P, Q, *, limit=None):
    """Product of two X-polynomials in the integer form, reduced by the gcd
    step. Window rule and `limit` as in xpoly_mul_windows; rows missing at
    the end of a window are 0."""
    (da, P), (db, Q) = P, Q
    lenp, lenq = len(P), len(Q)
    terms = [[(P[i], Q[k - i]) for i in range(max(0, k - lenq + 1), min(k, lenp - 1) + 1)]
             for k in range(lenp + lenq - 1)]
    ords = [min(a[0] + b[0] for a, b in ab) for ab in terms]
    precs = [min(min(a[1] + b[0], b[1] + a[0]) for a, b in ab) for ab in terms]
    if limit is not None:
        precs = [min(pr, limit) for pr in precs]
    ctx = get_context(level)
    accs = _mac([(o, r) for o, _, r in P], [(o, r) for o, _, r in Q], ords, precs, ctx)
    zero = [0] * ctx.phi
    out = [
        _rows_norm(o, p, [zero if v is None else v for v in acc])
        for o, p, acc in zip(ords, precs, accs)
    ]
    return _reduced(da * db, out)


def _mac(P, Q, ords, precs, ctx):
    """The product of P and Q, which list (ord, integer rows) by X-power:
    per output X-power k, the power-basis vector of each coefficient of its
    window [ords[k], precs[k]) (None for 0), under the size and width rules
    (module docstring)."""
    accs = [[None] * max(p - o, 0) for o, p in zip(ords, precs)]
    spans = [[(o, o + len(rows)) for o, rows in F if rows] for F in (P, Q)]
    if not all(spans):
        return accs
    (lo_a, hi_a), (lo_b, hi_b) = [(min(sp)[0], max(e for _, e in sp)) for sp in spans]
    top = max(precs)
    hi_a, hi_b = min(hi_a, top - lo_b), min(hi_b, top - lo_a)
    if hi_a <= lo_a or hi_b <= lo_b:
        return accs
    # the size rule counts the operands' nonzero rows before the trim
    nz_p, nz_q = [sum(any(row) for _, rows in F for row in rows) for F in (P, Q)]
    P = [(o, rows[: max(hi_a - o, 0)]) for o, rows in P]
    Q = [(o, rows[: max(hi_b - o, 0)]) for o, rows in Q]
    peaks_a, peaks_b = _lane_peaks(P, lo_a, hi_a), _lane_peaks(Q, lo_b, hi_b)
    longest = min(max(len(rows) for _, rows in F) for F in (P, Q))
    count = min(len(P), len(Q)) * longest * ctx.phi  # terms in one product slot
    lanes = sum(max(p - o, 0) for o, p in zip(ords, precs))
    if nz_p * nz_q >= _PAIRS_PER_LANE * lanes:
        return _decimal_mac(P, Q, ords, precs, (lo_a, peaks_a), (lo_b, peaks_b), count, ctx)
    from itertools import accumulate

    reach = list(accumulate(peaks_b, max))  # the pair loop's lane pairs land below top
    last = len(reach) - 1
    peak = max(x * reach[min(top - e - 1 - lo_b, last)] for e, x in enumerate(peaks_a, lo_a))
    return _pair_mac(P, Q, ords, precs, peak * count, ctx)


def _lane_peaks(F, lo: int, hi: int):
    """The largest |coordinate| of each q-lane lo..hi-1, over every X-power,
    and at least 1, so that a bound on products also bounds each factor."""
    peaks = [1] * (hi - lo)
    for o, rows in F:
        for e, row in enumerate(rows, o - lo):
            peaks[e] = max(peaks[e], max(row), -min(row))
    return peaks


def _pair_mac(P, Q, ords, precs, bound: int, ctx):
    """_mac by the integer pair loop; every product slot is below `bound` in
    absolute value."""
    width = _digit_width(bound)
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


def _decimal_mac(P, Q, ords, precs, lanes_a, lanes_b, count: int, ctx):
    """_mac by Kronecker substitution in base 10^D.

    lanes_a and lanes_b give each operand's first q-lane and lane peaks. A
    lane is one coefficient: 2 phi - 1 zeta-slots of D digits, 2 |slot| <
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
    (lo_a, peaks_a), (lo_b, peaks_b) = lanes_a, lanes_b
    top = max(precs)
    ba, bb = len(peaks_a), len(peaks_b)
    bound = max(peaks_a) * max(peaks_b) * count
    lane_x = max(len(P), len(Q)) * slots  # digits per D of one q-lane, all X-powers
    if (ba + bb - 1) * lane_x * _decimal_digits(bound) > _DIGIT_CAP:
        ba = max(1, (_DIGIT_CAP // (lane_x * _decimal_digits(bound)) + 1) // 2)
        bound = _block_bound(peaks_a, peaks_b, lo_a + lo_b, top, ba) * count
        bb = ba
    digits = _decimal_digits(bound)
    h = 5 * 10 ** (digits - 1)
    h_str = str(Decimal(h))
    zero_lane = h_str * slots
    empty = h_str * (slots - phi)  # slots phi..2 phi - 2 of an operand lane
    lane_w = slots * digits
    int_ok = digits <= (sys.get_int_max_str_digits() or digits)
    accs = [[None] * max(precs[k] - ords[k], 0) for k in range(len(ords))]
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
                    row = rows[e - o] if o <= e < o + len(rows) else None
                    if row is None or not any(row):
                        lanes.append(zero_lane)
                    else:
                        lanes.append(empty + "".join([pack(v) for v in reversed(row)]))
            text = "".join(reversed(lanes))
            out.append(dctx.subtract(Decimal(text), Decimal(h_str * (len(text) // digits))))
        return out

    blocks_p = blocks(P, lo_a, lo_a + len(peaks_a), ba)
    blocks_q = blocks(Q, lo_b, lo_b + len(peaks_b), bb)
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


def _block_bound(peaks_a, peaks_b, e0: int, top: int, b: int) -> int:
    """The largest product of two lane peaks over the pairs of b-lane blocks
    (s, t) that the blocked layout multiplies, those with e0 + (s + t) b <
    top."""
    ma = [max(peaks_a[s : s + b]) for s in range(0, len(peaks_a), b)]
    mb = [max(peaks_b[t : t + b]) for t in range(0, len(peaks_b), b)]
    return max(x * y for s, x in enumerate(ma) for t, y in enumerate(mb) if e0 + (s + t) * b < top)


def _decimal_digits(bound: int) -> int:
    """Decimal digits D with 10^D > 2 bound."""
    return (2 * bound).bit_length() * 30103 // 100000 + 1


def _invert_rows(level: int, den: int, rows, width: int):
    """The first `width` coefficients of 1/s for s = sum_k rows[k]/den q^k
    (rows[0] != 0), in the integer form (den', rows'), by Newton's iteration
    inv <- inv (2 - s inv) from inv = 1/rows[0], each product capped at the
    precision it doubles to."""
    c0 = _cyc(level, den, rows[0]).inv()
    d_inv, ((_, _, inv),) = _to_rows([(0, 1, (c0,))])
    s = (den, [(0, width, rows[:width])])
    known = 1
    while known < width:
        target = min(2 * known, width)
        cur = (d_inv, [(0, target, inv)])
        d_r, ((_, _, r),) = _mul_rows(level, s, cur, limit=target)
        two = [[-x for x in row] for row in r]  # 2 - s inv; s inv = 1 + O(q^known)
        two[0][0] += 2 * d_r
        d_inv, ((_, _, inv),) = _mul_rows(level, cur, (d_r, [(0, target, two)]))
        known = target
    return d_inv, inv
