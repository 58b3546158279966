"""Univariate polynomial utilities over K_N.

Polynomials are tuples of CycNum, constant term first, trailing zeros
stripped. CycNum appears only at the entry and exit of the two hot
kernels, which run on Python ints over one common denominator:

- `pmul` (and with it `ppow` and `monic_from_roots`) multiplies on the
  product engine of `qseries`, the one engine for series and polynomial
  products, with each polynomial as a single window of the integer form;
- `nth_root_monic` takes the root by J. C. P. Miller's one-pass power
  recurrence and verifies it by exact multiplication.

Gcd chains over a number field would blow up, so squarefreeness is
certified by reduction modulo a split prime, which gives a sound positive
certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CycNum, get_context
from .ntheory import prime_divisors, _is_prime


def trim(p) -> tuple:
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return tuple(p)


def deg(p) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def constant(level: int, value) -> tuple:
    c = value if isinstance(value, CycNum) else CycNum.from_rational(level, value)
    return trim((c,))


def padd(p, q) -> tuple:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        if i < len(p) and i < len(q):
            out.append(p[i] + q[i])
        elif i < len(p):
            out.append(p[i])
        else:
            out.append(q[i])
    return trim(out)


def pscale(p, c) -> tuple:
    if not isinstance(c, CycNum) and p:
        c = CycNum.from_rational(p[0].level, c)
    return trim(tuple(c * x for x in p))


def pmul(p, q) -> tuple:
    """p*q by the product engine of qseries: each polynomial is one window
    [0, len(p) + len(q) - 1) of the integer form."""
    if not p or not q:
        return ()
    from .qseries import _from_rows, _mul_rows, _to_rows

    level = p[0].level
    top = len(p) + len(q) - 1
    den, ((o, _, rows),) = _mul_rows(level, _to_rows([(0, top, p)]), _to_rows([(0, top, q)]))
    ((_, _, coeffs),) = _from_rows(level, den, [(o, top, rows)])
    return trim((CycNum.zero(level),) * o + coeffs)


def ppow(p, e: int) -> tuple:
    if not p:
        return () if e else None
    result = (CycNum.one(p[0].level),)
    base = p
    while e:
        if e & 1:
            result = pmul(result, base)
        e >>= 1
        if e:
            base = pmul(base, base)
    return result


def pderiv(p) -> tuple:
    return trim(tuple(p[i] * i for i in range(1, len(p))))


def peval(p, x: CycNum) -> CycNum:
    """p(x) by Horner's rule on integer coordinates.

    With p = A/D and x = X/D over one common denominator D, the steps
    T <- T*X + D^j A_(deg-j), T = A_deg, end at T = D^(deg+1) p(x).
    """
    level = x.level
    if not p:
        return CycNum.zero(level)
    from .qseries import _int_rows, _mac_rows

    ctx = get_context(level)
    slots = 2 * ctx.phi - 1
    den, (rows, (xr,)) = _int_rows([p, (x,)])
    acc = rows[-1]
    lift = 1
    for row in reversed(rows[:-1]):
        prod = [0] * slots
        _mac_rows(prod, acc, xr, 0, slots)
        lift *= den
        acc = [v + lift * c for v, c in zip(ctx.reduce(prod), row)]
    lift *= den
    return CycNum._make(level, tuple(Fraction(v, lift) for v in acc))


def peval_complex(p, z: complex) -> complex:
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c.embed()
    return acc


def pconj(p) -> tuple:
    return tuple(c.conj() for c in p)


def monic_from_roots(level: int, roots, multiplicity: int = 1) -> tuple:
    """prod (X - r)^multiplicity over the given K_N roots."""
    out = (CycNum.one(level),)
    for r in roots:
        out = pmul(out, (-r, CycNum.one(level)))
    return ppow(out, multiplicity)


# -- exact n-th roots of monic polynomials -----------------------------------


def nth_root_monic(f, n_root: int, level: int):
    """Exact H with H^n = f, for monic f with deg divisible by n_root.

    Returns the monic H, or None if f is not a perfect n-th power. In
    t = 1/X the reversed coefficients f_j (f_0 = 1) give h = f^(1/n) by
    J. C. P. Miller's one-pass recurrence (Knuth, TAOCP vol. 2, 4.7):
    k h_k = sum_{j=1..k} ((1/n + 1) j - k) f_j h_{k-j}, h_0 = 1. The h_k
    are integer rows over one common denominator, raised only when a new
    h_k needs it. The candidate is verified by exact multiplication.
    """
    d = deg(f)
    if d < 0 or d % n_root != 0:
        return None
    if not f[-1] == CycNum.one(level):
        return None
    from .qseries import _int_rows, _mac_rows

    ctx = get_context(level)
    phi = ctx.phi
    slots = 2 * phi - 1
    m = d // n_root
    den, (rows,) = _int_rows([f[d - m :]])
    rev = rows[::-1]  # rev[j] = den * f_(d-j)
    r = n_root
    common = 1  # h_k = h[k] / common
    h = [[1] + [0] * (phi - 1)]
    for k in range(1, m + 1):
        acc = [0] * slots
        for j in range(1, k + 1):
            w = (r + 1) * j - r * k
            if w:
                _mac_rows(acc, [w * x for x in rev[j]], h[k - j], 0, slots)
        # h_k = v / (r k den common), reduced to its own denominator e
        v = ctx.reduce(acc)
        scale = r * k * den * common
        g = math.gcd(scale, *v)
        e = scale // g
        grow = e // math.gcd(common, e)
        if grow != 1:
            common *= grow
            h = [[x * grow for x in row] for row in h]
        lift = common // e
        h.append([x // g * lift for x in v])
    root = tuple(
        CycNum._make(level, tuple(Fraction(x, common) for x in row)) for row in reversed(h)
    )
    if ppow(root, n_root) != trim(tuple(f)):
        return None
    return root


# -- squarefreeness via reduction modulo a split prime -------------------------


def _split_prime_with_root(n: int, lower: int) -> tuple[int, int]:
    """A prime p ≡ 1 (mod N), p > lower, with an element w of exact order N."""
    p = lower + 1
    while True:
        if p % n == 1 and _is_prime(p):
            for g in range(2, p):
                w = pow(g, (p - 1) // n, p)
                if all(pow(w, n // q, p) != 1 for q in prime_divisors(n)):
                    return p, w
        p += 1


def _gcd_mod_p(fp: list[int], gp: list[int], p: int) -> list[int]:
    a, b = [x % p for x in fp], [x % p for x in gp]

    def trim_p(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim_p(a), trim_p(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            coef = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, x in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * x) % p
            a = trim_p(a)
            if not a:
                break
        a, b = b, a
    return a


def squarefree_certificate(f, level: int, attempts: int = 5) -> bool:
    """Sound check that gcd(f, f') = 1 over K_N.

    Reduces modulo primes p = 1 (mod N) (zeta -> an order-N element of F_p);
    a coprime reduction proves coprimality over the field. Returns False only
    if every attempted reduction has a nontrivial gcd.
    """
    from .qseries import _int_rows

    if deg(f) <= 0:
        return True
    # clear denominators once so every reduction is well defined
    _, (rows,) = _int_rows([f])
    p = max(deg(f) + 1, level)
    for _ in range(attempts):
        p, w = _split_prime_with_root(level, p)
        powers = [pow(w, z, p) for z in range(len(rows[0]))]
        red_f = [sum(v * wz for v, wz in zip(row, powers)) % p for row in rows]
        red_df = [k * red_f[k] % p for k in range(1, len(red_f))]
        if not red_f or red_f[-1] == 0:
            continue  # degree dropped; reduction not usable
        g = _gcd_mod_p(red_f, red_df, p)
        if len(g) == 1:
            return True
    return False
