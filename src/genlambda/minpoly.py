"""Construction and verification of the minimal polynomial F(X, Y).

F(X, j) = prod over the coset transversal of (X - lambda∘A), assembled as a
monic degree-d_N polynomial in X whose coefficients are then recognized as
polynomials in j. Coefficient series of the product are supported on
exponents divisible by N, so after the per-cusp orbit products the tree
works on a compressed q^N-grid representation.

The orbit product of a cusp with matrix A is its leaf,
prod_{i<N} (X - f(zeta^i q)) for f = lambda∘A. Its power sums are
p_m = sum_i f(zeta^i q)^m = N grid(f^m), since the twists cancel every
exponent off the q^N grid. The leaf's coefficient a_k of X^(N-k) follows
from Newton's identities, k a_k = -sum_{i=1..k} a_(k-i) p_i with a_0 = 1:
N - 1 dense products for the powers, then short products on the grid.

Window bookkeeping is exact throughout; the leaf precision adds the total
pole mass N*ell so the final windows still reach the requested target.
The product tree computes nothing beyond that target. It passes a `limit`
in grid units down the tree, target_g at the root. A node with limit U
whose halves L and R have smallest total ords m_L and m_R (each <= 0)
computes L to U - m_R and R to U - m_L, since a coefficient of L*R below
q^U never reads more; each leaf is truncated to its limit. The tree's
output is the uncapped product truncated at target_g, bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycNum, get_context
from .forms import j_series
from .lam import lambda_leading, lambda_series
from .modgroup import cusp_reps, degree_dn, nu_pair, nu_statistics
from .polyk import (
    deg,
    monic_from_roots,
    nth_root_monic,
    peval,
    pscale,
    squarefree_certificate,
    trim,
)
from .qseries import (
    QSeries,
    _int_rows,
    _mac_rows,
    _mul_windows,
    _norm_window,
    _pair_mac,
    xpoly_mul_windows,
)

FORMAT_VERSION = 1


class GridSupportError(ValueError):
    """A series that must live on the q^N grid has an off-grid coefficient."""


class ReductionError(ValueError):
    """Recognition of a series as a polynomial in j left a nonzero remainder."""


class PrecisionError(ValueError):
    """Computed windows do not reach the precision the result requires."""


class SelfCheckError(AssertionError):
    """A freshly built F failed its root-identity self-check."""


# ---------------------------------------------------------------------------
# compressed q^N-grid series: plain tuples (ord, prec, coeffs) in grid units
# ---------------------------------------------------------------------------


def _c_add(level, a, b):
    ao, ap, ac = a
    bo, bp, bc = b
    pg = min(ap, bp)
    og = min(ao, bo, pg)
    zero = CycNum.zero(level)
    out = [zero] * (pg - og)
    for (o, _, cs) in (a, b):
        for idx, c in enumerate(cs, start=o):
            if idx >= pg:
                break
            out[idx - og] = out[idx - og] + c
    return _norm_window(level, og, pg, out)


def _c_neg(a):
    return (a[0], a[1], tuple(-c for c in a[2]))


def _c_scale(level, a, c: CycNum):
    if c.is_zero():
        return (a[1], a[1], ())
    return (a[0], a[1], tuple(c * x for x in a[2]))


def _c_truncate(a, pg_new):
    og, pg, cs = a
    if pg_new >= pg:
        return a
    if pg_new <= og:
        return (pg_new, pg_new, ())
    return _norm_window(None, og, pg_new, cs[: pg_new - og])


def _compress(s: QSeries):
    """Dense series -> grid form; hard error on off-grid support."""
    n = s.level
    for k, c in s.items():
        if k % n != 0:
            raise GridSupportError(
                f"nonzero coefficient at exponent {k} (level {n}); "
                "expected support on multiples of N"
            )
    pg = (s.prec - 1) // n + 1
    if s.is_zero():
        return (pg, pg, ())
    og = s.ord // n
    coeffs = []
    for e in range(og, pg):
        k = e * n
        coeffs.append(s.coeff(k) if s.ord <= k < s.prec else CycNum.zero(n))
    return _norm_window(n, og, pg, coeffs)


def _decompress(level, a) -> QSeries:
    og, pg, cs = a
    prec = (pg - 1) * level + 1
    if not cs:
        return QSeries.zero(level, prec)
    ord_ = og * level
    zero = CycNum.zero(level)
    dense = []
    for idx, c in enumerate(cs):
        if idx:
            dense.extend([zero] * (level - 1))
        dense.append(c)
    dense.extend([zero] * (prec - ord_ - len(dense)))
    return QSeries(level, ord_, dense, prec)


# ---------------------------------------------------------------------------
# polynomials in X with series coefficients (ascending X)
# ---------------------------------------------------------------------------


def _grid_part(level, w):
    """The q^N-grid part of a dense window (ord, prec, coeffs), in grid units."""
    o, p, cs = w
    og = -(-o // level)
    pg = (p - 1) // level + 1
    return _norm_window(level, og, pg, [cs[g * level - o] for g in range(og, pg)])


def _orbit_poly(n: int, rep_pair, convention: str, leaf_prec: int, one_prec: int):
    """The leaf of the cusp with fixed matrix A, on the q^N grid (ascending
    X), from power sums (see the module docstring). Its windows are those
    of the product of linear factors: f^k has the dense window
    [k nu, leaf_prec + (k-1) nu), and so has a_k on the grid, since the
    other terms of its Newton sum reach as far; the leading 1 keeps
    `one_prec`."""
    rep = next(r for r in cusp_reps(n, convention) if r.pair == tuple(rep_pair))
    f = lambda_series(rep.matrix, leaf_prec)
    f = (f.ord, f.prec, f.coeffs)
    power = f
    sums = [None]  # sums[m] = grid(f^m) = p_m / N
    for m in range(1, n + 1):
        if m > 1:
            power = _mul_windows(n, power, f)
        sums.append(_grid_part(n, power))
    pg = (one_prec - 1) // n + 1
    coeffs = [(0, pg, (CycNum.one(n),) + (CycNum.zero(n),) * (pg - 1))]  # a_k
    for k in range(1, n + 1):
        acc = sums[k]
        for i in range(1, k):
            acc = _c_add(n, acc, _mul_windows(n, coeffs[k - i], sums[i]))
        coeffs.append(_c_scale(n, acc, CycNum.from_rational(n, Fraction(-n, k))))
    return coeffs[::-1]


def _orbit_worker(args):
    return _orbit_poly(*args)


def _min_ord(polys) -> int:
    """Sum over the leaves of each leaf's smallest coefficient ord: a lower
    bound for the ord of every coefficient of their product (<= 0, since
    each leaf's leading coefficient is 1)."""
    return sum(min(c[0] for c in p) for p in polys)


def _tree_mul_compact(level, polys, limit: int):
    """Product of the leaves, with every coefficient window ending at or
    before `limit` (grid units): the uncapped product truncated there.

    A coefficient of L*R at q^e < limit reads L only below
    limit - min_ord(R), and R only below limit - min_ord(L), so each child
    is computed to that demand and nothing beyond it."""
    if len(polys) == 1:
        return [_c_truncate(c, limit) for c in polys[0]]
    mid = len(polys) // 2
    lo, hi = polys[:mid], polys[mid:]
    left = _tree_mul_compact(level, lo, limit - _min_ord(hi))
    right = _tree_mul_compact(level, hi, limit - _min_ord(lo))
    return xpoly_mul_windows(level, left, right, limit=limit)


def _product_poly_compact(
    n: int, prec: int | None = None, convention: str = "min", threads: int = 1
):
    """Compact coefficients of prod_{A in transversal} (X - lambda∘A).

    Returns (coeffs ascending in X, meta) where meta carries d, ell, t and the
    the resolved target/leaf precisions.
    """
    if n < 3:
        raise ValueError("level must be >= 3")
    ell, t = nu_statistics(n)
    d = degree_dn(n)
    min_prec = n * (ell + 2)
    target = min_prec if prec is None else int(prec)
    if target < min_prec:
        raise ValueError(
            f"precision {target} below the minimum heuristic {min_prec} for level {n}"
        )
    leaf_prec = target + n * ell + 2 * n
    one_prec = leaf_prec + n * ell + n
    reps = cusp_reps(n, convention)
    tasks = [(n, r.pair, convention, leaf_prec, one_prec) for r in reps]
    orbit_polys = None
    if threads > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=threads) as pool:
                orbit_polys = list(pool.map(_orbit_worker, tasks))
        except Exception as exc:
            import warnings

            warnings.warn(
                f"process pool failed ({exc!r}); building the orbit leaves serially",
                RuntimeWarning,
                stacklevel=2,
            )
            orbit_polys = None
    if orbit_polys is None:
        orbit_polys = [_orbit_poly(*task) for task in tasks]
    target_g = (target - 1) // n + 1
    coeffs = _tree_mul_compact(n, orbit_polys, target_g)
    if len(coeffs) != d + 1:
        raise AssertionError("product degree mismatch")
    out = []
    for c in coeffs:
        if c[1] < target_g:
            raise PrecisionError(
                f"coefficient window reaches only {c[1]} grid terms; "
                f"{target_g} required"
            )
        out.append(_c_truncate(c, target_g))
    meta = {
        "d": d,
        "ell": ell,
        "t": t,
        "target": target,
        "target_g": target_g,
        "leaf_prec": leaf_prec,
    }
    return out, meta


def product_poly(
    n: int, prec: int | None = None, convention: str = "min", threads: int = 1
) -> list[QSeries]:
    """The d_N + 1 coefficient series of the transversal product, densely
    represented in q (index = power of X), each supported on the N-grid."""
    coeffs, _ = _product_poly_compact(n, prec, convention, threads)
    return [_decompress(n, c) for c in coeffs]


# ---------------------------------------------------------------------------
# recognition of grid series as polynomials in j
# ---------------------------------------------------------------------------


def _j_powers_compact(n: int, dense_prec: int, max_pow: int):
    j = _compress(j_series(n, dense_prec))
    powers = [(0, j[1] + 1, (CycNum.one(n),) + (CycNum.zero(n),) * j[1])]  # j^0 = 1
    cur = None
    for m in range(1, max_pow + 1):
        cur = j if m == 1 else _mul_windows(n, cur, j)
        powers.append(cur)
    return powers


def _reduce_compact(n: int, c, j_powers, max_pow: int):
    og, pg, cs = c
    coeff_out: dict[int, CycNum] = {}
    cur = c
    while cur[2] and cur[0] < 0:
        m = -cur[0]
        if m > max_pow:
            raise ReductionError(
                f"pole order {m} exceeds the expected bound {max_pow}"
            )
        lead = cur[2][0]
        coeff_out[m] = lead
        cur = _c_add(n, cur, _c_neg(_c_scale(n, j_powers[m], lead)))
    if cur[2] and cur[0] == 0:
        coeff_out[0] = cur[2][0]
        zero = CycNum.zero(n)
        const = (0, cur[1], (-cur[2][0],) + (zero,) * (cur[1] - 1))
        cur = _c_add(n, cur, const)
    if cur[2]:
        raise ReductionError(
            f"nonzero remainder of order {cur[0] * n} after j-reduction "
            "(insufficient precision or input not a polynomial in j)"
        )
    if not coeff_out:
        return ()
    top = max(coeff_out)
    zero = CycNum.zero(n)
    return trim(tuple(coeff_out.get(m, zero) for m in range(top + 1)))


def reduce_to_j(f: QSeries):
    """Write a grid-supported series exactly as a polynomial in j.

    Returns the ascending coefficient tuple P with P(j) = f on the window;
    raises ReductionError if a nonzero remainder survives, GridSupportError
    off the grid. The window must reach at least N beyond the constant term
    so the zero-remainder check is meaningful.
    """
    n = f.level
    if f.prec < n + 1:
        raise PrecisionError(
            "window must reach at least N beyond the constant term"
        )
    c = _compress(f)
    max_pow = max(1, -min(c[0], 0))
    dense_prec = max(f.prec + n * (max_pow + 1), n * (max_pow + 2))
    j_powers = _j_powers_compact(n, dense_prec, max_pow)
    return _reduce_compact(n, c, j_powers, max_pow)


# ---------------------------------------------------------------------------
# the bivariate polynomial and its construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BivarPoly:
    """F(X, Y) = sum_i P[i](Y) X^(d-i), monic in X, with P[i] over K_N."""

    level: int
    d: int
    ell: int
    t: int
    prec: int | None
    P: tuple[tuple[CycNum, ...], ...]

    def y_degree(self) -> int:
        return max((deg(p) for p in self.P), default=-1)

    def p_poly(self, i: int) -> tuple[CycNum, ...]:
        return self.P[i]

    def q_poly(self, m: int) -> tuple[CycNum, ...]:
        """Q_m(X): the coefficient of Y^(ell - m), ascending in X."""
        want = self.ell - m
        zero = CycNum.zero(self.level)
        out = []
        for x_pow in range(self.d + 1):
            p = self.P[self.d - x_pow]
            out.append(p[want] if want < len(p) else zero)
        return trim(tuple(out))

    def specialize(self, y) -> tuple[CycNum, ...]:
        """F(X, y) as a univariate polynomial in X (ascending)."""
        y = y if isinstance(y, CycNum) else CycNum.from_rational(self.level, y)
        out = []
        for x_pow in range(self.d + 1):
            out.append(peval(self.P[self.d - x_pow], y))
        return trim(tuple(out))

    def to_json_obj(self) -> dict:
        return {
            "N": self.level,
            "dN": self.d,
            "ellN": self.ell,
            "tN": self.t,
            "P": [
                {"i": i, "poly": [c.to_json_obj() for c in p]}
                for i, p in enumerate(self.P)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json_obj(obj: dict) -> "BivarPoly":
        n = int(obj["N"])
        entries = sorted(obj["P"], key=lambda e: int(e["i"]))
        polys = tuple(
            trim(tuple(CycNum.from_json_obj(c) for c in e["poly"])) for e in entries
        )
        return BivarPoly(
            level=n,
            d=int(obj["dN"]),
            ell=int(obj["ellN"]),
            t=int(obj["tN"]),
            prec=None,
            P=polys,
        )


def _rows_norm(og, pg, rows):
    """Strip leading zero rows from an integer window (ord, prec, rows)."""
    k = 0
    while k < len(rows) and not any(rows[k]):
        k += 1
    if k == len(rows):
        return (pg, pg, [])
    return (og + k, pg, rows[k:])


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


def check_root_identity(F: BivarPoly, matrices=None, window: int | None = None) -> bool:
    """Check that F(lambda∘A-series, j-series) vanishes on the window
    [ord, prec) of the final Horner value, for each matrix A.

    The series are computed to prec = window + N*(ell + 2) (window defaults
    to 3N), and the window rule of series arithmetic fixes where the final
    value's window ends: before q^76 on F(7) and q^23 on F(4) for the identity
    matrix. `window` is only the minimum: PrecisionError is raised if the
    final window ends before q^window. Vanishing on this window is not a
    proof that F(lambda, j) = 0: a term c j^m lambda^(d-i) first shows at
    q^(d-i-N m), so a change to a P_i of small i can lie beyond the window
    and pass (for F(4), +1 on the constant term of P_1 passes).

    No product computes a coefficient the final window does not read. A
    first pass runs the window rule alone (prec + ord(lambda) per product,
    min with the prec of each D P_i(j)), which bounds the final prec by
    `top`. A coefficient of the partial sum at q^e reaches the final value
    only at q^(e + (d-i) ord(lambda)) or above, so the product at step i
    stops at top - (d-i) ord(lambda); for either sign of ord(lambda) this
    leaves the final window, and so the verdict, as it is without the cap.

    The arithmetic runs on integers. With D the common denominator of F's
    coordinates and L that of the lambda-series, the Horner steps
    W <- W * (L lambda) + L^i D P_i(j) give L^i D times the partial sums,
    since j has rational-integer q-coefficients. Each coefficient is a row
    of phi ints, packed per step for the shared pair loop and reduced mod
    Phi_N after it.
    """
    from .modgroup import SL2Mat

    n = F.level
    ell = max(F.ell, 1)
    w = window if window is not None else 3 * n
    margin = n * ell + 2 * n
    prec = w + margin
    if matrices is None:
        matrices = [SL2Mat.identity(n)]
    ctx = get_context(n)
    phi = ctx.phi
    zero = [0] * phi
    jp = [
        (o, p, [c.coords[0].numerator for c in cs])
        for (o, p, cs) in _j_powers_compact(n, prec, ell)
    ]
    _, p_rows, _, _ = _int_rows(F.P)
    p_series = []
    for poly in p_rows:
        acc = None
        for m, c in enumerate(poly):
            if not any(c):
                continue
            o, p, js = jp[m]
            term = (o, p, [[x * cz for cz in c] for x in js])
            acc = term if acc is None else _rows_add(acc, term, phi)
        if acc is not None:  # spread the q^N grid out to dense exponents
            og, pg, rows = acc
            dense = []
            for row in rows:
                dense += [zero] * (n - 1) if dense else []
                dense.append(row)
            prec_d = (pg - 1) * n + 1
            acc = (og * n, prec_d, dense) if rows else (prec_d, prec_d, [])
        p_series.append(acc)
    for mat in matrices:
        lam = lambda_series(mat, prec)
        ol, pl = lam.ord, lam.prec
        den_l, (lam_rows,), max_l, _ = _int_rows([lam.coeffs])
        top = None  # the window rule alone: an upper bound on the final prec
        for ps in p_series:
            if top is not None:
                top += ol
            if ps is not None:
                top = ps[1] if top is None else min(top, ps[1])
        v = None
        lift = 1  # den_l ** i
        for i in range(F.d + 1):
            if v is not None:
                ov, pv, rows = v
                o, pr = ov + ol, min(pv + ol, pl + ov, top - (F.d - i) * ol)
                max_v = max((abs(x) for row in rows for x in row), default=1)
                bound = max_v * max_l * len(lam_rows) * phi
                (acc,) = _pair_mac([(ov, rows)], [(ol, lam_rows)], [o], [pr], bound, ctx)
                v = _rows_norm(o, pr, [zero if x is None else x for x in acc])
            ps = p_series[i]
            if ps is not None:
                if lift != 1:
                    ps = (ps[0], ps[1], [[x * lift for x in row] for row in ps[2]])
                v = ps if v is None else _rows_add(v, ps, phi)
            lift *= den_l
        if v is None or v[2]:
            return False
        if v[1] < w:
            raise PrecisionError("residual window too small to be conclusive")
    return True


_MEMO: dict = {}


def build_F(
    n: int,
    prec: int | None = None,
    *,
    convention: str = "min",
    threads: int = 1,
    cache_dir: str | None = None,
    self_check: bool = True,
) -> BivarPoly:
    """Build F(X, Y) for level N, verify F(lambda, j) = 0, and cache it.

    Only a checked F enters the in-process memo, so a build with
    self_check=False never answers a later call that asks for the check.
    For N = 6 the construction still runs but none of the structure theorems
    are claimed (see verify_theorem1).
    """
    ell, t = nu_statistics(n)
    min_prec = n * (ell + 2)
    target = min_prec if prec is None else int(prec)
    key = (n, target, convention)
    if key in _MEMO:
        return _MEMO[key]
    cache_path = None
    if cache_dir:
        cache_path = os.path.join(
            cache_dir, f"F_N{n}_p{target}_v{FORMAT_VERSION}.json"
        )
        loaded = _load_cached(cache_path, n, target)
        if loaded is not None:
            _MEMO[key] = loaded
            return loaded
    coeffs, meta = _product_poly_compact(n, target, convention, threads)
    d = meta["d"]
    jp = _j_powers_compact(n, meta["leaf_prec"], ell)
    polys = []
    for i in range(d + 1):
        polys.append(_reduce_compact(n, coeffs[d - i], jp, ell))
    F = BivarPoly(level=n, d=d, ell=ell, t=t, prec=target, P=tuple(polys))
    if self_check and not check_root_identity(F):
        raise SelfCheckError(f"self-check failed for level {n}: F(lambda, j) != 0")
    if cache_path:
        _store_cached(cache_path, F)
    if self_check:
        _MEMO[key] = F
    return F


def _store_cached(path: str, F: BivarPoly) -> None:
    """Write F to path through a temporary file of this writer's own in the
    same directory, so concurrent writers never share or truncate a file."""
    import tempfile

    cache_dir = os.path.dirname(path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".F_", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(F.to_json())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_cached(path: str, n: int, target: int) -> BivarPoly | None:
    """The cached F for level n, or None if the file is missing, malformed,
    has the wrong shape (N, d_N, ell_N, t_N or the number of P_i) or fails
    the root identity. Any other exception propagates."""
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        F = BivarPoly.from_json_obj(obj)
        d = degree_dn(n)
        if (F.level, F.d, (F.ell, F.t), len(F.P)) != (n, d, nu_statistics(n), d + 1):
            return None
        F = BivarPoly(
            level=F.level, d=F.d, ell=F.ell, t=F.t, prec=target, P=F.P
        )
        if not check_root_identity(F):
            return None
        return F
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return None


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Theorem1Report:
    level: int
    claimed: bool
    clauses: tuple[ClauseResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def lines(self) -> list[str]:
        out = []
        if not self.claimed:
            out.append(
                f"level {self.level}: structure theorems are not claimed at this level; "
                "results reported for information only"
            )
        for c in self.clauses:
            out.append(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        return out


def verify_theorem1(F: BivarPoly) -> Theorem1Report:
    """Check the five structural facts about the P_i.

    Symmetry and integrality run on integer rows: each P_i is D_i times a
    row of integer coordinates with D_i the least common denominator, which
    conjugation keeps, so P_(d-i) = conj(P_i) compares D and rows.
    """
    n, d = F.level, F.d
    ctx = get_context(n)
    phi = ctx.phi
    slots = 2 * phi - 1
    ints = [(den, rows) for den, (rows,), _, _ in (_int_rows([p]) for p in F.P)]

    def row_mul(a, b):
        prod = [0] * slots
        _mac_rows(prod, a, b, 0, slots)
        return ctx.reduce(prod)

    flip = [ctx.power_rows[-k % n] for k in range(phi)]  # conj(z^k) = z^(N-k)

    def conj(row):
        return [sum(x * img[z] for x, img in zip(row, flip)) for z in range(phi)]

    clauses = []

    tail = F.P[d]
    ok_a = tail == (CycNum.one(n),)
    clauses.append(ClauseResult("monic_tail", ok_a, f"P_{d} = {'1' if ok_a else 'NOT 1'}"))

    bad = []
    for i in range(d + 1):
        (den, rows), (den_c, rows_c) = ints[i], ints[d - i]
        if den_c != den or rows_c != [conj(r) for r in rows]:
            bad.append(i)
    clauses.append(
        ClauseResult(
            "conjugate_symmetry",
            not bad,
            "P_(d-i) = conj(P_i) for all i" if not bad else f"fails at i in {bad[:5]}",
        )
    )

    bad = [i for i in range(1, d + 1) if 2 * deg(F.P[i]) >= i]
    consts = deg(F.P[1]) <= 0 and deg(F.P[2]) <= 0
    clauses.append(
        ClauseResult(
            "degree_bound",
            not bad and consts,
            "deg P_i < i/2; P_1, P_2 constants"
            if not bad and consts
            else f"violations at i in {bad[:5]}",
        )
    )

    u = [1, -1] + [0] * (phi - 2)  # 1 - z
    w = row_mul(row_mul(u, u), u)
    scale = [1] + [0] * (phi - 1)  # (1 - z)^(3i)
    bad = []
    for i in range(d + 1):
        if i:
            scale = row_mul(scale, w)
        den, rows = ints[i]
        if den != 1 and any(x % den for r in rows for x in row_mul(scale, r)):
            bad.append(i)
    clauses.append(
        ClauseResult(
            "integrality",
            not bad,
            "(1-z)^(3i) P_i has integral coefficients"
            if not bad
            else f"fails at i in {bad[:5]}",
        )
    )

    degs = [deg(p) for p in F.P]
    max_deg = max(degs)
    idx = n * F.t
    ok_e = idx <= d and degs[idx] == F.ell and max_deg == F.ell
    clauses.append(
        ClauseResult(
            "max_degree_index",
            ok_e,
            f"max deg P_i = {max_deg} (= ell), attained at i = N*t = {idx}"
            if ok_e
            else f"max deg {max_deg} at {degs.index(max_deg)}, deg P_(N t) = "
            f"{degs[idx] if idx <= d else 'n/a'}, ell = {F.ell}",
        )
    )

    return Theorem1Report(level=n, claimed=(n != 6), clauses=tuple(clauses))


# ---------------------------------------------------------------------------
# specializations in Y
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorCertificate:
    kind: str  # "cube" | "square" | "squarefree"
    ok: bool
    y: object
    base: tuple | None
    multiplicity: int
    detail: str


def specialize_and_factor(F: BivarPoly, y) -> FactorCertificate:
    """Certify the factorization shape of F(X, y).

    y = 0: a perfect cube H1^3 with deg H1 = d/3 and H1(0) != 0.
    y = 1728: a perfect square H2^2 with deg H2 = d/2 and H2(0) != 0.
    other y: gcd(F(X,y), dF/dX) = 1 via reduction mod split primes.
    """
    n = F.level
    f = F.specialize(y)
    y_val = Fraction(y) if not isinstance(y, CycNum) else y
    if y_val == 0 or y_val == 1728:
        mult = 3 if y_val == 0 else 2
        base = nth_root_monic(f, mult, n)
        ok = base is not None and base[0] and deg(base) == F.d // mult
        detail = (
            f"F(X,{y_val}) = H^{mult}, deg H = {F.d // mult}, H(0) != 0"
            if ok
            else f"F(X,{y_val}) is not a perfect {mult}-th power of the expected shape"
        )
        return FactorCertificate(
            kind="cube" if mult == 3 else "square",
            ok=bool(ok),
            y=y_val,
            base=base,
            multiplicity=mult,
            detail=detail,
        )
    ok = squarefree_certificate(f, n)
    return FactorCertificate(
        kind="squarefree",
        ok=ok,
        y=y_val,
        base=None,
        multiplicity=1,
        detail=f"gcd(F(X,y), F'(X,y)) = 1 certified mod split primes (y = {y_val})"
        if ok
        else f"no coprime reduction found (y = {y_val})",
    )


def rational_j_expression(F: BivarPoly) -> tuple[tuple, tuple]:
    """For ell = 1 levels: the pair (Q0, Q1) with F = Q0(X) Y + Q1(X), so
    j = -Q1(lambda)/Q0(lambda)."""
    if F.ell != 1:
        raise ValueError(f"level {F.level} has ell = {F.ell}; lambda generates only for ell = 1")
    return F.q_poly(0), F.q_poly(1)


def q0_structure(F: BivarPoly) -> tuple[bool, str]:
    """Exact check of Q0 = c X^(N t) prod_k (X - v_k)^N over the cusp values
    v_k of the lambda function at its order-zero cusps."""
    n = F.level
    values = []
    for rep in cusp_reps(n):
        if nu_pair(rep.a, rep.c, n) == 0:
            coeff, order = lambda_leading(rep.matrix)
            assert order == 0
            values.append(coeff)
    q0 = F.q_poly(0)
    expected_deg = F.d - n * F.t
    if deg(q0) != expected_deg:
        return False, f"deg Q0 = {deg(q0)}, expected {expected_deg}"
    c = q0[-1]
    shell = monic_from_roots(n, values, multiplicity=n)
    shifted = tuple([CycNum.zero(n)] * (n * F.t)) + shell
    expected = pscale(shifted, c)
    if trim(q0) != trim(expected):
        return False, "Q0 does not match c X^(N t) prod (X - v_k)^N"
    return True, (
        f"Q0 = c X^{n * F.t} prod (X - v_k)^{n} with {len(values)} cusp values, all in K_N"
    )
