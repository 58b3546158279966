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

The default window is proved, not guessed: the product is built through
q^0 on the q^N grid (target = N, target_g = 1) and no further. Each
coefficient c_i of the product is a symmetric function of the lambda∘A
over the transversal, so it is invariant under Gamma(1); it is holomorphic
on H and meromorphic at the cusps, as each lambda∘A is. So c_i = P_i(j)
for a polynomial P_i whose degree is the pole order of c_i at infinity.
`_reduce_compact` clears the poles with j-powers (raising ReductionError on
a pole above ell, the paper's degree bound) and reads the constant term.
Then c_i - P_i(j) is a modular function for Gamma(1), holomorphic on H and
at infinity, that vanishes at infinity, so it is 0: the P_i read from the
window are exact. An explicit prec (at least N*(ell + 2)) adds
coefficients past q^0, on which the reduction must leave a zero remainder:
a wider re-check of the reduction, not more correctness.

Window bookkeeping is exact throughout, so the coefficients through q^0
are those of the true product; the leaf precision adds the total pole mass
N*ell so the final windows still reach the target (PrecisionError if not).
The product tree computes nothing beyond that target. It passes a `limit`
in grid units down the tree, target_g at the root. A node with limit U
whose halves L and R have smallest total ords m_L and m_R (each <= 0)
computes L to U - m_R and R to U - m_L, since a coefficient of L*R below
q^U never reads more; each leaf is truncated to its limit. The tree's
output is the uncapped product truncated at target_g, bit for bit.

The build runs on the integer form of qseries from the lambda-series to
the P_i, with the gcd step after every product and truncation; Newton's
division by k multiplies den by k. j has rational-integer coefficients,
so its powers are level-1 rows and the j-reduction subtracts a row times
integers. CycNum is built once, for the (d+1)(ell+1) coefficients of P_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycNum, get_context
from .forms import j_series
from .lam import _lambda_rows, lambda_leading
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
    _common_den,
    _from_rows,
    _int_rows,
    _mac,
    _mac_rows,
    _mul_rows,
    _reduced,
    _rows_add,
    _rows_norm,
    _to_rows,
)


class GridSupportError(ValueError):
    """A series that must live on the q^N grid has an off-grid coefficient."""


class ReductionError(ValueError):
    """Recognition of a series as a polynomial in j left a nonzero remainder."""


class PrecisionError(ValueError):
    """Computed windows do not reach the precision the result requires."""


class SelfCheckError(AssertionError):
    """A freshly built F failed its root-identity self-check."""


# ---------------------------------------------------------------------------
# compressed q^N-grid series: windows (ord, prec, rows) in grid units
# ---------------------------------------------------------------------------


def _compress(s: QSeries):
    """Dense series -> grid window in the integer form (den, (ord, prec,
    rows)); hard error on off-grid support."""
    n = s.level
    for k, c in s.items():
        if k % n != 0:
            raise GridSupportError(
                f"nonzero coefficient at exponent {k} (level {n}); "
                "expected support on multiples of N"
            )
    den, (w,) = _to_rows([(s.ord, s.prec, s.coeffs)])
    den, (w,) = _grid_part(n, den, w)
    return den, w


def _decompress(level, w):
    """A grid window of integer rows spread out to dense exponents."""
    og, pg, rows = w
    prec = (pg - 1) * level + 1
    if not rows:
        return (prec, prec, [])
    # the gaps share one zero row, as rows are never changed in place
    dense = [[0] * len(rows[0])] * ((len(rows) - 1) * level + 1)
    dense[::level] = rows
    return (og * level, prec, dense)


# ---------------------------------------------------------------------------
# polynomials in X with series coefficients (ascending X)
# ---------------------------------------------------------------------------


def _grid_part(level, den, w):
    """The q^N-grid part of a dense integer window, in grid units."""
    o, p, rows = w
    og = -(-o // level)
    pg = (p - 1) // level + 1
    return _reduced(den, [_rows_norm(og, pg, [rows[g * level - o] for g in range(og, pg)])])


def _orbit_poly(n: int, rep_pair, convention: str, leaf_prec: int, one_prec: int):
    """The leaf of the cusp with fixed matrix A, on the q^N grid (ascending
    X, integer form), from power sums (see the module docstring). Its
    windows are those of the product of linear factors: f^k has the dense
    window [k nu, leaf_prec + (k-1) nu), and so has a_k on the grid, since
    the other terms of its Newton sum reach as far; the leading 1 keeps
    `one_prec`."""
    m = next(r for r in cusp_reps(n, convention) if r.pair == tuple(rep_pair)).matrix
    phi = get_context(n).phi
    den, w = _lambda_rows((m.a, m.b), (m.c, m.d), n, leaf_prec)
    f = power = (den, [w])
    sums = [None]  # sums[m] = grid(f^m) = p_m / N
    for k in range(1, n + 1):
        if k > 1:
            power = _mul_rows(n, power, f)
        sums.append(_grid_part(n, power[0], power[1][0]))
    pg = (one_prec - 1) // n + 1
    one = [[1] + [0] * (phi - 1)] + [[0] * phi for _ in range(pg - 1)]
    coeffs = [(1, [(0, pg, one)])]  # a_k
    for k in range(1, n + 1):
        terms = [sums[k]] + [_mul_rows(n, coeffs[k - i], sums[i]) for i in range(1, k)]
        den, ws = _common_den(terms)
        acc = ws[0]
        for w in ws[1:]:
            acc = _rows_add(acc, w, phi)
        o, p, rows = acc  # a_k = -(N/k) acc
        coeffs.append(_reduced(den * k, [(o, p, [[-n * x for x in row] for row in rows])]))
    return _common_den(coeffs[::-1])


def _orbit_worker(args):
    return _orbit_poly(*args)


def _min_ord(polys) -> int:
    """Sum over the leaves of each leaf's smallest coefficient ord: a lower
    bound for the ord of every coefficient of their product (<= 0, since
    each leaf's leading coefficient is 1)."""
    return sum(min(w[0] for w in p[1]) for p in polys)


def _tree_mul_compact(level, polys, limit: int):
    """Product of the leaves, with every coefficient window ending at or
    before `limit` (grid units): the uncapped product truncated there.

    A coefficient of L*R at q^e < limit reads L only below
    limit - min_ord(R), and R only below limit - min_ord(L), so each child
    is computed to that demand and nothing beyond it."""
    if len(polys) == 1:
        den, ws = polys[0]
        return _reduced(
            den, [_rows_norm(o, min(p, limit), rows[: max(limit - o, 0)]) for o, p, rows in ws]
        )
    mid = len(polys) // 2
    lo, hi = polys[:mid], polys[mid:]
    left = _tree_mul_compact(level, lo, limit - _min_ord(hi))
    right = _tree_mul_compact(level, hi, limit - _min_ord(lo))
    return _mul_rows(level, left, right, limit=limit)


def _target(n: int, ell: int, prec: int | None) -> int:
    """The dense window end the product is built to: N by default, that is
    through q^0 on the q^N grid, which the module docstring proves exact.
    An explicit prec re-checks the j-reduction on coefficients past q^0 and
    must be at least N*(ell + 2)."""
    if prec is None:
        return n
    target, min_prec = int(prec), n * (ell + 2)
    if target < min_prec:
        raise ValueError(
            f"precision {target} below the minimum {min_prec} for level {n}; "
            "omit it to build at the proved default window"
        )
    return target


def _product_poly_compact(
    n: int, prec: int | None = None, convention: str = "min", threads: int = 1
):
    """Compact coefficients of prod_{A in transversal} (X - lambda∘A),
    known below q^target with target = _target(n, ell, prec).

    Returns ((den, coeffs ascending in X), meta) in the integer form, where
    meta carries d, ell, t and the resolved target/leaf precisions.
    """
    if n < 3:
        raise ValueError("level must be >= 3")
    ell, t = nu_statistics(n)
    d = degree_dn(n)
    target = _target(n, ell, prec)
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
    den, coeffs = _tree_mul_compact(n, orbit_polys, target_g)
    if len(coeffs) != d + 1:
        raise AssertionError("product degree mismatch")
    for c in coeffs:
        if c[1] < target_g:
            raise PrecisionError(
                f"coefficient window reaches only {c[1]} grid terms; "
                f"{target_g} required"
            )
    meta = {
        "d": d,
        "ell": ell,
        "t": t,
        "target": target,
        "target_g": target_g,
        "leaf_prec": leaf_prec,
    }
    return (den, coeffs), meta


def product_poly(
    n: int, prec: int | None = None, convention: str = "min", threads: int = 1
) -> list[QSeries]:
    """The d_N + 1 coefficient series of the transversal product, densely
    represented in q (index = power of X), each supported on the N-grid.

    By default each is known through q^0, which fixes it as a polynomial in
    j (module docstring); an explicit prec >= N*(ell + 2) gives the
    coefficients below q^prec."""
    (den, coeffs), _ = _product_poly_compact(n, prec, convention, threads)
    dense = _from_rows(n, den, [_decompress(n, w) for w in coeffs])
    return [QSeries(n, o, cs, p) for o, p, cs in dense]


# ---------------------------------------------------------------------------
# recognition of grid series as polynomials in j
# ---------------------------------------------------------------------------


def _j_powers_compact(n: int, dense_prec: int, max_pow: int):
    """j^0, ..., j^max_pow on the q^N grid as windows of rational integers,
    multiplied as level-1 rows (phi(1) = 1)."""
    _, (o, p, rows) = _compress(j_series(n, dense_prec))  # denominator 1
    j = (1, [(o, p, [row[:1] for row in rows])])
    powers = [(1, [(0, p + 1, [[1]] + [[0]] * p)]), j]  # j^0 = 1
    for _ in range(2, max_pow + 1):
        powers.append(_mul_rows(1, powers[-1], j))
    return [(o, p, [r[0] for r in rows]) for _, ((o, p, rows),) in powers]


def _reduce_compact(n: int, c, j_powers, max_pow: int):
    """P with P(j) = c for a grid window c = (den, window) of rows: each
    pole lead q^(-m) is cleared by subtracting the row lead times j^m.

    j_powers[m] must reach as far as c: PrecisionError if the window left
    after the poles are cleared ends before the constant term (grid 0)."""
    den, cur = c
    phi = get_context(n).phi
    coeff_out = {}
    while cur[2] and cur[0] < 0:
        m = -cur[0]
        if m > max_pow:
            raise ReductionError(
                f"pole order {m} exceeds the expected bound {max_pow}"
            )
        lead = coeff_out[m] = cur[2][0]
        o, p, js = j_powers[m]
        cur = _rows_add(cur, (o, p, [[-x * z for z in lead] for x in js]), phi)
    if cur[1] < 1:
        raise PrecisionError(
            f"window ends before grid {cur[1]} <= 0, so the constant term is unread"
        )
    if cur[2] and cur[0] == 0:
        coeff_out[0] = cur[2][0]
        cur = _rows_norm(0, cur[1], [[0] * phi] + cur[2][1:])
    if cur[2]:
        raise ReductionError(
            f"nonzero remainder of order {cur[0] * n} after j-reduction "
            "(insufficient precision or input not a polynomial in j)"
        )
    if not coeff_out:
        return ()
    zero = [0] * phi
    rows = [coeff_out.get(m, zero) for m in range(max(coeff_out) + 1)]
    ((_, _, poly),) = _from_rows(n, den, [(0, 0, rows)])
    return trim(poly)


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
    den, c = _compress(f)
    max_pow = max(1, -min(c[0], 0))
    dense_prec = max(f.prec + n * (max_pow + 1), n * (max_pow + 2))
    j_powers = _j_powers_compact(n, dense_prec, max_pow)
    return _reduce_compact(n, (den, c), j_powers, max_pow)


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

        def coeff(c):  # no context is built for a level other than N
            if int(c["N"]) != n:
                raise ValueError(f"coefficient of level {c['N']} in F of level {n}")
            return CycNum.from_json_obj(c)

        polys = tuple(trim(tuple(coeff(c) for c in e["poly"])) for e in entries)
        return BivarPoly(
            level=n,
            d=int(obj["dN"]),
            ell=int(obj["ellN"]),
            t=int(obj["tN"]),
            prec=None,
            P=polys,
        )


def check_root_identity(F: BivarPoly, matrices=None, window: int | None = None) -> bool:
    """Check that F(lambda∘A-series, j-series) vanishes on the window
    [ord, prec) of the final Horner value, for each matrix A.

    The series for A are computed to prec = window + N*(ell + 2) +
    d*max(0, -nu_A), with nu_A the order of lambda∘A (window defaults to
    3N): at a pole of lambda∘A each of the d Horner steps shortens the
    window by -nu_A. The window rule of series arithmetic fixes where the
    final value's window ends: before q^76 on F(7) and q^23 on F(4) for the
    identity matrix. `window` is only the minimum: PrecisionError is raised
    if the final window ends before q^window. Vanishing on this window is not a
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
    of phi ints; each step's product runs through qseries._mac, under the
    size rule and the width rule of qseries.
    """
    from .modgroup import SL2Mat

    n = F.level
    ell = max(F.ell, 1)
    w = window if window is not None else 3 * n
    matrices = [SL2Mat.identity(n)] if matrices is None else list(matrices)
    base = w + n * ell + 2 * n
    precs = [base + F.d * max(0, -nu_pair(m.a, m.c, n)) for m in matrices]
    ctx = get_context(n)
    phi = ctx.phi
    zero = [0] * phi
    jp = _j_powers_compact(n, max(precs, default=base), ell)
    _, p_rows = _int_rows(F.P)
    p_series = []
    for poly in p_rows:
        acc = None
        for m, c in enumerate(poly):
            if not any(c):
                continue
            o, p, js = jp[m]
            term = (o, p, [[x * cz for cz in c] for x in js])
            acc = term if acc is None else _rows_add(acc, term, phi)
        p_series.append(None if acc is None else _decompress(n, acc))
    for mat, prec in zip(matrices, precs):
        den_l, (ol, pl, lam_rows) = _lambda_rows((mat.a, mat.b), (mat.c, mat.d), n, prec)
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
                (acc,) = _mac([(ov, rows)], [(ol, lam_rows)], [o], [pr], ctx)
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
    self_check: bool = True,
) -> BivarPoly:
    """Build F(X, Y) for level N, and verify F(lambda, j) = 0.

    By default the transversal product is built through q^0 on the q^N
    grid and no further: each of its coefficients is a Gamma(1)-invariant
    function, holomorphic on H, so it is a polynomial in j fixed by its
    principal part and constant term at infinity (the proof is in the
    module docstring). An explicit prec, at least N*(ell + 2), builds the
    product below q^prec, and the j-reduction must then leave a zero
    remainder on the extra coefficients: a wider re-check, not more
    correctness. Either way the root-identity self-check runs on its own
    window.

    Only a checked F enters the in-process memo, so a build with
    self_check=False never answers a later call that asks for the check.
    For N = 6 the construction still runs but none of the structure theorems
    are claimed (see verify_theorem1).
    """
    ell, t = nu_statistics(n)
    target = _target(n, ell, prec)
    key = (n, target, convention)
    if key in _MEMO:
        return _MEMO[key]
    (den, coeffs), meta = _product_poly_compact(n, prec, convention, threads)
    d = meta["d"]
    # j^m's grid window ends at p - m + 1 for j known below grid p, and the
    # reduction reads j^m (m <= ell) below target_g
    jp = _j_powers_compact(n, n * (meta["target_g"] + ell - 1), ell)
    polys = []
    for i in range(d + 1):
        polys.append(_reduce_compact(n, (den, coeffs[d - i]), jp, ell))
    F = BivarPoly(level=n, d=d, ell=ell, t=t, prec=target, P=tuple(polys))
    if self_check and not check_root_identity(F):
        raise SelfCheckError(f"self-check failed for level {n}: F(lambda, j) != 0")
    if self_check:
        _MEMO[key] = F
    return F


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
    ints = [(den, rows) for den, (rows,) in (_int_rows([p]) for p in F.P)]

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
