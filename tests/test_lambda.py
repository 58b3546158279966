import math

import pytest

from genlambda.cyclotomic import CycNum
from genlambda.lam import (
    galois_partner_rows,
    is_basis,
    lambda_basis_series,
    lambda_k_series,
    lambda_leading,
    lambda_series,
    w_series,
)
from genlambda.modgroup import SL2Mat, cusp_reps, nu, transversal


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_identity_leading_term(n):
    lam = lambda_series(SL2Mat.identity(n), 12)
    z = CycNum.zeta(n)
    assert lam.ord == 1
    assert lam.leading() == (1 - z) ** 3 / z
    th, o = lambda_leading(SL2Mat.identity(n))
    assert (th, o) == (lam.leading(), 1)


def test_identity_n3_explicit():
    lam = lambda_series(SL2Mat.identity(3), 8)
    z = CycNum.zeta(3)
    assert lam.coeff(1) == 3 * (z - 1)


@pytest.mark.parametrize("n", [3, 5])
def test_s_relation(n):
    # series of L∘S equals the coefficient-conjugated inverse of L's series
    lhs = lambda_series(SL2Mat.S(n), 10)
    rhs = lambda_series(SL2Mat.identity(n), 10).inverse().sigma(n - 1)
    assert lhs.agrees(rhs)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_basis_examples(n):
    assert lambda_basis_series((1, 0), (0, 1), n, 10) == lambda_series(
        SL2Mat.identity(n), 10
    )
    swapped = lambda_basis_series((0, 1), (1, 0), n, 10)
    assert swapped.agrees(lambda_series(SL2Mat.identity(n), 10).inverse())


def test_basis_validation():
    with pytest.raises(ValueError):
        lambda_basis_series((1, 0), (2, 0), 4, 8)
    assert is_basis((1, 0), (0, 3), 4)
    assert not is_basis((1, 0), (0, 2), 4)


def test_w_series_leading_coefficients():
    z5 = CycNum.zeta(5)
    assert w_series((1, 0), (1, 1), 5, 8).leading() == -z5
    assert w_series((1, 1), (2, 0), 5, 8).leading() == z5 * z5
    assert w_series((0, 1), (1, 0), 4, 8).leading() == CycNum.one(4)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_order_oracle_full_transversal(n):
    # formula order == series order for every coset representative
    for cr in transversal(n):
        assert lambda_series(cr.matrix, n + 2).order() == nu(cr.matrix)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sign_and_lift_invariance(n):
    a = cusp_reps(n)[1].matrix
    base = lambda_series(a, 9)
    neg = SL2Mat(-a.a, -a.b, -a.c, -a.d, n)
    assert lambda_series(neg, 9) == base
    shifted = a * SL2Mat.T(n, n)  # congruent to a mod N
    assert lambda_series(shifted, 9) == base


@pytest.mark.parametrize("n", [5, 7])
def test_galois_law_all_k(n):
    mats = [SL2Mat.identity(n), SL2Mat.S(n), SL2Mat(2, 1, 1, 1, n)]
    for mat in mats:
        base = lambda_series(mat, 12)
        for k in range(1, n):
            if math.gcd(k, n) != 1:
                continue
            lhs = base.sigma(k)
            rows = galois_partner_rows(mat, k)
            rhs = lambda_basis_series(rows[0], rows[1], n, 12)
            assert lhs.agrees(rhs), (mat.entries(), k)


def test_lambda_k_realized_through_basis():
    # L_k is the basis instance ((1,0),(0,k)); k = 1 is the principal lambda
    for n in (5, 7):
        assert lambda_k_series(1, n, 9) == lambda_series(SL2Mat.identity(n), 9)
        lk = lambda_k_series(2, n, 9)
        assert lk.ord == 1


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_integrality_of_scaled_lambda(n):
    z = CycNum.zeta(n)
    lam = lambda_series(SL2Mat.identity(n), 26)
    scaled = lam.scale((1 - z) ** 3)
    assert all(c.is_integral() for _, c in scaled.items())


def test_orbit_matches_matrix_composition():
    """The twist q -> zeta^i q of the series of L∘A is the series of
    L∘(A T^i)."""
    for n in (3, 5):
        a = cusp_reps(n)[0].matrix
        base = lambda_series(a, 9)
        for i in range(n):
            assert base.twist(i) == lambda_series(a * SL2Mat.T(n, i), 9)


def test_insufficient_precision_errors():
    from genlambda.qseries import WindowError

    with pytest.raises(WindowError):
        lambda_series(SL2Mat.identity(5), 1)  # order 1 leaves empty window
