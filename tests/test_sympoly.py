"""Symmetric polynomials: bases, products, the deformed pairing, two alphabets."""

from fractions import Fraction

import pytest

from machyper.errors import NotSymmetricError
from machyper.partitions import enumerate_partitions, partitions_of, z_stat
from machyper.ratfunc import ONE, Q, T, ZERO, rf
from machyper.sympoly import (BiSymPoly, SymPoly, basis_poly, elementary_k,
                              hall_inner, orbit, power_sum_k, to_power_sums)

F = Fraction


def m(lam, n):
    return basis_poly("m", lam, n)


def test_monomial_orbit():
    assert set(orbit((2, 1), 3)) == {(2, 1, 0), (2, 0, 1), (1, 2, 0),
                                     (0, 2, 1), (1, 0, 2), (0, 1, 2)}
    assert orbit((), 2) == ((0, 0),)


def test_from_raw_rejects_asymmetric():
    raw = {(1, 0): ONE}
    with pytest.raises(NotSymmetricError):
        SymPoly.from_raw(raw, 2)


def test_product_expansions_frozen():
    n = 3
    p1 = power_sum_k(1, n)
    assert p1 == m((1,), n)
    # p_1^2 = m_2 + 2 m_11
    sq = p1 * p1
    assert sq == m((2,), n) + m((1, 1), n).scale_rf(rf(2))
    # e_2 = m_11 and p_2 = m_2
    assert elementary_k(2, n) == m((1, 1), n)
    assert power_sum_k(2, n) == m((2,), n)
    # m_1 * m_11 = m_21 + 3 m_111
    prod = m((1,), n) * m((1, 1), n)
    assert prod == m((2, 1), n) + m((1, 1, 1), n).scale_rf(rf(3))


def test_basis_poly_multiplicative_kinds():
    n = 3
    assert basis_poly("e", (2, 1), n) == elementary_k(2, n) * elementary_k(1, n)
    assert basis_poly("p", (2, 2), n) == power_sum_k(2, n) * power_sum_k(2, n)
    with pytest.raises(ValueError):
        basis_poly("x", (1,), n)


def test_ring_axioms_small():
    n = 2
    a = m((1,), n).scale_rf(Q) + SymPoly.one(n)
    b = m((2,), n) - m((1, 1), n).scale_rf(T)
    c = m((1,), n)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a * SymPoly.one(n) == a


def test_degree_components():
    n = 2
    f = SymPoly.one(n) + m((1,), n) + m((2,), n).scale_rf(Q)
    assert f.degree() == 2
    assert f.degrees() == [0, 1, 2]
    assert f.restrict(1) == SymPoly.from_coeffs(
        1, {(): ONE, (1,): ONE, (2,): Q})


def test_to_power_sums_round_trip():
    n = 3
    for lam in enumerate_partitions(3, n):
        f = m(lam, n)
        expansion = to_power_sums(f)
        back = SymPoly.zero(n)
        for mu, c in expansion.items():
            back = back + basis_poly("p", mu, n).scale_rf(c)
        assert back == f


def test_hall_inner_power_sum_orthogonality():
    # <p_lam, p_mu> = delta * z_lam * prod (1-q^l)/(1-t^l)
    n = 3
    for d in range(1, 4):
        plist = list(partitions_of(d, n))
        for lam in plist:
            for mu in plist:
                got = hall_inner(basis_poly("p", lam, n),
                                 basis_poly("p", mu, n))
                if lam != mu:
                    assert got == ZERO
                else:
                    want = rf(z_stat(lam))
                    for p in lam:
                        want = want * (ONE - Q ** p) / (ONE - T ** p)
                    assert got == want


def test_hall_inner_bilinear():
    n = 2
    f = m((1,), n)
    g = m((2,), n) + m((1, 1), n).scale_rf(T)
    h = m((1, 1), n)
    assert hall_inner(f + f, g) == rf(2) * hall_inner(f, g)
    assert hall_inner(g + h.scale_rf(Q), f * f) == \
        hall_inner(g, f * f) + Q * hall_inner(h, f * f)


# -- two alphabets ------------------------------------------------------------

def test_bisym_swap_involution():
    n = 2
    F2 = (BiSymPoly.outer(m((1,), n).scale_rf(Q), m((2,), n))
          + BiSymPoly.outer(m((1, 1), n), SymPoly.one(n)))
    assert F2.swap().swap() == F2
    sym = BiSymPoly.outer(m((1,), n), m((1,), n))
    assert sym.swap() == sym


def test_bisym_outer():
    n = 2
    f = m((1,), n).scale_rf(Q) + m((1, 1), n)
    g = m((2,), n) + SymPoly.one(n).scale_rf(T)
    F2 = BiSymPoly.outer(f, g)
    assert F2.coeffs == {(lx, ly): cx * cy for lx, cx in f.coeffs.items()
                         for ly, cy in g.coeffs.items()}
    assert BiSymPoly.outer(f, g + g) == F2 + F2
    assert BiSymPoly.outer(g, f) == F2.swap()
    assert BiSymPoly.outer(f, SymPoly.zero(n)).is_zero()
    with pytest.raises(ValueError):
        BiSymPoly.outer(f, m((1,), 3))


def test_bisym_apply_x_y():
    n = 2

    def double(f: SymPoly) -> SymPoly:
        return f.scale_rf(rf(2))

    F2 = BiSymPoly.outer(m((1,), n).scale_rf(Q), m((2,), n))
    assert F2.apply_x(double) == F2.scale_rf(rf(2))
    # x-side op acts only on the x slice
    def raise_deg(f: SymPoly) -> SymPoly:
        return f * m((1,), n)

    G = F2.apply_x(raise_deg)
    assert G.bidegrees() == [(2, 2)]
    # the y side is the x side conjugated by the swap
    assert F2.swap().apply_x(raise_deg).swap().bidegrees() == [(1, 3)]


def test_bisym_bidegrees():
    n = 2
    F2 = (BiSymPoly.outer(SymPoly.one(n), SymPoly.one(n))
          + BiSymPoly.outer(m((1,), n).scale_rf(T), m((1,), n)))
    assert F2.bidegrees() == [(0, 0), (1, 1)]
