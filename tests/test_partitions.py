"""Partition combinatorics: covers, statistics, Pochhammer and hook products."""

import pytest

from machyper.ratfunc import ONE, Q, T, invert_qt, qt_monomial, rf
from machyper.partitions import (arm, cells, conjugate, dominates,
                                 enumerate_partitions, format_partition,
                                 hook_products, leg, length, lower_covers,
                                 make_partition, n_stat, n_stat_conj,
                                 parse_partition, partitions_of,
                                 pochhammer_list, pochhammer_qt, rho_stat,
                                 size, upper_covers, z_stat)


def test_make_partition_validation():
    assert make_partition([3, 1, 0, 0]) == (3, 1)
    assert make_partition(()) == ()
    with pytest.raises(ValueError):
        make_partition([1, 2])
    with pytest.raises(ValueError):
        make_partition([2, -1])


def test_parse_format_round_trip():
    for lam in enumerate_partitions(5):
        assert parse_partition(format_partition(lam)) == lam
    assert parse_partition("[]") == ()
    assert parse_partition(" [3, 1] ") == (3, 1)
    assert parse_partition("2,2") == (2, 2)


def test_enumeration_order_frozen():
    assert enumerate_partitions(3) == [
        (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    assert partitions_of(4, max_length=2) == ((4,), (3, 1), (2, 2))
    assert enumerate_partitions(2, max_length=1) == [(), (1,), (2,)]


def test_conjugate_and_cells():
    lam = (4, 2, 1)
    assert conjugate(lam) == (3, 2, 1, 1)
    assert conjugate(conjugate(lam)) == lam
    assert sorted(cells(lam)) == sorted(
        [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1)])
    assert size(lam) == 7 and length(lam) == 3


def test_arm_leg_frozen():
    lam = (4, 2, 1)
    # cell (1, 2): arm counts boxes right, leg counts boxes below
    assert arm(lam, 1, 2) == 2
    assert leg(lam, 1, 2) == 1
    assert arm(lam, 3, 1) == 0 and leg(lam, 3, 1) == 0


def test_dominance():
    assert dominates((3,), (2, 1))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 2))
    # comparing different sizes is a usage bug, not False
    with pytest.raises(ValueError):
        dominates((2,), (1, 1, 1))


def test_cover_structures():
    mu = (2, 1)
    ups = upper_covers(mu)
    assert [cv.upper for cv in ups] == [(3, 1), (2, 2), (2, 1, 1)]
    # row and skew data: adding at row i, column j = mu_i + 1
    for cv in ups:
        i = cv.row
        j = cv.upper[i - 1]
        assert cv.lower == mu
        assert cv.rho_skew == qt_monomial(j - 1, 1 - i)
        assert cv.n_skew == i - 1
    capped = upper_covers(mu, max_length=2)
    assert [cv.upper for cv in capped] == [(3, 1), (2, 2)]


def test_cover_involution():
    for lam in enumerate_partitions(5):
        for cv in lower_covers(lam):
            ups = {c.upper: c for c in upper_covers(cv.lower)}
            assert lam in ups
            assert ups[lam] == cv


def test_statistics_frozen():
    lam = (2, 2, 1)
    assert n_stat(lam) == 4
    assert n_stat_conj(lam) == 2
    assert n_stat(conjugate(lam)) == n_stat_conj(lam)
    assert z_stat((2, 1)) == 2
    assert z_stat((1, 1, 1)) == 6
    assert z_stat((3, 3)) == 18
    assert z_stat(()) == 1


def test_rho_stat():
    assert rho_stat(()) == rf(0)
    assert rho_stat((2, 1)) == ONE + Q + qt_monomial(0, -1)
    assert invert_qt(rho_stat((2, 1))) == ONE + qt_monomial(-1, 0) + T


def test_pochhammer_frozen():
    a = rf(5)
    lam = (2, 1)
    want = (ONE - a) * (ONE - a * Q) * (ONE - a * qt_monomial(0, -1))
    assert pochhammer_qt(a, lam) == want
    assert pochhammer_qt(a, ()) == ONE
    assert pochhammer_list([a, rf(2)], lam) == want * pochhammer_qt(rf(2), lam)
    inv = invert_qt(pochhammer_qt(a, lam))
    assert inv == (ONE - a) * (ONE - a * qt_monomial(-1, 0)) * (ONE - a * T)


def test_poch_ratio_telescopes():
    # (u)_upper / (u)_lower == 1 - u * rho_skew for every cover
    u = rf(7)
    for mu in enumerate_partitions(4):
        for cv in upper_covers(mu):
            assert pochhammer_qt(u, cv.upper) == \
                pochhammer_qt(u, cv.lower) * (ONE - u * cv.rho_skew)


def test_hook_products_frozen():
    # cells of (2): (1,1) has arm 1, leg 0; (1,2) has arm 0, leg 0
    c, cp, j = hook_products((2,))
    assert c == (ONE - Q * T) * (ONE - T)
    assert cp == (ONE - Q ** 2) * (ONE - Q)
    assert j == c * cp
    c1, cp1, j1 = hook_products((1,))
    assert c1 == ONE - T and cp1 == ONE - Q

