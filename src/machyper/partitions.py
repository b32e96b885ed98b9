"""Integer partitions, Young-diagram statistics and (q,t)-Pochhammer symbols.

A partition is a plain tuple of weakly decreasing positive ints; the empty
partition is ().  Cells are 1-based (row i, column j).  All orderings used
downstream are defined here: dominance, and reverse-lexicographic within a
fixed size (which refines dominance).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .ratfunc import ONE, RatFuncQT, qt_monomial, rf

Partition = tuple[int, ...]


def make_partition(parts) -> Partition:
    ps = tuple(int(p) for p in parts)
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError(f"parts not weakly decreasing: {ps}")
    if any(p < 0 for p in ps):
        raise ValueError(f"negative part: {ps}")
    while ps and ps[-1] == 0:
        ps = ps[:-1]
    return ps

def size(lam: Partition) -> int:
    return sum(lam)

def length(lam: Partition) -> int:
    return len(lam)

def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))

def cells(lam: Partition) -> Iterator[tuple[int, int]]:
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            yield (i, j)

def arm(lam: Partition, i: int, j: int) -> int:
    return lam[i - 1] - j

def leg(lam: Partition, i: int, j: int) -> int:
    return sum(1 for p in lam[i:] if p >= j)

def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order on partitions of equal size: lam >= mu."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of equal size")
    run_l = run_m = 0
    for k in range(max(len(lam), len(mu))):
        run_l += lam[k] if k < len(lam) else 0
        run_m += mu[k] if k < len(mu) else 0
        if run_l < run_m:
            return False
    return True

@lru_cache(maxsize=None)
def partitions_of(n: int, max_length: int | None = None) -> tuple[Partition, ...]:
    """Partitions of n with at most max_length parts, revlex descending."""
    if n < 0:
        return ()
    out: list[Partition] = []
    limit = n if max_length is None else max_length

    def rec(rem: int, largest: int, prefix: tuple[int, ...]):
        if rem == 0:
            out.append(prefix)
            return
        if len(prefix) >= limit:
            return
        for p in range(min(rem, largest), 0, -1):
            rec(rem - p, p, prefix + (p,))

    rec(n, n, ())
    return tuple(out)

def enumerate_partitions(max_size: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of size <= max_size, by size then revlex descending."""
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    out: list[Partition] = []
    for d in range(max_size + 1):
        out.extend(partitions_of(d, max_length))
    return out


class SkewCover(NamedTuple):
    """A single-box skew lam/mu, lam covering mu in containment order."""
    lower: Partition
    upper: Partition
    row: int                      # 1-based row of the added box
    rho_skew: RatFuncQT           # q^(j-1) * t^(1-i) of the added box
    n_skew: int                   # row index minus one

def _cover_data(mu: Partition, i: int) -> SkewCover:
    j = (mu[i - 1] if i <= len(mu) else 0) + 1
    upper = tuple(p + (1 if k == i - 1 else 0)
                  for k, p in enumerate(mu)) if i <= len(mu) else mu + (1,)
    return SkewCover(mu, upper, i, qt_monomial(j - 1, 1 - i), i - 1)

def upper_covers(mu: Partition, max_length: int | None = None) -> list[SkewCover]:
    """Partitions obtained from mu by adding one box, top row first."""
    out = []
    top = len(mu) + 1 if max_length is None else min(len(mu) + 1, max_length)
    for i in range(1, top + 1):
        if i == len(mu) + 1:
            out.append(_cover_data(mu, i))
        elif i == 1 or mu[i - 2] > mu[i - 1]:
            out.append(_cover_data(mu, i))
    return out

def lower_covers(lam: Partition) -> list[SkewCover]:
    """Partitions obtained from lam by removing one box, as SkewCover data."""
    out = []
    for i in range(1, len(lam) + 1):
        if i == len(lam) or lam[i - 1] > lam[i]:
            mu = tuple(p - (1 if k == i - 1 else 0) for k, p in enumerate(lam))
            mu = make_partition(mu)
            out.append(SkewCover(mu, lam, i, qt_monomial(lam[i - 1] - 1, 1 - i), i - 1))
    return out


# ---------------------------------------------------------------------------
# statistics

def n_stat(lam: Partition) -> int:
    """Sum of (i-1) over the cells: n(lam) = sum_i (i-1)*lam_i."""
    return sum((i - 1) * p for i, p in enumerate(lam, start=1))

def n_stat_conj(lam: Partition) -> int:
    """n of the conjugate, equal to sum_i binomial(lam_i, 2)."""
    return sum(p * (p - 1) // 2 for p in lam)

def rho_stat(lam: Partition) -> RatFuncQT:
    """Sum of q^(j-1) t^(1-i) over the cells of lam.

    The weight operator's eigenvalue at the basis element of lam; only
    the tests read it, as the oracle for that operator.
    """
    out = rf(0)
    for i, p in enumerate(lam, start=1):
        if p:
            row = rf(0)
            for j in range(1, p + 1):
                row = row + qt_monomial(j - 1, 1 - i)
            out = out + row
    return out

def z_stat(lam: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type lam."""
    out = 1
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for r, m in mult.items():
        out *= r ** m
        for k in range(1, m + 1):
            out *= k
    return out


# ---------------------------------------------------------------------------
# (q,t)-Pochhammer and hook products

def pochhammer_qt(u: RatFuncQT, lam: Partition) -> RatFuncQT:
    """Product over cells of (1 - u q^(j-1) t^(1-i))."""
    u = rf(u)
    out = ONE
    for i, p in enumerate(lam, start=1):
        row = ONE
        for j in range(1, p + 1):
            row = row * (ONE - u * qt_monomial(j - 1, 1 - i))
        out = out * row
    return out

def pochhammer_list(us, lam: Partition) -> RatFuncQT:
    out = ONE
    for u in us:
        out = out * pochhammer_qt(u, lam)
    return out

@lru_cache(maxsize=None)
def lower_upper_hooks(lam: Partition) -> tuple[RatFuncQT, RatFuncQT]:
    """(c, c') hook products: c uses 1 - q^arm t^(leg+1) and c' uses
    1 - q^(arm+1) t^leg.  Kept per partition; their product, the largest
    of the three, is formed where it is read (hook_products)."""
    c = ONE
    cp = ONE
    conj = conjugate(lam)
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            a = p - j
            l = conj[j - 1] - i
            c = c * (ONE - qt_monomial(a, l + 1))
            cp = cp * (ONE - qt_monomial(a + 1, l))
    return c, cp


def hook_products(lam: Partition) -> tuple[RatFuncQT, RatFuncQT, RatFuncQT]:
    """(c, c', j) with j = c * c', formed on each call."""
    c, cp = lower_upper_hooks(lam)
    return c, cp, c * cp

def format_partition(lam: Partition) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"

def parse_partition(text: str) -> Partition:
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    return make_partition(int(p) for p in s.split(","))
