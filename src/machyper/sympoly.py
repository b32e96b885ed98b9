"""Symmetric polynomials in a fixed number of variables over Q(q, t).

SymPoly stores coefficients on the monomial-symmetric basis m_lambda, keyed
by partitions of length <= n_vars.  Raw (non-collected) polynomials are plain
dicts mapping exponent tuples of length n_vars to RatFuncQT; the operator
layer works on raws and collects back at the end.

BiSymPoly is the same thing for two alphabets x and y with equally many
variables, keyed by pairs of partitions.  Their common base
MonomialExpansion holds the linear arithmetic.

The classical q-product expansions live here too: their one-variable
coefficients (product_coeffs) and their truncated product over variables
(raw_product_expansion), read by series.product_series_one and
macdonald.cauchy_truncated.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .errors import InexactDivisionError, NotSymmetricError
from .partitions import Partition, partitions_of, z_stat
from .ratfunc import (ONE, Q, RatFuncQT, T, ZERO, invert_qt, q_integer,
                      qt_monomial, rf)

Raw = dict[tuple[int, ...], RatFuncQT]


@lru_cache(maxsize=None)
def orbit(lam: Partition, n: int) -> tuple[tuple[int, ...], ...]:
    """Distinct permutations of lam padded with zeros to length n."""
    if len(lam) > n:
        raise ValueError(f"partition {lam} needs more than {n} variables")
    padded = tuple(lam) + (0,) * (n - len(lam))
    return tuple(sorted(set(permutations(padded))))


class MonomialExpansion:
    """Field coefficients on the monomial basis in n_vars variables, keyed
    by partitions (SymPoly) or pairs of them (BiSymPoly): the linear
    arithmetic both share.  Immutable."""

    __slots__ = ("n_vars", "coeffs")

    def __init__(self, n_vars: int, coeffs: dict | None = None):
        self.n_vars = n_vars
        self.coeffs = {} if coeffs is None else coeffs

    @classmethod
    def zero(cls, n: int) -> MonomialExpansion:
        return cls(n, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.n_vars == other.n_vars
                and self.coeffs == other.coeffs)

    def __add__(self, other: MonomialExpansion) -> MonomialExpansion:
        if self.n_vars != other.n_vars:
            raise ValueError("variable counts differ")
        out = dict(self.coeffs)
        raw_add_into(out, other.coeffs)
        return type(self)(self.n_vars, out)

    def __sub__(self, other: MonomialExpansion) -> MonomialExpansion:
        return self + other.scale_rf(MINUS_ONE)

    def scale_rf(self, c: RatFuncQT) -> MonomialExpansion:
        if c.is_zero():
            return type(self)(self.n_vars, {})
        if c.is_one():
            return self
        return type(self)(self.n_vars, {k: v * c for k, v in self.coeffs.items()})


class SymPoly(MonomialExpansion):
    """Symmetric polynomial, coefficients on the m-basis.  Immutable."""

    __slots__ = ()

    @classmethod
    def one(cls, n: int) -> "SymPoly":
        return cls(n, {(): ONE})

    @classmethod
    def monomial_basis(cls, lam: Partition, n: int) -> "SymPoly":
        if len(lam) > n:
            raise ValueError(f"m_{lam} vanishes in {n} variables")
        return cls(n, {tuple(lam): ONE})

    @classmethod
    def from_coeffs(cls, n: int, coeffs) -> "SymPoly":
        out = {}
        for lam, c in dict(coeffs).items():
            lam = tuple(lam)
            if len(lam) > n:
                raise ValueError(f"m_{lam} vanishes in {n} variables")
            c = rf(c)
            if not c.is_zero():
                out[lam] = c
        return cls(n, out)

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.coeffs.keys())))

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        if self.n_vars != other.n_vars:
            raise ValueError("variable counts differ")
        if not self.coeffs or not other.coeffs:
            return SymPoly(self.n_vars, {})
        ra = self.to_raw()
        rb = other.to_raw()
        return SymPoly.from_raw(raw_mul(ra, rb), self.n_vars)

    def degree(self) -> int:
        return max((sum(lam) for lam in self.coeffs), default=-1)

    def degrees(self) -> list[int]:
        return sorted({sum(lam) for lam in self.coeffs})

    def restrict(self, m: int) -> "SymPoly":
        """Set the trailing n_vars - m variables to zero."""
        if m > self.n_vars:
            raise ValueError("cannot restrict to more variables")
        return SymPoly(m, {lam: c for lam, c in self.coeffs.items() if len(lam) <= m})

    def to_raw(self) -> Raw:
        out: Raw = {}
        for lam, c in self.coeffs.items():
            for e in orbit(lam, self.n_vars):
                out[e] = c
        return out

    @classmethod
    def from_raw(cls, raw: Raw, n: int) -> "SymPoly":
        """Collect a raw polynomial; raises NotSymmetricError unless it is
        symmetric."""
        coeffs: dict[Partition, RatFuncQT] = {}
        for e, c in raw.items():
            lam = tuple(sorted(e, reverse=True))
            while lam and lam[-1] == 0:
                lam = lam[:-1]
            if e == lam + (0,) * (n - len(lam)):
                if not c.is_zero():
                    coeffs[lam] = c
        out = cls(n, coeffs)
        clean = {e: c for e, c in raw.items() if not c.is_zero()}
        if out.to_raw() != clean:
            raise NotSymmetricError("raw polynomial is not symmetric")
        return out

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for lam in sorted(self.coeffs, key=lambda l: (sum(l), tuple(-p for p in l))):
            c = self.coeffs[lam]
            name = "m[" + ",".join(str(p) for p in lam) + "]"
            txt = c.render()
            if txt == "1":
                parts.append(name)
            else:
                if ("+" in txt or " - " in txt or txt.startswith("-")) and "/" not in txt:
                    txt = f"({txt})"
                parts.append(f"{txt}*{name}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        items = []
        for lam in sorted(self.coeffs, key=lambda l: (sum(l), tuple(-p for p in l))):
            items.append({"partition": list(lam), "value": self.coeffs[lam].to_json()})
        return {"n": self.n_vars, "coeffs": items}

    def __repr__(self):
        return f"SymPoly({self.n_vars}; {self.render()})"


MINUS_ONE = rf(-1)


# ---------------------------------------------------------------------------
# raw-polynomial helpers

def raw_mul(a: Raw, b: Raw) -> Raw:
    if len(a) > len(b):
        a, b = b, a
    out: Raw = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = ca * cb
            s = out.get(e)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out

def raw_add_into(acc: Raw, b: Raw) -> None:
    for e, c in b.items():
        s = acc.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            acc.pop(e, None)
        else:
            acc[e] = s

def raw_shift_subset(a: Raw, subset: tuple[int, ...]) -> Raw:
    """Substitute x_i -> q * x_i for every i in subset (0-based)."""
    out: Raw = {}
    pows: dict[int, RatFuncQT] = {0: ONE}
    for e, c in a.items():
        k = sum(e[i] for i in subset)
        p = pows.get(k)
        if p is None:
            p = Q ** k
            pows[k] = p
        out[e] = c * p if k else c
    return out

def raw_qderiv_var(a: Raw, i: int) -> Raw:
    """(T_{q,i} - 1) / ((q - 1) x_i) applied termwise; polynomial output."""
    out: Raw = {}
    qints: dict[int, RatFuncQT] = {}
    for e, c in a.items():
        k = e[i]
        if k == 0:
            continue
        s = qints.get(k)
        if s is None:
            s = q_integer(k)
            qints[k] = s
        e2 = e[:i] + (k - 1,) + e[i + 1:]
        out[e2] = c * s
    return out

def raw_mul_var(a: Raw, i: int) -> Raw:
    return {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in a.items()}

def raw_div_binomial(p: Raw, a: int, b: int) -> Raw:
    """Exact division by (x_a - x_b), 0-based variable indices."""
    if not p:
        return {}
    by_deg: dict[int, Raw] = {}
    for e, c in p.items():
        k = e[a]
        e0 = e[:a] + (0,) + e[a + 1:]
        by_deg.setdefault(k, {})[e0] = c
    m = max(by_deg)
    if m == 0:
        raise InexactDivisionError("dividend free of the leading variable")
    quot: Raw = {}
    carry: Raw = {}
    for k in range(m, 0, -1):
        dk: Raw = dict(by_deg.get(k, {}))
        raw_add_into(dk, carry)
        for e0, c in dk.items():
            e = e0[:a] + (k - 1,) + e0[a + 1:]
            quot[e] = c
        carry = {e0[:b] + (e0[b] + 1,) + e0[b + 1:]: c for e0, c in dk.items()}
    rem: Raw = dict(by_deg.get(0, {}))
    raw_add_into(rem, carry)
    if rem:
        raise InexactDivisionError("division by difference of variables left a remainder")
    return quot


def raw_product_expansion(gk: list[RatFuncQT], factors, width: int, m: int,
                          D: int) -> Raw:
    """The product over factors (tuples of variable indices) of
    sum_k gk[k] * (the product of the factor's variables)^k, as a raw
    polynomial in width variables truncated at total degree D in the first
    m; each factor holds exactly one of the first m variables."""
    raw: Raw = {(0,) * width: ONE}
    for factor in factors:
        nxt: Raw = {}
        for e, c in raw.items():
            for k in range(D - sum(e[:m]) + 1):
                if k and gk[k].is_zero():
                    continue
                e2 = list(e)
                for v in factor:
                    e2[v] += k
                raw_add_into(nxt, {tuple(e2): c * gk[k] if k else c})
        raw = nxt
    return raw


def product_coeffs(which: str, D: int, aval: RatFuncQT | None = None) -> list[RatFuncQT]:
    """Taylor coefficients of classical q-products, from their functional
    equations (no closed forms assumed):

    - "inv":   1/(z;q)_inf        via g(z)(1-z) = g(qz)
    - "dir":   (z;q)_inf          via p(z) = (1-z) p(qz)
    - "ratio": (a z;q)_inf/(z;q)_inf via (1-z) g(z) = (1-a z) g(qz)
    """
    out = [ONE]
    for k in range(1, D + 1):
        den = ONE - qt_monomial(k, 0)
        prev = out[k - 1]
        if which == "inv":
            out.append(prev / den)
        elif which == "dir":
            out.append(-qt_monomial(k - 1, 0) * prev / den)
        elif which == "ratio":
            if aval is None:
                raise ValueError('product "ratio" needs aval')
            out.append(prev * (ONE - aval * qt_monomial(k - 1, 0)) / den)
        else:
            raise ValueError(which)
    return out


# ---------------------------------------------------------------------------
# classical bases

@lru_cache(maxsize=None)
def elementary_k(k: int, n: int) -> SymPoly:
    if k == 0:
        return SymPoly.one(n)
    if k > n:
        return SymPoly.zero(n)
    return SymPoly(n, {(1,) * k: ONE})

@lru_cache(maxsize=None)
def power_sum_k(k: int, n: int) -> SymPoly:
    if k == 0:
        return SymPoly.one(n)
    return SymPoly(n, {(k,): ONE})

@lru_cache(maxsize=None)
def basis_poly(kind: str, lam: Partition, n: int) -> SymPoly:
    """m / e / p basis element as a SymPoly in n variables."""
    if kind == "m":
        return SymPoly.monomial_basis(lam, n)
    if kind == "e":
        out = SymPoly.one(n)
        for p in lam:
            out = out * elementary_k(p, n)
        return out
    if kind == "p":
        out = SymPoly.one(n)
        for p in lam:
            out = out * power_sum_k(p, n)
        return out
    raise ValueError(f"unknown basis {kind!r}")


# power-sum coordinates, valid for degree <= n_vars

@lru_cache(maxsize=None)
def _p_in_m_matrix(d: int, n: int) -> tuple[tuple[Partition, ...], dict]:
    lams = partitions_of(d, n)
    cols = {}
    for mu in lams:
        pm = basis_poly("p", mu, n)
        cols[mu] = {lam: pm.coeffs[lam] for lam in pm.coeffs}
    return lams, cols

def to_power_sums(f: SymPoly) -> dict[Partition, RatFuncQT]:
    """Coordinates of f on the p-basis; needs every degree <= n_vars."""
    out: dict[Partition, RatFuncQT] = {}
    n = f.n_vars
    for d in f.degrees():
        if d > n:
            raise ValueError(
                f"degree {d} exceeds {n} variables; power-sum coordinates are not defined")
        if d == 0:
            out[()] = f.coeffs.get((), ZERO)
            continue
        lams, cols = _p_in_m_matrix(d, n)
        # p_mu has m-terms only on the coarsenings of mu, which come before
        # it in lams: back-substitute from the finest partition up
        sol: dict[Partition, RatFuncQT] = {}
        for lam in reversed(lams):
            rest = f.coeffs.get(lam, ZERO)
            for mu, c in sol.items():
                a = cols[mu].get(lam)
                if a is not None:
                    rest = rest - a * c
            sol[lam] = rest / cols[lam][lam]
        out.update((mu, sol[mu]) for mu in lams if not sol[mu].is_zero())
    return out

def hall_inner(f: SymPoly, g: SymPoly) -> RatFuncQT:
    """Inner product with <p_lam, p_mu> = delta * z_lam * prod (1-q^l)/(1-t^l)."""
    if f.n_vars != g.n_vars:
        raise ValueError("variable counts differ")
    fp = to_power_sums(f)
    gp = to_power_sums(g)
    out = ZERO
    for lam, cf in fp.items():
        cg = gp.get(lam)
        if cg is None:
            continue
        w = rf(z_stat(lam))
        for p in lam:
            w = w * (ONE - Q ** p) / (ONE - T ** p)
        out = out + cf * cg * w
    return out


# ---------------------------------------------------------------------------
# two alphabets

class BiSymPoly(MonomialExpansion):
    """Polynomial symmetric in x and in y separately, m x m basis."""

    __slots__ = ()

    @classmethod
    def outer(cls, fx: SymPoly, gy: SymPoly) -> "BiSymPoly":
        """The product fx(x) * gy(y), which holds no zero coefficient."""
        if fx.n_vars != gy.n_vars:
            raise ValueError("variable counts differ")
        return cls(fx.n_vars, {(lx, ly): cx * cy for lx, cx in fx.coeffs.items()
                               for ly, cy in gy.coeffs.items()})

    def swap(self) -> "BiSymPoly":
        return BiSymPoly(self.n_vars, {(ly, lx): c for (lx, ly), c in self.coeffs.items()})

    def x_slices(self) -> dict[Partition, SymPoly]:
        """{ly: the x-polynomial multiplying m_ly(y)}."""
        groups: dict[Partition, dict[Partition, RatFuncQT]] = {}
        for (lx, ly), c in self.coeffs.items():
            groups.setdefault(ly, {})[lx] = c
        return {ly: SymPoly(self.n_vars, sl) for ly, sl in groups.items()}

    def apply_x(self, op) -> "BiSymPoly":
        """Apply a SymPoly -> SymPoly operator to the x alphabet."""
        out: dict[tuple[Partition, Partition], RatFuncQT] = {}
        # each slice writes its own keys, and images hold no zeros
        for ly, sl in self.x_slices().items():
            for lx, c in op(sl).coeffs.items():
                out[(lx, ly)] = c
        return BiSymPoly(self.n_vars, out)

    def bidegrees(self) -> list[tuple[int, int]]:
        return sorted({(sum(lx), sum(ly)) for lx, ly in self.coeffs})

    def __repr__(self):
        return f"BiSymPoly({self.n_vars}; {len(self.coeffs)} terms)"


def invert_coeffs(f):
    """q -> 1/q, t -> 1/t on every coefficient of a SymPoly or BiSymPoly."""
    return type(f)(f.n_vars, {k: invert_qt(c) for k, c in f.coeffs.items()})
