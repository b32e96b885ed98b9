"""The two-parameter symmetric basis and its normalizations.

The monic basis P is built as the eigenbasis of the first symmetrized
shift operator, by a triangular solve over the dominance order in the
monomial basis.  The integral form J multiplies P by the lower hook
product c; the dual integral form divides by the upper hook product; the
principally normalized form divides J by its own evaluation at the
staircase point x_i = t^(n-i).  J has polynomial coefficients (Macdonald,
Symmetric Functions and Hall Polynomials, VI (8.18)), so each denominator
of P divides c and J is formed by one exact division per coefficient,
with no gcd.

macdonald_forms fetches P at once and serves the other forms on demand:
each is computed on first access and kept, and the forms of one element
are made once per cache.

The triangular solve reads the first shift operator's columns
D_1(m_nu) from the process-wide column store of qops, which builds each
column once by the literal assembly and checks there that it is
dominance-triangular with the closed-form eigenvalue on its diagonal.
binomial_by_expansion, an oracle for the closed cover coefficients,
raises by the literal assembly (qops.apply_literal) instead.  The closed
raising route divides the two principal values through the cells the
added box changes (_principal_ratio); the lowering route and the
expansion keep their full forms.  Both closed routes read one cover
product (_cover_product) over the spectral points of
partitions.spectral_points.  The product side of the truncated kernel
identity (cauchy_truncated) is sympoly.raw_product_expansion of
sympoly.product_coeffs, the expansion series.product_series_one reads.

A MacdonaldCache memoizes the monic basis and its forms and can persist
the basis to disk as JSON, one file per (n, partition).  P is stable in
n: for n > |lam| the entry at (lam, |lam|), read from the cache when it
holds it and built otherwise, is re-wrapped at n, audited at n and stored
at (lam, n) only.  Every function
that reads the basis takes its caller's cache; there is no default one.  The
principal-value audit runs on integers only, whenever a basis element is
built or a file is read: J at the staircase point, times the lcm of the
integer contents of P's denominators, must equal that multiple of the
closed form, a product of binomials, and the identity is decided by one
exact Kronecker evaluation (ratfunc.multiple_sum_equals).  A read file
must also be monic and dominance-triangular, and a file that fails is
rebuilt.  Its terms are read only if they hold integer exponents up to
|lam|^2, checked before any arithmetic (they bound the width of the
evaluation), and each value only as RatFuncQT.to_json writes it (nonzero
rational strings, no exponents twice; RatFuncQT.from_json), so damage
costs a rebuild, never a crash, a huge power or an element out of normal
form.  A file is written to a temporary name and moved into place, so
readers never see half of one.

Everything here works at q and t; the forms at reciprocal q and t are
their images under sympoly.invert_coeffs.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter
from functools import cached_property, lru_cache

from . import stats
from .errors import InexactDivisionError, MacHyperError
from .partitions import (Partition, SkewCover, cells, conjugate, dominates,
                         format_partition, hook_products, length,
                         lower_upper_hooks, make_partition, n_stat,
                         partitions_of, size, spectral_points, upper_covers)
from .qops import apply_literal, column, eigen_shift
from .ratfunc import (ONE, Q, PolyDict, RatFuncQT, T, multiple_sum_equals,
                      poly_product, qt_monomial, rf, t_monomial, times_multiple)
from .sympoly import (BiSymPoly, SymPoly, orbit, product_coeffs,
                      raw_product_expansion)

_FORMAT = 1


class MacdonaldCache:
    """Memo store for the monic basis and its forms, keyed by (n, partition).

    With a cache_dir the basis is also read from and written to that
    directory; without one the cache is memory-only.  No other input
    chooses the directory: the command line resolves --dir or
    MACHYPER_CACHE_DIR and passes the result here.
    """

    def __init__(self, cache_dir: str | None = None):
        self.cache_dir = cache_dir
        self._P: dict[tuple[int, Partition], SymPoly] = {}
        self._forms: dict[tuple[int, Partition], MacForms] = {}

    # -- disk layout: one JSON file per entry ------------------------------

    def _path(self, lam: Partition, n: int) -> str:
        name = "-".join(str(p) for p in lam) if lam else "0"
        return os.path.join(self.cache_dir, f"P_n{n}_{name}.json")

    def _load_disk(self, lam: Partition, n: int) -> SymPoly | None:
        """The entry at (lam, n) read from its file, or None when there is
        none; a file that exists counts in stats as cache_files_read when
        it is accepted and as cache_files_rejected when it is not."""
        if not self.cache_dir:
            return None
        path = self._path(lam, n)
        if not os.path.exists(path):
            return None
        poly = _read_entry(path, lam, n)
        stats.COUNTS["cache_files_rejected" if poly is None
                     else "cache_files_read"] += 1
        return poly

    def _store_disk(self, lam: Partition, n: int, poly: SymPoly) -> None:
        if not self.cache_dir:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        data = {
            "format": _FORMAT,
            "n": n,
            "partition": list(lam),
            "coeffs": [
                {"partition": list(mu), "value": poly.coeffs[mu].to_json()}
                for mu in sorted(poly.coeffs)
            ],
        }
        path = self._path(lam, n)
        # one temporary name per writing thread; never listed as an entry
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                # the C encoder; json.dump would stream through the Python one
                fh.write(json.dumps(data))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        stats.COUNTS["cache_files_written"] += 1

    def list_disk(self) -> list[str]:
        if not self.cache_dir or not os.path.isdir(self.cache_dir):
            return []
        return sorted(f for f in os.listdir(self.cache_dir)
                      if f.startswith("P_n") and f.endswith(".json"))

    def clear_disk(self) -> int:
        names = self.list_disk()
        for f in names:
            os.remove(os.path.join(self.cache_dir, f))
        return len(names)

    # -- access -------------------------------------------------------------

    def get_P(self, lam: Partition, n: int) -> SymPoly:
        key = (n, lam)
        hit = self._P.get(key)
        if hit is not None:
            return hit
        poly = self._load_disk(lam, n)
        if poly is None:
            d = size(lam)
            if n > d > 0:
                # P is stable in n: every mu <= lam has at most |lam| parts,
                # so the expansion at n is the one at |lam| (Macdonald VI §4).
                # That entry is read if this cache holds it and built
                # otherwise, but only the entry at n is kept
                small = self._P.get((d, lam)) or self._load_disk(lam, d)
                poly = SymPoly(n, dict((small or _build_P(lam, d)).coeffs))
            else:
                poly = _build_P(lam, n)
            if not _principal_matches(poly, lam, n):
                raise MacHyperError(
                    f"principal evaluation mismatch for {format_partition(lam)}, n={n}")
            self._store_disk(lam, n, poly)
        self._P[key] = poly
        return poly

    def get_forms(self, lam: Partition, n: int) -> MacForms:
        key = (n, lam)
        hit = self._forms.get(key)
        if hit is None:
            hit = self._forms[key] = MacForms(lam, n, self.get_P(lam, n))
        return hit


def _read_entry(path: str, lam: Partition, n: int) -> SymPoly | None:
    """The basis element in the cache file at path, or None unless the file
    holds (lam, n) in the current format, each partition once, with bounded
    exponents and values as to_json writes them, monic,
    dominance-triangular and passing the principal-value audit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if (not isinstance(data, dict) or data.get("format") != _FORMAT
                or data.get("n") != n):
            return None
        if make_partition(data.get("partition", [])) != lam:
            return None
        # degrees stay within the lower hook product's: n(lam') in q,
        # n(lam) + |lam| in t, both at most |lam|^2; from_json refuses
        # exponents that are not ints before any arithmetic
        top = size(lam) ** 2
        coeffs = {}
        for entry in data["coeffs"]:
            mu = make_partition(entry["partition"])
            value = entry["value"]
            for dq, dt, _ in value["num"] + value["den"]:
                if not (0 <= dq <= top and 0 <= dt <= top):
                    return None
            if mu in coeffs:
                return None
            coeffs[mu] = RatFuncQT.from_json(value)
        poly = SymPoly.from_coeffs(n, coeffs)
    except (KeyError, ValueError, TypeError, OverflowError,
            ZeroDivisionError, json.JSONDecodeError):
        return None
    if not _monic_triangular(poly, lam) or not _principal_matches(poly, lam, n):
        return None
    return poly


# ---------------------------------------------------------------------------
# construction

def _build_P(lam: Partition, n: int) -> SymPoly:
    if length(lam) > n:
        raise ValueError(
            f"partition {format_partition(lam)} has more parts than variables (n={n})")
    d = size(lam)
    downset = [mu for mu in partitions_of(d, n) if dominates(lam, mu)]
    if not downset or downset[0] != lam:
        raise MacHyperError(f"{lam} does not head its dominance downset")
    eig_top = eigen_shift(1, lam, n)
    coeffs: dict[Partition, RatFuncQT] = {lam: ONE}
    for mu in downset[1:]:
        num = rf(0)
        for nu, c_nu in coeffs.items():
            entry = column(1, nu, n).coeffs.get(mu)
            if entry is not None:
                num = num + c_nu * entry
        div = eig_top - eigen_shift(1, mu, n)
        if div.is_zero():
            raise MacHyperError(f"degenerate shift eigenvalues at {lam}, {mu}")
        val = num / div
        if not val.is_zero():
            coeffs[mu] = val
    stats.COUNTS["basis_built"] += 1
    return SymPoly.from_coeffs(n, coeffs)


def macdonald_P(lam: Partition, n: int, cache: MacdonaldCache) -> SymPoly:
    """Monic eigenbasis element: m_lam plus dominance-lower monomial terms."""
    return cache.get_P(make_partition(lam), n)


class MacForms:
    """The four normalizations of one basis element plus its scalars.

    P is given; every other attribute is computed on first access and
    then kept.
    """

    def __init__(self, lam: Partition, n: int, P: SymPoly):
        self.lam, self.n, self.P = lam, n, P

    @cached_property
    def hook_upper(self) -> RatFuncQT:    # Jstar = P / hook_upper
        return lower_upper_hooks(self.lam)[1]

    @cached_property
    def hook_pair(self) -> RatFuncQT:     # product of the two hook products
        return hook_products(self.lam)[2]

    @cached_property
    def principal_J(self) -> RatFuncQT:   # J at the staircase point
        return principal_J_closed(self.lam, self.n)

    @cached_property
    def J(self) -> SymPoly:
        return _integral_form(self.P, self.lam)

    @cached_property
    def Jstar(self) -> SymPoly:
        return self.P.scale_rf(self.hook_upper.inverse())

    @cached_property
    def Jnorm(self) -> SymPoly:
        return self.J.scale_rf(self.principal_J.inverse())


def macdonald_forms(lam: Partition, n: int, cache: MacdonaldCache) -> MacForms:
    """All normalizations of one basis element, made once per cache.

    P is fetched here, so a bad request raises here; the other forms are
    computed when first read.
    """
    return cache.get_forms(make_partition(lam), n)


def _integral_form(P: SymPoly, lam: Partition) -> SymPoly:
    """J = c * P with c the lower hook product, a polynomial.

    Each coefficient's denominator divides c, so one exact division per
    coefficient replaces the gcd; InexactDivisionError when one does not.
    """
    c = lower_upper_hooks(lam)[0].num
    return SymPoly(P.n_vars, {mu: times_multiple(v, c) for mu, v in P.coeffs.items()})


# ---------------------------------------------------------------------------
# principal evaluation

@lru_cache(maxsize=None)
def principal_m(lam: Partition, n: int) -> RatFuncQT:
    """Monomial basis element at the staircase x_i = t^(n-i)."""
    out = rf(0)
    for expo in orbit(lam, n):
        k = sum((n - 1 - i) * e for i, e in enumerate(expo))
        out = out + t_monomial(k)
    return out


def principal_eval(f: SymPoly) -> RatFuncQT:
    """Evaluate at the staircase point x_i = t^(n-i)."""
    out = rf(0)
    for mu, c in f.coeffs.items():
        out = out + c * principal_m(mu, f.n_vars)
    return out


def _principal_J_factors(lam: Partition, n: int) -> list[PolyDict]:
    """The closed form of J at the staircase as integer polynomial factors,
    t^(n(lam)) and 1 - q^(j-1) t^(n+1-i) for each cell (i, j), for lam with
    at most n parts."""
    return ([{(0, n_stat(lam)): 1}]
            + [{(0, 0): 1, (j - 1, n + 1 - i): -1} for i, j in cells(lam)])


def principal_J_closed(lam: Partition, n: int) -> RatFuncQT:
    """Closed form for the integral form at the staircase:
    t^(n(lam)) * prod over cells (1 - t^n q^(j-1) t^(1-i))."""
    if length(lam) > n:
        return rf(0)
    return RatFuncQT.from_poly(poly_product(_principal_J_factors(lam, n)))


def _principal_matches(P: SymPoly, lam: Partition, n: int) -> bool:
    """The principal-value audit, one identity on integers.

    J = c * P for the lower hook product c, so J at the staircase is the
    sum of v * principal_m(mu) * c over P's coefficients v; it must equal
    the closed form, a product of binomials.  ratfunc.multiple_sum_equals
    clears the sum by the lcm of the integer contents of P's denominators
    and decides the identity by one exact Kronecker evaluation.  A
    coefficient of P whose denominator's primitive part does not divide c
    fails the audit.
    """
    try:
        return multiple_sum_equals(((v, principal_m(mu, n).num)
                                    for mu, v in P.coeffs.items()),
                                   lower_upper_hooks(lam)[0].num,
                                   _principal_J_factors(lam, n))
    except InexactDivisionError:
        return False


def _monic_triangular(P: SymPoly, lam: Partition) -> bool:
    """Coefficient 1 at lam, and lam dominates every other partition."""
    if P.coeffs.get(lam) != ONE:
        return False
    d = size(lam)
    return all(size(mu) == d and dominates(lam, mu) for mu in P.coeffs)


# ---------------------------------------------------------------------------
# expansions in the basis

def expand_in_P(f: SymPoly, cache: MacdonaldCache) -> dict[Partition, RatFuncQT]:
    """Coordinates of f in the monic basis, by triangular elimination."""
    n = f.n_vars
    rest = f
    out: dict[Partition, RatFuncQT] = {}
    while not rest.is_zero():
        kappa = max(rest.coeffs)
        c = rest.coeffs[kappa]
        out[kappa] = c
        rest = rest - macdonald_P(kappa, n, cache).scale_rf(c)
        if kappa in rest.coeffs:
            raise MacHyperError(f"basis element {kappa} is not monic")
    return out


def expand_in_Jstar(f: SymPoly, cache: MacdonaldCache) -> dict[Partition, RatFuncQT]:
    """Coordinates of f in the dual integral basis."""
    return {kappa: c * lower_upper_hooks(kappa)[1]
            for kappa, c in expand_in_P(f, cache).items()}


# ---------------------------------------------------------------------------
# cover coefficients (generalized binomial coefficients), three routes

def binomial_by_expansion(upper: Partition, lower: Partition, n: int,
                          cache: MacdonaldCache) -> RatFuncQT:
    """Cover coefficient read off from the raising action.

    Expands raise1 applied to the dual integral form of `lower` in the
    dual integral basis; the coefficient at `upper` equals
    t^(row offset) times the cover coefficient.  Raises unless only upper
    covers of `lower` appear in the expansion.
    """
    upper = make_partition(upper)
    lower = make_partition(lower)
    cover = _find_cover(upper, lower, n)
    forms = macdonald_forms(lower, n, cache)
    raised = apply_literal("raise", forms.Jstar)
    expansion = expand_in_Jstar(raised, cache)
    allowed = {cv.upper for cv in upper_covers(lower, max_length=n)}
    if not all(kappa in allowed and c for kappa, c in expansion.items()):
        raise MacHyperError(f"raising {lower} reaches beyond its upper covers")
    coeff = expansion.get(upper, rf(0))
    return coeff * t_monomial(-cover.n_skew)


def binomial_raising_closed(upper: Partition, lower: Partition, n: int) -> RatFuncQT:
    """Cover coefficient from the closed product over spectral points of
    the lower partition (the raising-direction evaluation)."""
    upper = make_partition(upper)
    lower = make_partition(lower)
    cover = _find_cover(upper, lower, n)
    prod = _cover_product(spectral_points(lower, n), cover.row, T)
    lhs = prod / (ONE - Q)
    return lhs / (t_monomial(cover.n_skew) * _principal_ratio(cover, n))


def _principal_ratio(cover: SkewCover, n: int) -> RatFuncQT:
    """jstar_principal(upper, n) / jstar_principal(lower, n) for a cover,
    from the cells the added box (i0, j0) changes.

    The box adds t^(i0-1) to t^(n(lam)) and the factor
    1 - q^(j0-1) t^(n+1-i0) to the principal value, and its own hook pair
    to j; each cell to its left in row i0 gains one arm and each cell above
    it in column j0 one leg.  The factors 1 - q^a t^b are collected as
    exponent pairs, equal pairs cancel, and one division reduces the rest.
    """
    lower, i0 = cover.lower, cover.row
    j0 = lower[i0 - 1] + 1 if i0 <= len(lower) else 1
    # pairs (a, b) standing for 1 - q^a t^b; a hook pair of arm a and leg
    # l is (a, l + 1) and (a + 1, l)
    num = Counter({(j0 - 1, n + 1 - i0): 1})
    den = Counter({(0, 1): 1, (1, 0): 1})
    conj = conjugate(lower)
    old = [(j0 - 1 - j, conj[j - 1] - i0) for j in range(1, j0)]
    new = [(a + 1, l) for a, l in old]
    for i in range(1, i0):
        a, l = lower[i - 1] - j0, i0 - 1 - i
        old.append((a, l))
        new.append((a, l + 1))
    for a, l in old:
        num.update(((a, l + 1), (a + 1, l)))
    for a, l in new:
        den.update(((a, l + 1), (a + 1, l)))
    num, den = num - den, den - num
    top, bottom = t_monomial(i0 - 1), ONE
    for (a, b), k in num.items():
        top = top * (ONE - qt_monomial(a, b)) ** k
    for (a, b), k in den.items():
        bottom = bottom * (ONE - qt_monomial(a, b)) ** k
    return top / bottom


def binomial_lowering_closed(upper: Partition, lower: Partition, n: int) -> RatFuncQT:
    """Cover coefficient from the closed product over spectral points of
    the upper partition (the lowering-direction evaluation)."""
    upper = make_partition(upper)
    lower = make_partition(lower)
    cover = _find_cover(upper, lower, n)
    z = spectral_points(upper, n)
    prod = _cover_product(z, cover.row, t_monomial(-1))
    return (ONE - t_monomial(n - 1) * z[cover.row - 1]) / (ONE - Q) * prod


def _cover_product(z: list[RatFuncQT], i0: int, c: RatFuncQT) -> RatFuncQT:
    """prod over i != i0 of (c z_i0 - z_i)/(z_i0 - z_i), over the spectral
    points z of the closed cover coefficients (1-based i0)."""
    zi0 = z[i0 - 1]
    prod = ONE
    for i, zi in enumerate(z, start=1):
        if i != i0:
            prod = prod * ((c * zi0 - zi) / (zi0 - zi))
    return prod


def jstar_principal(lam: Partition, n: int) -> RatFuncQT:
    """Closed form for the dual integral form at the staircase point."""
    return principal_J_closed(lam, n) / hook_products(lam)[2]


def _find_cover(upper: Partition, lower: Partition, n: int) -> SkewCover:
    for lam in (lower, upper):
        if length(lam) > n:
            raise ValueError(
                f"partition {format_partition(lam)} has more parts than "
                f"variables (n={n})")
    for cv in upper_covers(lower, max_length=n):
        if cv.upper == upper:
            return cv
    raise ValueError(
        f"{format_partition(upper)} does not cover {format_partition(lower)}")


# ---------------------------------------------------------------------------
# the reproducing-kernel identity, truncated

def cauchy_truncated(n: int, D: int, cache: MacdonaldCache
                     ) -> tuple[BiSymPoly, BiSymPoly]:
    """Both sides of the kernel identity through total degree D per alphabet.

    Sum side: sum over partitions of J(x) J(y) / hook_pair.  Product side:
    the double product over x_i y_j of (t z; q)_inf/(z; q)_inf, whose
    coefficients come from the functional equation
    (1-z) g(z) = (1 - t z) g(q z) (sympoly.product_coeffs("ratio", D, t)),
    truncated at degree D in x.  The expanded product is checked to be
    bisymmetric.
    """
    sum_side = BiSymPoly.zero(n)
    for d in range(D + 1):
        for lam in partitions_of(d, n):
            forms = macdonald_forms(lam, n, cache)
            jx = forms.J.scale_rf(forms.hook_pair.inverse())
            sum_side = sum_side + BiSymPoly.outer(jx, forms.J)

    gk = product_coeffs("ratio", D, T)
    raw = raw_product_expansion(
        gk, [(i, n + j) for i in range(n) for j in range(n)], 2 * n, n, D)

    coeffs: dict[tuple[Partition, Partition], RatFuncQT] = {}
    for e, c in raw.items():
        ex, ey = e[:n], e[n:]
        if all(ex[a] >= ex[a + 1] for a in range(n - 1)) and \
           all(ey[a] >= ey[a + 1] for a in range(n - 1)):
            lx = tuple(v for v in ex if v)
            ly = tuple(v for v in ey if v)
            coeffs[(lx, ly)] = c
    prod_side = BiSymPoly(n, coeffs)

    rebuilt: dict[tuple[int, ...], RatFuncQT] = {}
    for (lx, ly), c in coeffs.items():
        for ex in orbit(lx, n):
            for ey in orbit(ly, n):
                rebuilt[ex + ey] = c
    if rebuilt != raw:
        raise MacHyperError("product side is not bisymmetric")
    return sum_side, prod_side
