"""Truncated basic hypergeometric series on the two-parameter basis,
and the transfer operators that annihilate them.

A series is stored as the map partition -> coefficient C, where the full
term is C * t^(n-statistic) * (dual integral basis element).  C is the
ratio of (q,t)-Pochhammer products over the upper and lower parameter
lists; the "kaneko" flavor carries the extra per-partition factor
((-1)^size q^(conjugate n-stat) t^(-n-stat))^(s+1-r).

Operators come in two routes everywhere, kept deliberately independent:
assembled q-difference operators (via qops) versus closed-form eigenvalue
or cover-sum data (via partitions/macdonald scalars).  The verification
layer plays them against each other.  eigen_ops_*_from_shifts (fixed
shift-operator words), eigen_value_*_brute (cover sums) and
product_series_one (infinite-product expansions) are oracles used only by
tests and checks; they must not share the order-by-order inversion, the
word families or the signed e_l-sum used by the transfer operators, or they
would stop being independent witnesses.  The two operator oracles apply the shift family
and the raising operator by qops.apply_literal, never through qops'
column store.  The closed eigenvalues (eigen_value_*) expand one
u-product over the spectral points of partitions.spectral_points
(_spectral_useries), and product_series_one expands the q-product
coefficients of sympoly.product_coeffs by sympoly.raw_product_expansion,
which macdonald.cauchy_truncated reads too.

The transfers and eigen-operator families are each one function, on
scaled images, the operator layer's (integer-polynomial image, one field
scalar) pairs (see qops).  Their operators are sums of operator words
(qops.compile_words), from word families that hold no parameter: the
commutators ad^l of lowering and raising (qops.ad_words) and the eigen
families G_l and H_l (eigen_words), whose words of commuting shift levels
come from inverting a shift generating function order by order.  A
transfer at parameter values is sum_l (-1)^l e_l(values) times level l of
its family.  A signed sum of transfers (transfer_sum: each transfer_* is
one part, verify's B and C are two) is compiled into one word sum once
per (parts, n) and kept in a bounded, process-wide store (_compiled, at
most MAX_TRANSFERS entries).  A compiled sum keeps its image of each m_mu
it meets (qops.Compiled), so applying it is one sum of stored integer
columns and one field product, and the coefficients never run a gcd; the
columns leave the store with their sum.  eigen_ops_* apply the levels of
the same families as a list.  The sums map scaled images; a series keeps
each rendering's cleared image beside the rendering
(TruncatedSeries.cleared), so verify applies its operators to one
cleared image per rendering and reads the residuals' support without
normalizing, and a caller that wants values wraps them in
qops.on_values.

Every series and operator here lives at q and t.  Inversion (q -> 1/q,
t -> 1/t, written iota) is conjugation by invert_qt and invert_coeffs:
the series at reciprocal q, t and parameters p is the iota-image of the
series at iota(p).  The flavor transform and the tilde identities compare
a series with its mirror, the series at mirror_params(p) = iota(1/p).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import MacHyperError, PoleError
from .macdonald import (MacdonaldCache, binomial_by_expansion,
                        jstar_principal, macdonald_forms)
from .partitions import (Partition, enumerate_partitions, format_partition,
                         lower_covers, make_partition, n_stat, n_stat_conj,
                         pochhammer_list, size, spectral_points, upper_covers)
from . import stats
from .qops import (Compiled, Scaled, ad_words, apply_compiled, apply_levels,
                   apply_literal, compile_words, to_scaled)
from .ratfunc import (ONE, Q, ZERO, RatFuncQT, T, elementary_symmetric,
                      invert_qt, qt_monomial, rf, t_integer, t_monomial)
from .sympoly import (BiSymPoly, SymPoly, invert_coeffs, product_coeffs,
                      raw_product_expansion)

FLAVORS = ("macdonald", "kaneko")


# ---------------------------------------------------------------------------
# parameters

@dataclass(frozen=True)
class HyperParams:
    """Upper and lower parameter lists (elements of the coefficient field)."""
    upper: tuple[RatFuncQT, ...] = ()
    lower: tuple[RatFuncQT, ...] = ()

    @classmethod
    def make(cls, upper=(), lower=()) -> "HyperParams":
        return cls(tuple(rf(u) for u in upper), tuple(rf(b) for b in lower))

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def s(self) -> int:
        return len(self.lower)

    def inverted(self) -> "HyperParams":
        """Both lists with q -> 1/q, t -> 1/t applied to every value."""
        return HyperParams(tuple(map(invert_qt, self.upper)),
                           tuple(map(invert_qt, self.lower)))

    def to_json(self) -> dict:
        return {"a": [u.render() for u in self.upper],
                "b": [b.render() for b in self.lower]}


def check_lower_poles(params: HyperParams, n: int, max_size: int) -> None:
    """Reject lower parameters whose Pochhammer vanishes in the window.

    The cell factor is 1 - b q^(j-1) t^(1-i); it vanishes exactly when
    b is the monomial q^(1-j) t^(i-1).  Cells with i <= n and
    i + j - 1 <= max_size are reachable by partitions of size <= max_size
    with at most n rows (the smallest partition through cell (i,j) is the
    hook (j, 1^(i-1))).
    """
    for idx, b in enumerate(params.lower, start=1):
        for i in range(1, n + 1):
            for j in range(1, max_size - i + 2):
                if b == qt_monomial(1 - j, i - 1):
                    hook = make_partition((j,) + (1,) * (i - 1))
                    raise PoleError(
                        f"lower parameter #{idx} = {b.render()} makes the "
                        f"Pochhammer symbol vanish at cell ({i},{j}), first hit "
                        f"by partition {format_partition(hook)} "
                        f"(within size {max_size})")


# ---------------------------------------------------------------------------
# the truncated series

def _kaneko_factor(lam: Partition, expo: int) -> RatFuncQT:
    """((-1)^size q^(n-stat of conjugate) t^(-n-stat))^expo."""
    if expo == 0:
        return ONE
    f = qt_monomial(expo * n_stat_conj(lam), -expo * n_stat(lam))
    if (size(lam) * expo) % 2:
        f = -f
    return f


@dataclass(frozen=True)
class TruncatedSeries:
    """All coefficients C_lam with |lam| <= D, length <= n.

    flavor "macdonald" or "kaneko".  Each rendering, in one or two
    alphabets, is made once per basis cache and kept, and so is its
    cleared image (cleared), which every operator check reads.
    """
    n: int
    D: int
    params: HyperParams
    flavor: str = "macdonald"
    coeffs: dict[Partition, RatFuncQT] = field(default_factory=dict)
    # renderings and their cleared images made so far, by (alphabets,
    # basis cache): the series is immutable, so each is made once
    _rendered: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @classmethod
    def build(cls, n: int, D: int, params: HyperParams,
              flavor: str = "macdonald") -> "TruncatedSeries":
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        # headroom: recursions and operator routes reach D+1; poles must
        # already be absent slightly beyond the truncation
        check_lower_poles(params, n, D + 2)
        expo = params.s + 1 - params.r if flavor == "kaneko" else 0
        coeffs: dict[Partition, RatFuncQT] = {}
        for lam in enumerate_partitions(D, n):
            num = pochhammer_list(params.upper, lam)
            den = pochhammer_list(params.lower, lam)
            c = num / den
            if expo:
                c = c * _kaneko_factor(lam, expo)
            coeffs[lam] = c
        return cls(n=n, D=D, params=params, flavor=flavor, coeffs=coeffs)

    def mutate(self, lam: Partition) -> "TruncatedSeries":
        """Add 1 to one stored coefficient; used by the sensitivity checks."""
        lam = make_partition(lam)
        if lam not in self.coeffs:
            raise ValueError(f"partition {format_partition(lam)} is outside the truncation")
        coeffs = dict(self.coeffs)
        coeffs[lam] = coeffs[lam] + ONE
        return TruncatedSeries(n=self.n, D=self.D, params=self.params,
                               flavor=self.flavor, coeffs=coeffs)

    # -- renderings ---------------------------------------------------------

    def render_one(self, cache: MacdonaldCache) -> SymPoly:
        """Sum of C * t^(n-stat) * (dual integral form) in one alphabet."""
        key = ("one", cache)
        if key not in self._rendered:
            out = SymPoly.zero(self.n)
            for lam, c in self.coeffs.items():
                forms = macdonald_forms(lam, self.n, cache)
                out = out + forms.Jstar.scale_rf(c * t_monomial(n_stat(lam)))
            self._rendered[key] = out
        return self._rendered[key]

    def render_two(self, cache: MacdonaldCache) -> BiSymPoly:
        """Two-alphabet rendering: C * t^(n-stat) * Jnorm(x) * Jstar(y)."""
        key = ("two", cache)
        if key not in self._rendered:
            out = BiSymPoly.zero(self.n)
            for lam, c in self.coeffs.items():
                forms = macdonald_forms(lam, self.n, cache)
                jx = forms.Jnorm.scale_rf(c * t_monomial(n_stat(lam)))
                out = out + BiSymPoly.outer(jx, forms.Jstar)
            self._rendered[key] = out
        return self._rendered[key]

    def cleared(self, alphabets: str, cache: MacdonaldCache
                ) -> tuple[SymPoly | BiSymPoly, RatFuncQT]:
        """The rendering in "one" or "two" alphabets as a scaled image
        (qops.to_scaled), cleared once and kept beside the rendering."""
        key = ("cleared", alphabets, cache)
        if key not in self._rendered:
            render = self.render_one if alphabets == "one" else self.render_two
            self._rendered[key] = to_scaled(render(cache))
        return self._rendered[key]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "D": self.D,
            "flavor": self.flavor,
            "params": self.params.to_json(),
            "coeffs": [
                {"partition": list(lam), "value": self.coeffs[lam].render()}
                for lam in enumerate_partitions(self.D, self.n)
            ],
        }


# ---------------------------------------------------------------------------
# alphabet scaling

def scale_alphabet(f: SymPoly, c: RatFuncQT) -> SymPoly:
    """x -> c x for a nonzero c: multiply the coefficient of m_lam by
    c^|lam|."""
    return SymPoly(f.n_vars, {lam: v * c ** size(lam)
                              for lam, v in f.coeffs.items()})


# ---------------------------------------------------------------------------
# transfer operators (the annihilator components)

# the transfer store's bound; a transfer past it is evicted and compiled
# again on use
MAX_TRANSFERS = 512


def _times_shift(m: int, words: dict, c: RatFuncQT, acc: dict) -> None:
    """acc += c * D_m * words, for a map words of shift-level words to
    field coefficients (D_0 is the identity).  The levels commute, so a
    word of levels is kept sorted."""
    for w, x in words.items():
        key = tuple(sorted(w + (m,))) if m else w
        acc[key] = acc.get(key, ZERO) + c * x


def _genfun_bases(kind: str, n: int) -> tuple[RatFuncQT, RatFuncQT]:
    """(numerator, denominator) base of the ratio of shift generating
    functions behind the diagonal family of kind "raise" or "lower"."""
    if kind == "raise":
        return -(T ** (-n)), -(T ** (1 - n))
    return -(Q * T ** (n - 2)).inverse(), -(Q * T ** (n - 1)).inverse()


@lru_cache(maxsize=64)
def _inverse_words(kind: str, n: int, k: int) -> dict:
    """The u^k coefficient of genfun(den_base * u)^-1 as shift words, by
    inverting order by order: w_k = -sum_m den_base^m D_m w_(k-m)."""
    if k == 0:
        return {(): ONE}
    den = _genfun_bases(kind, n)[1]
    acc: dict = {}
    for m in range(1, min(k, n) + 1):
        _times_shift(m, _inverse_words(kind, n, k - m), -den ** m, acc)
    return acc


def _ratio_words(kind: str, n: int, l: int) -> dict:
    """The u^l coefficient of genfun(num_base * u) / genfun(den_base * u)
    as shift words."""
    num = _genfun_bases(kind, n)[0]
    acc: dict = {}
    for m in range(min(l, n) + 1):
        _times_shift(m, _inverse_words(kind, n, l - m), num ** m, acc)
    return acc


@lru_cache(maxsize=64)
def eigen_words(kind: str, n: int, l: int) -> dict:
    """G_l (kind "raise") or H_l (kind "lower") as shift words with field
    coefficients; the words hold no parameter.

    G_l = scal * (-t^n * ratio_l + [l = 0]) for the ratio with offsets
    t^-n over t^(1-n), scal = 1/((1-q)(1-t)).  H_l = scal_h * (b_l -
    q t^(n-1) b_(l+1)) with b_l = t^(-n) ratio_l - [l = 0], for the ratio
    with offsets 1/(q t^(n-2)) over 1/(q t^(n-1)); its 1/u pole
    cancellation is checked once per n.
    """
    acc: dict = {}
    if kind == "raise":
        scal = ((ONE - Q) * (ONE - T)).inverse()
        _times_shift(0, _ratio_words(kind, n, l), -(T ** n) * scal, acc)
        ident = scal
    else:
        scal = _lower_scale(n)
        _times_shift(0, _ratio_words(kind, n, l), scal * T ** (-n), acc)
        _times_shift(0, _ratio_words(kind, n, l + 1), -scal * Q / T, acc)
        ident = -scal
    if l == 0:
        acc[()] = acc.get((), ZERO) + ident
    return {w: c for w, c in acc.items() if not c.is_zero()}


def eigen_ops_raise(max_l: int, gs: Scaled) -> list[Scaled]:
    """[G_0 gs, ..., G_max_l gs]: u-expansion of the normalized difference
    of two shift generating functions (offsets t^-n and t^(1-n))."""
    n = gs[0].n_vars
    return apply_levels([eigen_words("raise", n, l)
                         for l in range(max_l + 1)], gs)


@lru_cache(maxsize=None)
def _lower_scale(n: int) -> RatFuncQT:
    """scal_h of the lowering family, once its 1/u coefficient is checked
    to vanish identically: -scal_h * q t^(n-1) * B_0 + q/(1-q) * [n]_t * f."""
    scal_h = T * ((ONE - Q) * (ONE - T)).inverse()
    pole = -scal_h * Q * T ** (n - 1) * (T ** (-n) - ONE) + Q * t_integer(n) / (ONE - Q)
    if not pole.is_zero():
        raise MacHyperError("1/u pole of the lowering eigen-family did not cancel")
    return scal_h


def eigen_ops_lower(max_l: int, gs: Scaled) -> list[Scaled]:
    """[H_0 gs, ..., H_max_l gs]: u-expansion of the shifted ratio of shift
    generating functions (offsets 1/(q t^(n-2)) and 1/(q t^(n-1))),
    including the 1/u pole cancellation, which is checked once per n."""
    n = gs[0].n_vars
    return apply_levels([eigen_words("lower", n, l)
                         for l in range(max_l + 1)], gs)


def _family(kind: str, n: int, l: int) -> dict:
    """Level l of the word family of the transfer kind in n variables:
    ad^l for "lower" and "raise" (these hold no n), G_l for "diag_raise"
    and H_l for "diag_lower"."""
    if kind in ("lower", "raise"):
        return ad_words(kind, l)
    return eigen_words(kind.removeprefix("diag_"), n, l)


@lru_cache(maxsize=MAX_TRANSFERS)
def _compiled(parts: tuple, n: int) -> Compiled:
    """The sum over parts (sign 1 or -1, kind, values) of sign times the
    sum over l of (-1)^l e_l(values) times level l of the kind's family in
    n variables, by word, compiled once and kept."""
    stats.COUNTS["transfers_compiled"] += 1
    terms: dict = {}
    for sign, kind, values in parts:
        for l, e in enumerate(elementary_symmetric(list(values))):
            c = e if l % 2 == (sign < 0) else -e    # sign * (-1)^l * e_l
            for w, x in _family(kind, n, l).items():
                terms[w] = terms.get(w, ZERO) + c * x
    return compile_words(n, terms)


def transfer_sum(*parts):
    """The signed sum of the transfers over parts (sign, kind, values), as
    a map of scaled images that reads its compiled word sum from the store."""
    parts = tuple((sign, kind, tuple(rf(v) for v in values))
                  for sign, kind, values in parts)

    def op(gs: Scaled) -> Scaled:
        built = stats.COUNTS["transfers_compiled"]
        compiled = _compiled(parts, gs[0].n_vars)
        # a lookup that compiled nothing was read from the store
        stats.COUNTS["transfers_reused"] += built == stats.COUNTS["transfers_compiled"]
        return apply_compiled(compiled, gs)
    return op


def transfer_lower(blist):
    """Degree-lowering transfer: sum over l of (-1)^l e_l(b) times the
    l-fold weight-commutator of the lowering operator."""
    return transfer_sum((1, "lower", blist))


def transfer_raise(alist):
    """Degree-raising transfer: sum over l of (-1)^l e_l(a) times the
    l-fold weight-commutator of the raising operator."""
    return transfer_sum((1, "raise", alist))


def transfer_diag_raise(alist):
    """Diagonal transfer paired with raising: sum of (-1)^l e_l(a) G_l."""
    return transfer_sum((1, "diag_raise", alist))


def transfer_diag_lower(blist):
    """Diagonal transfer paired with lowering: sum of (-1)^l e_l(b) H_l."""
    return transfer_sum((1, "diag_lower", blist))


# -- closed-form eigenvalues of the diagonal families -----------------------

def _useries_mul(a: list[RatFuncQT], b: list[RatFuncQT], top: int) -> list[RatFuncQT]:
    out = [rf(0) for _ in range(top + 1)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j > top:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def _spectral_useries(l: int, lam: Partition, n: int, c: RatFuncQT,
                      a: RatFuncQT, top: int) -> list[RatFuncQT]:
    """Coefficients of u^0..u^top in prod_i (c - u a z_i)/(1 - u a z_i)
    over the spectral points z_i of lam (partitions.spectral_points), for
    the eigen operator level l.  ValueError for l < 0 or for lam with
    more than n parts."""
    if l < 0:
        raise ValueError(f"eigen operator level {l} is negative")
    if len(lam) > n:
        raise ValueError(f"partition {format_partition(lam)} has more parts "
                         f"than variables (n={n})")
    prod = [ONE] + [rf(0)] * top
    for z in spectral_points(lam, n):
        w = a * z
        # (c - u w)/(1 - u w) = c + (c-1) * sum_{k>=1} (u w)^k
        fac = [c] + [(c - ONE) * w ** k for k in range(1, top + 1)]
        prod = _useries_mul(prod, fac, top)
    return prod


def eigen_value_raise(l: int, mu: Partition, n: int) -> RatFuncQT:
    """Closed-form eigenvalue of G_l on the dual integral element of mu.

    Coefficient of u^l in 1/((1-q)(1-t)) * (1 - prod_i (t - u z_i)/(1 - u z_i))
    with z_i the spectral point q^(mu_i) t^(1-i).  ValueError for l < 0
    or for mu with more than n parts."""
    prod = _spectral_useries(l, mu, n, T, ONE, l)
    scal = ((ONE - Q) * (ONE - T)).inverse()
    base = ONE - prod[0] if l == 0 else -prod[l]
    return scal * base


def eigen_value_lower(l: int, lam: Partition, n: int) -> RatFuncQT:
    """Closed-form eigenvalue of H_l on the integral element of lam.

    u-expansion of scal_h*(u - q t^(n-1))/u*(prod_i (1/t - u z_i/q)/(1 - u z_i/q) - 1)
    plus the explicit 1/u counterterm; the pole cancellation is checked.
    ValueError for l < 0 or for lam with more than n parts."""
    prod = _spectral_useries(l, lam, n, T.inverse(), Q.inverse(), l + 1)
    s_series = [prod[0] - ONE] + prod[1:]
    scal_h = T * ((ONE - Q) * (ONE - T)).inverse()
    pole = -scal_h * Q * T ** (n - 1) * s_series[0] + Q * t_integer(n) / (ONE - Q)
    if not pole.is_zero():
        raise MacHyperError("1/u pole of the closed-form eigenvalue did not cancel")
    return scal_h * (s_series[l] - Q * T ** (n - 1) * s_series[l + 1])


def eigen_value_raise_brute(l: int, mu: Partition, n: int,
                            cache: MacdonaldCache) -> RatFuncQT:
    """Cover-sum route: sum over upper covers of
    rho_skew^l * t^(row offset) * cover coefficient * principal ratio."""
    out = rf(0)
    for cv in upper_covers(mu, max_length=n):
        b = binomial_by_expansion(cv.upper, mu, n, cache)
        ratio = jstar_principal(cv.upper, n) / jstar_principal(mu, n)
        out = out + cv.rho_skew ** l * t_monomial(cv.n_skew) * b * ratio
    return out


def eigen_value_lower_brute(l: int, lam: Partition, n: int,
                            cache: MacdonaldCache) -> RatFuncQT:
    """Co-cover-sum route: sum over lower covers of rho_skew^l * cover coeff."""
    out = rf(0)
    for cv in lower_covers(lam):
        b = binomial_by_expansion(lam, cv.lower, n, cache)
        out = out + cv.rho_skew ** l * b
    return out


# -- fixed-degree displays of the first few diagonal operators --------------

def eigen_ops_raise_from_shifts(l: int, f: SymPoly) -> SymPoly:
    """G_l assembled directly from shift-operator words (l <= 3).

    G_0 = [n]_t/(1-q); G_1 = D_1/(1-q); G_2 = (t D_1^2 - (1+t) D_2)/((1-q) t^n);
    G_3 = (t^2 D_1^3 - (2t^2+t) D_1 D_2 + (1+t+t^2) D_3)/((1-q) t^(2n)).
    """
    n = f.n_vars
    def D(m: int, g: SymPoly) -> SymPoly:
        return apply_literal(m, g)
    if l == 0:
        return f.scale_rf(t_integer(n) / (ONE - Q))
    if l == 1:
        return D(1, f).scale_rf((ONE - Q).inverse())
    if l == 2:
        num = D(1, D(1, f)).scale_rf(T) - D(2, f).scale_rf(ONE + T)
        return num.scale_rf(((ONE - Q) * t_monomial(n)).inverse())
    if l == 3:
        num = (D(1, D(1, D(1, f))).scale_rf(T ** 2)
               - D(1, D(2, f)).scale_rf(rf(2) * T ** 2 + T)
               + D(3, f).scale_rf(ONE + T + T ** 2))
        return num.scale_rf(((ONE - Q) * t_monomial(2 * n)).inverse())
    raise ValueError("display form only available for l <= 3")


def eigen_ops_lower_from_shifts(l: int, f: SymPoly) -> SymPoly:
    """H_l assembled directly from shift-operator words (l <= 2).

    H_0 = -(D_1 - [n]_t)/((1-q) t^(n-1));
    H_1 = ((t+1) D_2 - D_1^2 + D_1)/((1-q) q t^(2n-2));
    H_2 = (-(t^2+t+1) D_3 + (t+2) D_2 D_1 - D_1^3 - (t+1) D_2 + D_1^2)
          / ((1-q) q^2 t^(3n-3)).
    """
    n = f.n_vars
    def D(m: int, g: SymPoly) -> SymPoly:
        return apply_literal(m, g)
    if l == 0:
        num = D(1, f) - f.scale_rf(t_integer(n))
        return num.scale_rf(-((ONE - Q) * t_monomial(n - 1)).inverse())
    if l == 1:
        num = D(2, f).scale_rf(T + ONE) - D(1, D(1, f)) + D(1, f)
        return num.scale_rf(((ONE - Q) * Q * t_monomial(2 * n - 2)).inverse())
    if l == 2:
        num = (D(3, f).scale_rf(-(T ** 2 + T + ONE))
               + D(2, D(1, f)).scale_rf(T + rf(2))
               - D(1, D(1, D(1, f)))
               - D(2, f).scale_rf(T + ONE)
               + D(1, D(1, f)))
        return num.scale_rf(((ONE - Q) * Q ** 2 * t_monomial(3 * n - 3)).inverse())
    raise ValueError("display form only available for l <= 2")


# ---------------------------------------------------------------------------
# flavor transform (parameter inversion plus alphabet scaling)

def flavor_scale_one(params: HyperParams) -> RatFuncQT:
    """prod(a) / (q prod(b)): the one-alphabet scaling constant."""
    c = ONE
    for u in params.upper:
        c = c * u
    d = Q
    for b in params.lower:
        d = d * b
    return c / d


def mirror_params(params: HyperParams) -> HyperParams:
    """iota(1/p): the reciprocal of every parameter, at reciprocal q, t.
    The flavor transform and the tilde identities compare the series at
    params with the iota-image of the series at these parameters."""
    for idx, u in enumerate(params.upper, start=1):
        if u.is_zero():
            raise ValueError(f"upper parameter #{idx} is zero: flavor transform undefined")
    for idx, b in enumerate(params.lower, start=1):
        if b.is_zero():
            raise ValueError(f"lower parameter #{idx} is zero: flavor transform undefined")
    return HyperParams(tuple(u.inverse() for u in params.upper),
                       tuple(b.inverse() for b in params.lower)).inverted()


def kaneko_transform(series: TruncatedSeries,
                     cache: MacdonaldCache) -> TruncatedSeries:
    """The other flavor of the same series, verifying the defining relation.

    One direction: the kaneko-flavor rendering equals the iota-image of the
    macdonald-flavor rendering at mirror_params, with the alphabet scaled
    by prod(a)/(q prod(b)).  The reverse direction holds with the same
    constant and the flavors swapped.  The relation is verified exactly on
    the truncation (it is an identity; failure raises).
    """
    other = "kaneko" if series.flavor == "macdonald" else "macdonald"
    target = TruncatedSeries.build(series.n, series.D, series.params, flavor=other)
    mirror = TruncatedSeries.build(series.n, series.D,
                                   mirror_params(series.params),
                                   flavor=series.flavor)
    lhs = target.render_one(cache)
    rhs = scale_alphabet(invert_coeffs(mirror.render_one(cache)),
                         flavor_scale_one(series.params))
    if lhs != rhs:
        raise MacHyperError("flavor transform relation failed on the truncation")
    return target


# ---------------------------------------------------------------------------
# univariate collapse (one variable, z-series)

def _check_univariate(f: SymPoly) -> None:
    if f.n_vars != 1:
        raise ValueError(f"univariate operation on {f.n_vars} variables")


def uv_shift(f: SymPoly, qval: RatFuncQT) -> SymPoly:
    """z -> qval * z on a one-variable polynomial."""
    _check_univariate(f)
    return scale_alphabet(f, qval)


def uv_delta(aval: RatFuncQT, f: SymPoly) -> SymPoly:
    """a F(qz) - F(z)."""
    return uv_shift(f, Q).scale_rf(rf(aval)) - f


def uv_mul_z(f: SymPoly) -> SymPoly:
    _check_univariate(f)
    return SymPoly(1, {(size(lam) + 1,): c for lam, c in f.coeffs.items()})


def uv_div_z(f: SymPoly) -> SymPoly:
    _check_univariate(f)
    out: dict[Partition, RatFuncQT] = {}
    for lam, c in f.coeffs.items():
        k = size(lam)
        if k == 0:
            raise ValueError("constant term present: not divisible by z")
        out[(k - 1,) if k > 1 else ()] = c
    return SymPoly(1, out)


def uv_delta_chain(f: SymPoly, avals) -> SymPoly:
    """Delta_(a_1) ... Delta_(a_k) F, with Delta_a F = a F(qz) - F(z)."""
    out = f
    for a in avals:
        out = uv_delta(rf(a), out)
    return out


def transfer_lower_uv(blist, f: SymPoly) -> SymPoly:
    """One-variable collapse of the lowering transfer:
    (-1)^(s+1)/(1-q) * (1/z) * Delta_1 Delta_(b_1/q) ... Delta_(b_s/q)."""
    return uv_div_z(transfer_diag_lower_uv(blist, f))


def transfer_raise_uv(alist, f: SymPoly) -> SymPoly:
    """One-variable collapse of the raising transfer:
    (-1)^r/(1-q) * z * Delta_(a_1) ... Delta_(a_r)."""
    return uv_mul_z(transfer_diag_raise_uv(alist, f))


def transfer_diag_raise_uv(alist, f: SymPoly) -> SymPoly:
    """One-variable collapse of the raising-paired diagonal transfer:
    (-1)^r/(1-q) * Delta_(a_1) ... Delta_(a_r)."""
    g = uv_delta_chain(f, [rf(a) for a in alist])
    sign = ONE if len(alist) % 2 == 0 else rf(-1)
    return g.scale_rf(sign / (ONE - Q))


def transfer_diag_lower_uv(blist, f: SymPoly) -> SymPoly:
    """One-variable collapse of the lowering-paired diagonal transfer:
    (-1)^(s+1)/(1-q) * Delta_1 Delta_(b_1/q) ... Delta_(b_s/q)."""
    chain = [ONE] + [rf(b) / Q for b in blist]
    g = uv_delta_chain(f, chain)
    sign = rf(-1) if len(blist) % 2 == 0 else ONE
    return g.scale_rf(sign / (ONE - Q))


# ---------------------------------------------------------------------------
# infinite-product expansions (independent oracles for small series)

def product_series_one(which: str, n: int, D: int,
                       aval: RatFuncQT | None = None) -> SymPoly:
    """Product over variables of a classical q-product, truncated at total
    degree D, as a symmetric polynomial."""
    gk = product_coeffs(which, D, aval)
    raw = raw_product_expansion(gk, [(i,) for i in range(n)], n, n, D)
    return SymPoly.from_raw(raw, n)
