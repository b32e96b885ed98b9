"""Exact verification suites for the series annihilation identities.

Each check applies an annihilating operator combination to a truncated
series and demands that every residual component inside the trusted
degree window vanish identically; coefficient recursions are re-derived
from scratch and compared against the stored values.  Residual degrees
observed outside the window (truncation leakage) are reported but never
count as failures.

The paper's three operators are defined once each: A^(x,y) in _resid_A
(two alphabets), B^(x) and C^(x) in _resid_B and _resid_C (one
alphabet).  They take a cleared image, never a value; a series clears
each rendering once and keeps the image (TruncatedSeries.cleared).  B and
C are each one compiled transfer sum (series.transfer_sum: the diagonal
transfer minus the other one), so applying one is a sum of stored
integer columns and one field product; they return the residual as a
scaled image, whose support qops.support_degrees reads.  A is
qops.alphabet_difference of two transfers (series.transfer_*): each
transfer reads the whole one image once, on its own alphabet, and the
difference is formed over their own scalars.  Aprime is A on the same
image with the two transfers exchanged between the alphabets: the
difference is nonzero exactly where the two sides' values differ,
whichever side sits on x, so nothing is swapped.  Each trusted
degree window is stated once, where the support is split into window and
leak (_support_A in both orientations, _support_B, _support_C); the
plain, alphabet-swapped and tilde checks format what these return.  The
diagonal-kernel check runs the level differences, both swap tests and
the shift generating function at u = t on the same whole integer image
(qops.apply_shift_genfun acts on its x alphabet, as every operator map
does, so nothing is cut into slices), and its negative control on
m_(1)(x) m_(2)(y), which is its own integer image.  The Kaneko
check's factored second-order operator is a qops.combine of single
operator kinds (qops.apply_kind), never of the transfers: six images of
its input weighted by six scalars in the parameters, and it matches B on
a monomial cleared once for both.  Only the one-variable check reads
values, through qops.on_values.

All checks run over the exact coefficient field; there are no
tolerances anywhere.  Parameter draws are seeded, so a fixed
(selection, n, D, seed) reproduces byte-identical reports.  What holds
no parameter is computed once per process and kept for every check and
seed: the cover coefficients that the B and C cover recursions read
(_cover_binomial, per (upper, lower, n)), the Kaneko check's cleared
monomials with their six images (_factored_monomial, per (lam, n)) and
the Jack oracle (jack_oracle, per (lam, k, n)).

The tilde identities concern the series at reciprocal q, t and
reciprocal parameters.  They run on its iota-image, the series at
mirror_params(p): the inversion iota is a field automorphism, so it keeps
every residual zero or nonzero and keeps its degree.  The transport also
scales the alphabets by constants, which need no parameter: x -> c x
multiplies a lowering transfer's value by c (degree -1 in its alphabet),
a raising one's by 1/c (degree +1) and leaves a diagonal one's alone, so
a residual's support is that of the plain residual on the mirror series,
read in the same windows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import stats
from .errors import LimitError, MacHyperError, PoleError, ResourceGuardError
from .ratfunc import (ONE, Q, RatFuncQT, T, invert_qt, rf, t_integer,
                      t_monomial)
from .partitions import (Partition, arm, cells, enumerate_partitions,
                         format_partition, hook_products, leg, length,
                         lower_covers, make_partition, partitions_of, size,
                         upper_covers, z_stat)
from .sympoly import (BiSymPoly, SymPoly, basis_poly, invert_coeffs,
                      to_power_sums)
from .qops import (Scaled, alphabet_difference, apply_kind, apply_shift_genfun,
                   combine, on_values, support_degrees, to_scaled)
from .macdonald import (MacdonaldCache, binomial_raising_closed,
                        macdonald_forms)
from .series import (HyperParams, TruncatedSeries, check_lower_poles,
                     flavor_scale_one, mirror_params, product_series_one,
                     scale_alphabet, transfer_diag_lower, transfer_diag_raise,
                     transfer_diag_lower_uv, transfer_diag_raise_uv,
                     transfer_lower, transfer_lower_uv, transfer_raise,
                     transfer_raise_uv, transfer_sum, uv_delta_chain, uv_mul_z,
                     uv_shift)

SUITE_ORDER = ("A", "Aprime", "kernel", "B", "C", "kaneko", "tilde",
               "univariate", "jack")

# (r, s) shapes exercised by the suite; (2, 1) also feeds the factored
# second-order check and the single-variable collapse
PARAM_GRID = ((0, 0), (1, 0), (1, 1), (2, 1))

DEFAULT_SEED = 20240801

MAX_SUITE_VARS = 4
MAX_SUITE_DEGREE = 8
MAX_SUITE_DRAWS = 10


# ---------------------------------------------------------------------------
# reports

@dataclass
class TheoremReport:
    """Outcome of one identity check at one parameter draw."""
    theorem: str
    n: int
    D: int
    params: dict
    passed: bool
    trusted: str
    residual_degrees: list
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "D": self.D,
            "params": self.params,
            "residual_degrees": self.residual_degrees,
            "pass": self.passed,
        }

    def render_text(self) -> str:
        status = "pass" if self.passed else "FAIL"
        a = ", ".join(self.params.get("a", ())) or "-"
        b = ", ".join(self.params.get("b", ())) or "-"
        lines = [f"{self.theorem:<10} {status}  n={self.n} D={self.D}  "
                 f"a=[{a}]  b=[{b}]"]
        if self.residual_degrees:
            lines.append(f"    nonzero residual degrees {self.residual_degrees}"
                         f"; trusted window: {self.trusted}")
        else:
            lines.append(f"    all residuals zero; trusted window: {self.trusted}")
        lines.extend(f"    {note}" for note in self.notes)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the paper's operators A, B and C, applied to a cleared rendering

def _resid_A(Fs: tuple[BiSymPoly, RatFuncQT], p: HyperParams,
             swapped: bool = False) -> BiSymPoly:
    """A^(x,y) F up to a nonzero factor on each coefficient, at F's
    cleared image Fs: the lowering transfer on x minus the raising
    transfer on y, or with the two exchanged between the alphabets."""
    ops = transfer_lower(p.lower), transfer_raise(p.upper)
    return alphabet_difference(Fs, *(ops[::-1] if swapped else ops))


def _resid_B(fs: Scaled, p: HyperParams) -> Scaled:
    """B^(x) as one compiled sum: the raising-paired diagonal transfer,
    minus the lowering transfer.  At (r, s) = (2, 1) it is Kaneko's."""
    return transfer_sum((1, "diag_raise", p.upper),
                        (-1, "lower", p.lower))(fs)


def _resid_C(fs: Scaled, p: HyperParams) -> Scaled:
    """C^(x) as one compiled sum: the lowering-paired diagonal transfer,
    minus the raising transfer."""
    return transfer_sum((1, "diag_lower", p.lower),
                        (-1, "raise", p.upper))(fs)


# (residual support, its part in the trusted window) of each operator on
# the series' cleared renderings
def _support_A(series: TruncatedSeries, cache: MacdonaldCache,
               swapped: bool = False) -> tuple[list, list]:
    """Bidegrees of A's residual.  The lowering side reaches (e, e+1)
    only for e <= D-1, so the single expected leak is (D, D+1), mirrored
    when swapped."""
    observed = _resid_A(series.cleared("two", cache), series.params,
                        swapped).bidegrees()
    step = -1 if swapped else 1
    return observed, [(dx, dy) for dx, dy in observed
                      if dy - dx == step and min(dx, dy) <= series.D - 1]


def _support_B(series: TruncatedSeries,
               cache: MacdonaldCache) -> tuple[list, list]:
    """(m, degree) of B's residual on the one-alphabet rendering in m
    variables, for m = 1..n; the series itself serves m = n, smaller
    counts are rebuilt unmutated.  The lowering side reaches degree d
    only from d+1 <= D, so degrees <= D-1 are trusted (leak at D)."""
    observed = []
    for m in range(1, series.n + 1):
        sm = series if m == series.n else TruncatedSeries.build(
            m, series.D, series.params, series.flavor)
        fs = sm.cleared("one", cache)
        observed += [(m, d) for d in support_degrees(_resid_B(fs, sm.params))]
    return observed, [(m, d) for m, d in observed if d <= series.D - 1]


def _support_C(series: TruncatedSeries,
               cache: MacdonaldCache) -> tuple[list, list]:
    """Degrees of C's residual.  The raising side only adds degrees above
    the truncation, so every degree <= D is trusted (leak at D+1)."""
    observed = support_degrees(_resid_C(series.cleared("one", cache),
                                        series.params))
    return observed, [d for d in observed if d <= series.D]


# ---------------------------------------------------------------------------
# parameter draws

def _draw_field_value(rng: random.Random) -> RatFuncQT:
    """Small positive rational, possibly dressed with a q or t monomial."""
    while True:
        v = rf(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        roll = rng.randrange(4)
        if roll == 0:
            v = v * Q ** rng.choice((-1, 1))
        elif roll == 1:
            v = v * T ** rng.choice((-1, 1))
        if v != ONE:      # 1 in an upper slot collapses the series
            return v


def draw_hyper_params(rng: random.Random, r: int, s: int, n: int,
                      D: int) -> HyperParams:
    """Seeded draw of r upper and s lower parameters.

    All values are nonzero (so reciprocals exist for the inverted
    checks); lower values are rerolled until they avoid the Pochhammer
    zero set of the truncation window, including the headroom the
    operator routes need.
    """
    upper = tuple(_draw_field_value(rng) for _ in range(r))
    lower: list[RatFuncQT] = []
    while len(lower) < s:
        b = _draw_field_value(rng)
        try:
            check_lower_poles(HyperParams((), (b,)), n, D + 2)
        except PoleError:
            continue
        lower.append(b)
    return HyperParams(upper, tuple(lower))


# ---------------------------------------------------------------------------
# shared recursion helpers

@lru_cache(maxsize=64)
def _cover_binomial(upper: Partition, lower: Partition, n: int) -> RatFuncQT:
    """The cover coefficient binomial_raising_closed(upper, lower, n) that
    the cover recursions read, keyed on the covers' own (normalized)
    partitions.  It has no parameter, so each (upper, lower, n) is
    computed once and kept, for every check and seed."""
    return binomial_raising_closed(upper, lower, n)


def _cover_factor(rho: RatFuncQT, values) -> RatFuncQT:
    out = ONE
    for v in values:
        out = out * (ONE - v * rho)
    return out


# ---------------------------------------------------------------------------
# two-alphabet annihilation (and its alphabet-swapped variant)

def check_two_alphabet(series: TruncatedSeries,
                       cache: MacdonaldCache,
                       swapped: bool = False) -> TheoremReport:
    """A kills the two-alphabet rendering; swapped, A acts with the
    alphabets exchanged.  The trusted window is _support_A's.  The
    per-cover coefficient recursion is re-derived as an independent
    route.
    """
    n, D, p = series.n, series.D, series.params
    observed, bad = _support_A(series, cache, swapped)
    trusted = ("bidegrees (e+1, e) with e <= D-1" if swapped
               else "bidegrees (e, e+1) with e <= D-1")
    notes = []
    leaks = [k for k in observed if k not in bad]
    if leaks:
        notes.append(f"leakage outside the window at {leaks} (expected at the "
                     f"truncation edge)")

    # independent route: C_lam * prod(1 - b rho) == C_mu * prod(1 - a rho)
    # over every cover pair inside the truncation
    rec_bad = 0
    pairs = 0
    for dsz in range(1, D + 1):
        for lam in partitions_of(dsz, n):
            clam = series.coeffs[lam]
            for cv in lower_covers(lam):
                pairs += 1
                if clam * _cover_factor(cv.rho_skew, p.lower) != \
                        series.coeffs[cv.lower] * _cover_factor(cv.rho_skew, p.upper):
                    rec_bad += 1
    if rec_bad:
        notes.append(f"cover recursion failed on {rec_bad} of {pairs} pairs")
    else:
        notes.append(f"cover recursion verified on {pairs} pairs")

    return TheoremReport(
        theorem="Aprime" if swapped else "A",
        n=n, D=D, params=p.to_json(),
        passed=not bad and rec_bad == 0,
        trusted=trusted,
        residual_degrees=[list(k) for k in observed],
        notes=notes)


# ---------------------------------------------------------------------------
# diagonal-kernel membership

def check_diagonal_match(series: TruncatedSeries,
                         cache: MacdonaldCache,
                         cross: Partition | None = None) -> TheoremReport:
    """Three equivalent faces of membership in the diagonal kernel.

    The two-alphabet rendering must (i) satisfy level-l shift-operator
    equality between the alphabets for every l, (ii) be invariant under
    the alphabet swap, before and after the generating-function shift
    operator.  Each is tested on the rendering's one integer image, a
    nonzero multiple of it.  All operators here preserve degree, so every
    bidegree is trusted.  A deliberately off-diagonal product is run as a
    negative control and must violate the conditions.  `cross` injects an
    off-diagonal monomial term (the mutation hook).
    """
    n, D = series.n, series.D
    notes = []
    # G is the rendering times a nonzero scalar, with integer coefficients,
    # and every test below reads G; an injected term is cleared with it
    if cross is None:
        Gs = series.cleared("two", cache)
    else:
        Gs = to_scaled(series.render_two(cache)
                       + BiSymPoly(n, {(make_partition(cross), ()): ONE}))
        notes.append(f"off-diagonal term injected at {format_partition(cross)}")
    G = Gs[0]

    # level 0 is the identity on both sides
    level_ops = [lambda gs, l=l: apply_kind(l, gs) for l in range(1, n + 1)]

    observed = set()
    for op in level_ops:
        observed.update(alphabet_difference(Gs, op, op).bidegrees())
    sym_before = G.swap() == G
    # a nonzero scalar keeps swap invariance as it is, so only the image counts
    shifted = apply_shift_genfun((G, ONE), T)[0]
    sym_after = shifted.swap() == shifted
    if not sym_before:
        notes.append("swap invariance fails on the series itself")
    if not sym_after:
        notes.append("swap invariance fails after the shift operator")

    # negative control: the off-diagonal m_(1)(x) m_(2)(y), its own integer
    # image, must be rejected (D_1 separates (1) from (2))
    neg = BiSymPoly(n, {((1,), (2,)): ONE})
    control = neg.swap() != neg
    if not control:
        notes.append("negative control unexpectedly swap-invariant")
    hit = any(not alphabet_difference((neg, ONE), op, op).is_zero()
              for op in level_ops)
    if not hit:
        notes.append("negative control passed the level checks (it must not)")
    control = control and hit
    if control:
        notes.append("negative control correctly rejected")

    observed = sorted(observed)
    return TheoremReport(
        theorem="kernel",
        n=n, D=D, params=series.params.to_json(),
        passed=not observed and sym_before and sym_after and control,
        trusted="all bidegrees (degree-preserving operators)",
        residual_degrees=[list(k) for k in observed],
        notes=notes)


# ---------------------------------------------------------------------------
# diagonal/lowering annihilation with the variable-count loop

def _stability_walk(series: TruncatedSeries) -> tuple[bool, list[str]]:
    """Re-derive every coefficient from the two cover-sum equations.

    Partitions are visited by size and then in descending lexicographic
    order; at each base partition the only coefficients not yet derived
    sit on the covers extending the last row or adding a new one, so the
    linear systems are at most 2x2, with an explicitly nonzero
    determinant.  Bases of full length admit one equation (the weighted
    variant whose extra factor kills the over-long cover) and at most
    one unknown.
    """
    n, D, p = series.n, series.D, series.params
    tn = T ** n
    hooks: dict[Partition, RatFuncQT] = {}

    def jhook(lam: Partition) -> RatFuncQT:
        if lam not in hooks:
            hooks[lam] = hook_products(lam)[2]
        return hooks[lam]

    derived: dict[Partition, RatFuncQT] = {(): ONE}
    counts = {"pair": 0, "single": 0, "consistency": 0}
    ok = True
    notes: list[str] = []

    for dsz in range(D):
        for mu in sorted(partitions_of(dsz, n), reverse=True):
            lm = length(mu)
            data = []
            for cv in upper_covers(mu, max_length=n):
                rho = cv.rho_skew
                w = (t_monomial(2 * cv.n_skew)
                     * _cover_binomial(cv.upper, mu, n)
                     * jhook(mu) / jhook(cv.upper))
                data.append((cv.upper, rho,
                             w * _cover_factor(rho, p.upper),
                             w * _cover_factor(rho, p.lower),
                             cv.row))
            news = [d for d in data if d[0] not in derived]
            # the walk order guarantees fresh covers touch the tail only
            if any(row not in (lm, lm + 1) for _, _, _, _, row in news):
                raise MacHyperError(f"unexpected fresh cover at base {mu}")
            if lm <= n - 1:
                rhs1 = derived[mu] * sum((ka for _, _, ka, _, _ in data),
                                         start=ONE - ONE)
                rhs2 = derived[mu] * sum((ka * rho for _, rho, ka, _, _ in data),
                                         start=ONE - ONE)
                for lam, rho, _, kb, _ in data:
                    if lam in derived:
                        rhs1 = rhs1 - derived[lam] * kb
                        rhs2 = rhs2 - derived[lam] * kb * rho
                if len(news) == 2:
                    (l1, r1, _, kb1, _), (l2, r2, _, kb2, _) = news
                    if (kb1 * kb2 * (r2 - r1)).is_zero():
                        raise MacHyperError(f"singular pair system at {mu}")
                    derived[l1] = (rhs1 * r2 - rhs2) / (kb1 * (r2 - r1))
                    derived[l2] = (rhs2 - rhs1 * r1) / (kb2 * (r2 - r1))
                    counts["pair"] += 1
                elif len(news) == 1:
                    lam, r1, _, kb1, _ = news[0]
                    if kb1.is_zero():
                        raise MacHyperError(f"vanishing coefficient at {mu}")
                    derived[lam] = rhs1 / kb1
                    if kb1 * r1 * derived[lam] != rhs2:
                        ok = False
                        notes.append(f"companion equation inconsistent at "
                                     f"base {format_partition(mu)}")
                    counts["single"] += 1
                else:
                    if not (rhs1.is_zero() and rhs2.is_zero()):
                        ok = False
                        notes.append(f"closed equations violated at base "
                                     f"{format_partition(mu)}")
                    counts["consistency"] += 1
            else:
                # full-length base: single weighted equation; the factor
                # 1 - t^n rho vanishes exactly on the over-long cover
                if len(news) > 1:
                    raise MacHyperError(f"too many unknowns at full base {mu}")
                rhs = derived[mu] * sum((ka * (ONE - tn * rho)
                                         for _, rho, ka, _, _ in data),
                                        start=ONE - ONE)
                for lam, rho, _, kb, _ in data:
                    if lam in derived:
                        rhs = rhs - derived[lam] * kb * (ONE - tn * rho)
                if news:
                    lam, r1, _, kb1, _ = news[0]
                    coeff = kb1 * (ONE - tn * r1)
                    if coeff.is_zero():
                        raise MacHyperError(f"vanishing weight at {mu}")
                    derived[lam] = rhs / coeff
                    counts["single"] += 1
                else:
                    if not rhs.is_zero():
                        ok = False
                        notes.append(f"closed weighted equation violated at "
                                     f"base {format_partition(mu)}")
                    counts["consistency"] += 1

    mismatches = [lam for lam in enumerate_partitions(D, n)
                  if derived[lam] != series.coeffs[lam]]
    if mismatches:
        ok = False
        shown = ", ".join(format_partition(m) for m in mismatches[:4])
        notes.append(f"walk disagrees with stored coefficients at {shown}"
                     + (" ..." if len(mismatches) > 4 else ""))
    notes.append(f"walk re-derived {len(derived) - 1} coefficients "
                 f"(pair systems {counts['pair']}, single {counts['single']}, "
                 f"consistency {counts['consistency']})")
    return ok, notes


def check_stability(series: TruncatedSeries,
                    cache: MacdonaldCache) -> TheoremReport:
    """B kills the one-alphabet rendering at every variable count
    m = 1..n, in _support_B's trusted window.  The cover-sum walk
    re-derives all coefficients as the independent route.
    """
    n, D, p = series.n, series.D, series.params
    observed, bad = _support_B(series, cache)
    notes = []
    if bad:
        notes.append(f"in-window residuals at (m, degree) {sorted(bad)}")
    if series.flavor == "macdonald":
        walk_ok, walk_notes = _stability_walk(series)
        notes.extend(walk_notes)
    else:
        walk_ok = True
        notes.append("coefficient walk skipped (plain flavor only)")
    return TheoremReport(
        theorem="B",
        n=n, D=D, params=p.to_json(),
        passed=not bad and walk_ok,
        trusted="degrees <= D-1 at every variable count",
        residual_degrees=sorted({d for _, d in observed}),
        notes=notes)


# ---------------------------------------------------------------------------
# raising/diagonal annihilation in one alphabet

def check_single_alphabet(series: TruncatedSeries,
                          cache: MacdonaldCache) -> TheoremReport:
    """C kills the one-alphabet rendering in _support_C's trusted window.
    The downward cover recursion re-derives each coefficient.
    """
    n, D, p = series.n, series.D, series.params
    observed, bad = _support_C(series, cache)
    notes = []
    leaks = [d for d in observed if d not in bad]
    if leaks:
        notes.append(f"leakage at degrees {leaks} (truncation edge)")

    rec_bad = 0
    total = 0
    for dsz in range(1, D + 1):
        for lam in partitions_of(dsz, n):
            num = ONE - ONE
            den = ONE - ONE
            for cv in lower_covers(lam):
                bino = _cover_binomial(lam, cv.lower, n)
                num = num + series.coeffs[cv.lower] \
                    * _cover_factor(cv.rho_skew, p.upper) * bino
                den = den + _cover_factor(cv.rho_skew, p.lower) * bino
            if den.is_zero():
                raise MacHyperError(f"vanishing diagonal value at {lam}")
            total += 1
            if num / den != series.coeffs[lam]:
                rec_bad += 1
    if rec_bad:
        notes.append(f"downward recursion failed on {rec_bad} of {total} "
                     f"partitions")
    else:
        notes.append(f"downward recursion re-derived {total} coefficients")

    return TheoremReport(
        theorem="C",
        n=n, D=D, params=p.to_json(),
        passed=not bad and rec_bad == 0,
        trusted="degrees <= D",
        residual_degrees=observed,
        notes=notes)


# ---------------------------------------------------------------------------
# the factored second-order operator

# the monomial inputs whose images are kept: |lam| <= 4 in at most
# MAX_SUITE_VARS variables makes 32 keys
MAX_FACTORED_INPUTS = 64


def _factored_images(gs: Scaled, n: int) -> tuple[Scaled, ...]:
    """The parameter-free part of the literal second-order hypergeometric
    operator at the scaled image gs: the six images that its terms weight
    (_factored_scalars), namely the commutator of the weight and lowering
    operators, X(X g), Y g, the lowering image, X g and g.  Written against
    the classical shape (shifted first- and second-level shift operators,
    and the commutator as two compositions), not against the transfer
    combination it is later compared to.
    """
    one_q = ONE - Q
    nt = t_integer(n)
    nt1 = t_integer(n - 1)
    # X = (D_1 - [n]_t) / (1-q), Y = ((1+t) D_2 - t [n]_t [n-1]_t) / k
    x1, x0 = ONE / one_q, -nt / one_q
    k = one_q * (ONE - T ** 2)
    y2, y0 = (ONE + T) / k, -T * nt * nt1 / k

    def X(hs: Scaled) -> Scaled:
        return combine(n, ((x1, apply_kind(1, hs)), (x0, hs)))

    comm = combine(n, (
        (ONE, apply_kind("weight", apply_kind("lower", gs))),
        (-ONE, apply_kind("lower", apply_kind("weight", gs)))))
    xs = X(gs)
    ys = combine(n, ((y2, apply_kind(2, gs)), (y0, gs)))
    return comm, X(xs), ys, apply_kind("lower", gs), xs, gs


def _factored_scalars(p: HyperParams, n: int) -> tuple[RatFuncQT, ...]:
    """The parameter-dependent part of the literal operator: the six
    scalars in the numerator parameters a, b and the denominator parameter
    c of p = (a, b; c) that weight the images of _factored_images."""
    a, b = p.upper
    c = p.lower[0]
    one_q = ONE - Q
    nt = t_integer(n)
    tpow = t_monomial(n - 1)
    return (c * tpow / one_q,
            -a * b,
            a * b * (ONE - T ** 2) / (T * one_q),
            tpow / one_q,
            -(rf(2) * a * b * nt - (a + b) * tpow) / one_q,
            -(ONE - a) * (ONE - b) * tpow * nt / one_q ** 2)


@lru_cache(maxsize=MAX_FACTORED_INPUTS)
def _factored_monomial(lam: Partition,
                       n: int) -> tuple[Scaled, tuple[Scaled, ...]]:
    """m_lam cleared, and its images under _factored_images.  Neither
    holds a parameter, so each (lam, n) is built once and kept, for every
    draw and seed; each build is counted in stats as
    factored_images_built."""
    stats.COUNTS["factored_images_built"] += 1
    fs = to_scaled(basis_poly("m", lam, n))
    return fs, _factored_images(fs, n)


def _matches_B(lam: Partition, p: HyperParams,
               scalars: tuple[RatFuncQT, ...], scal: RatFuncQT,
               n: int) -> bool:
    """scal times the factored operator at p = (a, b; c), whose scalars
    are given, equals B at p on m_lam, cleared once for both: their
    difference has no support."""
    fs, images = _factored_monomial(lam, n)
    lhs = combine(n, zip(scalars, images))
    return not support_degrees(combine(n, ((scal, lhs),
                                           (-ONE, _resid_B(fs, p)))))


def check_factored_form(series: TruncatedSeries,
                        cache: MacdonaldCache) -> TheoremReport:
    """The literal second-order operator equals B at (a, b; c) up to the
    stated scalar, as operators on every monomial symmetric polynomial
    of degree <= 4, and at (0, 0; c) on two of them; and it annihilates
    the (2,1) series in degrees <= D-1.  The operator's scalars are
    computed once per parameter point, its images of the monomials once
    per process (_factored_monomial).
    """
    n, D, p = series.n, series.D, series.params
    if p.r != 2 or p.s != 1:
        raise ValueError("factored second-order check needs two upper and "
                         "one lower parameter")
    if n < 2:
        raise ValueError("factored second-order check needs n >= 2")
    scalars = _factored_scalars(p, n)
    scal = -(ONE - Q) / t_monomial(n - 1)
    notes = []

    inputs = enumerate_partitions(4, n)
    op_bad = sum(not _matches_B(lam, p, scalars, scal, n) for lam in inputs)
    if op_bad:
        notes.append(f"operator identity failed on {op_bad} of {len(inputs)} "
                     f"monomial inputs")
    else:
        notes.append(f"operator identity verified on {len(inputs)} monomial "
                     f"inputs")

    # numerator parameters switched off: the identity must survive the
    # collapse of every a,b-proportional term
    zero = ONE - ONE
    p0 = HyperParams((zero, zero), p.lower)
    scalars0 = _factored_scalars(p0, n)
    col_bad = sum(not _matches_B(lam, p0, scalars0, scal, n)
                  for lam in ((1,), (2, 1)))
    notes.append("zero-parameter collapse "
                 + ("verified" if col_bad == 0 else "FAILED"))

    observed = support_degrees(combine(n, zip(
        scalars, _factored_images(series.cleared("one", cache), n))))
    bad = [d for d in observed if d <= D - 1]
    leaks = [d for d in observed if d > D - 1]
    if leaks:
        notes.append(f"annihilation leakage at degrees {leaks}")

    return TheoremReport(
        theorem="kaneko",
        n=n, D=D, params=p.to_json(),
        passed=op_bad == 0 and col_bad == 0 and not bad,
        trusted="degrees <= D-1 (annihilation part)",
        residual_degrees=observed,
        notes=notes)


# ---------------------------------------------------------------------------
# inverted-parameter forms

def check_inverted_theorems(params: HyperParams, plain: TruncatedSeries,
                            cache: MacdonaldCache) -> TheoremReport:
    """The three annihilation identities transported to the series with
    inverted q, t and reciprocal parameters.

    `params` holds the plain parameter lists; `plain` is the iota-image of
    the transported series, the series at mirror_params(params).  A, B
    and C run on its own renderings: the transport's alphabet constants
    cancel from every residual's support (see the module docstring).  At
    the empty parameter shape the iota-image of the rendering scaled by
    iota(1/q) = q must equal the falling q-product, which is checked
    directly.  The inversion keeps every residual degree.
    """
    n, D = plain.n, plain.D
    notes = []
    # A on two alphabets, B at each m (the loop) and C (raising), each in
    # its plain window
    obs_A, bad_A = _support_A(plain, cache)
    obs_B, bad_B = _support_B(plain, cache)
    obs_C, bad_C = _support_C(plain, cache)
    observed = {*obs_A, *obs_B, *(("raise", dg) for dg in obs_C)}
    bad = ([("xy", *k) for k in bad_A] + [("loop", *k) for k in bad_B]
           + [("raise", dg) for dg in bad_C])

    if params.r == 0 and params.s == 0:
        # closing identity: the empty-shape series is the falling q-product
        c = invert_qt(flavor_scale_one(params))
        if c != Q:
            raise MacHyperError("empty-shape scaling constant is not 1/q")
        if invert_coeffs(scale_alphabet(plain.render_one(cache), c)) == \
                product_series_one("dir", n, D):
            notes.append("empty-shape rendering equals the falling q-product")
        else:
            bad.append(("product", 0))
            notes.append("empty-shape rendering does NOT match the falling "
                         "q-product")

    if bad:
        notes.append(f"in-window residuals: {bad}")
    return TheoremReport(
        theorem="tilde",
        n=n, D=D, params=params.to_json(),
        passed=not bad,
        trusted="mirrors the plain windows (two-alphabet e <= D-1, "
                "loop <= D-1, raising <= D)",
        residual_degrees=[list(k) for k in sorted(observed, key=str)],
        notes=notes)


# ---------------------------------------------------------------------------
# one-variable collapse

def check_single_variable(series: TruncatedSeries,
                          cache: MacdonaldCache) -> TheoremReport:
    """At one variable the four transfer operators collapse to scaled
    chains of shift differences; the collapse is checked against the
    full operators on every power z^k, k <= D, and the resulting
    q-difference equation is checked on the alternating-flavor series
    through degree D (the raising side leaks at D+1).
    """
    if series.n != 1:
        raise ValueError("single-variable check needs n = 1")
    D, p = series.D, series.params
    notes = []
    form_bad = 0
    collapses = ((transfer_lower_uv, transfer_lower, p.lower),
                 (transfer_raise_uv, transfer_raise, p.upper),
                 (transfer_diag_raise_uv, transfer_diag_raise, p.upper),
                 (transfer_diag_lower_uv, transfer_diag_lower, p.lower))
    for k in range(D + 1):
        f = SymPoly(1, {((k,) if k else ()): ONE})
        form_bad += sum(1 for uv, full, ps in collapses
                        if uv(ps, f) != on_values(full(ps))(f))
    if form_bad:
        notes.append(f"collapsed formulas disagree on {form_bad} cases")
    else:
        notes.append(f"four collapsed formulas match the full operators on "
                     f"z^k, k <= {D}")

    F = series.render_one(cache)
    shift = Q ** (p.s + 1 - p.r)
    lhs = uv_delta_chain(F, [ONE] + [b / Q for b in p.lower])
    rhs = uv_mul_z(uv_delta_chain(uv_shift(F, shift), list(p.upper)))
    observed = (lhs - rhs).degrees()
    bad = [dg for dg in observed if dg <= D]
    leaks = [dg for dg in observed if dg > D]
    if leaks:
        notes.append(f"q-difference leakage at degrees {leaks}")

    return TheoremReport(
        theorem="univariate",
        n=1, D=D, params=p.to_json(),
        passed=form_bad == 0 and not bad,
        trusted="z-degrees <= D (q-difference equation)",
        residual_degrees=observed,
        notes=notes)


# ---------------------------------------------------------------------------
# classical one-parameter limit

def classical_limit_coeffs(lam: Partition, k: int, n: int,
                           cache: MacdonaldCache,
                           mutate: bool = False) -> SymPoly:
    """Limit of the integral form at t = q^k as q -> 1, divided by
    (1-q)^|lam|, coefficient by coefficient on the monomial basis."""
    lam = make_partition(lam)
    J = macdonald_forms(lam, n, cache).J
    if mutate:
        # survives the limit as a visible constant term
        J = J + SymPoly(n, {(): (ONE - Q) ** size(lam)})
    out: dict[Partition, RatFuncQT] = {}
    for mu, coef in J.coeffs.items():
        v = limit_at_q_power(coef, k, size(lam))
        if v:
            out[mu] = rf(v)
    return SymPoly(n, out)


def limit_at_q_power(coef: RatFuncQT, k: int, order: int) -> Fraction:
    """Value at q = 1 of coef(q, t = q^k) / (1-q)^order, for a polynomial
    coef.

    t = q^k maps the exponent pair (dq, dt) to dq + k*dt, giving
    sum_e c_e q^e; at q = 1 - x this is sum_j (-x)^j P_j with
    P_j = sum_e c_e C(e, j).  The value is (-1)^order P_order once every
    P_j with j < order vanishes; otherwise a pole survives (LimitError).
    """
    if coef.den != {(0, 0): 1}:
        raise MacHyperError("the classical limit needs a polynomial coefficient")
    terms = [(dq + k * dt, c) for (dq, dt), c in coef.num.items()]
    P = [sum(c * comb(e, j) for e, c in terms) for j in range(order + 1)]
    for j in range(order):
        if P[j]:
            raise LimitError(f"(1-q)-valuation is {j}, pole of order "
                             f"{order - j} remains")
    return Fraction((-1) ** order * P[order])


def _deformed_inner(fp: dict[Partition, RatFuncQT],
                    gp: dict[Partition, RatFuncQT],
                    alpha: Fraction) -> RatFuncQT:
    tot = ONE - ONE
    for lam, cf in fp.items():
        cg = gp.get(lam)
        if cg is not None:
            tot = tot + cf * cg * rf(z_stat(lam) * alpha ** length(lam))
    return tot


@lru_cache(maxsize=64)
def jack_oracle(lam: Partition, k: int, n: int) -> SymPoly:
    """Independent construction of the integral-form limit: Gram-Schmidt
    against the alpha-deformed power-sum pairing (alpha = 1/k), then the
    diagram hook normalization alpha^-|lam| prod(alpha*arm + leg + 1).
    It has no parameter, so each (lam, k, n) is built once and kept.
    """
    lam = make_partition(lam)
    alpha = Fraction(1, k)
    dsz = size(lam)
    if dsz > n:
        raise ValueError("power-sum conversion needs degree <= variable count")
    done: list[tuple[SymPoly, dict, RatFuncQT]] = []
    target: SymPoly | None = None
    # ascending order: projections only ever hit already-built elements
    for nu in reversed(partitions_of(dsz)):
        if length(nu) > n:
            continue
        P = basis_poly("m", nu, n)
        for Pm, Pmp, norm2 in done:
            coef = _deformed_inner(to_power_sums(P), Pmp, alpha) / norm2
            P = P - Pm.scale_rf(coef)
        Pp = to_power_sums(P)
        done.append((P, Pp, _deformed_inner(Pp, Pp, alpha)))
        if nu == lam:
            target = P
    if target is None:
        raise MacHyperError(f"Gram-Schmidt never reached {lam}")
    scal = alpha ** (-dsz)
    for (i, j) in cells(lam):
        scal = scal * (alpha * arm(lam, i, j) + leg(lam, i, j) + 1)
    return target.scale_rf(rf(scal))


def check_classical_limit(k: int, cache: MacdonaldCache, max_size: int = 3,
                          mutate: bool = False) -> TheoremReport:
    """The t = q^k limit of every integral form of size <= max_size
    matches the Gram-Schmidt oracle at alpha = 1/k exactly."""
    n = max(max_size, 3)       # power-sum conversion needs degree <= n
    notes = [f"alpha = 1/{k}, sizes <= {max_size}, {n} variables"]
    bad = []
    for dsz in range(1, max_size + 1):
        for lam in partitions_of(dsz, n):
            lim = classical_limit_coeffs(lam, k, n, cache, mutate)
            if lim != jack_oracle(lam, k, n):
                bad.append(lam)
    if bad:
        shown = ", ".join(format_partition(m) for m in bad[:4])
        notes.append(f"limit disagrees with the oracle at {shown}")
    if mutate:
        notes.append("input perturbed by the scaled constant (mutation hook)")
    return TheoremReport(
        theorem="jack",
        n=n, D=max_size, params=HyperParams().to_json(),
        passed=not bad,
        trusted="exact limits (no truncation window)",
        residual_degrees=[size(m) for m in bad],
        notes=notes)


# ---------------------------------------------------------------------------
# the suite driver

def _resolve_selection(selection) -> tuple[str, ...]:
    sel = (selection,) if isinstance(selection, str) else tuple(selection)
    if "all" in sel:
        return SUITE_ORDER
    for name in sel:
        if name not in SUITE_ORDER:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{', '.join(SUITE_ORDER + ('all',))}")
    return sel


def _fits(mut: Partition | None, n: int, D: int) -> bool:
    return mut is not None and length(mut) <= n and size(mut) <= D


def _suite_series(n: int, D: int, params: HyperParams, mut: Partition | None,
                  flavor: str = "macdonald") -> TruncatedSeries:
    """The series a check runs on, mutated at `mut` when that fits."""
    ser = TruncatedSeries.build(n, D, params, flavor)
    return ser.mutate(mut) if _fits(mut, n, D) else ser


def run_suite(selection="all", n: int = 2, D: int = 4,
              seed: int = DEFAULT_SEED, draws: int = 3, *,
              cache: MacdonaldCache, mutate=None) -> list[TheoremReport]:
    """Run the selected identity checks over seeded parameter draws.

    Each (r, s) shape on the grid is drawn `draws` times; the draw
    stream depends only on (seed, n, D, draws), never on the selection,
    so narrowing the selection reproduces the same parameters.  `mutate`
    perturbs one series coefficient (and injects an off-diagonal term
    into the kernel check) to demonstrate detection power; a mutated run
    must fail.  A `mutate` partition that fits no series of the selected
    checks is refused (ValueError) before any check runs: one with more
    than D boxes, or with more parts than n, or than 1 when the univariate
    check, which runs the series in one variable, is the only one
    selected.  Otherwise one that does not fit that series leaves it
    alone.  Variable counts above 4 are refused: the operator routes
    symmetrize over n! terms.  Degrees above 8 and more than 10 draws are
    refused too: the work grows steeply with D (n = 3, D = 5 already takes
    minutes) and linearly with draws.
    """
    for name, value, cap in (("n", n, MAX_SUITE_VARS),
                             ("D", D, MAX_SUITE_DEGREE),
                             ("draws", draws, MAX_SUITE_DRAWS)):
        if value > cap:
            raise ResourceGuardError(
                f"verification suites are capped at {name} <= {cap}")
    if n < 1 or D < 1 or draws < 1:
        raise ValueError("need n >= 1, D >= 1, draws >= 1")
    names = _resolve_selection(selection)
    if "kaneko" in names and n < 2:
        raise ValueError("factored second-order check needs n >= 2")
    mut = make_partition(mutate) if mutate is not None else None
    widest = 1 if set(names) == {"univariate"} else n
    if mut is not None and not _fits(mut, widest, D):
        raise ValueError(f"mutated coefficient {format_partition(mut)} lies "
                         f"outside the series at n={widest}, D={D}")

    rng = random.Random(seed)
    combos: list[HyperParams] = []
    for (r, s) in PARAM_GRID:
        for _ in range(draws):
            combos.append(draw_hyper_params(rng, r, s, n, D))

    plain: dict[int, TruncatedSeries] = {}

    def at(i: int) -> TruncatedSeries:
        if i not in plain:
            plain[i] = _suite_series(n, D, combos[i], mut)
        return plain[i]

    every = range(len(combos))
    shape21 = [i for i, p in enumerate(combos) if (p.r, p.s) == (2, 1)]
    # each entry: (what it runs over, one check call); the check_* names
    # are looked up when called, not bound here
    runs = {
        "A": (every, lambda i: check_two_alphabet(at(i), cache)),
        "Aprime": (every, lambda i: check_two_alphabet(at(i), cache,
                                                       swapped=True)),
        "kernel": (every, lambda i: check_diagonal_match(at(i), cache,
                                                         cross=mut)),
        "B": (every, lambda i: check_stability(at(i), cache)),
        "C": (every, lambda i: check_single_alphabet(at(i), cache)),
        "kaneko": (shape21, lambda i: check_factored_form(at(i), cache)),
        "tilde": (every, lambda i: check_inverted_theorems(
            combos[i], _suite_series(n, D, mirror_params(combos[i]), mut),
            cache)),
        "univariate": (shape21, lambda i: check_single_variable(
            _suite_series(1, D, combos[i], mut, "kaneko"), cache)),
        "jack": ((1, 2, 3), lambda k: check_classical_limit(
            k, cache, 3, mutate=mut is not None)),
    }
    reports: list[TheoremReport] = []
    for name in names:
        domain, run = runs[name]
        reports.extend(run(x) for x in domain)
    return reports


def suite_passed(reports: list[TheoremReport]) -> bool:
    return all(r.passed for r in reports)
