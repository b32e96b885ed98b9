"""Command-line front end.

Computes single objects, dumps tables, runs the verification suites, and
manages the on-disk polynomial cache.  Exit codes: 0 success (all selected
checks pass), 1 verification failure, 2 usage error (bad flags, expressions,
or partitions, division by zero in an expression, a negative level, --n
below 1 or --max-size below 0), 3 resource guard (a request beyond MAX_N,
MAX_D, MAX_SIZE, MAX_LEVEL or MAX_EXPONENT, or beyond a library guard), 4
parameter pole, 5 internal error (a broken invariant, a division by zero
inside the library or any other exception that escapes a command, never
a failed check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import stats
from .errors import MacHyperError, PoleError, ResourceGuardError
from .macdonald import (MacdonaldCache, binomial_raising_closed,
                        macdonald_forms)
from .partitions import (enumerate_partitions, format_partition,
                         parse_partition, size, upper_covers)
from .ratfunc import Q, RatFuncQT, T, rf
from .series import (FLAVORS, HyperParams, TruncatedSeries, eigen_value_lower,
                     eigen_value_raise)
from .verify import DEFAULT_SEED, SUITE_ORDER, run_suite, suite_passed

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_POLE = 4
EXIT_INTERNAL = 5

# Resource guards: compute, table and cache warm refuse larger requests
# before any work starts.  Operator assembly grows like n! in the number of
# variables, basis builds grow steeply with the partition size, and a
# parameter power is expanded in full, and so is an eigenvalue's u-series up
# to its level.
MAX_N = 7
MAX_D = 12
MAX_SIZE = 10
MAX_LEVEL = 12
MAX_EXPONENT = 100

# the cache directory when --dir is not given
CACHE_ENV_VAR = "MACHYPER_CACHE_DIR"


class UsageError(ValueError):
    """Bad command-line input that argparse cannot express."""


# ---------------------------------------------------------------------------
# parameter expressions

class ParamExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class ParamZeroDivisionError(ParamExprError, ZeroDivisionError):
    """Division by an expression that reduces to the zero polynomial: bad
    input (exit 2), unlike a ZeroDivisionError from inside the library."""


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
        elif ch in "qt":
            toks.append(("sym", ch, i))
            i += 1
        elif ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
        else:
            raise ParamExprError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


def parse_param_expr(text: str) -> RatFuncQT:
    """Exact parse of an expression over the rational-function field.

    Grammar: integers, the symbols ``q`` and ``t``, binary ``+ - * /``,
    integer exponents via ``^`` (optionally negative or parenthesized),
    and parentheses.  Raises ParamExprError with the offending position on
    a syntax error, ParamZeroDivisionError (a ParamExprError and a
    ZeroDivisionError) on division by an expression that reduces to the
    zero polynomial, and ResourceGuardError on an exponent beyond
    MAX_EXPONENT in absolute value.
    """
    toks = _tokenize(text)
    pos = 0

    def peek() -> tuple[str, str, int]:
        return toks[pos]

    def take(kind: str) -> tuple[str, str, int]:
        nonlocal pos
        tok = toks[pos]
        if tok[0] != kind:
            found = tok[1] if tok[0] != "end" else "end of input"
            raise ParamExprError(f"expected {kind!r}, found {found!r}", tok[2])
        pos += 1
        return tok

    def parse_expr() -> RatFuncQT:
        val = parse_term()
        while peek()[0] in ("+", "-"):
            op = take(peek()[0])
            rhs = parse_term()
            val = val + rhs if op[0] == "+" else val - rhs
        return val

    def parse_term() -> RatFuncQT:
        val = parse_factor()
        while peek()[0] in ("*", "/"):
            op = take(peek()[0])
            rhs = parse_factor()
            if op[0] == "*":
                val = val * rhs
            else:
                if rhs.is_zero():
                    raise ParamZeroDivisionError(
                        "division by the zero polynomial", op[2])
                val = val / rhs
        return val

    def parse_factor() -> RatFuncQT:
        tok = peek()
        if tok[0] == "+":
            take("+")
            return parse_factor()
        if tok[0] == "-":
            take("-")
            return -parse_factor()
        return parse_power()

    def parse_power() -> RatFuncQT:
        base = parse_atom()
        if peek()[0] == "^":
            op = take("^")
            e = parse_exponent()
            if abs(e) > MAX_EXPONENT:
                raise ResourceGuardError(
                    f"exponent {e} at position {op[2]} exceeds the limit of "
                    f"{MAX_EXPONENT} in absolute value")
            if e < 0 and base.is_zero():
                raise ParamZeroDivisionError(
                    "negative power of the zero polynomial", op[2])
            base = base ** e
        return base

    def parse_exponent() -> int:
        neg = False
        if peek()[0] == "(":
            take("(")
            if peek()[0] == "-":
                take("-")
                neg = True
            tok = take("int")
            take(")")
        else:
            if peek()[0] == "-":
                take("-")
                neg = True
            tok = take("int")
        e = int(tok[1])
        return -e if neg else e

    def parse_atom() -> RatFuncQT:
        tok = peek()
        if tok[0] == "int":
            take("int")
            return rf(int(tok[1]))
        if tok[0] == "sym":
            take("sym")
            return Q if tok[1] == "q" else T
        if tok[0] == "(":
            take("(")
            val = parse_expr()
            take(")")
            return val
        found = tok[1] if tok[0] != "end" else "end of input"
        raise ParamExprError(f"expected a value, found {found!r}", tok[2])

    val = parse_expr()
    tail = peek()
    if tail[0] != "end":
        raise ParamExprError(f"trailing input {tail[1]!r}", tail[2])
    return val


# ---------------------------------------------------------------------------
# shared helpers

def _dumps(payload) -> str:
    # fixed separators and key order keep the bytes reproducible
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _cache_from_args(args) -> MacdonaldCache:
    """The cache at --dir, else at MACHYPER_CACHE_DIR, else memory-only."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR) or None
    return MacdonaldCache(cache_dir)


def _params_from_args(args) -> HyperParams:
    ups = tuple(parse_param_expr(s) for s in (args.a or ()))
    lows = tuple(parse_param_expr(s) for s in (args.b or ()))
    if args.r is not None and args.r != len(ups):
        raise UsageError(f"--r {args.r} disagrees with {len(ups)} --a flags")
    if args.s is not None and args.s != len(lows):
        raise UsageError(f"--s {args.s} disagrees with {len(lows)} --b flags")
    return HyperParams.make(ups, lows)


def _parse_mutate(text: str):
    s = text.strip()
    if s.startswith("C"):
        s = s[1:]
    return parse_partition(s)


def _guard(args, *names) -> None:
    """Raise UsageError for a size flag below its minimum and
    ResourceGuardError for a flag beyond its bound; a flag left unset
    (None) is within both."""
    limits = {"n": MAX_N, "D": MAX_D, "max_size": MAX_SIZE, "level": MAX_LEVEL}
    minimums = {"n": 1, "D": 0, "max_size": 0}
    for name in names:
        value = getattr(args, name)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if name in minimums and value < minimums[name]:
            raise UsageError(
                f"{flag} {value} is below the minimum of {minimums[name]}")
        if value > limits[name]:
            raise ResourceGuardError(
                f"{flag} {value} exceeds the limit of {limits[name]}")


# the object-specific flags of compute (all None unless given), and the
# objects that read each
_COMPUTE_FLAGS = {"partition": ("P", "J", "Jstar", "eigen"),
                  "upper": ("binomial",), "lower": ("binomial",),
                  "a": ("series",), "b": ("series",),
                  "r": ("series",), "s": ("series",),
                  "D": ("series",), "flavor": ("series",),
                  "level": ("eigen",), "direction": ("eigen",)}

# the values of the object-specific flags that have a default, filled in
# for the objects that read them
_COMPUTE_DEFAULTS = {"D": 4, "flavor": "macdonald", "level": 1,
                     "direction": "raise"}


def _refuse_unread(args, choice, flags, defaults) -> None:
    """Raise UsageError for a flag given for a choice (compute's object,
    cache's action) that does not read it, as flags says; then fill in the
    defaults of the flags the choice reads and was not given."""
    for name, choices in flags.items():
        if getattr(args, name) is not None and choice not in choices:
            raise UsageError(f"--{name.replace('_', '-')} is not used by "
                             f"{args.command} {choice}")
    for name, value in defaults.items():
        if getattr(args, name) is None and choice in flags[name]:
            setattr(args, name, value)


def _need(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name} is required for this object")


# ---------------------------------------------------------------------------
# commands

def cmd_compute(args) -> int:
    _refuse_unread(args, args.object, _COMPUTE_FLAGS, _COMPUTE_DEFAULTS)
    _guard(args, "n", "D")
    cache = _cache_from_args(args)
    obj = args.object
    if obj in ("P", "J", "Jstar"):
        _need(args, "partition")
        lam = parse_partition(args.partition)
        if size(lam) > MAX_SIZE:
            raise ResourceGuardError(
                f"--partition {format_partition(lam)} has {size(lam)} boxes, "
                f"beyond the limit of {MAX_SIZE}")
        forms = macdonald_forms(lam, args.n, cache)
        poly = getattr(forms, obj)
        if args.format == "json":
            print(_dumps({"object": obj, "partition": list(lam), "n": args.n,
                          "value": poly.to_json()}))
        else:
            print(f"{obj}{format_partition(lam)} (n={args.n}) = {poly.render()}")
    elif obj == "binomial":
        _need(args, "upper", "lower")
        upper = parse_partition(args.upper)
        lower = parse_partition(args.lower)
        val = binomial_raising_closed(upper, lower, args.n)
        if args.format == "json":
            print(_dumps({"object": obj, "upper": list(upper),
                          "lower": list(lower), "n": args.n,
                          "value": val.render()}))
        else:
            print(f"binomial {format_partition(upper)} over "
                  f"{format_partition(lower)} (n={args.n}) = {val.render()}")
    elif obj == "series":
        params = _params_from_args(args)
        ser = TruncatedSeries.build(args.n, args.D, params, flavor=args.flavor)
        if args.format == "json":
            print(_dumps(ser.to_json()))
        else:
            print(f"series r={params.r} s={params.s} n={args.n} D={args.D} "
                  f"flavor={args.flavor}")
            for lam in enumerate_partitions(args.D, args.n):
                print(f"  C{format_partition(lam)} = {ser.coeffs[lam].render()}")
    elif obj == "eigen":
        _guard(args, "level")
        _need(args, "partition")
        lam = parse_partition(args.partition)
        fn = eigen_value_raise if args.direction == "raise" else eigen_value_lower
        val = fn(args.level, lam, args.n)
        if args.format == "json":
            print(_dumps({"object": obj, "direction": args.direction,
                          "level": args.level, "partition": list(lam),
                          "n": args.n, "value": val.render()}))
        else:
            print(f"eigen {args.direction} l={args.level} at "
                  f"{format_partition(lam)} (n={args.n}) = {val.render()}")
    return EXIT_PASS


def cmd_table(args) -> int:
    _guard(args, "n", "max_size")
    cache = _cache_from_args(args)
    rows = []
    if args.object in ("P", "J", "Jstar"):
        for lam in enumerate_partitions(args.max_size, args.n):
            forms = macdonald_forms(lam, args.n, cache)
            poly = getattr(forms, args.object)
            rows.append((lam, poly))
        if args.format == "json":
            print(_dumps([{"partition": list(lam), "value": p.to_json()}
                          for lam, p in rows]))
        else:
            for lam, p in rows:
                print(f"{args.object}{format_partition(lam)} = {p.render()}")
    else:  # binomial: the covers whose upper has at most max_size boxes
        lowers = (enumerate_partitions(args.max_size - 1, args.n)
                  if args.max_size else [])
        for mu in lowers:
            for cv in upper_covers(mu, args.n):
                val = binomial_raising_closed(cv.upper, mu, args.n)
                rows.append((cv.upper, mu, val))
        if args.format == "json":
            print(_dumps([{"upper": list(up), "lower": list(mu),
                           "value": v.render()} for up, mu, v in rows]))
        else:
            for up, mu, v in rows:
                print(f"binomial {format_partition(up)} over "
                      f"{format_partition(mu)} = {v.render()}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    mutate = _parse_mutate(args.mutate) if args.mutate else None
    reports = run_suite(args.selection, n=args.n, D=args.D, seed=args.seed,
                        draws=args.draws, cache=_cache_from_args(args),
                        mutate=mutate)
    ok = suite_passed(reports)
    if args.format == "json":
        print(_dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(r.render_text())
        npass = sum(1 for r in reports if r.passed)
        print(f"{'PASS' if ok else 'FAIL'}: {npass}/{len(reports)} checks passed")
    return EXIT_PASS if ok else EXIT_VERIFY_FAIL


def cmd_cache(args) -> int:
    _refuse_unread(args, args.action, {"n": ("warm",), "max_size": ("warm",)},
                   {"n": 2, "max_size": 4})
    cache = _cache_from_args(args)
    if args.action == "dir":
        print(cache.cache_dir or "(memory only)")
    elif args.action == "list":
        for name in cache.list_disk():
            print(name)
    elif args.action == "clear":
        if not cache.cache_dir:
            raise UsageError("no cache directory configured "
                             "(set MACHYPER_CACHE_DIR or pass --dir)")
        print(f"removed {cache.clear_disk()} cache files")
    else:  # warm
        _guard(args, "n", "max_size")
        if not cache.cache_dir:
            raise UsageError("no cache directory configured "
                             "(set MACHYPER_CACHE_DIR or pass --dir)")
        count = 0
        for lam in enumerate_partitions(args.max_size, args.n):
            cache.get_P(lam, args.n)
            count += 1
        print(f"cached {count} entries under {cache.cache_dir}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="machyper",
        description="Exact Macdonald-basis hypergeometric series toolkit.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, cache_only=False):
        p.add_argument("--dir", dest="cache_dir", default=None,
                       help="cache directory (overrides MACHYPER_CACHE_DIR)")
        p.add_argument("--stats", action="store_true",
                       help="write the library's work counters (machyper.stats) "
                            "to stderr as one JSON line")
        if not cache_only:
            p.add_argument("--format", choices=("text", "json"),
                           default="text")

    com = sub.add_parser("compute", help="compute a single object")
    com.add_argument("object",
                     choices=("P", "J", "Jstar", "binomial", "series", "eigen"))
    com.add_argument("--partition", help="partition, e.g. [2,1]")
    com.add_argument("--upper", help="upper partition of a cover pair")
    com.add_argument("--lower", help="lower partition of a cover pair")
    com.add_argument("--n", type=int, default=2, help="number of variables")
    com.add_argument("--D", type=int, default=None,
                     help="truncation degree of a series (default 4)")
    com.add_argument("--r", type=int, default=None,
                     help="expected count of --a flags (consistency check)")
    com.add_argument("--s", type=int, default=None,
                     help="expected count of --b flags (consistency check)")
    com.add_argument("--a", action="append", metavar="EXPR",
                     help="numerator parameter (repeatable)")
    com.add_argument("--b", action="append", metavar="EXPR",
                     help="denominator parameter (repeatable)")
    com.add_argument("--flavor", choices=FLAVORS, default=None,
                     help="series flavor (default macdonald)")
    com.add_argument("--level", type=int, default=None,
                     help="eigen operator level l (default 1)")
    com.add_argument("--direction", choices=("raise", "lower"), default=None,
                     help="eigen operator direction (default raise)")
    common(com)
    com.set_defaults(func=cmd_compute)

    tab = sub.add_parser("table", help="dump a table of objects")
    tab.add_argument("object", choices=("P", "J", "Jstar", "binomial"))
    tab.add_argument("--n", type=int, default=2)
    tab.add_argument("--max-size", type=int, default=4, dest="max_size")
    common(tab)
    tab.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("selection", nargs="?", default="all",
                     choices=SUITE_ORDER + ("all",))
    ver.add_argument("--n", type=int, default=2)
    ver.add_argument("--D", type=int, default=4)
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--draws", type=int, default=3)
    ver.add_argument("--mutate", default=None, metavar="C[LAM]",
                     help="perturb one series coefficient, e.g. C[1]")
    common(ver)
    ver.set_defaults(func=cmd_verify)

    cac = sub.add_parser("cache", help="manage the polynomial cache")
    cac.add_argument("action", choices=("dir", "list", "clear", "warm"))
    cac.add_argument("--n", type=int, default=None)
    cac.add_argument("--max-size", type=int, default=None, dest="max_size")
    common(cac, cache_only=True)
    cac.set_defaults(func=cmd_cache)

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    if args.stats:
        stats.reset()
    try:
        return args.func(args)
    except ResourceGuardError as exc:
        print(f"machyper: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PoleError as exc:
        print(f"machyper: parameter pole: {exc}", file=sys.stderr)
        return EXIT_POLE
    except (UsageError, ParamExprError, ValueError) as exc:
        print(f"machyper: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MacHyperError, ZeroDivisionError) as exc:
        print(f"machyper: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # any other escape is a bug, and must not read as a failed check
        print(f"machyper: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if args.stats:
            print(json.dumps(stats.snapshot(), sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
