"""Exact hypergeometric series in the Macdonald basis over Q(q, t).

Everything is computed in exact rational-function arithmetic; the verify
module replays the defining recursions and operator identities with zero
tolerance.
"""

from .errors import (GcdInterpolationError, InexactDivisionError, LimitError,
                     MacHyperError, NotSymmetricError, PoleError,
                     ResourceGuardError)
from .ratfunc import ONE, Q, T, ZERO, RatFuncQT, rf
from .partitions import (enumerate_partitions, format_partition,
                         make_partition, parse_partition)
from .sympoly import BiSymPoly, SymPoly
from .macdonald import MacdonaldCache, macdonald_P, macdonald_forms
from .series import HyperParams, TruncatedSeries
from .verify import TheoremReport, run_suite, suite_passed
from .cli import main, parse_param_expr

__version__ = "0.1.0"

__all__ = [
    "BiSymPoly",
    "GcdInterpolationError",
    "HyperParams",
    "InexactDivisionError",
    "LimitError",
    "MacHyperError",
    "MacdonaldCache",
    "NotSymmetricError",
    "ONE",
    "PoleError",
    "Q",
    "RatFuncQT",
    "ResourceGuardError",
    "SymPoly",
    "T",
    "TheoremReport",
    "TruncatedSeries",
    "ZERO",
    "enumerate_partitions",
    "format_partition",
    "macdonald_P",
    "macdonald_forms",
    "main",
    "make_partition",
    "parse_param_expr",
    "parse_partition",
    "rf",
    "run_suite",
    "suite_passed",
]
