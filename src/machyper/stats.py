"""Plain counters of the work the library does, read through snapshot().

It covers the field layer (ratfunc), the transfer store (series), the
columns of the compiled transfers and the operator column store (qops),
the Kaneko check's store of monomial images (verify) and the basis
builds and cache files (macdonald):

- gcd_calls: bivariate polynomial gcds (ratfunc._pgcd), shortcuts included;
- divisions_screened: trial divisions by a base element that the value
  screen rejected without dividing;
- divisions_certified: trial divisions that exact division confirmed;
- divisions_refused: trial divisions that passed the screen but that
  exact division refused;
- base_refinements: changes to the coprime base of denominator factors,
  an element added or an element split;
- factorizations: denominators the base factored by screening every
  element (misses of its memo of factorizations);
- factorizations_reused: denominators whose factorization the memo held;
- transfers_compiled: transfer sums (series.transfer_sum) compiled into
  a word sum (misses of the transfer store);
- transfers_reused: transfer sum applications that read their word sum
  from the store;
- transfer_columns_built: columns of a compiled word sum made (its image
  of one m_mu, qops.Compiled.column), one per lookup that found none;
- transfer_columns_reused: column lookups that found the column made;
- operator_columns_built: columns of a single operator kind built by the
  literal assembly (qops.column), one per miss of its store;
- factored_images_built: monomial inputs whose parameter-free images under
  the Kaneko check's literal operator were built (verify._factored_monomial),
  one per miss of its store;
- cache_files_rejected: basis cache files that exist but failed to parse
  or to pass the audit on reading (MacdonaldCache._load_disk), each then
  rebuilt; a missing file does not count;
- cache_files_read: basis cache files that passed parsing and the audit
  on reading (MacdonaldCache._load_disk);
- cache_files_written: basis cache files written (MacdonaldCache._store_disk);
- basis_built: basis elements built by the triangular solve
  (macdonald._build_P), whether a file was missing or rejected; an element
  at n > |lam| re-wrapped from the one at |lam| counts the build at |lam|;
- base_size: the number of elements the base holds now (a level, not a
  count, so reset() leaves it alone);
- operator_columns_held: the number of columns the store of qops.column
  holds now (a level).

The counters are module-level integers in a dict, so counting costs one
dict update.  A level is read through the function its module registers.
The command line's --stats flag writes snapshot() to stderr.
"""

from __future__ import annotations

from typing import Callable

COUNTS: dict[str, int] = dict.fromkeys(
    ("gcd_calls", "divisions_screened", "divisions_certified",
     "divisions_refused", "base_refinements", "factorizations",
     "factorizations_reused", "transfers_compiled", "transfers_reused",
     "transfer_columns_built", "transfer_columns_reused",
     "operator_columns_built", "factored_images_built",
     "cache_files_rejected", "cache_files_read", "cache_files_written",
     "basis_built"), 0)

LEVELS: dict[str, Callable[[], int]] = {}


def snapshot() -> dict[str, int]:
    """The counters since the last reset(), and the current levels."""
    return {**COUNTS, **{name: read() for name, read in LEVELS.items()}}


def reset() -> None:
    """Set every counter to zero; levels keep their values."""
    for name in COUNTS:
        COUNTS[name] = 0
