"""Exception types shared across the package."""


class MacHyperError(Exception):
    """Base class for all machyper errors."""


class PoleError(MacHyperError):
    """A parameter specialization hits a zero of a lower Pochhammer factor."""


class ResourceGuardError(MacHyperError):
    """A request exceeds the hard feasibility guards (e.g. too many variables)."""


class LimitError(MacHyperError):
    """A q -> 1 limit does not exist at the requested scaling order."""


class InexactDivisionError(MacHyperError):
    """An exact polynomial division left a remainder.

    Raised where exactness is a structural guarantee; seeing this means an
    implementation bug, not bad user input.
    """


class GcdInterpolationError(MacHyperError):
    """The bivariate gcd found no certified candidate within its budget of
    evaluation points; like InexactDivisionError, an implementation bug."""


class NotSymmetricError(MacHyperError):
    """A raw polynomial expected to be symmetric is not."""
