"""Exception types shared across the package."""

from __future__ import annotations


class GridflexError(Exception):
    """Base class for all errors raised by this package."""


class CaseError(GridflexError):
    """A case file failed to parse or violated a model invariant.

    ``element`` identifies the offending bus, line, or generator when
    one can be named.
    """

    def __init__(self, message: str, element: object = None):
        self.element = element
        if element is not None:
            message = f"{message} (element: {element})"
        super().__init__(message)


class SingularNetworkError(GridflexError):
    """The reduced susceptance system is singular (disconnected network)."""


class LPSolverError(GridflexError):
    """The LP backend returned a status the caller cannot interpret."""


class InfeasibleSetError(GridflexError):
    """An operation requires a nonempty polytope but the set is empty,
    or the scheduled operating point violates a constraint row.

    ``rows`` lists the labels or indices of the violated rows when known.
    """

    def __init__(self, message: str, rows: tuple = ()):
        self.rows = tuple(rows)
        if rows:
            message = f"{message}: {', '.join(str(r) for r in rows)}"
        super().__init__(message)


class UnboundedSetError(GridflexError):
    """A polytope expected to be bounded has an unbounded direction."""


class ProjectionSizeError(GridflexError):
    """A projection would exceed the configured row budget: its hull has
    more facets than the cap, or an elimination step more rows.

    Raising instead of grinding on lets the caller retry with a coarser
    redundancy tolerance or a higher row cap.
    """
