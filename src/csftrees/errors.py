"""Error types shared across the package.

Everything domain-level raises GraphError (a ValueError), so callers and the
CLI can distinguish "your input is bad / out of range" (exit 1) from genuine
usage errors (argparse, exit 2) and from a failed internal check (exit 3).
"""


class GraphError(ValueError):
    """Malformed graph/spec input, precondition violation, or exceeded cap."""


class CapExceededError(GraphError):
    """Input is well-formed but larger than a documented size cap."""


class InternalError(RuntimeError):
    """An invariant the package relies on failed: a bug, not bad input.

    Raised by explicit checks (never by ``assert``, which ``python -O``
    strips); deliberately not a GraphError, so no caller mistakes it for a
    rejected input."""
