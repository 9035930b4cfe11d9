"""Exception taxonomy for the LAGO engine.

Validation problems (bad shapes, impossible configs) raise plain ValueError,
some through the shared checks here; the classes here mark *numerical*
conditions a caller may want to catch and handle (fall through to another
algorithm branch, count a failed replicate, map to a CLI exit code).
"""

import contextlib

import numpy as np


def _check_count(name: str, value, minimum: int) -> None:
    """``value`` is an integer (not a bool, never truncated) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@contextlib.contextmanager
def config_errors(what: str):
    """Re-raise the KeyError/TypeError/AttributeError of a malformed config
    document (a missing field, an unknown one, a list or null where an
    object belongs) as ValueError naming the document, so bad input at every
    config boundary fails the same way."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what} is missing required field {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{what} is malformed: {exc}") from None


class LagoError(Exception):
    """Base class for all numerical/stateful failures raised by this package."""


class SeparationError(LagoError):
    """Logistic fit diverged: some coefficient walked past the compactness cap."""


class RankDeficientError(LagoError):
    """Design matrix has linearly dependent columns; coefficients not identifiable."""


class NonFiniteError(LagoError):
    """A non-finite value appeared in the data or during iteration."""


class InfeasibleError(LagoError):
    """The constrained problem has no solution inside the component bounds."""


class NoThresholdError(LagoError):
    """No outcome level inside the feasible range satisfies the power constraint."""


class OutOfOrderStageError(LagoError):
    """Stage records must be ingested contiguously, starting at stage 1."""


class DegenerateVarianceError(LagoError):
    """A variance estimate needed in a test denominator is zero."""


class SingularCovarianceError(LagoError):
    """The coefficient covariance (sub)matrix cannot be inverted."""
