"""Error taxonomy shared across the package.

Every failure mode that integrations and transforms can hit maps to one of
these exception types, so callers (and the command line front end) can react
by kind instead of parsing messages.  Once a run is stepping, integrate()
catches the ones that end it and returns the partial trajectory instead,
with the kind as its termination and the message as its reason; a stepper
that fails is one more termination, 'step_failure', not an exception.
"""


class JacobiFlowError(Exception):
    """Base class for all package errors."""


class DomainViolation(JacobiFlowError):
    """A chart point fell outside the metric's guarded domain."""


class SingularMatrix(JacobiFlowError):
    """A metric (or other matrix) failed the conditioning check for inversion."""


class TurningPoint(JacobiFlowError):
    """The conformal factor degenerated: the energy hit the potential."""


class EmptyTrajectory(JacobiFlowError):
    """A trajectory with fewer than two states was passed to a comparator."""


class PoleAtZeroDenominator(JacobiFlowError):
    """A closed-form expression was evaluated exactly at its pole."""
