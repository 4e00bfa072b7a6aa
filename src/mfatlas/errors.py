"""Typed errors shared across the package.

Precondition violations raise subclasses of PreconditionError so the CLI can
map them to exit code 2 (invalid input) while genuine verification failures
map to exit code 1.
"""


class MFError(Exception):
    """Base class for package errors."""


class PreconditionError(MFError):
    """Input violates a documented precondition."""


class AlgebraMismatchError(PreconditionError):
    """Elements from different algebras were mixed."""


class UnsupportedElementError(PreconditionError):
    """Semisimple part has an eigenvalue outside Q(i); no algebraic
    extensions are performed."""


class InfiniteFamilyError(PreconditionError):
    """The element is not regular, so invariant flags form infinite
    families and enumeration is refused."""


class MembershipError(PreconditionError):
    """An element is not in the subspace the operation requires."""


class NotNilpotentError(PreconditionError):
    """Operation requires a nilpotent shift element."""


class RegularityError(PreconditionError):
    """Operation requires a regular element."""


class CertificationError(MFError):
    """An exact certificate the construction relies on failed to hold."""

