"""Exception hierarchy shared across the package."""


class StlogError(Exception):
    """Base class for all package errors."""


class StructuralError(StlogError):
    """Operands are structurally incompatible (variable counts, ranks)."""


class ParseError(StlogError):
    """Malformed arrangement or polynomial input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceBudgetError(StlogError):
    """A configured computation budget (S-pairs, degree) was exceeded."""


class CertificateError(StlogError):
    """An internal consistency certificate failed; indicates a kernel bug."""


class GenericityNotFoundError(StlogError):
    """No generic eta was found within the attempt budget."""


class NonGenericEtaError(StlogError):
    """The supplied eta gives an ideal of infinite colength."""
