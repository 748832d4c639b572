"""Exception types shared across the package."""


class CommspecError(Exception):
    """Base class for every error raised by this package.

    ``exit_code`` is what the CLI returns for it: 1 for a domain or
    computational error, 2 for a usage or parse error.
    """

    exit_code = 1


class AxiomViolation(CommspecError):
    """A multiplication table fails a group axiom.

    ``axiom`` is one of ``"identity"``, ``"inverse"``, ``"associativity"``.
    """

    def __init__(self, axiom: str, message: str):
        super().__init__(f"{axiom} axiom violated: {message}")
        self.axiom = axiom


class IndexOutOfRange(CommspecError):
    """A table entry or element index is outside 0..n-1."""


class AbelianGroupError(CommspecError):
    """The operation is only defined for non-abelian groups."""


class ParameterOutOfRange(CommspecError):
    """A family parameter is outside its allowed range."""

    exit_code = 2


class NotPrimeError(CommspecError):
    """A parameter that must be prime is not."""

    exit_code = 2


class UnsupportedFamilyError(CommspecError):
    """No closed-form spectrum is implemented for this family."""

    exit_code = 2


class NotSymmetricError(CommspecError):
    """The matrix is not symmetric."""


class NonzeroDiagonalError(CommspecError):
    """The matrix has a nonzero diagonal entry."""


class NotMonicError(CommspecError):
    """The polynomial is not monic."""


class SpectralCheckError(CommspecError):
    """A characteristic polynomial disagrees with an independent determinant."""


class BudgetExceeded(CommspecError):
    """An exact computation is past the size its stated budget admits."""


class ParseError(CommspecError):
    """Malformed group spec string or Cayley-table text."""

    exit_code = 2
