"""Exception hierarchy. Every error carries a machine-readable ``code``."""


class CharvarError(Exception):
    code = "error"


class PresentationSyntaxError(CharvarError):
    code = "syntax-error"

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownGenerator(CharvarError):
    code = "unknown-generator"


class EmptyGeneratorList(CharvarError):
    code = "empty-generator-list"


class RelatorNotKilled(CharvarError):
    code = "relator-not-killed"

    def __init__(self, index):
        super().__init__(f"relator {index} does not map to zero")
        self.index = index


class NotSurjective(CharvarError):
    """Images generate a proper subgroup of Z^m, of lower rank or finite index."""

    code = "not-surjective"


class ZeroMap(CharvarError):
    code = "zero-map"


class VariableCountMismatch(CharvarError):
    code = "variable-count-mismatch"


class GenericNotEvaluable(CharvarError):
    code = "generic-not-evaluable"


class TooManyMinors(CharvarError):
    code = "too-many-minors"

    def __init__(self, count, ceiling):
        super().__init__(f"{count} minors exceeds ceiling {ceiling}")
        self.count = count
        self.ceiling = ceiling


class QuotientInvalid(CharvarError):
    code = "quotient-invalid"


class NotUnivariate(CharvarError):
    code = "not-univariate"


class WindowTooLarge(CharvarError):
    code = "window-too-large"

    def __init__(self, cells, ceiling):
        super().__init__(f"window needs {cells} cells, ceiling is {ceiling}")
        self.cells = cells
        self.ceiling = ceiling


class UnsupportedDegree(CharvarError):
    code = "unsupported-degree"


class GenusTooSmall(CharvarError):
    code = "genus-too-small"


class InternalInconsistency(CharvarError):
    """A computed result contradicts a theorem it must satisfy; no verdict
    resting on it may be reported."""

    code = "internal-inconsistency"
