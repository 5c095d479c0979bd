"""Exception types shared across the package.

Parsing problems and violated call contracts are ValueErrors so that
casual callers can catch them uniformly; runtime failures of iterative
procedures get their own RuntimeError subclasses because they usually
mean "try a different seed or configuration", not "fix your arguments".
"""


class FormatError(ValueError):
    """A file did not parse; the message carries the offending line number."""


class ShapeError(ValueError):
    """Array dimensions disagree with what the operation requires."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ExpanderGapError(RuntimeError):
    """No certified expander found within the retry budget."""

    def __init__(self, msg: str, best_gap: float):
        super().__init__(msg)
        self.best_gap = best_gap


class ConvergenceError(RuntimeError):
    """An iterative solver stopped without meeting its tolerance."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, msg: str, epoch: int = -1):
        super().__init__(msg)
        self.epoch = epoch
