"""Exception hierarchy shared by all hornitp modules."""


class HornitpError(Exception):
    """Base class for all errors raised by this package."""


class SortMismatch(HornitpError):
    """A term of one sort was used where the other sort is required."""


class CubeLimitExceeded(HornitpError):
    def __init__(self, limit):
        super().__init__(f"DNF conversion would exceed {limit} cubes")
        self.limit = limit


class ExpansionLimitExceeded(HornitpError):
    def __init__(self, limit):
        super().__init__(f"derivation expansion exceeded the budget of {limit} nodes")
        self.limit = limit


class PathLimitExceeded(HornitpError):
    def __init__(self, limit):
        super().__init__(f"DAG path enumeration exceeded the budget of {limit} paths")
        self.limit = limit


class SubsetLimitExceeded(HornitpError):
    def __init__(self, limit):
        super().__init__(f"tree-like subset enumeration exceeded the budget of {limit}")
        self.limit = limit


class UnknownResult(HornitpError):
    """Integer branching depth was exhausted without a definite answer."""


class NotUnsat(HornitpError):
    """An interpolation problem turned out to be satisfiable.

    Carries a witnessing model (variable assignment) so callers can report
    counterexamples.
    """

    def __init__(self, model, detail=""):
        super().__init__(detail or "conjunction is satisfiable, no interpolant exists")
        self.model = model


class RecursiveSystem(HornitpError):
    def __init__(self, cycle):
        names = " -> ".join(s.name for s in cycle)
        super().__init__(f"clause set is recursive (dependence cycle: {names})")
        self.cycle = cycle


class WrongFragment(HornitpError):
    """Clause set does not belong to the fragment required by an encoding."""


class NotLinear(WrongFragment):
    pass


class MissingSymbol(HornitpError):
    def __init__(self, symbol):
        super().__init__(f"solution does not assign relation symbol {symbol.name}")
        self.symbol = symbol


class SolverInternalError(HornitpError):
    """A mandatory internal verification gate rejected a computed result."""


class ParseError(HornitpError):
    def __init__(self, message, line=None, col=None):
        loc = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"parse error{loc}: {message}")
        self.line = line
        self.col = col


class SortError(ParseError):
    pass


class UndeclaredSymbol(ParseError):
    pass


class BackendError(HornitpError):
    """The external interpolation backend misbehaved (protocol, exit, timeout)."""


class VerificationFailed(HornitpError):
    """A backend answer was rejected by the local interpolant checks."""
