"""Exception types shared across the package."""

from __future__ import annotations


class UdbError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(UdbError):
    """Raised when formula text cannot be parsed.

    Carries the character offset of the offending token and the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class UnboundVariable(UdbError):
    """Raised when a formula is evaluated under an assignment missing a variable."""

    def __init__(self, name: str):
        super().__init__(f"no value assigned to variable {name!r}")
        self.name = name


class ExpansionTooLarge(UdbError):
    """Raised when an operation would enumerate more assignments than the cap allows."""

    def __init__(self, num_vars: int, cap: int):
        super().__init__(f"expansion over {num_vars} variables exceeds cap of {cap}")
        self.num_vars = num_vars
        self.cap = cap


class ValidationError(UdbError):
    """Raised when an input value violates a structural invariant."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class EmptyIntegration(UdbError):
    """Raised when two sources admit no compatible pair of worlds."""

    def __init__(self, culprit: str):
        text = f"the sources contradict each other: their worlds 0 differ on the tuple {culprit}"
        super().__init__(f"no pair of worlds is compatible; {text}")


class ProbConstraintViolation(UdbError):
    """Raised when source probabilities break the balance required for integration.

    ``failures`` holds the ComponentSummary of every unbalanced component,
    each naming its violation.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        lines = [c.violation for c in self.failures]
        super().__init__("; ".join(lines) if lines else "probabilistic constraints violated")


class NotIntegrated(UdbError):
    """Raised when a relation cannot be recognized as the result of an integration."""


class NoValidAssignment(UdbError):
    """Raised when event constraints rule out every truth assignment."""

    def __init__(self):
        super().__init__("event constraints admit no valid assignment")


class MissingVarProb(UdbError):
    """Raised when an operation needs variable probabilities that were not supplied."""

    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__("missing probabilities for variables: " + ", ".join(self.names))
