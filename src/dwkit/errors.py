"""Exception types shared across the package.

"No solution" outcomes of the exact solvers are verdicts, not faults; they
are signalled by ``None`` returns, never by exceptions.  The classes here
cover genuine input or budget faults.
"""


class NotAGroup(ValueError):
    """The multiplication table fails a group axiom."""

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        msg = reason if witness is None else f"{reason} (witness: {witness})"
        super().__init__(msg)


class UnknownBuiltin(ValueError):
    """Unrecognized builtin group name."""


class UnknownFamily(ValueError):
    """Unrecognized catalog cocycle family."""


class NotACocycle(ValueError):
    """A cochain required to be closed has a nonzero coboundary."""


class NonCommuting(ValueError):
    """A tuple required to commute pairwise does not."""

    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"elements {a} and {b} do not commute")


class DegreeMismatch(ValueError):
    """Chain and cochain degrees (or groups) disagree."""


class BudgetExceeded(RuntimeError):
    """A computation would exceed the configured size budget."""

    def __init__(self, what, size, budget):
        self.what = what
        self.size = size
        self.budget = budget
        super().__init__(f"{what}: size {size} exceeds budget {budget}")


class NotGaugeInvariant(ValueError):
    """An integrand is not constant on isomorphism classes."""

    def __init__(self, morphism):
        self.morphism = morphism
        super().__init__(f"integrand differs across morphism {morphism}")


class InvalidCocycle(ValueError):
    """A non-abelian 2-cocycle relation fails."""


class SectionNotValid(ValueError):
    """A set-theoretic section does not split the quotient map."""


class NotABoundaryPair(ValueError):
    """(omega', theta) fail the boundary-pair equations."""


class IncompatiblePhases(ValueError):
    """Symmetry phase data fails its defining coboundary equation or
    normalization."""


class VerificationFailed(RuntimeError):
    """An exact self-check of a computed result failed (an internal fault)."""
