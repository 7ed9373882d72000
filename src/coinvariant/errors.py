"""Exception types shared across the engine.

Every arithmetic shortcut in this package rests on an exactness theorem
(polynomial quotients that must be polynomials, class sums that must clear
n!).  When one of these fails it signals a bug in a table or a convention,
never a recoverable condition, so the errors below are loud and specific.
"""


class NonExactDivision(ArithmeticError):
    """A polynomial division by 1 - q^k left a remainder."""


class NonIntegral(ArithmeticError):
    """A quotient involving n! that must be an integer was not: a class sum
    that must be a multiple of n!, or n! over a hook product or a
    centralizer size."""


class LimitExceeded(ValueError):
    """The command line was asked for a table above its size cap; the
    library itself has no caps."""
