"""Dense univariate polynomials over the integers, plus q-analog helpers
([n]_q! and products of 1 - q^k) and the sequence predicates
``symmetric_about`` and ``is_unimodal``.
Nothing here knows about partitions: the q-hook fake degree is in ``graded``.

Coefficients are Python ints, so all arithmetic is arbitrary precision and
exact.  The zero polynomial is the empty coefficient tuple.  ``IntPoly``
has only what the engine and its audits use: the one division, padded
coefficients, equality and the printed form.

Every quotient by products of 1 - q^k is one recurrence, q_j = p_j +
q_(j-k), in ``series_quotient``: the power series of the graded
characters, and the one polynomial division, by 1 - q^k
(``divide_one_minus_q_power``), the only divisor the engine's quotients
of prod_{i<=n} (1 - q^i) need; a remainder raises ``NonExactDivision``.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Iterable, Sequence

from .errors import NonExactDivision


class IntPoly:
    """Immutable integer polynomial, coefficients indexed from degree 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def padded(self, length: int) -> tuple[int, ...]:
        """Coefficients padded with zeros up to ``length`` entries."""
        if len(self.coeffs) > length:
            raise ValueError(f"polynomial does not fit in {length} coefficients")
        return self.coeffs + (0,) * (length - len(self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    # -- arithmetic ---------------------------------------------------------

    def divide_one_minus_q_power(self, k: int) -> "IntPoly":
        """Quotient q with q*(1 - q^k) == self exactly; NonExactDivision
        otherwise, ValueError for k < 1.

        The power series quotient to deg(p) + 1 terms (``series_quotient``).
        Its top k values are the coefficients the quotient would need above
        degree deg(p) - k; since the quotient in Z[q] is unique, it exists
        exactly when they are all zero.
        """
        if k < 1:
            raise ValueError(f"1 - q^k needs k >= 1, got {k}")
        out = series_quotient(self.coeffs, (k,), len(self.coeffs))
        if any(out[-k:]):
            raise NonExactDivision(f"nonzero remainder dividing by 1 - q^{k}")
        return IntPoly(out[:-k])

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        """Canonical report form: ``1 + 2*q + 2*q^2 + q^3`` (ascending)."""
        if not self.coeffs:
            return "0"
        pieces: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "q" if k == 1 else f"q^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


ONE = IntPoly((1,))


def series_quotient(coeffs: Sequence[int], parts: Iterable[int], length: int) -> list[int]:
    """The first ``length`` coefficients of the power series
    coeffs / prod over parts p of (1 - q^p)."""
    out = list(coeffs[:length])
    for p in parts:
        for j in range(p, length):
            out[j] += out[j - p]
    return out


def _times_q_int(coeffs: list[int], k: int) -> list[int]:
    """coeffs times [k]_q: each output coefficient is the sum of a window
    of k inputs, a difference of two prefix sums."""
    prefix = [0, *accumulate(coeffs + [0] * (k - 1))]
    return list(map(sub, prefix[1:], [0] * (k - 1) + prefix[: len(coeffs)]))


def _times_one_minus_q_power(coeffs: list[int], k: int) -> list[int]:
    """coeffs times 1 - q^k: one shift-subtract pass."""
    out = coeffs + [0] * k
    for j, c in enumerate(coeffs):
        out[j + k] -= c
    return out


_Q_FACTORIALS = {0: ONE}
_ONE_MINUS_Q_PRODUCTS = {0: ONE}


def _product_up_to(n: int, held: dict[int, IntPoly], times) -> IntPoly:
    """The product of factors 1 .. n (ONE for n <= 0), built in one loop
    from the product ``held`` keeps for the largest n' <= n, ``times``
    multiplying by each further factor; every product on the way is kept."""
    start = n = max(n, 0)
    while start not in held:
        start -= 1
    coeffs = list(held[start].coeffs)
    for k in range(start + 1, n + 1):
        coeffs = times(coeffs, k)
        held[k] = IntPoly(coeffs)
    return held[n]


def q_factorial(n: int) -> IntPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q; also the Poincare polynomial of the
    coinvariant ring of S_n (``graded.poincare_polynomial``)."""
    return _product_up_to(n, _Q_FACTORIALS, _times_q_int)


def one_minus_q_product(n: int) -> IntPoly:
    """prod_{i=1}^{n} (1 - q^i)."""
    return _product_up_to(n, _ONE_MINUS_Q_PRODUCTS, _times_one_minus_q_power)


# ---------------------------------------------------------------------------
# Sequence predicates


def symmetric_about(seq: Sequence[int], c: int) -> bool:
    """seq[k] == seq[c-k] for all k, entries outside [0, c] read as zero."""
    padded = list(seq) + [0] * max(0, c + 1 - len(seq))
    if any(padded[c + 1 :]):
        return False
    return all(padded[k] == padded[c - k] for k in range(c + 1))


def is_unimodal(seq: Sequence[int]) -> bool:
    """Weakly increases to a peak, then weakly decreases."""
    k = 0
    while k + 1 < len(seq) and seq[k] <= seq[k + 1]:
        k += 1
    while k + 1 < len(seq) and seq[k] >= seq[k + 1]:
        k += 1
    return k + 1 >= len(seq)
