"""Dense univariate polynomials over the integers, plus q-analog helpers
([k]_q, [n]_q!, Gaussian binomials, products of 1 - q^k) and the sequence
predicates ``symmetric_about``, ``is_unimodal`` and ``is_log_concave``.
Nothing here knows about partitions: the q-hook fake degree is in ``graded``.

Coefficients are Python ints, so all arithmetic is arbitrary precision and
exact.  The zero polynomial is the empty coefficient tuple; its degree is
undefined and operations that need a degree reject it.

The one polynomial division is by 1 - q^k (``divide_one_minus_q_power``),
the only divisor the engine's quotients of prod_{i<=n} (1 - q^i) need; a
remainder raises ``NonExactDivision``.
"""

from __future__ import annotations

from functools import cache
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

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        """Coefficients padded with zeros up to ``length`` entries."""
        if len(self.coeffs) > length:
            raise ValueError(f"polynomial does not fit in {length} coefficients")
        return self.coeffs + (0,) * (length - len(self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return IntPoly(out)

    def scale(self, k: int) -> "IntPoly":
        return IntPoly(k * c for c in self.coeffs)

    def divide_one_minus_q_power(self, k: int) -> "IntPoly":
        """Quotient q with q*(1 - q^k) == self exactly; NonExactDivision
        otherwise, ValueError for k < 1.

        One pass from low degree up, q_j = p_j + q_(j-k).  The top k values
        of that pass are the coefficients the quotient would need above
        degree deg(p) - k; since the quotient in Z[q] is unique, it exists
        exactly when they are all zero.
        """
        if k < 1:
            raise ValueError(f"1 - q^k needs k >= 1, got {k}")
        out = list(self.coeffs)
        for j in range(k, len(out)):
            out[j] += out[j - k]
        if any(out[-k:]):
            raise NonExactDivision(f"nonzero remainder dividing by 1 - q^{k}")
        return IntPoly(out[:-k])

    def mirror(self, c: int) -> "IntPoly":
        """Coefficient reversal about degree ``c``: q^c * p(1/q).

        Requires degree(p) <= c; an involution when c == degree(p).
        """
        if self.is_zero:
            return IntPoly()
        if self.degree > c:
            raise ValueError(f"degree {self.degree} exceeds mirror degree {c}")
        padded = self.padded(c + 1)
        return IntPoly(reversed(padded))

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

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


ZERO = IntPoly()
ONE = IntPoly((1,))


def monomial(k: int) -> IntPoly:
    return IntPoly((0,) * k + (1,))


def q_int(k: int) -> IntPoly:
    """[k]_q = 1 + q + ... + q^(k-1)."""
    return IntPoly((1,) * k)


def one_minus_q_power(k: int) -> IntPoly:
    """1 - q^k for k >= 1."""
    if k < 1:
        raise ValueError(f"1 - q^k needs k >= 1, got {k}")
    return IntPoly((1,) + (0,) * (k - 1) + (-1,))


@cache
def q_factorial(n: int) -> IntPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q; also the Poincare polynomial of the
    coinvariant ring of S_n (``graded.poincare_polynomial``)."""
    poly = ONE
    for k in range(1, n + 1):
        poly = poly * q_int(k)
    return poly


@cache
def q_binomial(n: int, k: int) -> IntPoly:
    """Gaussian binomial [n choose k]_q by the Pascal recurrence
    [n, k] = [n-1, k-1] + q^k [n-1, k]; zero for k outside [0, n]."""
    if not 0 <= k <= n:
        return ZERO
    if k in (0, n):
        return ONE
    return q_binomial(n - 1, k - 1) + monomial(k) * q_binomial(n - 1, k)


@cache
def one_minus_q_product(n: int) -> IntPoly:
    """prod_{i=1}^{n} (1 - q^i)."""
    poly = ONE
    for i in range(1, n + 1):
        poly = poly * one_minus_q_power(i)
    return poly


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


def is_log_concave(seq: Sequence[int]) -> bool:
    """a_k^2 >= a_{k-1} * a_{k+1} at every interior index, applied literally."""
    return all(
        seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1)
    )
