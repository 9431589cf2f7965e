"""Truncated univariate power series over the rationals.

Coefficients are exponential-generating-function style: a series is the
list c[0..N] with c[k] the coefficient of t**k.  Everything is exact.
"""

from fractions import Fraction


class Series:
    """Truncated series c0 + c1 t + ... + cN t^N with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is not None:
            coeffs = (coeffs + [Fraction(0)] * (order + 1))[: order + 1]
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order):
        return cls([0], order)

    @classmethod
    def t(cls, order):
        return cls([0, 1], order)

    def __getitem__(self, k):
        return self.coeffs[k] if k <= self.order else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        n = min(self.order, other.order)
        return Series([self[k] + other[k] for k in range(n + 1)])

    def __sub__(self, other):
        other = self._coerce(other)
        n = min(self.order, other.order)
        return Series([self[k] - other[k] for k in range(n + 1)])

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other[j]
                if b:
                    out[i + j] += a * b
        return Series(out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        return Series([other], self.order)

    def is_zero(self):
        return not any(self.coeffs)

    def exp(self):
        """exp of a series with zero constant term."""
        if self.coeffs[0]:
            raise ValueError("exp needs zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for k in range(1, n + 1):
            s = Fraction(0)
            for j in range(1, k + 1):
                s += j * self[j] * out[k - j]
            out[k] = s / k
        return Series(out)

    def __repr__(self):
        bits = ["%s t^%d" % (c, k) for k, c in enumerate(self.coeffs) if c]
        return "Series(" + (" + ".join(bits) if bits else "0") + ")"


def solve_fixed_coefficients(residual_fn, order):
    """Solve residual(f) = 0 coefficient by coefficient.

    ``residual_fn`` maps a Series to a Series of the same order whose t^k
    coefficient changes by -eps when f's t^k coefficient changes by +eps
    and lower coefficients are already correct; its t^k coefficient depends
    on f's coefficients up to t^k only.  Step k therefore evaluates the
    residual on f cut to order k, and the solution is checked once at the
    full order.  Returns the unique solution with f(0) = 0.
    """
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        coeffs[k] += residual_fn(Series(coeffs[: k + 1]))[k]
    f = Series(coeffs)
    if not residual_fn(f).is_zero():
        raise ArithmeticError("functional equation residual is nonzero")
    return f
