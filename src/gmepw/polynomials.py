"""Dense univariate polynomials with exact rational coefficients.

Small and purpose-built: evaluation, exact division, interpolation and the
integer line determinant ``line_det`` are everything the determinant-on-a-line
computations need; ``poly_gcd`` has no caller in the package (the benchmark
tracer wraps it by name).  Coefficients are stored low degree first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm

from .linalg import det_int, rat


class Poly:
    """Univariate polynomial over the rationals, coefficients c0 + c1 t + ..."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls([])

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([c])

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"

    def __call__(self, t) -> Fraction:
        t = rat(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = rat(c)
        return Poly([c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        q = [Fraction(0)] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lead
            q[i - d] = f
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] -= f * c
        return Poly(q), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def primitive(self) -> "Poly":
        """Integer-primitive normalization with positive leading coefficient."""
        if self.is_zero():
            return self
        den = int_lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = int_gcd(g, abs(v))
        ints = [v // g for v in ints]
        if ints[-1] < 0:
            ints = [-v for v in ints]
        return Poly(ints)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def interpolate(points) -> Poly:
    """The interpolant through exact (x, y) pairs with distinct x, by Newton
    divided differences expanded in Horner form."""
    points = [(rat(x), rat(y)) for x, y in points]
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    dd = [y for _, y in points]
    n = len(dd)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    # p = dd[0] + (t - x0)(dd[1] + (t - x1)(dd[2] + ...)), innermost first
    coeffs: list[Fraction] = []
    for i in range(n - 1, -1, -1):
        xi = xs[i]
        shifted = [Fraction(0)] + coeffs
        if xi:
            for k, c in enumerate(coeffs):
                shifted[k] -= xi * c
        shifted[0] += dd[i]
        coeffs = shifted
    return Poly(coeffs)


def line_det(p0, p1) -> Poly:
    """det(p0 + t p1) for square integer rows p0 and p1.  Each row is affine
    in t, so the degree is at most the number of non-zero rows of p1, and
    that many nodes plus one determine it."""
    nodes = range(1 + sum(map(any, p1)))
    return interpolate(
        [(t, det_int([[x + t * y for x, y in zip(r0, r1)] for r0, r1 in zip(p0, p1)])) for t in nodes]
    )
