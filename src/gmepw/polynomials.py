"""Dense univariate polynomials with exact rational coefficients, and the
integer interpolation kernel under every line determinant.

Small and purpose-built: evaluation, division, the primitive part, the
node values of a line determinant, their integer interpolant and the integer
division by a linear factor are everything the determinant-on-a-line
computations need; ``poly_gcd`` has no caller in the package (the benchmark
tracer wraps it by name).  Coefficients are stored low degree first.

``interpolate`` works in integers.  On the nodes 0..k the forward
differences D^j = (Delta^j y)(0) of integer values y_0..y_k are integers, and
Newton's form on these nodes reads f(t) = sum_j D^j C(t, j), with
C(t, j) = t (t - 1) ... (t - j + 1) / j!.  Multiplying by k! clears every
denominator at once: k! f(t) = sum_j D^j (k! / j!) t (t - 1) ... (t - j + 1),
and k! / j! = (j + 1) (j + 2) ... k is an integer.  In Horner form,
P_k = D^k and P_j = (k! / j!) D^j + (t - j) P_{j+1}, so P_0 = k! f is built
with integer products only, and one exact division by k! ends it.  Every
caller interpolates a determinant det(p0 + t p1) of integer rows, an integer
polynomial, so that division never leaves a remainder.

``divide_power`` divides an integer D by powers of prim(c), c = c0 + c1 t
and prim(c) = c / gcd(c0, c1).  By Gauss's lemma prim(c) divides D in Q[t]
exactly when it does in Z[t], so synthetic division from the leading
coefficient down either takes exact integer quotients at every step and
leaves no remainder, or proves that prim(c) does not divide D.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import clear_denominators, pencil_eliminations, rat


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

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def primitive(self) -> "Poly":
        """Integer-primitive normalization with positive leading coefficient."""
        if self.is_zero():
            return self
        ints, _ = clear_denominators(self.coeffs)
        g = gcd(*ints)
        return Poly([v // g for v in ints] if ints[-1] > 0 else [-v // g for v in ints])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def interpolate(values) -> list[int]:
    """The integer coefficients, low degree first and without trailing
    zeros, of the polynomial f of degree at most k with f(j) = values[j] on
    the nodes j = 0..k, by k!-scaled forward differences (module docstring).
    Raises ValueError when f has a coefficient outside the integers."""
    diffs = list(values)
    k = len(diffs) - 1
    for j in range(1, k + 1):
        for i in range(k, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    acc = diffs[k:]  # P_k = D^k, empty for no values
    scale = 1  # k! / j!
    for j in range(k - 1, -1, -1):
        scale *= j + 1
        shifted = [0, *acc]
        if j:
            for i, c in enumerate(acc):
                shifted[i] -= j * c
        shifted[0] += scale * diffs[j]
        acc = shifted
    coeffs = []
    for c in acc:
        q, r = divmod(c, scale)
        if r:
            raise ValueError("the interpolant has a coefficient outside the integers")
        coeffs.append(q)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def line_values(p0, p1) -> list[int]:
    """det(p0 + t p1) at the nodes t = 0..k for square integer rows p0 and
    p1, k the number of non-zero rows of p1.  Each row is affine in t, so
    the determinant has degree at most k, and these values determine it.
    They are the signed last pivots of the pencil p0 + t p1 at the
    parameters (t, 1), packed once (``linalg.pencil_eliminations``), and 0
    where a row takes no pivot."""
    n = len(p0)
    if any(len(r) != n for r in p0):
        raise ValueError("determinant of a non-square matrix")
    nodes = [(t, 1) for t in range(1 + sum(map(any, p1)))]
    return [last if rank == n else 0 for rank, last in pencil_eliminations(p0, p1, nodes)]


def divide_power(coeffs: list[int], c0: int, c1: int, exponent: int) -> list[int] | None:
    """D / prim(c)^e for the integer coefficients of D != 0, low degree
    first, and c = c0 + c1 t != 0 (module docstring), or None when prim(c)^e
    does not divide D.  A constant c (c1 = 0) leaves D."""
    if not c1:
        return coeffs
    g = gcd(c0, c1)
    c0, c1 = c0 // g, c1 // g
    for _ in range(exponent):
        q = [0] * (len(coeffs) - 1)
        r = coeffs[-1]
        for k in range(len(coeffs) - 2, -1, -1):
            q[k], rest = divmod(r, c1)
            if rest:
                return None
            r = coeffs[k] - c0 * q[k]
        if r:
            return None
        coeffs = q
    return coeffs
