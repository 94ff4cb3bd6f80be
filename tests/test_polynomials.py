"""Univariate exact polynomial arithmetic used by the line computations."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmepw.linalg import det_int
from gmepw.polynomials import (
    Poly,
    interpolate,
    poly_gcd,
)

import oracles
from oracles import line_det


def test_eval_and_degree():
    p = Poly([1, 0, -2])  # 1 - 2 t^2
    assert p.degree == 2
    assert p(3) == 1 - 18
    assert Poly.zero().degree == -1


def test_arithmetic():
    p = Poly([1, 1])
    q = Poly([-1, 1])
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert (p - p).is_zero()
    assert p**3 == Poly([1, 3, 3, 1])


def test_divmod_exact():
    p = Poly([-1, 0, 1])
    q, r = p.divmod(Poly([1, 1]))
    assert r.is_zero()
    assert q == Poly([-1, 1])
    assert oracles.exact_div(p, Poly([-1, 1])) == Poly([1, 1])
    with pytest.raises(ValueError):
        oracles.exact_div(Poly([1, 1, 1]), Poly([1, 1]))


def test_gcd():
    p = Poly([1, 1]) ** 2 * Poly([-2, 1])
    q = Poly([1, 1]) * Poly([3, 1])
    g = poly_gcd(p, q)
    assert g == Poly([1, 1])


def test_primitive_normalization():
    p = Poly([Fraction(1, 2), Fraction(3, 4)])
    prim = p.primitive()
    assert prim == Poly([2, 3])
    assert Poly([-2, -4]).primitive() == Poly([1, 2])


def test_root_multiplicity():
    p = Poly([0, 0, 1]) * Poly([-1, 1])
    assert oracles.root_multiplicity(p, 0) == 2
    assert oracles.root_multiplicity(p, 1) == 1
    assert oracles.root_multiplicity(p, 5) == 0


def test_interpolation_roundtrip():
    p = Poly([3, -2, 0, 1])
    assert interpolate([p(t) for t in range(5)]) == [3, -2, 0, 1]
    with pytest.raises(ValueError):
        interpolate([0, 1, 3])  # t (t + 1) / 2
    with pytest.raises(ValueError):
        oracles.newton_interpolate([(1, 1), (1, 2)])


def lagrange_interpolate(points) -> Poly:
    """Reference interpolant in the Lagrange form, independent of the
    Newton form of the oracle and of the forward differences of
    interpolate."""
    points = [(Fraction(x), Fraction(y)) for x, y in points]
    total = Poly.zero()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        num = Poly.constant(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                num = num * Poly([-xj, 1]).scale(1 / (xi - xj))
        total = total + num
    return total


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def interpolation_data(draw):
    xs = draw(st.lists(rationals, min_size=1, max_size=14, unique=True))
    if draw(st.booleans()):
        ys = [Fraction(0)] * len(xs)
    else:
        ys = draw(st.lists(rationals, min_size=len(xs), max_size=len(xs)))
    return list(zip(xs, ys))


@given(interpolation_data())
@example([(Fraction(3), Fraction(-7, 2))])
@example([(Fraction(-1, 2), Fraction(0)), (Fraction(5, 3), Fraction(0))])
@example([(Fraction(t), Fraction(t * t - 3)) for t in range(-4, 5)])
@settings(max_examples=150, deadline=None)
def test_newton_matches_lagrange(points):
    p = oracles.newton_interpolate(points)
    assert p == lagrange_interpolate(points)
    assert all(p(x) == y for x, y in points)
    assert p.degree < len(points)


def test_interpolate_empty_is_zero():
    assert interpolate([]) == []


@st.composite
def node_values(draw):
    """Integer values on the nodes 0..k, k <= 13: all zero, those of an
    integer polynomial of degree at most k (often below k), or arbitrary."""
    k = draw(st.integers(0, 13))
    kind = draw(st.sampled_from(["zero", "polynomial", "arbitrary"]))
    if kind == "zero":
        return [0] * (k + 1)
    if kind == "arbitrary":
        return draw(st.lists(st.integers(-10**6, 10**6), min_size=k + 1, max_size=k + 1))
    degree = draw(st.integers(0, k))
    f = Poly(draw(st.lists(st.integers(-50, 50), min_size=degree + 1, max_size=degree + 1)))
    return [int(f(t)) for t in range(k + 1)]


@given(node_values())
@example([0] * 14)
@example([t**3 - 2 * t for t in range(14)])  # true degree 3 on 14 nodes
@example([7])
@settings(max_examples=200, deadline=None)
def test_integer_interpolate_matches_lagrange(values):
    # the forward-difference kernel gives the Lagrange interpolant on the
    # nodes 0..k whenever it has integer coefficients, and raises otherwise
    expected = lagrange_interpolate(list(enumerate(values)))
    if all(c.denominator == 1 for c in expected.coeffs):
        coeffs = interpolate(values)
        assert all(type(c) is int for c in coeffs)
        assert Poly(coeffs) == expected
        assert not coeffs or coeffs[-1]
    else:
        with pytest.raises(ValueError):
            interpolate(values)


@st.composite
def line_pairs(draw):
    """Square integer rows p0 and p1, some rows of p1 zero."""
    n = draw(st.integers(1, 6))
    rows = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    p0 = draw(st.lists(rows, min_size=n, max_size=n))
    p1 = [draw(rows) if draw(st.booleans()) else [0] * n for _ in range(n)]
    return p0, p1


@given(line_pairs())
@example(([[3]], [[2]]))
@example(([[3]], [[0]]))
@example(([[1, 2], [2, 4]], [[0, 0], [1, 1]]))
@settings(max_examples=100, deadline=None)
def test_line_det_matches_det_int_off_the_nodes(pair):
    p0, p1 = pair
    f = line_det(p0, p1)
    moving = sum(map(any, p1))
    assert f.degree <= moving  # the degree bound the node count relies on
    for t in (-5, -1, moving + 1, moving + 4, 37):
        assert f(t) == det_int([[x + t * y for x, y in zip(r0, r1)] for r0, r1 in zip(p0, p1)])
