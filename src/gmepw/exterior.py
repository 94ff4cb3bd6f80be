"""Exterior powers of the fixed 6-space and 5-space, wedge products,
the top-degree pairing tables (among them the wedge symplectic form on
degree-3 forms), the generators of wedge spans, the contraction maps along
the last coordinate, and decomposability tests.  Every wedge coordinate in
the package is computed here, from one sign table per degree pair.

Conventions, fixed once for the whole artifact:

* Monomials of degree p in ambient dimension n are the strictly increasing
  index tuples (1-based in documentation, 0-based internally) in
  lexicographic order.  For (n, p) = (6, 3): 123, 124, 125, 126, 134, ...,
  456 (20 entries).
* The distinguished hyperplane is the span of the first five basis vectors;
  "lambda" is the coordinate functional of e6.
* lambda_p is first-slot interior contraction:
  lambda_p(v1 ^ ... ^ vp) = sum_j (-1)^(j-1) lambda(v_j) v1 ^ ... v_j-hat ... ^ vp.
  On monomials: lambda_p(e_I) = 0 when 6 is not in I, and
  (-1)^(p-1) e_(I minus 6) when it is.
* The symplectic form on degree-3 forms in ambient 6 is the coefficient of
  e123456 in xi ^ eta; the determinant line is trivialized by e123456 -> 1
  and the 5-space determinant line by e12345 -> 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .linalg import Matrix, Subspace, kernel, rat


@lru_cache(maxsize=None)
def monomials(ambient_dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically ordered strictly increasing index tuples (0-based)."""
    return tuple(combinations(range(ambient_dim), degree))


@lru_cache(maxsize=None)
def monomial_index(ambient_dim: int, degree: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(ambient_dim, degree))}


@dataclass(frozen=True)
class ExteriorBasis:
    """Monomial basis of a fixed exterior power."""

    ambient_dim: int
    degree: int

    @property
    def size(self) -> int:
        return len(monomials(self.ambient_dim, self.degree))

    @property
    def monomial_list(self) -> tuple[tuple[int, ...], ...]:
        return monomials(self.ambient_dim, self.degree)


class MultiVector:
    """An element of a fixed exterior power in the monomial basis."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis: ExteriorBasis, coords):
        coords = [rat(c) for c in coords]
        if len(coords) != basis.size:
            raise ValueError("coordinate length differs from the monomial count")
        self.basis = basis
        self.coords = coords

    @classmethod
    def zero(cls, ambient_dim: int, degree: int) -> "MultiVector":
        b = ExteriorBasis(ambient_dim, degree)
        return cls(b, [0] * b.size)

    @classmethod
    def from_monomial(cls, ambient_dim: int, indices, coeff=1) -> "MultiVector":
        """Monomial e_I from 0-based indices, sorted with sign."""
        idx = list(indices)
        if len(set(idx)) != len(idx):
            return cls.zero(ambient_dim, len(idx))
        sign = 1
        # insertion-sort sign count
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                if idx[a] > idx[b]:
                    sign = -sign
        b = ExteriorBasis(ambient_dim, len(idx))
        coords = [Fraction(0)] * b.size
        coords[monomial_index(ambient_dim, len(idx))[tuple(sorted(idx))]] = rat(coeff) * sign
        return cls(b, coords)

    @classmethod
    def from_coords(cls, ambient_dim: int, degree: int, coords) -> "MultiVector":
        return cls(ExteriorBasis(ambient_dim, degree), coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiVector)
            and self.basis == other.basis
            and self.coords == other.coords
        )

    def __add__(self, other: "MultiVector") -> "MultiVector":
        if self.basis != other.basis:
            raise ValueError("basis mismatch")
        return MultiVector(self.basis, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        if self.basis != other.basis:
            raise ValueError("basis mismatch")
        return MultiVector(self.basis, [a - b for a, b in zip(self.coords, other.coords)])

    def scale(self, c) -> "MultiVector":
        c = rat(c)
        return MultiVector(self.basis, [c * a for a in self.coords])

    def __repr__(self) -> str:
        terms = []
        for m, c in zip(self.basis.monomial_list, self.coords):
            if c != 0:
                label = "e" + "".join(str(i + 1) for i in m)
                terms.append(f"{c}*{label}")
        return "MultiVector(" + (" + ".join(terms) if terms else "0") + ")"


@lru_cache(maxsize=None)
def _wedge_table(n: int, p: int, q: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Row i lists (j, sign, t) with e_i ^ e_j = sign * e_t for the degree-p
    monomial i and every degree-q monomial j disjoint from it."""
    target = monomial_index(n, p + q)
    table = []
    for mi in monomials(n, p):
        row = []
        for j, mj in enumerate(monomials(n, q)):
            if not set(mi) & set(mj):
                # the sign counts the inversions of the concatenation
                sign = (-1) ** sum(a > b for a in mi for b in mj)
                row.append((j, sign, target[tuple(sorted((*mi, *mj)))]))
        table.append(tuple(row))
    return tuple(table)


def _wedge_coords(n: int, p: int, q: int, a, b) -> list:
    """Coordinates of the wedge of plain coordinate lists (ints or Fractions)."""
    out = [0] * len(monomials(n, p + q))
    for ca, row in zip(a, _wedge_table(n, p, q)):
        if ca:
            for j, sign, t in row:
                cb = b[j]
                if cb:
                    out[t] += sign * ca * cb
    return out


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Graded-antisymmetric bilinear wedge product in the fixed basis."""
    if a.basis.ambient_dim != b.basis.ambient_dim:
        raise ValueError("ambient mismatch")
    n = a.basis.ambient_dim
    p, q = a.basis.degree, b.basis.degree
    if p + q > n:
        raise ValueError(f"degree overflow: {p} + {q} > {n}")
    return MultiVector.from_coords(n, p + q, _wedge_coords(n, p, q, a.coords, b.coords))


def vector_to_multivector(v, ambient_dim: int = 6) -> MultiVector:
    return MultiVector.from_coords(ambient_dim, 1, v)


@lru_cache(maxsize=None)
def top_pairing(n: int, p: int) -> Matrix:
    """The top-degree pairing of degree p with degree n - p: entry (i, j) is
    the coefficient of e_1..n in e_i ^ e_j, an integer in {-1, 0, 1}.  For
    (6, 3) it is the Gram matrix of the wedge symplectic form."""
    size = len(monomials(n, n - p))
    rows = []
    for row in _wedge_table(n, p, n - p):
        out = [0] * size
        for j, sign, _ in row:
            out[j] = sign
        rows.append(out)
    return Matrix(rows)


@dataclass(frozen=True)
class SymplecticSpace:
    """An even-dimensional space with a fixed non-degenerate skew form."""

    total_dim: int
    form: Matrix

    def __post_init__(self):
        if self.form.rows != self.total_dim or self.form.cols != self.total_dim:
            raise ValueError("form size differs from total dimension")
        if not self.form.is_skew():
            raise ValueError("form is not skew-symmetric")
        if self.form.det() == 0:
            raise ValueError("form is degenerate")

    def omega(self, u, v) -> Fraction:
        lhs = self.form.left_apply(u)
        return sum((a * b for a, b in zip(lhs, v)), Fraction(0))


@lru_cache(maxsize=None)
def wedge_symplectic_space() -> SymplecticSpace:
    """Degree-3 forms in ambient 6 with the wedge symplectic form."""
    return SymplecticSpace(20, top_pairing(6, 3))


def lambda_p(xi: MultiVector) -> MultiVector:
    """Interior contraction along the e6 coordinate functional.

    Kills exactly the forms supported on the first five coordinates and maps
    e_I with 6 in I to (-1)^(degree-1) e_(I minus 6), an element of the
    degree-(p-1) power of the 5-space.
    """
    if xi.basis.ambient_dim != 6:
        raise ValueError("contraction is defined on ambient dimension 6")
    p = xi.basis.degree
    if not 1 <= p <= 6:
        raise ValueError("degree out of range")
    sign = (-1) ** (p - 1)
    out = MultiVector.zero(5, p - 1)
    tgt = monomial_index(5, p - 1)
    for m, c in zip(xi.basis.monomial_list, xi.coords):
        if c == 0 or m[-1] != 5:
            continue
        out.coords[tgt[m[:-1]]] += sign * c
    return out


def inject(mv: MultiVector, ambient_dim: int = 6) -> MultiVector:
    """Inclusion of a power of the 5-space into the same power of the 6-space."""
    if mv.basis.ambient_dim > ambient_dim:
        raise ValueError("cannot inject into a smaller space")
    out = MultiVector.zero(ambient_dim, mv.basis.degree)
    tgt = monomial_index(ambient_dim, mv.basis.degree)
    for m, c in zip(mv.basis.monomial_list, mv.coords):
        if c != 0:
            out.coords[tgt[m]] += c
    return out


def is_decomposable(a: MultiVector) -> Subspace | None:
    """Decide whether a degree-3 form in ambient 6 is a triple wedge.

    Computes D(a) = kernel of v -> v ^ a (a map from the 6-space to the
    degree-4 power) and returns the 3-space of divisors when dim D(a) = 3,
    or None otherwise.
    """
    if a.basis != ExteriorBasis(6, 3):
        raise ValueError("decomposability test expects degree 3 in ambient 6")
    if a.is_zero():
        raise ValueError("zero vector")
    d = divisor_space(a)
    return d if d.dim == 3 else None


def divisor_space(a: MultiVector) -> Subspace:
    """Kernel of v -> v ^ a as a subspace of the 6-space."""
    cols = []
    for i in range(6):
        ei = MultiVector.from_monomial(6, (i,))
        cols.append(wedge(ei, a).coords)
    return kernel(Matrix.from_cols(cols))


def wedge_space(u: Subspace, w: Subspace) -> Subspace:
    """Span of x ^ y1 ^ y2 over x in u and y1, y2 in w, inside degree 3.

    Realizes the subspaces v ^ (degree-2 power of the 6-space or 5-space) and
    the 10-dimensional spaces spanned by a 3-space, used by the stratum and
    fibration computations.
    """
    if u.ambient_dim != 6 or w.ambient_dim != 6:
        raise ValueError("ambient mismatch: both factors must live in the 6-space")
    if u.dim == 0:
        raise ValueError("wedge_space needs a non-trivial first factor")
    return Subspace.from_rows(20, wedge_gens(u.int_rows, w.int_rows))


def wedge_gens(xs, ys) -> list:
    """Coordinates of x ^ y1 ^ y2 in degree 3 of the 6-space, over x in xs
    and then the pairs y1, y2 of ys in order, for plain coordinate lists."""
    pairs = [_wedge_coords(6, 1, 1, y1, y2) for y1, y2 in combinations(ys, 2)]
    return [_wedge_coords(6, 1, 2, x, y) for x in xs for y in pairs]


def wedge_cube(u: Subspace) -> Subspace:
    """Degree-3 power of a subspace of the 6-space, e.g. a hyperplane cube."""
    if u.ambient_dim != 6:
        raise ValueError("ambient mismatch: the factor must live in the 6-space")
    gens = [_wedge_coords(6, 1, 2, x, _wedge_coords(6, 1, 1, y, z))
            for x, y, z in combinations(u.int_rows, 3)]
    return Subspace.from_rows(20, gens)


@lru_cache(maxsize=None)
def v5_subspace() -> Subspace:
    """The distinguished hyperplane span(e1..e5) of the 6-space."""
    return Subspace.from_rows(6, [[Fraction(i == j) for i in range(6)] for j in range(5)])


@lru_cache(maxsize=None)
def l3v5_subspace() -> Subspace:
    """The degree-3 power of the standard 5-space inside the 20 coordinates."""
    rows = []
    idx = monomial_index(6, 3)
    for m in monomials(5, 3):
        row = [Fraction(0)] * 20
        row[idx[m]] = Fraction(1)
        rows.append(row)
    return Subspace.from_rows(20, rows)


def exterior_power_matrix(f: Matrix, degree: int) -> Matrix:
    """Induced matrix on the exterior power; columns follow monomial order."""
    if f.rows != f.cols:
        raise ValueError("change of basis must be square")
    n = f.rows
    cols = []
    for m in monomials(n, degree):
        imgs = [vector_to_multivector(f.col(i), n) for i in m]
        acc = imgs[0]
        for nxt in imgs[1:]:
            acc = wedge(acc, nxt)
        cols.append(acc.coords)
    return Matrix.from_cols(cols)
