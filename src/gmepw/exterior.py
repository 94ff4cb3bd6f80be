"""Exterior powers of the fixed 6-space and 5-space, wedge products,
the top-degree pairing tables (among them the wedge symplectic form on
degree-3 forms), the generators of wedge spans, the inclusion of the
5-space forms and the contraction maps along the last coordinate, and
decomposability tests.  Every wedge coordinate in the package comes from
one sign table per degree pair here (``epw`` writes its chart rows straight
from it), and every inclusion and contraction from one table of where the
5-space monomials sit.

Conventions, fixed once for the whole artifact:

* Monomials of degree p in ambient dimension n are the strictly increasing
  index tuples (1-based in documentation, 0-based internally) in
  lexicographic order.  For (n, p) = (6, 3): 123, 124, 125, 126, 134, ...,
  456 (20 entries).
* A form is the plain list of its coordinates (ints or Fractions) in that
  order; its ambient dimension and degree are passed alongside it.
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

from functools import lru_cache
from itertools import combinations

from .linalg import Subspace, det_int


@lru_cache(maxsize=None)
def monomials(ambient_dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically ordered strictly increasing index tuples (0-based)."""
    return tuple(combinations(range(ambient_dim), degree))


@lru_cache(maxsize=None)
def monomial_index(ambient_dim: int, degree: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(ambient_dim, degree))}


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


def wedge(n: int, p: int, q: int, a, b) -> list:
    """Coordinates of a ^ b for coordinate lists (ints or Fractions) a of
    degree p and b of degree q in ambient dimension n."""
    if p + q > n:
        raise ValueError(f"degree overflow: {p} + {q} > {n}")
    table = _wedge_table(n, p, q)
    if len(a) != len(table) or len(b) != len(monomials(n, q)):
        raise ValueError("coordinate length differs from the monomial count")
    out = [0] * len(monomials(n, p + q))
    for ca, row in zip(a, table):
        if ca:
            for j, sign, t in row:
                cb = b[j]
                if cb:
                    out[t] += sign * ca * cb
    return out


def monomial(n: int, indices) -> list:
    """Coordinates of e_I for a strictly increasing 0-based index tuple I."""
    out = [0] * len(monomials(n, len(indices)))
    out[monomial_index(n, len(indices))[tuple(indices)]] = 1
    return out


@lru_cache(maxsize=None)
def top_pairing(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The top-degree pairing of degree p with degree n - p as integer rows:
    entry (i, j) is the coefficient of e_1..n in e_i ^ e_j, in {-1, 0, 1}.
    For (6, 3) it is the Gram matrix of the wedge symplectic form."""
    size = len(monomials(n, n - p))
    rows = []
    for row in _wedge_table(n, p, n - p):
        out = [0] * size
        for j, sign, _ in row:
            out[j] = sign
        rows.append(tuple(out))
    return tuple(rows)


class SymplecticSpace:
    """An even-dimensional space with a fixed non-degenerate skew form, held
    in integers: the form is the square integer rows over a denominator
    d > 0, and ``int_form`` is (the non-zero (column, entry) pairs of each
    row, d)."""

    def __init__(self, rows, d: int = 1):
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("form is not square")
        if any(row[j] != -rows[j][i] for i, row in enumerate(rows) for j in range(i + 1)):
            raise ValueError("form is not skew-symmetric")
        if det_int(rows) == 0:
            raise ValueError("form is degenerate")
        self.total_dim = len(rows)
        self.int_form = [[(j, f) for j, f in enumerate(row) if f] for row in rows], d


@lru_cache(maxsize=None)
def wedge_symplectic_space() -> SymplecticSpace:
    """Degree-3 forms in ambient 6 with the wedge symplectic form."""
    return SymplecticSpace(top_pairing(6, 3))


@lru_cache(maxsize=None)
def v5_positions(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Where the 5-space sits in degree p of the 6-space: the position of
    each degree-p monomial e_I of the 5-space, and of e_I ^ e6 for each
    degree-(p-1) monomial e_I of the 5-space, both in monomial order."""
    idx = monomial_index(6, p)
    return (tuple(idx[m] for m in monomials(5, p)),
            tuple(idx[(*m, 5)] for m in monomials(5, p - 1)) if p else ())


def inject(p: int, x) -> list:
    """Inclusion of degree-p forms on the 5-space into the 6-space."""
    out = [0] * len(monomials(6, p))
    for t, c in zip(v5_positions(p)[0], x, strict=True):
        out[t] = c
    return out


def lambda_p(p: int, xi) -> list:
    """Interior contraction along the e6 coordinate functional.

    Kills exactly the forms supported on the first five coordinates and maps
    e_I ^ e6 to (-1)^(p-1) e_I, a degree-(p-1) form on the 5-space.
    """
    if not 1 <= p <= 6:
        raise ValueError("degree out of range")
    sign = (-1) ** (p - 1)
    return [sign * xi[t] for t in v5_positions(p)[1]]


def is_decomposable(a) -> Subspace | None:
    """Decide whether a degree-3 form in ambient 6 is a triple wedge.

    Computes D(a) = kernel of v -> v ^ a (a map from the 6-space to the
    degree-4 power) and returns the 3-space of divisors when dim D(a) = 3,
    or None otherwise.
    """
    if len(a) != 20:
        raise ValueError("decomposability test expects degree 3 in ambient 6")
    if not any(a):
        raise ValueError("zero vector")
    d = divisor_space(a)
    return d if d.dim == 3 else None


def divisor_space(a) -> Subspace:
    """Kernel of v -> v ^ a as a subspace of the 6-space, for a degree-3 form."""
    images = [wedge(6, 1, 3, monomial(6, (i,)), a) for i in range(6)]
    return Subspace.from_rows(6, list(zip(*images))).annihilator()


def wedge_space(u: Subspace, w: Subspace) -> Subspace:
    """Span of x ^ y1 ^ y2 over x in u and y1, y2 in w, inside degree 3.

    Realizes the subspaces v ^ (degree-2 power of the 6-space or 5-space),
    the 10-dimensional spaces spanned by a 3-space, used by the stratum and
    fibration computations, and the degree-3 power of u as wedge_space(u, u).
    """
    if u.ambient_dim != 6 or w.ambient_dim != 6:
        raise ValueError("ambient mismatch: both factors must live in the 6-space")
    if u.dim == 0:
        raise ValueError("wedge_space needs a non-trivial first factor")
    return Subspace.from_rows(20, wedge_gens(u.int_rows, w.int_rows))


def wedge_gens(xs, ys) -> list:
    """Coordinates of x ^ y1 ^ y2 in degree 3 of the 6-space, over x in xs
    and then the pairs y1, y2 of ys in order, for plain coordinate lists."""
    pairs = [wedge(6, 1, 1, y1, y2) for y1, y2 in combinations(ys, 2)]
    return [wedge(6, 1, 2, x, y) for x in xs for y in pairs]


@lru_cache(maxsize=None)
def v5_subspace() -> Subspace:
    """The distinguished hyperplane span(e1..e5) of the 6-space."""
    return Subspace.from_rows(6, [monomial(6, (j,)) for j in range(5)])


@lru_cache(maxsize=None)
def l3v5_subspace() -> Subspace:
    """The degree-3 power of the standard 5-space inside the 20 coordinates."""
    return Subspace.from_rows(20, [monomial(6, m) for m in monomials(5, 3)])


def exterior_power_matrix(rows, degree: int) -> list[list[int]]:
    """The rows of the induced matrix on the exterior power of a square
    matrix of integer rows: column I, in monomial order, is the wedge of the
    columns of the matrix at the indices of I."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("change of basis must be square")
    cols = list(zip(*rows))
    images = []
    for m in monomials(n, degree):
        acc = cols[m[0]]
        for p, i in enumerate(m[1:], start=1):
            acc = wedge(n, p, 1, acc, cols[i])
        images.append(acc)
    return [list(r) for r in zip(*images)]
