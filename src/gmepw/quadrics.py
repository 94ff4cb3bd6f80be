"""Lagrangian subspaces of a decomposed symplectic space, the associated
projectively dual pairs of quadrics, and isotropic reduction.

A quadric is a subvariety of a (possibly empty) linear subspace P(W) of the
ambient projective space, defined by a (possibly zero) symmetric form on W.
Spans are stored as canonical subspaces of the symplectic coordinate space
and Gram matrices refer to the RREF basis of the span.

Integers inside, ``Fraction`` at the API edge, in ``linalg``'s one integer
form: a rational matrix is integer rows over one common denominator.  The
form is ``SymplecticSpace.int_form``; isotropy and symplectic orthogonals
pair a subspace's primitive integer rows with it, and the reduced form of
``isotropic_reduce``, the projector of a decomposition, projected rows and
the gram of an induced quadric are integer rows over a denominator too,
RREF rows put over the lcm of their pivots by ``linalg.over_pivots``.
``Fraction`` values are built only for the Gram matrices callers see.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .exterior import SymplecticSpace
from .linalg import (Matrix, Subspace, _gauss_jordan, int_image_and_lifts, kernel, over_lcd, over_pivots,
                     unit_vector)


def _times_form(space: SymplecticSpace, rows) -> list[list[int]]:
    """Each integer row times d * form, for (sparse form rows, d) = ``int_form``."""
    out = []
    for row in rows:
        acc = [0] * space.total_dim
        for x, entries in zip(row, space.int_form[0], strict=True):
            for j, f in entries if x else ():
                acc[j] += x * f
        out.append(acc)
    return out


def _gram(space: SymplecticSpace, left, right, scales) -> Matrix:
    """omega(x_i, y_j) for x_i = left_i / scales_i and y_j = right_j / scales_j:
    X_i = L x_i and Y_j = L y_j over one denominator L (``over_lcd``) pair
    under d * form to d L^2 omega(x_i, y_j)."""
    blocks, big = over_lcd([([r], s) for r, s in zip([*left, *right], [*scales, *scales])])
    xs, ys = [r for (r,) in blocks[:len(left)]], [r for (r,) in blocks[len(left):]]
    gram = [[sum(map(mul, x, y)) for y in ys] for x in _times_form(space, xs)]
    return Matrix.from_int_rows(gram, space.int_form[1] * big * big, len(right))


def is_isotropic(space: SymplecticSpace, s: Subspace) -> bool:
    """omega vanishes on each pair of distinct rows of s (the form is skew)."""
    left = _times_form(space, s.int_rows)
    return not any(sum(map(mul, x, y)) for i, x in enumerate(left) for y in s.int_rows[i + 1:])


def is_lagrangian(space: SymplecticSpace, s: Subspace) -> bool:
    return 2 * s.dim == space.total_dim and is_isotropic(space, s)


def omega_orthogonal(space: SymplecticSpace, s: Subspace) -> Subspace:
    """The symplectic orthogonal: the annihilator of the rows times the form."""
    if s.dim == 0:
        return Subspace.full(space.total_dim)
    return Subspace.from_rows(space.total_dim, _times_form(space, s.int_rows)).annihilator()


@dataclass(frozen=True)
class LagrangianDecomposition:
    """A symplectic space written as a direct sum of two Lagrangians."""

    space: SymplecticSpace
    l1: Subspace
    l2: Subspace

    def __post_init__(self):
        n = self.space.total_dim
        if self.l1.ambient_dim != n or self.l2.ambient_dim != n:
            raise ValueError("ambient mismatch")
        if not (is_lagrangian(self.space, self.l1) and is_lagrangian(self.space, self.l2)):
            raise ValueError("summands are not Lagrangian")
        if self.l1.meet_dim(self.l2) != 0:
            raise ValueError("summands are not complementary")

    @cached_property
    def _projector(self) -> tuple[list[tuple[int, ...]], int]:
        """(the columns of P, D) for row k of P / D the projection pr1(e_k)
        to l1 along l2: the lift of e_k through the stacked bases [l1; l2]
        applied to [l1; 0], whose reduced row k has its pivot at k."""
        n = self.space.total_dim
        stack = [r + r for r in self.l1.int_rows] + [r + (0,) * n for r in self.l2.int_rows]
        rows, den = over_pivots(int_image_and_lifts(stack, n)[1], range(n))
        return list(zip(*[row[n:] for row in rows])), den

    def project_rows(self, rows) -> tuple[list[list[int]], list[list[int]], int]:
        """(P1, P2, D) for integer rows r: the rows of P1 / D and P2 / D are
        the components pr1(r) in l1 and pr2(r) in l2."""
        cols, den = self._projector
        p1 = [[sum(map(mul, r, c)) for c in cols] for r in rows]
        return p1, [[den * x - y for x, y in zip(r, q)] for r, q in zip(rows, p1)], den


@dataclass(frozen=True)
class QuadricOnSubspace:
    """A quadric inside P(span) with a symmetric Gram matrix on the span basis."""

    ambient_dim: int
    span: Subspace
    gram: Matrix

    def __post_init__(self):
        if self.span.ambient_dim != self.ambient_dim:
            raise ValueError("span ambient mismatch")
        if self.gram.rows != self.span.dim or self.gram.cols != self.span.dim:
            raise ValueError("Gram size differs from span dimension")
        if not (self.gram.is_symmetric() or self.gram.rows == 0):
            raise ValueError("Gram matrix is not symmetric")

    @property
    def span_dim(self) -> int:
        return self.span.dim

    @property
    def corank(self) -> int:
        return self.span.dim - self.gram.rank()

    def kernel_subspace(self) -> Subspace:
        """Kernel of the form, lifted to ambient coordinates."""
        k = kernel(self.gram)
        return Subspace.from_rows(
            self.ambient_dim, [self.span.basis.left_apply(row) for row in k.basis.data]
        )


def gram_on_lagrangian(dec: LagrangianDecomposition, a: Subspace) -> Matrix:
    """Gram of the bilinear form omega(pr1 x, pr2 y) on the basis of a."""
    p1, p2, den = dec.project_rows(a.int_rows)
    return _gram(dec.space, p1, p2, [den * row[c] for row, c in zip(a.int_rows, a.pivots)])


def _induced_quadric(dec: LagrangianDecomposition, a: Subspace, side: int) -> QuadricOnSubspace:
    """Quadric induced on the projection W of a to l1 (side=1) or l2 (side=2).

    With lifts X in a of the basis of W, the gram omega(pr1 x, pr2 y) is
    W Omega X^T on side 1 and X Omega W^T on side 2: the summands are
    isotropic, so the other component of X pairs to zero with W, and a
    different lift changes X by a vector of a meet the other summand, which
    pairs to zero because a is Lagrangian.  W and X come from one reduction
    of the integer rows [D pr(a_i) | D a_i].
    """
    n = dec.space.total_dim
    p1, p2, den = dec.project_rows(a.int_rows)
    stack = [p + [den * x for x in r] for p, r in zip((p1, p2)[side - 1], a.int_rows)]
    w, rows = int_image_and_lifts(stack, n)
    pair = [r[:n] for r in rows], [r[n:] for r in rows]
    left, right = pair if side == 1 else pair[::-1]
    return QuadricOnSubspace(n, w, _gram(dec.space, left, right, [r[c] for r, c in zip(rows, w.pivots)]))


def quadric_pair_from_lagrangian(
    dec: LagrangianDecomposition, a: Subspace
) -> tuple[QuadricOnSubspace, QuadricOnSubspace]:
    """The projectively dual pair of quadrics cut out by a Lagrangian.

    The first quadric lives on pr1(a) inside l1, the second on pr2(a) inside
    l2; their kernels are a meet l1 and a meet l2.
    """
    if not is_lagrangian(dec.space, a):
        raise ValueError("subspace is not Lagrangian")
    return _induced_quadric(dec, a, 1), _induced_quadric(dec, a, 2)


def pairing_annihilator_in(space: SymplecticSpace, s: Subspace, inside: Subspace) -> Subspace:
    """Vectors of `inside` that are omega-orthogonal to all of s."""
    return omega_orthogonal(space, s).intersect(inside)


def dual_quadric_via_pairing(
    dec: LagrangianDecomposition, q: QuadricOnSubspace, side: int
) -> QuadricOnSubspace:
    """Projective dual of a quadric on one summand, realized on the other.

    The symplectic form restricts to a perfect pairing between l1 and l2;
    the dual of (span W, kernel K, form g) is supported on the annihilator of
    K in the opposite summand, has kernel the annihilator of W, and its form
    is the inverse of g on W/K transported through the pairing.
    """
    space = dec.space
    src, dst = (dec.l1, dec.l2) if side == 1 else (dec.l2, dec.l1)
    if not src.contains_subspace(q.span):
        raise ValueError("quadric does not live on the declared summand")
    dual_span = pairing_annihilator_in(space, q.kernel_subspace(), dst)
    # the span rows at the pivot columns of the symmetric g represent a basis
    # of span/kernel, and g is invertible on them; phi[i][a] = omega(w_i, y_a)
    idx = q.gram.rref()[2]
    phi = Matrix([q.span.basis.data[i] for i in idx], cols=space.total_dim) * space.form
    phi = phi * dual_span.basis.transpose()
    g = Matrix([[q.gram.data[i][j] for j in idx] for i in idx], cols=len(idx))
    return QuadricOnSubspace(space.total_dim, dual_span, phi.transpose() * g.inverse() * phi)


def standard_doubled_space(m: int) -> LagrangianDecomposition:
    """k^m plus its dual with the pairing form, decomposed into the two factors."""
    space = SymplecticSpace([[int(j == i + m) - int(i == j + m) for j in range(2 * m)] for i in range(2 * m)])
    l1, l2 = (Subspace.from_rows(2 * m, [unit_vector(2 * m, k + i) for i in range(m)]) for k in (0, m))
    return LagrangianDecomposition(space, l1, l2)


def lagrangian_from_quadric(q: QuadricOnSubspace) -> Subspace:
    """The unique Lagrangian in L + L-dual inducing the given quadric on L.

    The quadric lives on L = k^m (ambient_dim = m); the result lives in
    k^(2m) with the standard pairing form, and consists of the graph points
    (x, q(x) mod the annihilator of the span) plus the pure annihilator.
    """
    m = q.ambient_dim
    at = {p: j for j, p in enumerate(q.span.pivots)}  # q(x) at e_p is the gram column of pivot p
    rows = [w + [g[at[p]] if p in at else 0 for p in range(m)]
            for w, g in zip(q.span.basis_rows(), q.gram.data)]
    rows += [[0] * m + f for f in q.span.annihilator().basis_rows()]
    return Subspace.from_rows(2 * m, rows)


class QuotientModel:
    """Coordinates on U/I for nested subspaces I inside U, with U given by
    the span of its equations: U is their annihilator.

    The complement basis consists of the RREF rows of U whose pivots are not
    pivots of I, which makes the model canonical; ``comp_int_rows`` holds
    them as U's primitive integer rows, each the RREF row times its pivot.
    """

    def __init__(self, inner: Subspace, equations: Subspace):
        if any(sum(map(mul, f, r)) for f in equations.int_rows for r in inner.int_rows):
            raise ValueError("inner subspace is not contained in the outer one")
        outer = equations.annihilator()
        self.inner = inner
        self.outer = outer
        inner_pivots = set(inner.pivots)
        self.comp_int_rows = [r for r, p in zip(outer.int_rows, outer.pivots) if p not in inner_pivots]
        self.comp_pivots = [p for p in outer.pivots if p not in inner_pivots]
        self.dim = len(self.comp_int_rows)
        self.equations = equations.int_rows

    def project_subspace(self, s: Subspace) -> Subspace:
        """The image of s meet U in U/I, by one elimination of the rows
        [f(s_i) over the equations f | the coordinates of s_i + I] of
        ``project_contained``.  The meet is spanned by the combinations
        sum c_i s_i with sum c_i f(s_i) = 0, and those coordinates are
        linear, so the reduced rows with their pivot in the second block
        span the image, in reduced row echelon form."""
        e = len(self.equations)
        stack = []
        for r in s.int_rows:
            w = self.inner.remainder(r)
            stack.append([sum(map(mul, f, r)) for f in self.equations] + [w[p] for p in self.comp_pivots])
        rows, pivots = _gauss_jordan(stack, e + self.dim)
        return Subspace(self.dim, [r[e:] for r, c in zip(rows, pivots) if c >= e],
                        tuple(c - e for c in pivots if c >= e))

    def project_contained(self, rows) -> Subspace:
        """The image in U/I of the span of integer rows lying in U: up to a
        positive scalar, the coordinates of v + I in the complement basis are
        those of the remainder of v modulo I at the complement pivots."""
        rows = [self.inner.remainder(v) for v in rows]
        return Subspace.from_rows(self.dim, [[w[p] for p in self.comp_pivots] for w in rows])


@dataclass(frozen=True)
class IsotropicReduction:
    """Result of reducing a decomposed space by an isotropic subspace of l1."""

    reduced: LagrangianDecomposition
    reduced_a: Subspace
    model: QuotientModel


def isotropic_reduce(dec: LagrangianDecomposition, a: Subspace, iso: Subspace) -> IsotropicReduction:
    """Pass to I-perp mod I, carrying the Lagrangian a and the decomposition."""
    space = dec.space
    if not dec.l1.contains_subspace(iso):
        raise ValueError("isotropic subspace must lie in the first summand")
    # I-perp is the annihilator of the rows of I times the form
    model = QuotientModel(iso, Subspace.from_rows(space.total_dim, _times_form(space, iso.int_rows)))
    # the complement rows over L, the lcm of their pivot entries, are RREF
    # rows: they pair under d * form to d L^2 times the reduced form
    comp, big = over_pivots(model.comp_int_rows, model.comp_pivots)
    form = [[sum(map(mul, x, y)) for y in comp] for x in _times_form(space, comp)]
    red_space = SymplecticSpace(form, space.int_form[1] * big * big)
    red_l1 = model.project_contained(dec.l1.int_rows)  # I in l1 = l1-perp, so l1 lies in I-perp
    red_dec = LagrangianDecomposition(red_space, red_l1, model.project_subspace(dec.l2))
    return IsotropicReduction(red_dec, model.project_subspace(a), model)
