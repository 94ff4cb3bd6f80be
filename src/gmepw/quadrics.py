"""Lagrangian subspaces of a decomposed symplectic space, the associated
projectively dual pairs of quadrics, and isotropic reduction.

A quadric is a subvariety of a (possibly empty) linear subspace P(W) of the
ambient projective space, defined by a (possibly zero) symmetric form on W.
Spans are stored as canonical subspaces of the symplectic coordinate space
and Gram matrices refer to the RREF basis of the span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .exterior import SymplecticSpace
from .linalg import Matrix, Subspace, image_and_lifts, kernel, unit_vector


def is_isotropic(space: SymplecticSpace, s: Subspace) -> bool:
    b = s.basis
    return (b * space.form * b.transpose()).is_zero()


def is_lagrangian(space: SymplecticSpace, s: Subspace) -> bool:
    return 2 * s.dim == space.total_dim and is_isotropic(space, s)


def omega_orthogonal(space: SymplecticSpace, s: Subspace) -> Subspace:
    """The symplectic orthogonal of a subspace."""
    if s.dim == 0:
        return Subspace.full(space.total_dim)
    return kernel(s.basis * space.form)


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
    def _projector(self) -> Matrix:
        """The projection to l1 along l2: row k is pr1(e_k), the lift of e_k
        through the stacked bases [l1; l2] applied to [l1; 0]."""
        b1, b2 = self.l1.basis_rows(), self.l2.basis_rows()
        n = self.space.total_dim
        zero = Matrix.zero(len(b2), n).data
        return image_and_lifts(Matrix(b1 + b2, cols=n), Matrix(b1 + zero, cols=n))[1]

    def project_rows(self, m: Matrix) -> tuple[Matrix, Matrix]:
        """Componentwise projection of each row of a matrix."""
        p1 = m * self._projector
        return p1, m - p1


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
    p1, p2 = dec.project_rows(a.basis)
    return p1 * dec.space.form * p2.transpose()


def _induced_quadric(dec: LagrangianDecomposition, a: Subspace, side: int) -> QuadricOnSubspace:
    """Quadric induced on the projection W of a to l1 (side=1) or l2 (side=2).

    With lifts X in a of the basis of W, the gram omega(pr1 x, pr2 y) is
    W Omega X^T on side 1 and X Omega W^T on side 2: the summands are
    isotropic, so the other component of X pairs to zero with W, and a
    different lift changes X by a vector of a meet the other summand, which
    pairs to zero because a is Lagrangian.
    """
    space = dec.space
    projected = dec.project_rows(a.basis)[side - 1]
    w, lifts = image_and_lifts(projected, a.basis)
    if side == 1:
        gram = w.basis * space.form * lifts.transpose()
    else:
        gram = lifts * space.form * w.basis.transpose()
    return QuadricOnSubspace(space.total_dim, w, gram)


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


def pairing_annihilator_in(
    space: SymplecticSpace, s: Subspace, inside: Subspace
) -> Subspace:
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
    kq = q.kernel_subspace()
    dual_span = pairing_annihilator_in(space, kq, dst)
    # reduced form on span/kernel: the span basis rows independent modulo the
    # kernel are the pivot columns past the kernel's in [kernel | span]
    stack = Matrix.from_cols(kq.basis_rows() + q.span.basis_rows())
    red_idx = [c - kq.dim for c in stack.rref()[2] if c >= kq.dim]
    if not red_idx:
        gram = Matrix.zero(dual_span.dim, dual_span.dim)
    else:
        # phi[i][a] = omega(w_i, y_a) for the representatives w and the dual span y
        reps = Matrix([q.span.basis.data[i] for i in red_idx])
        phi = reps * space.form * dual_span.basis.transpose()
        gram = phi.transpose() * q.gram.submatrix(red_idx, red_idx).inverse() * phi
    return QuadricOnSubspace(space.total_dim, dual_span, gram)


def standard_doubled_space(m: int) -> LagrangianDecomposition:
    """k^m plus its dual with the pairing form, decomposed into the two factors."""
    form = Matrix.zero(2 * m, 2 * m)
    for i in range(m):
        form.data[i][m + i] = Fraction(1)
        form.data[m + i][i] = Fraction(-1)
    space = SymplecticSpace(2 * m, form)
    l1 = Subspace.from_rows(2 * m, [unit_vector(2 * m, i) for i in range(m)])
    l2 = Subspace.from_rows(2 * m, [unit_vector(2 * m, m + i) for i in range(m)])
    return LagrangianDecomposition(space, l1, l2)


def lagrangian_from_quadric(q: QuadricOnSubspace) -> Subspace:
    """The unique Lagrangian in L + L-dual inducing the given quadric on L.

    The quadric lives on L = k^m (ambient_dim = m); the result lives in
    k^(2m) with the standard pairing form, and consists of the graph points
    (x, q(x) mod the annihilator of the span) plus the pure annihilator.
    """
    m = q.ambient_dim
    rows = []
    span_rows = q.span.basis_rows()
    for i, w in enumerate(span_rows):
        functional = [Fraction(0)] * m
        for j, p in enumerate(q.span.pivots):
            functional[p] = q.gram.data[i][j]
        rows.append(w + functional)
    for f in q.span.annihilator().basis_rows():
        rows.append([Fraction(0)] * m + f)
    return Subspace.from_rows(2 * m, rows)


class QuotientModel:
    """Coordinates on U/I for nested subspaces I inside U.

    The complement basis consists of the RREF rows of U whose pivots are not
    pivots of I, which makes the model canonical; ``comp_int_rows`` holds
    them as U's primitive integer rows, each the RREF row times its pivot.
    """

    def __init__(self, inner: Subspace, outer: Subspace):
        if not outer.contains_subspace(inner):
            raise ValueError("inner subspace is not contained in the outer one")
        self.inner = inner
        self.outer = outer
        inner_pivots = set(inner.pivots)
        self.comp_int_rows = [
            row for row, piv in zip(outer.int_rows, outer.pivots) if piv not in inner_pivots
        ]
        self.comp_pivots = [p for p in outer.pivots if p not in inner_pivots]
        self.dim = len(self.comp_int_rows)

    def project_subspace(self, s: Subspace) -> Subspace:
        """The image of s meet U in U/I."""
        return self.project_contained(s.intersect(self.outer))

    def project_contained(self, s: Subspace) -> Subspace:
        """The image in U/I of a subspace s of U: the coordinates of v + I in
        the complement basis, up to a positive scalar, are those of the
        remainder of v modulo I at the complement pivots."""
        rows = [self.inner.remainder(v) for v in s.int_rows]
        return Subspace.from_rows(self.dim, [[w[p] for p in self.comp_pivots] for w in rows])


@dataclass(frozen=True)
class IsotropicReduction:
    """Result of reducing a decomposed space by an isotropic subspace of l1."""

    reduced: LagrangianDecomposition
    reduced_a: Subspace
    model: QuotientModel


def isotropic_reduce(
    dec: LagrangianDecomposition, a: Subspace, iso: Subspace
) -> IsotropicReduction:
    """Pass to I-perp mod I, carrying the Lagrangian a and the decomposition."""
    space = dec.space
    if not dec.l1.contains_subspace(iso):
        raise ValueError("isotropic subspace must lie in the first summand")
    perp = omega_orthogonal(space, iso)
    model = QuotientModel(iso, perp)
    # comp * form * comp^T over the integer complement rows, each entry then
    # divided by the two rows' pivots and the form's common denominator
    comp = model.comp_int_rows
    pivots = [row[c] for row, c in zip(comp, model.comp_pivots)]
    nonzero, d = space.int_form
    left = []
    for row in comp:
        acc = [0] * space.total_dim
        for x, entries in zip(row, nonzero):
            if x:
                for j, f in entries:
                    acc[j] += x * f
        left.append(acc)
    form = Matrix([[Fraction(sum(map(mul, x, y)), d * px * py) for y, py in zip(comp, pivots)]
                   for x, px in zip(left, pivots)], cols=model.dim)
    red_space = SymplecticSpace(model.dim, form)
    red_l1 = model.project_contained(dec.l1)  # I in l1 = l1-perp, so l1 lies in I-perp
    red_l2 = model.project_subspace(dec.l2)
    red_dec = LagrangianDecomposition(red_space, red_l1, red_l2)
    return IsotropicReduction(red_dec, model.project_subspace(a), model)
