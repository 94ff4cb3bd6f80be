"""Lagrangian subspaces of a decomposed symplectic space, the associated
projectively dual pairs of quadrics, and isotropic reduction read off a lift.

Reduction along an isotropic I inside the first summand never builds the
quotient I-perp / I: ``isotropic_reduce`` returns the lift a meet I-perp,
whose second quadric is the reduced second quadric (the lemma is derived in
its docstring; side 1 does not transfer).  The explicit quotient model, with
its reduced space and decomposition, lives in the test oracles as the
reference the lift is checked against.

A quadric is a subvariety of a (possibly empty) linear subspace P(W) of the
ambient projective space, defined by a (possibly zero) symmetric form on W.
Spans are stored as canonical subspaces of the symplectic coordinate space
and Gram matrices refer to the RREF basis of the span.

Integers inside, ``Fraction`` at the API edge, in ``linalg``'s one integer
form: a rational matrix is integer rows over one common denominator.  The
form is ``SymplecticSpace.int_form``; isotropy and symplectic orthogonals
pair a subspace's primitive integer rows with it, the equations of
``isotropic_reduce`` are those rows paired with a's, and the projector of a
decomposition (sparse columns), projected rows and the gram of an induced
quadric are integer rows over a denominator too, RREF rows put over the lcm
of their pivots by ``linalg.over_pivots``.  A quadric holds its Gram matrix
in that form, in lowest terms; its corank, kernel, projective dual and graph
Lagrangian are computed from those rows, and the ``Fraction`` Gram matrix is
built only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .exterior import SymplecticSpace
from .linalg import (Matrix, Subspace, _bareiss, _gauss_jordan, int_image_and_lifts, over_lcd, over_pivots,
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


def _gram(space: SymplecticSpace, left, right, scales) -> tuple[list[list[int]], int]:
    """(G, D) with G / D the matrix omega(x_i, y_j) for x_i = left_i / scales_i
    and y_j = right_j / scales_j: X_i = L x_i and Y_j = L y_j over one
    denominator L (``over_lcd``) pair under d * form to d L^2 omega(x_i, y_j)."""
    blocks, big = over_lcd([([r], s) for r, s in zip([*left, *right], [*scales, *scales])])
    xs, ys = [r for (r,) in blocks[:len(left)]], [r for (r,) in blocks[len(left):]]
    return [[sum(map(mul, x, y)) for y in ys] for x in _times_form(space, xs)], space.int_form[1] * big * big


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
    def _projector(self) -> tuple[list[tuple[tuple[int, int], ...]], int]:
        """(the columns of P as their non-zero (index, value) pairs, D) for
        row k of P / D the projection pr1(e_k) to l1 along l2: the lift of
        e_k through the stacked bases [l1; l2] applied to [l1; 0], whose
        reduced row k has its pivot at k."""
        n = self.space.total_dim
        stack = [r + r for r in self.l1.int_rows] + [r + (0,) * n for r in self.l2.int_rows]
        rows, den = over_pivots(int_image_and_lifts(stack, n)[1], range(n))
        return [tuple((k, x) for k, x in enumerate(c) if x) for c in zip(*[row[n:] for row in rows])], den

    def project_rows(self, rows) -> tuple[list[list[int]], list[list[int]], int]:
        """(P1, P2, D) for integer rows r: the rows of P1 / D and P2 / D are
        the components pr1(r) in l1 and pr2(r) in l2, one multiply per
        non-zero entry of P (one per column for a coordinate split)."""
        cols, den = self._projector
        p1 = [[sum([r[k] * x for k, x in c]) for c in cols] for r in rows]
        return p1, [[den * x - y for x, y in zip(r, q)] for r, q in zip(rows, p1)], den


@dataclass(frozen=True)
class QuadricOnSubspace:
    """A quadric inside P(span) with a symmetric Gram matrix on the span's
    RREF basis: ``int_gram`` = (rows of ints or Fractions, den > 0), put in
    lowest terms by ``over_lcd`` so that equal quadrics hold equal rows."""

    span: Subspace
    int_gram: tuple

    def __post_init__(self):
        rows, den = self.int_gram
        k = self.span.dim
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ValueError("Gram size differs from span dimension")
        if any(rows[i][j] != rows[j][i] for i in range(k) for j in range(i)):
            raise ValueError("Gram matrix is not symmetric")
        (rows,), den = over_lcd([(rows, den)])
        object.__setattr__(self, "int_gram", (tuple(map(tuple, rows)), den))

    @cached_property
    def gram(self) -> Matrix:
        return Matrix.from_int_rows(*self.int_gram, self.span.dim)

    @property
    def corank(self) -> int:
        return self.span.dim - _bareiss(self.int_gram[0])[0]

    def kernel_subspace(self) -> Subspace:
        """Kernel of the form, lifted to ambient coordinates: a null row c of
        the gram gives sum_i c_i B_i for the span's ``scaled_rows`` B_i."""
        null = Subspace.from_rows(self.span.dim, self.int_gram[0]).annihilator()
        cols = list(zip(*self.span.scaled_rows[0]))
        rows = [[sum(map(mul, c, col)) for col in cols] for c in null.int_rows]
        return Subspace.from_rows(self.span.ambient_dim, rows)


def gram_on_lagrangian(dec: LagrangianDecomposition, a: Subspace) -> tuple[list[list[int]], int]:
    """Gram of the bilinear form omega(pr1 x, pr2 y) on the basis of a, as
    integer rows over a denominator."""
    p1, p2, den = dec.project_rows(a.int_rows)
    return _gram(dec.space, p1, p2, [den * row[c] for row, c in zip(a.int_rows, a.pivots)])


def _induced_quadric(dec: LagrangianDecomposition, a: Subspace, side: int) -> QuadricOnSubspace:
    """Quadric induced on the projection W of a to l1 (side=1) or l2 (side=2).

    With lifts X in a of the basis of W, the gram omega(pr1 x, pr2 y) is
    W Omega X^T on side 1 and X Omega W^T on side 2: the summands are
    isotropic, so the other component of X pairs to zero with W, and a
    different lift changes X by a vector of a meet the other summand, which
    pairs to zero because a is isotropic (a Lagrangian, or the lift of
    ``isotropic_reduce``).  W and X come from one reduction of the integer
    rows [D pr(a_i) | D a_i].
    """
    n = dec.space.total_dim
    p1, p2, den = dec.project_rows(a.int_rows)
    stack = [p + [den * x for x in r] for p, r in zip((p1, p2)[side - 1], a.int_rows)]
    w, rows = int_image_and_lifts(stack, n)
    pair = [r[:n] for r in rows], [r[n:] for r in rows]
    left, right = pair if side == 1 else pair[::-1]
    return QuadricOnSubspace(w, _gram(dec.space, left, right, [r[c] for r, c in zip(rows, w.pivots)]))


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


def dual_quadric_via_pairing(
    dec: LagrangianDecomposition, q: QuadricOnSubspace, side: int
) -> QuadricOnSubspace:
    """Projective dual of a quadric on one summand, realized on the other.

    The symplectic form restricts to a perfect pairing between l1 and l2;
    the dual of (span W, kernel K, form g) is supported on the annihilator of
    K in the opposite summand, has kernel the annihilator of W, and its form
    is the inverse of g on W/K transported through the pairing: for the span
    rows w_i at a set idx of pivot columns of g, which represent a basis of
    W/K, and the RREF basis y_a of the dual span, it is Phi^T g_idx^-1 Phi
    with Phi[i][a] = omega(w_i, y_a).

    In integers, with w_i = B_i / L and y_a = Y_a / M (``scaled_rows``), the
    form F / d (``int_form``) and g = G / D, Phi = phi / e for the integer
    phi = B_idx F Y^T and e = L M d.  One Gauss-Jordan of [G_idx | phi]
    (``int_image_and_lifts``) gives G_idx^-1 phi = X / S, its rows over the
    lcm S of their pivots, so the dual form is D phi^T X / (S e^2).
    """
    space = dec.space
    src, dst = (dec.l1, dec.l2) if side == 1 else (dec.l2, dec.l1)
    if not src.contains_subspace(q.span):
        raise ValueError("quadric does not live on the declared summand")
    dual_span = omega_orthogonal(space, q.kernel_subspace()).intersect(dst)
    rows, den = q.int_gram
    idx = Subspace.from_rows(q.span.dim, rows).pivots
    basis, ys = q.span.scaled_rows[0], dual_span.scaled_rows[0]
    phi = [[sum(map(mul, x, y)) for y in ys] for x in _times_form(space, [basis[i] for i in idx])]
    k = len(idx)
    image, lifts = int_image_and_lifts([[rows[i][j] for j in idx] + p for i, p in zip(idx, phi)], k)
    xs, big = over_pivots(lifts, image.pivots)
    e, m = space.int_form[1] * q.span.scaled_rows[1] * dual_span.scaled_rows[1], dual_span.dim
    gram = [[den * sum(p[a] * x[k + b] for p, x in zip(phi, xs)) for b in range(m)] for a in range(m)]
    return QuadricOnSubspace(dual_span, (gram, big * e * e))


def standard_doubled_space(m: int) -> LagrangianDecomposition:
    """k^m plus its dual with the pairing form, decomposed into the two factors."""
    space = SymplecticSpace([[int(j == i + m) - int(i == j + m) for j in range(2 * m)] for i in range(2 * m)])
    l1, l2 = (Subspace.from_rows(2 * m, [unit_vector(2 * m, k + i) for i in range(m)]) for k in (0, m))
    return LagrangianDecomposition(space, l1, l2)


def lagrangian_from_quadric(q: QuadricOnSubspace) -> Subspace:
    """The unique Lagrangian in L + L-dual inducing the given quadric on L.

    The quadric lives on L = k^m (``span.ambient_dim`` = m); the result lives in
    k^(2m) with the standard pairing form, and consists of the graph points
    (x, q(x) mod the annihilator of the span) plus the pure annihilator.
    """
    m = q.span.ambient_dim
    at = {p: j for j, p in enumerate(q.span.pivots)}  # q(x) at e_p is the gram column of pivot p
    (basis, big), (grams, den) = q.span.scaled_rows, q.int_gram
    # the graph row (B_r / L, g_r / D) of the RREF row B_r / L, times L D
    rows = [[den * x for x in b] + [big * g[at[p]] if p in at else 0 for p in range(m)]
            for b, g in zip(basis, grams)]
    rows += [[0] * m + list(f) for f in q.span.annihilator().int_rows]
    return Subspace.from_rows(2 * m, rows)


def isotropic_reduce(dec: LagrangianDecomposition, a: Subspace, iso) -> Subspace:
    """The lift a meet I-perp of the Lagrangian a along an isotropic I inside
    l1, given by any integer rows spanning I.  Linear symplectic reduction
    carries a to the Lagrangian a' of I-perp / I, the image of the lift, and
    the second quadric of the lift, ``_induced_quadric(dec, lift, 2)``, is
    the reduced second quadric of a'.

    As I lies in l1 = l1-perp, l1 lies in I-perp; as l1 and l2 pair
    perfectly, M = I-perp meet l2 has dimension dim l2 - dim I, so
    I-perp = l1 + M.  The reduced summands are l1 / I and the image of M,
    which M meets I in 0 and maps onto isomorphically.  For x in I-perp,
    pr1 x lies in l1 and pr2 x in M, so the reduced pr2 of the class of x
    is the class of pr2 x: the reduced second span is the isomorphic image
    of pr2(lift).  The reduced form is omega on representatives, so the
    reduced gram omega(pr1 x, pr2 y) is read on lifts x, y in a meet I-perp;
    changing x by z in a meet l1, the kernel of pr2 on the lift, adds
    omega(z, pr2 y) = omega(z, y) - omega(z, pr1 y) = 0 (a is Lagrangian,
    l1 isotropic), and changing a representative by i in I adds
    omega(i, pr2 y) = omega(i, y) - omega(i, pr1 y) = 0 (y lies in I-perp).
    So span, gram and corank agree under the isomorphism.  Side 1 does not
    transfer: pr1(lift) may contain vectors of I, which the quotient kills,
    so the lift's first quadric can have them in its span and its kernel.

    In integers, with d * form the rows of ``int_form``, the lift is the
    combinations sum c_j a_j with sum c_j d omega(i_r, a_j) = 0 for every row
    i_r of the spanning set: vanishing on a spanning set is vanishing on I,
    so the rows need not be independent, nor reduced.  One Gauss-Jordan of
    the rows [d omega(i_r, a_j) over r | a_j] gives them: a combination of
    the reduced rows vanishes on the equation block only if it uses no row
    with a pivot there, as those rows are independent on the block
    (dependent equations leave columns without a pivot), and the reduced
    rows with their pivot past the block vanish on it and are the RREF of
    the lift, each zero at the others' pivots.
    """
    if not all(dec.l1.contains(r) for r in iso):
        raise ValueError("isotropic subspace must lie in the first summand")
    eqs, k = _times_form(dec.space, iso), len(iso)
    rows, pivots = _gauss_jordan([[sum(map(mul, f, r)) for f in eqs] + list(r) for r in a.int_rows],
                                 k + a.ambient_dim)
    return Subspace(a.ambient_dim, [r[k:] for r, c in zip(rows, pivots) if c >= k],
                    tuple(c - k for c in pivots if c >= k))
