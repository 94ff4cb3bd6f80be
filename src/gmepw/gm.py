"""Gushel-Mukai data: validation of the defining quadric diagram, the
ordinary/special/non-lci trichotomy, the canonical splitting of the target
space, rational point sampling on the Grassmannian hull, the opposite
construction, and discriminant polynomials along lines.

Coordinates are fixed once: the 6-space has basis e1..e6, the distinguished
hyperplane is spanned by e1..e5, and the line element is the coefficient of
e6.  The degree-2 monomials of the 5-space are ordered 12 < 13 < ... < 45.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exterior import monomial, top_pairing, wedge
from .linalg import Matrix, Subspace, clear_denominators, kernel, unit_vector, vec, vec_dot
from .polynomials import Poly, line_det
from .sampling import random_nonzero_vector, rng_from_seed

L2V5_DIM = 10  # degree-2 monomials of the 5-space


class GmError(ValueError):
    """Mathematically invalid input to a construction."""


@dataclass(frozen=True)
class GMData:
    """The tuple (W, V6, V5, L, mu, q, epsilon) in fixed coordinates.

    W is k^(n+5); mu maps W into the degree-2 power of the 5-space
    (10 x (n+5) matrix over the monomial rows); q is one symmetric matrix
    per basis vector of the 6-space; epsilon scales the determinant
    trivialization of the 5-space.
    """

    n: int
    mu: Matrix
    q: tuple[Matrix, ...]
    epsilon: Fraction = Fraction(1)

    def __post_init__(self):
        w = self.n + 5
        if self.mu.rows != L2V5_DIM or self.mu.cols != w:
            raise GmError(f"mu must be 10 x {w}")
        if len(self.q) != 6:
            raise GmError("q must consist of six symmetric matrices")
        for m in self.q:
            if m.rows != w or m.cols != w:
                raise GmError(f"each q matrix must be {w} x {w}")
        if self.epsilon == 0:
            raise GmError("epsilon must be invertible")

    @property
    def w_dim(self) -> int:
        return self.n + 5

    def q_of(self, v) -> Matrix:
        """The symmetric matrix of the quadric at a vector of the 6-space."""
        v = vec(v)
        if len(v) != 6:
            raise GmError("quadric direction must lie in the 6-space")
        acc = Matrix.zero(self.w_dim, self.w_dim)
        for c, m in zip(v, self.q):
            if c != 0:
                acc = acc + m.scale(c)
        return acc

    def ker_mu(self) -> Subspace:
        return kernel(self.mu)


GMTypeTag = str  # "ordinary" | "special" | "non_lci"

ORDINARY = "ordinary"
SPECIAL = "special"
NON_LCI = "non_lci"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    gm_type: GMTypeTag | None
    message: str = ""
    witness: tuple | None = None


def plucker_gram(mu: Matrix, i: int, epsilon: Fraction) -> Matrix:
    """Gram of the Pluecker quadric at basis vector e_(i+1) of the 5-space:
    entry (a, b) is epsilon * top(e_i ^ mu(w_a) ^ mu(w_b)), read off the
    integer top pairing T as epsilon * E T mu with rows e_i ^ mu(w_a) in E."""
    ei = monomial(5, (i,))
    cols = [mu.col(b) for b in range(mu.cols)]
    paired = [[vec_dot(t, c) for t in top_pairing(5, 3)] for c in cols]
    return Matrix([[epsilon * vec_dot(wedge(5, 1, 2, ei, a), p) for p in paired] for a in cols], cols=mu.cols)


def validate(d: GMData) -> ValidationReport:
    """Check the defining identities exactly and classify the data.

    The first violated identity is reported with the offending direction and
    pair of W-basis indices.
    """
    for i, m in enumerate(d.q):
        if not m.is_symmetric():
            return ValidationReport(False, None, f"q(e{i+1}) is not symmetric")
    for i in range(5):
        expected = plucker_gram(d.mu, i, d.epsilon).data
        for a in range(d.w_dim):
            for b in range(a, d.w_dim):
                if d.q[i].data[a][b] != expected[a][b]:
                    return ValidationReport(
                        False,
                        None,
                        f"q(e{i+1})(w{a+1}, w{b+1}) violates the wedge identity",
                        witness=(i, a, b),
                    )
    return ValidationReport(True, classify(d))


def classify(d: GMData) -> GMTypeTag:
    """ordinary / special / non_lci according to the kernel of mu."""
    ker = d.ker_mu()
    if ker.dim == 0:
        return ORDINARY
    if ker.dim > 1:
        return NON_LCI
    k = ker.int_rows[0]
    return SPECIAL if vec_dot(_kernel_form(d, k), k) else NON_LCI


def _kernel_form(d: GMData, k) -> list[Fraction]:
    """q(v)(k, .) for a kernel vector k of mu and any v off the hyperplane.

    Under the wedge identity, mu(k) = 0 makes row k of every Pluecker
    quadric vanish, so the form depends on v only through its e6 part; this
    is checked for v = e6 and v = e1 + e6.
    """
    forms = [d.q_of(v).left_apply(k) for v in (unit_vector(6, 5), [1, 0, 0, 0, 0, 1])]
    if forms[0] != forms[1]:
        raise GmError("inconsistent kernel values; data violates the wedge identity")
    return forms[0]


def split_w(d: GMData) -> tuple[Subspace, Subspace, list[Fraction]]:
    """Canonical splitting of W into the kernel line W1 and its q-orthogonal W0.

    Only defined for lci data.  Returns (W0, W1, f) with f the coordinate
    functional of W1 along W0: f = q(v)(k, .) / q(v)(k, k) for k the basis
    vector of W1, so f(k) = 1 and ker f = W0; for ordinary data W1 = 0 and
    f = 0.
    """
    w1 = d.ker_mu()
    if w1.dim == 0:
        return Subspace.full(d.w_dim), w1, [Fraction(0)] * d.w_dim
    if w1.dim == 1:
        k = w1.basis.data[0]
        f = _kernel_form(d, k)
        fk = vec_dot(f, k)
        if fk:
            return Subspace.from_rows(d.w_dim, [f]).annihilator(), w1, [x / fk for x in f]
    raise GmError("splitting needs lci data")


def membership(d: GMData, w) -> str:
    """Position of a point of P(W): on_x, on_hull_only, or off."""
    w = vec(w)
    if all(x == 0 for x in w):
        raise GmError("the zero vector is not a point")
    vals = [vec_dot(w, g.apply(w)) for g in d.q]
    if all(v == 0 for v in vals):
        return "on_x"
    if all(v == 0 for v in vals[:5]):
        return "on_hull_only"
    return "off"


def hull_point_sample(d: GMData, seed) -> list[Fraction]:
    """A rational point of the Grassmannian hull.

    Picks a random vector v1 of the 5-space, solves the linear condition
    v1 ^ v2 in mu(W) for an independent v2, and returns a W-point mapping to
    v1 ^ v2.  Such a point satisfies every hyperplane quadric exactly.
    Directions with no solution are resampled.
    """
    if classify(d) == NON_LCI:
        raise GmError("sampling needs lci data")
    rng = rng_from_seed(seed)
    mu_image = Subspace.from_rows(L2V5_DIM, [d.mu.col(j) for j in range(d.w_dim)])
    ann = mu_image.annihilator().int_rows  # functionals cutting mu(W)
    for _ in range(100):
        v1 = random_nonzero_vector(rng, 5, 4)
        # the v2 on which every functional of v1 ^ v2 vanishes
        wedges = [wedge(5, 1, 1, v1, monomial(5, (j,))) for j in range(5)]
        sol = Subspace.from_rows(5, [[vec_dot(f, wj) for wj in wedges] for f in ann]).annihilator()
        # want a kernel vector independent of v1
        v1_line = Subspace.from_rows(5, [v1])
        candidate = None
        for row in sol.basis_rows():
            if not v1_line.contains(row):
                candidate = row
                break
        if candidate is None:
            continue
        target = wedge(5, 1, 1, v1, candidate)
        if not any(target):
            continue
        w = d.mu.solve(target)
        if w is None:
            continue
        return w
    raise GmError("hull sampling failed after 100 attempts")


def opposite(d: GMData) -> GMData:
    """Swap ordinary and special data.

    Ordinary data gains a one-dimensional summand carrying the fixed
    representative (coefficient 1) of the quadratic form induced by the e6
    coordinate; special data drops its kernel summand.  Applying the
    operation twice returns the original data for the fixed representative.
    """
    t = classify(d)
    if t == NON_LCI:
        raise GmError("opposite needs lci data")
    w = d.w_dim
    if t == ORDINARY:
        mu = Matrix([row + [Fraction(0)] for row in d.mu.copy_data()])
        qs = []
        for i, m in enumerate(d.q):
            block = [row + [Fraction(0)] for row in m.copy_data()]
            extra = [Fraction(0)] * w + [Fraction(1) if i == 5 else Fraction(0)]
            block.append(extra)
            qs.append(Matrix(block))
        return GMData(n=d.n + 1, mu=mu, q=tuple(qs), epsilon=d.epsilon)
    if d.n < 2:
        raise GmError("special input must have dimension at least 2")
    w0 = split_w(d)[0].basis
    mu = Matrix.from_cols([d.mu.apply(row) for row in w0.data])
    q0 = tuple(w0 * m * w0.transpose() for m in d.q)
    return GMData(n=d.n - 1, mu=mu, q=q0, epsilon=d.epsilon)


@dataclass(frozen=True)
class DiscriminantLine:
    """Determinant of the quadric family along a line, and its reduced form."""

    det_poly: Poly
    plucker_mult: int
    dis_poly: Poly | None
    dis_is_everything: bool = False
    mult_exceeds_expected: bool = False


def discriminant_on_line(d: GMData, v_a, v_b) -> DiscriminantLine:
    """det of the Gram family along v_a + t v_b, divided by the hyperplane factor.

    The determinant has degree at most dim W; the coefficient of e6 along the
    line enters with multiplicity at least n - 1 and is divided out exactly.
    A quotient of degree at most 6 remains whenever the determinant is not
    identically zero.
    """
    v_a, v_b = vec(v_a), vec(v_b)
    if Subspace.from_rows(6, [v_a, v_b]).dim < 2:
        raise GmError("the two points are dependent: the line degenerates")
    lam = Poly([v_a[5], v_b[5]])
    if lam.is_zero():
        raise GmError("line lies inside the hyperplane")
    w = d.w_dim
    # the family is linear in t: q(v_a) + t q(v_b) = (p0 + t p1) / den
    flat, den = clear_denominators([x for v in (v_a, v_b) for row in d.q_of(v).data for x in row])
    rows = [flat[k:k + w] for k in range(0, 2 * w * w, w)]
    p0, p1 = rows[:w], rows[w:]
    det_poly = line_det(p0, p1).scale(Fraction(1, den**w))
    if det_poly.is_zero():
        return DiscriminantLine(det_poly, 0, None, dis_is_everything=True)
    if lam.degree == 1:
        t0 = -lam.coeffs[0] / lam.coeffs[1]
        mult = det_poly.root_multiplicity(t0)
    else:
        # the hyperplane is met at infinity; multiplicity is the degree drop
        mult = w - det_poly.degree
    expected = d.n - 1
    if mult < expected:
        raise GmError("determinant is not divisible by the expected hyperplane power")
    dis = det_poly
    for _ in range(expected):
        dis = dis.exact_div(lam)
    return DiscriminantLine(
        det_poly,
        mult,
        dis,
        mult_exceeds_expected=mult > expected,
    )
