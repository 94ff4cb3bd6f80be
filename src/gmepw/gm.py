"""Gushel-Mukai data: validation of the defining quadric diagram, the
ordinary/special/non-lci trichotomy, the canonical splitting of the target
space, rational point sampling on the Grassmannian hull, the opposite
construction, and discriminant polynomials along lines.

Coordinates are fixed once: the 6-space has basis e1..e6, the distinguished
hyperplane is spanned by e1..e5, and the line element is the coefficient of
e6.  The degree-2 monomials of the 5-space are ordered 12 < 13 < ... < 45.
``GMData`` stores ``linalg``'s integer form of mu and q only, and every
function here reads it; the ``Fraction`` matrices are built when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .exterior import monomial, top_pairing, wedge
from .linalg import Matrix, Subspace, clear_denominators, over_lcd, vec
from .polynomials import Poly, divide_power, interpolate, line_values
from .sampling import random_nonzero_vector, rng_from_seed

L2V5_DIM = 10  # degree-2 monomials of the 5-space
_ZERO = Fraction(0)


class GmError(ValueError):
    """Mathematically invalid input to a construction."""


class GMData:
    """The tuple (W, V6, V5, L, mu, q, epsilon) in fixed coordinates.

    W is k^(n+5); mu maps W into the degree-2 power of the 5-space
    (10 x (n+5) matrix over the monomial rows); q is one symmetric matrix
    per basis vector of the 6-space; epsilon scales the determinant
    trivialization of the 5-space.

    The data is given as mu = M / m and q(e_i) = Q_i / D_i for mu = (M, m)
    and q the six (Q_i, D_i): rows of ints or ``Fraction``s over positive
    denominators.  The constructor checks the shapes and puts the rows in
    lowest terms with ``over_lcd``, so equal data holds equal rows.  An
    instance stores those integer rows only (``int_q``, ``int_mu``), from
    which the kernel of mu and its form are derived on first use.  The
    ``Fraction`` matrices ``mu`` and ``q`` are the API edge, built only when
    read.  Instances are immutable.
    """

    def __init__(self, n: int, mu, q, epsilon: Fraction = Fraction(1)):
        w = n + 5
        if len(mu[0]) != L2V5_DIM or any(len(r) != w for r in mu[0]):
            raise GmError(f"mu must be 10 x {w}")
        if len(q) != 6:
            raise GmError("q must consist of six symmetric matrices")
        if any(len(g) != w or any(len(r) != w for r in g) for g, _ in q):
            raise GmError(f"each q matrix must be {w} x {w}")
        if epsilon == 0:
            raise GmError("epsilon must be invertible")
        ((mrows,), m), int_q = over_lcd([mu]), over_lcd(q)
        self.__dict__.update(n=n, epsilon=epsilon, int_mu=(list(zip(*mrows)), m), int_q=int_q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: GMData is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, GMData) and (self.n, self.epsilon, self.int_mu, self.int_q) == (
            other.n, other.epsilon, other.int_mu, other.int_q)

    def __hash__(self):
        return hash((self.n, self.epsilon))

    @cached_property
    def mu(self) -> Matrix:
        cols, m = self.int_mu
        return Matrix.from_int_rows(zip(*cols), m, self.w_dim)

    @cached_property
    def q(self) -> tuple[Matrix, ...]:
        qs, den = self.int_q
        return tuple(Matrix.from_int_rows(g, den, self.w_dim) for g in qs)

    @property
    def w_dim(self) -> int:
        return self.n + 5

    @cached_property
    def ker_mu(self) -> Subspace:
        return Subspace.from_rows(self.w_dim, list(zip(*self.int_mu[0]))).annihilator()

    @cached_property
    def ker_form(self) -> list[int] | None:
        """``_kernel_form`` of the kernel line of mu; None unless the kernel is a line."""
        return _kernel_form(self, self.ker_mu.int_rows[0]) if self.ker_mu.dim == 1 else None

    def int_q_of(self, v) -> tuple[list[list[int]], int]:
        """(P, den) with q(v) = P / den for integer rows P."""
        coeffs, vden = clear_denominators(vec(v))
        if len(coeffs) != 6:
            raise GmError("quadric direction must lie in the 6-space")
        qs, den = self.int_q
        rows = [[0] * self.w_dim for _ in range(self.w_dim)]
        for c, m in zip(coeffs, qs):
            if c:
                rows = [[x + c * y for x, y in zip(r, mr)] for r, mr in zip(rows, m)]
        return rows, vden * den

    def q_of(self, v) -> Matrix:
        """The symmetric matrix of the quadric at a vector of the 6-space."""
        return Matrix.from_int_rows(*self.int_q_of(v), self.w_dim)


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


def plucker_grams(cols) -> list[list[list[int]]]:
    """Grams of the five Pluecker quadrics over integer columns of mu: entry
    (a, b) of gram i is top(e_i ^ mu(w_a) ^ mu(w_b)), read off the integer
    top pairing T as E T mu with rows e_i ^ mu(w_a) in E.  The quadric q(e_i)
    of the data is epsilon times gram i."""
    paired = [[sum(map(mul, t, c)) for t in top_pairing(5, 3)] for c in cols]
    lefts = ([wedge(5, 1, 2, monomial(5, (i,)), a) for a in cols] for i in range(5))
    return [[[sum(map(mul, x, p)) for p in paired] for x in left] for left in lefts]


def validate(d: GMData) -> ValidationReport:
    """Check the defining identities exactly and classify the data.

    The first violated identity is reported with the offending direction and
    pair of W-basis indices.
    """
    w = d.w_dim
    qs, den = d.int_q
    for i, m in enumerate(qs):
        if any(m[a][b] != m[b][a] for a in range(w) for b in range(a)):
            return ValidationReport(False, None, f"q(e{i+1}) is not symmetric")
    cols, m = d.int_mu
    # q(e_i) = Q_i / D against epsilon G_i / m^2 for the integer gram G_i
    scale_q, scale_g = m * m * d.epsilon.denominator, d.epsilon.numerator * den
    for i, g in enumerate(plucker_grams(cols)):
        for a in range(w):
            for b in range(a, w):
                if qs[i][a][b] * scale_q != g[a][b] * scale_g:
                    message = f"q(e{i+1})(w{a+1}, w{b+1}) violates the wedge identity"
                    return ValidationReport(False, None, message, witness=(i, a, b))
    return ValidationReport(True, classify(d))


def classify(d: GMData) -> GMTypeTag:
    """ordinary / special / non_lci according to the kernel of mu."""
    ker = d.ker_mu
    if ker.dim == 0:
        return ORDINARY
    if ker.dim > 1:
        return NON_LCI
    return SPECIAL if sum(map(mul, d.ker_form, ker.int_rows[0])) else NON_LCI


def _kernel_form(d: GMData, k) -> list[int]:
    """D q(v)(k, .) for an integer kernel vector k of mu, v off the hyperplane
    and D the denominator of the q matrices.  Under the wedge identity mu(k) = 0
    makes row k of every Pluecker quadric vanish, so the form depends on v only
    through its e6 part; checked for v = e6 and v = e1 + e6 (q(e1)(k, .) = 0)."""
    qs = d.int_q[0]
    if any(sum(map(mul, k, col)) for col in zip(*qs[0])):
        raise GmError("inconsistent kernel values; data violates the wedge identity")
    return [sum(map(mul, k, col)) for col in zip(*qs[5])]


def split_w(d: GMData) -> tuple[Subspace, Subspace, list[Fraction]]:
    """Canonical splitting of W into the kernel line W1 and its q-orthogonal W0.

    Only defined for lci data.  Returns (W0, W1, f) with f the coordinate
    functional of W1 along W0: f = q(v)(k, .) / q(v)(k, k) for k the basis
    vector of W1, so f(k) = 1 and ker f = W0; for ordinary data W1 = 0 and
    f = 0.
    """
    w1, f = d.ker_mu, d.ker_form or [0] * d.w_dim
    fk = sum(map(mul, f, w1.int_rows[0])) if w1.dim == 1 else int(w1.dim == 0)
    if not fk:
        raise GmError("splitting needs lci data")
    return Subspace.from_rows(d.w_dim, [f]).annihilator(), w1, [Fraction(x, fk) for x in f]


def membership(d: GMData, w) -> str:
    """Position of a point of P(W): on_x, on_hull_only, or off.  For w = c / s
    with integer c, q(e_i)(w, w) = c^T Q_i c / (s^2 D) vanishes exactly when
    the integer c^T Q_i c does."""
    c = clear_denominators(vec(w))[0]
    if not any(c):
        raise GmError("the zero vector is not a point")
    if len(c) != d.w_dim:
        raise GmError(f"a point of P(W) has {d.w_dim} coordinates")
    vals = [sum(x * sum(map(mul, row, c)) for x, row in zip(c, g) if x) for g in d.int_q[0]]
    if any(vals[:5]):
        return "off"
    return "on_hull_only" if vals[5] else "on_x"


def hull_point_sample(d: GMData, seed) -> list[Fraction]:
    """A rational point of the Grassmannian hull.

    Picks a random vector v1 of the 5-space, solves the linear condition
    v1 ^ v2 in mu(W) for an independent v2, and returns a W-point mapping to
    v1 ^ v2.  Such a point satisfies every hyperplane quadric exactly.
    Directions with no solution are resampled.  The point is the particular
    solution of the reduced row echelon form, with the free coordinates 0.
    """
    if classify(d) == NON_LCI:
        raise GmError("sampling needs lci data")
    rng = rng_from_seed(seed)
    w = d.w_dim
    cols, m = d.int_mu
    ann = Subspace.from_rows(L2V5_DIM, cols).annihilator().int_rows  # functionals cutting mu(W)
    for _ in range(100):
        v1 = random_nonzero_vector(rng, 5, 4)
        # the v2 on which every functional of v1 ^ v2 vanishes
        wedges = [wedge(5, 1, 1, v1, monomial(5, (j,))) for j in range(5)]
        sol = Subspace.from_rows(5, [[sum(map(mul, f, wj)) for wj in wedges] for f in ann]).annihilator()
        # want a kernel vector independent of v1: s v2 for the RREF row v2, s its pivot value
        v1_line = Subspace.from_rows(5, [v1])
        v2, s = next(((r, r[c]) for r, c in zip(sol.int_rows, sol.pivots) if not v1_line.contains(r)), (None, 1))
        if v2 is None:
            continue
        # v1 ^ v2 != 0; mu x = v1 ^ v2 / s, as M x' = v1 ^ v2 with x = m x' / s
        aug = Subspace.from_rows(w + 1, [(*r, t) for r, t in zip(zip(*cols), wedge(5, 1, 1, v1, v2))])
        if w not in aug.pivots:
            at = {c: Fraction(r[w] * m, r[c] * s) for r, c in zip(aug.int_rows, aug.pivots)}
            return [at.get(j, _ZERO) for j in range(w)]
    raise GmError("hull sampling failed after 100 attempts")


def opposite(d: GMData) -> GMData:
    """Swap ordinary and special data.

    Ordinary data gains a one-dimensional summand carrying the fixed
    representative (coefficient 1) of the quadratic form induced by the e6
    coordinate; special data drops its kernel summand, keeping mu and q on
    the reduced row echelon basis of W0.  Applying the operation twice
    returns the original data for the fixed representative.
    """
    t = classify(d)
    if t == NON_LCI:
        raise GmError("opposite needs lci data")
    w = d.w_dim
    cols, m = d.int_mu
    qs, den = d.int_q
    if t == ORDINARY:
        mu = [list(row) for row in zip(*cols, [0] * L2V5_DIM)]  # a zero column appended
        q = [([[*row, 0] for row in g] + [[0] * w + [den * int(i == 5)]], den) for i, g in enumerate(qs)]
        return GMData(d.n + 1, (mu, m), q, d.epsilon)
    if d.n < 2:
        raise GmError("special input must have dimension at least 2")
    # the RREF basis of W0 is B_r / L for its scaled rows B_r over L
    basis, big = split_w(d)[0].scaled_rows
    mu = [[sum(map(mul, row, r)) for r in basis] for row in zip(*cols)]
    q0 = []
    for g in qs:
        gr = [[sum(map(mul, row, r)) for row in g] for r in basis]
        q0.append([[sum(map(mul, x, y)) for y in gr] for x in basis])
    return GMData(d.n - 1, (mu, m * big), [(g, den * big * big) for g in q0], d.epsilon)


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
    if not (v_a[5] or v_b[5]):
        raise GmError("line lies inside the hyperplane")
    w = d.w_dim
    # the family is linear in t: for v_a, v_b = a / s, b / s with integer a, b
    # and q(a), q(b) = P_a / D, P_b / D, it is (P_a + t P_b) / (s D), whose
    # determinant is det / (s D)^w for the integer polynomial det
    ab, s = clear_denominators(v_a + v_b)
    (pa, den), (pb, _) = d.int_q_of(ab[:6]), d.int_q_of(ab[6:])
    det = interpolate(line_values(pa, pb))
    scale = (s * den) ** w
    det_poly = Poly([Fraction(x, scale) for x in det])
    if not det:
        return DiscriminantLine(det_poly, 0, None, dis_is_everything=True)
    expected = d.n - 1
    lam0, lam1 = ab[5], ab[11]  # lambda = (lam0 + lam1 t) / s
    if lam1:
        # det / prim(lambda)^k for k = 0, 1, ... while it divides: one chain
        # of integer quotients gives the multiplicity of lambda's root and
        # the reduced form, as lambda = g prim(lambda) / s, g = gcd(lam0, lam1)
        quotients = [det]
        while (q := divide_power(quotients[-1], lam0, lam1, 1)) is not None:
            quotients.append(q)
        mult = len(quotients) - 1
    else:
        # the hyperplane is met at infinity; multiplicity is the degree drop
        mult = w - (len(det) - 1)
    if mult < expected:
        raise GmError("determinant is not divisible by the expected hyperplane power")
    # dis = det / lambda^expected, lambda = g prim(lambda) / s: the integer
    # part below times (s / g)^expected / scale
    if not lam1:
        dis, g = det, lam0  # the constant lambda^expected is all in the factor
    elif expected >= 0:
        dis, g = quotients[expected], gcd(lam0, lam1)
    else:  # n = 0: dis = det * lambda, one factor prim(lambda) = a + b t
        g = gcd(lam0, lam1)
        a, b = lam0 // g, lam1 // g
        dis = [a * x + b * y for x, y in zip(det + [0], [0] + det)]
    factor = Fraction(s, g) ** expected / scale
    return DiscriminantLine(det_poly, mult, Poly([x * factor for x in dis]), mult_exceeds_expected=mult > expected)
