"""Seeded random generators for vectors, integer matrices, subspaces, and
Lagrangians.

Randomness always flows through an explicit ``random.Random`` instance so
that every test and CLI run is reproducible from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exterior import SymplecticSpace
from .linalg import Subspace, det_int
from .quadrics import LagrangianDecomposition, is_lagrangian, omega_orthogonal


def rng_from_seed(seed) -> random.Random:
    return random.Random(seed)


def random_int_fraction(rng: random.Random, height: int = 5) -> Fraction:
    return Fraction(rng.randint(-height, height))


def random_vector(rng: random.Random, n: int, height: int = 5) -> list[Fraction]:
    return [random_int_fraction(rng, height) for _ in range(n)]


def random_nonzero_vector(rng: random.Random, n: int, height: int = 5) -> list[Fraction]:
    while True:
        v = random_vector(rng, n, height)
        if any(x != 0 for x in v):
            return v


def _random_rows(rng: random.Random, n: int, height: int) -> list[list[int]]:
    return [[rng.randint(-height, height) for _ in range(n)] for _ in range(n)]


def random_invertible(rng: random.Random, n: int, height: int = 5) -> list[list[int]]:
    """Random invertible integer rows."""
    while True:
        m = _random_rows(rng, n, height)
        if det_int(m) != 0:
            return m


def random_symmetric(rng: random.Random, n: int, height: int = 5, rank: int | None = None) -> list[list[int]]:
    """Random symmetric integer rows, optionally of prescribed (generic)
    rank: T^t diag(d_1, ..., d_rank, 0, ...) T for an invertible T."""
    if rank is None:
        m = _random_rows(rng, n, height)
        return [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    d = [rng.choice([1, 2, -1, 3]) for _ in range(rank)]
    t = random_invertible(rng, n, 2)
    return [[sum(c * r[i] * r[j] for c, r in zip(d, t)) for j in range(n)] for i in range(n)]


def symplectic_basis(space: SymplecticSpace) -> tuple[list, list]:
    """A symplectic frame (p_i, q_i): omega(p_i, q_j) = delta_ij, blocks isotropic.

    Deterministic greedy construction from the standard coordinates.
    """
    n = space.total_dim
    remaining = Subspace.full(n)
    ps, qs = [], []
    while remaining.dim > 0:
        p = remaining.basis_rows()[0]
        # find a partner with omega(p, q) nonzero inside the remaining space
        q = None
        for cand in remaining.basis_rows()[1:]:
            val = space.omega(p, cand)
            if val != 0:
                q = [x / val for x in cand]
                break
        if q is None:
            raise ValueError("form degenerate on the remaining space")
        ps.append(p)
        qs.append(q)
        # orthogonalize the rest against the hyperbolic pair
        new_rows = []
        for r in remaining.basis_rows():
            a = space.omega(p, r)
            b = space.omega(q, r)
            corrected = [x - a * y + b * z for x, y, z in zip(r, q, p)]
            new_rows.append(corrected)
        candidate = Subspace.from_rows(n, new_rows)
        pq = Subspace.from_rows(n, [p, q])
        remaining = candidate.intersect(omega_orthogonal(space, pq))
    return ps, qs


def standard_lagrangian_pair(space: SymplecticSpace) -> LagrangianDecomposition:
    ps, qs = symplectic_basis(space)
    n = space.total_dim
    return LagrangianDecomposition(
        space, Subspace.from_rows(n, ps), Subspace.from_rows(n, qs)
    )


def random_lagrangian(
    space: SymplecticSpace, rng: random.Random, height: int = 4
) -> Subspace:
    """Random Lagrangian as the graph of a random symmetric matrix.

    The graph is taken over one of the two halves of a symplectic frame
    (chosen at random) and the symmetric matrix may be rank-deficient, so
    all corank strata of the induced quadrics are reachable.
    """
    m = space.total_dim // 2
    ps, qs = symplectic_basis(space)
    if rng.random() < 0.5:
        # swap the roles; negate to keep omega(frame_i, partner_j) = delta
        ps, qs = qs, [[-x for x in p] for p in ps]
    s = random_symmetric(rng, m, height, rank=rng.choice([m, m, m, rng.randint(0, m)]))
    rows = []
    for i in range(m):
        v = list(ps[i])
        for j in range(m):
            if s[i][j] != 0:
                v = [x + s[i][j] * y for x, y in zip(v, qs[j])]
        rows.append(v)
    lag = Subspace.from_rows(space.total_dim, rows)
    if not is_lagrangian(space, lag):
        raise ValueError("the sampled graph is not Lagrangian")
    return lag
