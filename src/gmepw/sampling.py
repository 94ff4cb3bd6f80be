"""Seeded random generators for vectors, integer matrices, subspaces, and
Lagrangians.

Randomness always flows through an explicit ``random.Random`` instance so
that every test and CLI run is reproducible from its seed.

A random Lagrangian is the graph of a symmetric matrix over a symplectic
frame, and every form in the package pairs coordinates: each integer row of
``SymplecticSpace.int_form`` holds one entry.  The top coefficient of
e_I ^ e_J is non-zero iff I and J are complementary, so ``top_pairing(6, 3)``
is a signed permutation; the extended space adds the pair (k, L), and the
standard doubled space pairs e_i with e_(i+m).  On such a form the greedy
Gram-Schmidt from the standard coordinates (the reference in the test
oracles) takes p = e_i for the smallest index i left, finds the one partner
j with omega(e_i, e_j) = f / d non-zero and sets q = (d / f) e_j; every
other e_t is omega-orthogonal to both, so orthogonalizing fixes it and kills
e_i and e_j.  The frame is therefore read off the integer rows of the form.
"""

from __future__ import annotations

import random

from .exterior import SymplecticSpace
from .linalg import Subspace, det_int, over_lcd
from .quadrics import LagrangianDecomposition, is_lagrangian


def rng_from_seed(seed) -> random.Random:
    return random.Random(seed)


def random_vector(rng: random.Random, n: int, height: int = 5) -> list[int]:
    return [rng.randint(-height, height) for _ in range(n)]


def random_nonzero_vector(rng: random.Random, n: int, height: int = 5) -> list[int]:
    while True:
        v = random_vector(rng, n, height)
        if any(v):
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


def symplectic_frame(space: SymplecticSpace) -> tuple[list, list, int]:
    """The symplectic frame (p_k, q_k) of a form that pairs coordinates, as
    integer rows over one denominator L (``over_lcd``): p_k = e_i and
    q_k = (d / f) e_j for each pair i < j whose integer row i holds its one
    entry f at j, so omega(p_k, q_l) = delta_kl and both blocks are isotropic.
    Raises ValueError for a form with a row of more than one entry."""
    nonzero, d = space.int_form
    if any(len(row) != 1 for row in nonzero):
        raise ValueError("the form does not pair coordinates")
    n = space.total_dim
    pairs = [(i, j, f) for i, [(j, f)] in enumerate(nonzero) if i < j]
    e = [[int(s == t) for s in range(n)] for t in range(n)]
    (ps, *qs), den = over_lcd([([e[i] for i, _, _ in pairs], 1),
                               *(([[x * d if f > 0 else -x * d for x in e[j]]], abs(f)) for _, j, f in pairs)])
    return ps, [q for [q] in qs], den


def standard_lagrangian_pair(space: SymplecticSpace) -> LagrangianDecomposition:
    ps, qs, _ = symplectic_frame(space)
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
    ps, qs, _ = symplectic_frame(space)
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
