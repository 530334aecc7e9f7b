"""Exact irreducible character degrees via modular class-algebra splitting.

The degrees of the complex irreducible characters of a finite group are
recovered without any floating point: structure constants of the class
algebra are reduced modulo a prime l = 1 (mod exponent), the common
eigenvectors of the class-sum matrices over F_l are the reductions of the
central characters, and each degree chi(1) is the divisor d <= sqrt|G| of
|G| with d^2 = chi(1)^2 (mod l), unique because l*l > 4|G| makes
d -> d^2 mod l one-to-one on [1, sqrt|G|].

The common eigenspaces are found by splitting invariant subspaces class by
class (Dixon 1967, Schneider 1990).  Every open subspace is spanned by
central characters w with w[0] = 1, so its reduced echelon basis B pivots
first on column 0, and class i acts on it as the scalar B[0, i] exactly
when B[1:, i] is zero; a class whose column is zero there in every open
subspace splits nothing, and its matrix is never built.  Each subspace
carries its identity component: by column orthogonality e_0 is the sum of
(chi(1)^2/|G|) w_chi, every coefficient a unit mod l, so its part z in a
subspace meets every eigenvalue of each class matrix R there.  The Krylov
rows z, zR, zR^2, .. up to their first dependency give the minimal
polynomial f of R there, whose deg f distinct roots in F_l (one Horner
evaluation over all of F_l) are the eigenvalues.  With h = f/(x - lam),
z h(R)/f'(lam) is the identity component of the lam-eigenspace, spanning
it with u h(R) for the unit rows u outside the Krylov span: no
characteristic polynomial, no kernel.  A final line's identity component
is chi(1)^2/|G| times its row, and so cross-checks the degree lift.

All linear algebra is dense numpy arithmetic on int64 arrays mod l, so
repeated runs agree exactly.  The solver's invariants raise InvariantError,
so they also hold under python -O.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from math import isqrt

import numpy as np

from .groups import POINT_DTYPE, ClassStructure, PermGroup, conjugacy_classes
from .numbers import InvariantError, is_prime

CLASS_CAP = 150


class ClassCountError(Exception):
    """Raised when a group has more conjugacy classes than the solver cap."""


@dataclass(frozen=True)
class DegreeSpectrum:
    """The irreducible character degrees of a group, as (degree,
    multiplicity) pairs in increasing degree: an abelian group of order n
    has the one pair (1, n)."""

    pairs: tuple[tuple[int, int], ...]
    group_order: int

    def __post_init__(self):
        degrees = [d for d, _ in self.pairs]
        if not degrees or degrees[0] != 1:
            raise InvariantError("the least degree is not the 1 of the trivial character")
        if any(a >= b for a, b in zip(degrees, degrees[1:])):
            raise InvariantError("degrees are not strictly increasing")
        if any(m < 1 for _, m in self.pairs):
            raise InvariantError("a multiplicity is not positive")
        total = sum(m * d * d for d, m in self.pairs)
        if total != self.group_order:
            raise InvariantError(f"squared degrees sum to {total}, not {self.group_order}")

    @property
    def degrees(self) -> tuple[int, ...]:
        """The degrees, sorted, each repeated by its multiplicity."""
        return expand_pairs(self.pairs)

    def count(self, d: int) -> int:
        """Multiplicity of degree d in the spectrum."""
        return dict(self.pairs).get(d, 0)


def expand_pairs(pairs) -> tuple[int, ...]:
    """The degrees of (degree, multiplicity) pairs, each repeated by its
    multiplicity."""
    return tuple(chain.from_iterable(repeat(d, m) for d, m in pairs))


def choose_modulus(order: int, exponent: int, min_value: int = 0) -> int:
    """Least prime l = 1 (mod exponent) with l*l > 4*order and l > min_value."""
    ell = exponent + 1
    while True:
        if ell * ell > 4 * order and ell > min_value and is_prime(ell):
            return ell
        ell += exponent


def _polyval(c: np.ndarray, x: np.ndarray, ell: int) -> np.ndarray:
    """Values mod l of the polynomial with ascending coefficients c at the
    points x, by Horner's rule."""
    v = np.zeros_like(x)
    for coeff in c[::-1] % ell:
        v = (v * x + coeff) % ell
    return v


def _distinct_roots(c: np.ndarray, ell: int) -> list[int]:
    """The roots in F_l of the polynomial c, each once and in ascending
    order, found by evaluating c at every point of F_l at once."""
    return np.flatnonzero(_polyval(c, np.arange(ell, dtype=np.int64), ell) == 0).tolist()


def _rref(M: np.ndarray, ell: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod l; returns nonzero rows and pivot columns.
    The column scan stops as soon as the rows left to reduce are zero."""
    A = M.copy() % ell
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if len(nz) == 0:
            if not A[r:].any():
                break
            continue
        p = r + int(nz[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, ell) % ell
        other = np.flatnonzero(A[:, c])
        other = other[other != r]
        if len(other):
            A[other] = (A[other] - np.outer(A[other, c], A[r])) % ell
        pivots.append(c)
        r += 1
    return A[:r], pivots


_Block = tuple[np.ndarray, list[int], np.ndarray]


def _krylov(z: np.ndarray, R: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The Krylov rows z R^j, j = 0..r, where z R^r is the first to depend
    on those before it; the monic f of degree r (ascending coefficients)
    with z f(R) = 0; and r coordinates on which the first r rows are
    independent.

    The rows are the columns of a Gauss-Jordan elimination, each formed
    only once the ones before it have pivots.  Step t, at pivot p_t, maps a
    column x to x - c_t y_t with y_t = x[p_t]/d_t put at p_t, where c_t is
    column t as step t found it and d_t = c_t[p_t].  A new column x passes
    every earlier step at once: y solves the lower triangular
    (D + L) y = x[P] (L[t, s] = c_s[p_t] for s < t, D = diag d), whose
    inverse G grows by a row per step, and with c_t[p_t] kept as d_t - 1
    the column is then x - y C.  A column left without a pivot has its
    coefficients over the earlier ones at P.  Every product of entries
    below l is summed at most dim times, so stays below dim l^2.
    """
    dim = len(z)
    C = np.zeros((dim, dim), dtype=np.int64)
    G = np.zeros((dim, dim), dtype=np.int64)
    free = np.ones(dim, dtype=bool)
    K = [z]
    rows: list[int] = []
    while True:
        j = len(rows)
        x = K[j]
        c = (x - (G[:j, :j] @ x[rows] % ell) @ C[:j]) % ell
        nz = (c * free).nonzero()[0]
        if len(nz) == 0:
            return np.array(K), np.append(-c[rows] % ell, 1), rows
        p = int(nz[0])
        inv = pow(int(c[p]), -1, ell)
        G[j, :j] = -inv * (C[:j, p] @ G[:j, :j] % ell) % ell
        G[j, j] = inv
        c[p] -= 1
        C[j] = c
        rows.append(p)
        free[p] = False
        K.append(K[j] @ R % ell)


def _projectors(f: np.ndarray, lam: np.ndarray, ell: int) -> np.ndarray:
    """Row t: ascending coefficients of h_t / h_t(lam_t), h_t = f / (x - lam_t),
    for the distinct roots lam of f, so h_t(lam_t) = f'(lam_t) is nonzero.
    If f is the minimal polynomial of R, this polynomial in R projects onto
    the lam_t eigenspace."""
    r = len(lam)
    H = np.ones((r, r), dtype=np.int64)
    for j in range(r - 1, 0, -1):
        H[:, j - 1] = (f[j] + lam * H[:, j]) % ell
    slope = _polyval(f[1:] * np.arange(1, r + 1, dtype=np.int64), lam, ell)
    return H * np.array([pow(int(s), -1, ell) for s in slope], dtype=np.int64)[:, None] % ell


def _split(
    B: np.ndarray, pivots: list[int], z: np.ndarray, R: np.ndarray, ell: int
) -> list[_Block]:
    """Split the block with echelon basis B and identity component z, in
    block coordinates, into the eigenspaces of c -> c R in ascending
    eigenvalue order, each in reduced echelon form with its identity
    component.  R must be diagonalisable and z must meet each of its
    eigenvalues, as for class matrices since l does not divide |G|;
    otherwise an InvariantError is raised."""
    dim = R.shape[0]
    K, f, coords = _krylov(z, R, ell)
    r = len(f) - 1
    lam = np.array(_distinct_roots(f, ell), dtype=np.int64)
    if len(lam) != r:
        raise InvariantError("minimal polynomial of the identity component has no distinct roots")
    H = _projectors(f, lam, ell)
    Z = H @ K[:r] % ell
    if not ((Z @ R % ell == lam[:, None] * Z % ell).all() and (Z.sum(axis=0) % ell == z).all()):
        raise InvariantError("projected identity components are not eigenrows summing to z")
    # scale each projection to 1 at its first nonzero entry, its pivot
    lead = (Z != 0).argmax(axis=1)
    first = Z[np.arange(r), lead]
    Zn = Z * np.array([pow(int(x), -1, ell) for x in first], dtype=np.int64)[:, None] % ell
    # the unit rows outside the Krylov span complete it to the whole block:
    # their projections, less their multiples of Zn[t], fill out eigenspace t
    units = np.delete(np.arange(dim), coords)
    wide = [False] * r
    if len(units):
        powers = [np.eye(dim, dtype=np.int64)[units]]
        for _ in range(r):
            powers.append(powers[-1] @ R % ell)
        S = np.stack(powers).reshape(r + 1, -1)
        if (f @ S % ell).any():
            raise InvariantError("identity component misses part of the spectrum")
        rest = (H @ S[:r] % ell).reshape(r, len(units), dim)
        rest = (rest - rest[np.arange(r), :, lead][:, :, None] * Zn[:, None, :]) % ell
        wide = rest.reshape(r, -1).any(axis=1).tolist()
    # C reduced echelon in block coordinates, pivots q, makes C B reduced
    # echelon with pivots pivots[q], since B is reduced echelon
    lines = Zn @ B % ell
    spaces: list[_Block] = []
    for t, p in enumerate(np.asarray(pivots)[lead].tolist()):
        if wide[t]:
            C, q = _rref(np.vstack([Zn[t : t + 1], rest[t]]), ell)
            spaces.append((C @ B % ell, [pivots[j] for j in q], first[t] * Zn[t, q] % ell))
        else:
            spaces.append((lines[t : t + 1], [p], first[t : t + 1]))
    if sum(len(pt) for _, pt, _ in spaces) != dim:
        raise InvariantError("eigenspaces do not fill the space")
    return spaces


class _ClassMatrixBuilder:
    """Vectorized structure-constant matrices in the transposed arrangement
    used by the eigen splitter: A_i[j, k] counts x in class i with
    x^{-1} z_k in class j, so that A_i w = w_i w for central characters w.

    Elements are named by their base images, which the class structure's
    chain index sifts to element rows: the images of x z are z[x[b]] over
    the base points b, so one gather gives the names of all products x z,
    and one lookup in the index their elements and so their classes.
    """

    def __init__(self, cs: ClassStructure):
        self.cs = cs
        self.reps = np.array(cs.reps, dtype=POINT_DTYPE)

    def matrix(self, i: int) -> np.ndarray:
        k = len(self.cs.reps)
        # the base images of the members of the class inverse to i
        X = self.cs.index.images[self.cs.class_id == self.cs.inverse_class[i]]
        products = self.cs.index.find(self.reps[:, X], "a product").ravel()
        column = np.repeat(np.arange(k), len(X))
        return np.bincount(self.cs.class_id[products] * k + column, minlength=k * k).reshape(k, k)


def _common_eigenspaces(cs: ClassStructure, ell: int) -> list[_Block]:
    """The lines spanned by the central characters mod l, each in reduced
    echelon form with its identity component, found by intersecting
    eigenspaces class by class from the whole space and e_0.  Once per
    split, the open blocks decide which classes can still split anything:
    those with a nonzero column below some block's first row.  The class
    loop builds the matrices of those alone, and a block on which a built
    class is the scalar its column predicts is kept whole."""
    k = len(cs.reps)
    builder = _ClassMatrixBuilder(cs)
    eye = np.eye(k, dtype=np.int64)
    spaces: list[_Block] = [(eye, list(range(k)), eye[0])]
    splitting = None  # the classes that split some open block, once per split
    for i in sorted(range(1, k), key=lambda i: (cs.sizes[i], i)):
        if splitting is None:
            open_blocks = [(B, pivots) for B, pivots, _ in spaces if B.shape[0] > 1]
            if not open_blocks:
                break
            if any(pivots[0] != 0 for _, pivots in open_blocks):
                raise InvariantError("open block does not pivot on the identity class")
            splitting = np.logical_or.reduce([B[1:].any(axis=0) for B, _ in open_blocks]).tolist()
        if not splitting[i]:
            continue
        At = builder.matrix(i).T % ell
        next_spaces: list[_Block] = []
        for B, pivots, z in spaces:
            if B.shape[0] == 1:
                next_spaces.append((B, pivots, z))
                continue
            if len(pivots) == k:  # the whole space, whose basis B is the identity
                R = At
            else:
                W = B @ At % ell
                R = W[:, pivots]
                if not np.array_equal(W, R @ B % ell):
                    raise InvariantError("space was not invariant")
            if B[1:, i].any():
                next_spaces.extend(_split(B, pivots, z, R, ell))
                continue
            # class i must act on this block as the scalar B[0, i]
            if not np.array_equal(R, B[0, i] * np.eye(len(pivots), dtype=np.int64)):
                raise InvariantError("class is not the scalar its column predicts")
            next_spaces.append((B, pivots, z))
        spaces = next_spaces
        splitting = None
    if any(B.shape[0] != 1 for B, _, _ in spaces):
        raise InvariantError("splitting incomplete")
    return spaces


def dixon_degrees(cs: ClassStructure) -> DegreeSpectrum:
    """Character degree spectrum from a class structure."""
    k = len(cs.reps)
    if k > CLASS_CAP:
        raise ClassCountError(f"{k} classes exceed the solver cap of {CLASS_CAP}")
    order = cs.order
    ell = choose_modulus(order, cs.exponent(), min_value=k)
    spaces = _common_eigenspaces(cs, ell)
    # normalised central characters, one row per space: a reduced echelon
    # line is 1 at its first nonzero entry
    omega = np.array([B[0] for B, _, _ in spaces], dtype=np.int64)
    if not (omega[:, 0] == 1).all():
        raise InvariantError("central character vanishes on the identity class")
    inv_sizes = np.array([pow(h, -1, ell) for h in cs.sizes], dtype=np.int64)
    # reduce before summing, so every term stays below l and the sum below k l^2
    sums = (omega * omega[:, list(cs.inverse_class)] % ell) @ inv_sizes % ell
    # a line's identity component is chi(1)^2/|G| times its row, and its sum
    # is |G|/chi(1)^2
    if any(int(z[0]) * s % ell != 1 for (_, _, z), s in zip(spaces, sums.tolist())):
        raise InvariantError("identity component disagrees with the degree lift")
    # chi(1)^2 = |G|/s mod l, and chi(1) is a divisor of |G| at most sqrt|G|
    lift = {d * d % ell: d for d in range(1, isqrt(order) + 1) if order % d == 0}
    degrees = [lift.get(order * pow(s, -1, ell) % ell) for s in sums.tolist()]
    if None in degrees:
        raise InvariantError(f"no divisor of {order} lifts a degree mod {ell}")
    if len(degrees) != k:
        raise InvariantError(f"{len(degrees)} degrees for {k} classes")
    return DegreeSpectrum(tuple(sorted(Counter(degrees).items())), order)


def degree_spectrum(G: PermGroup) -> DegreeSpectrum:
    """Spectrum of G: the one degree 1, |G| times, for abelian groups; for
    several components, which G is the direct product of, the pointwise
    product of their spectra (Isaacs, Character Theory of Finite Groups,
    4.21), each component's group keeping the component and its chain (see
    PermGroup.subgroup); and the modular solver otherwise."""
    if G.is_abelian():
        return DegreeSpectrum(((1, G.order),), G.order)
    if len(G._components) > 1:
        counts = Counter({1: 1})
        for comp in G._components:
            pairs = degree_spectrum(G.subgroup([comp.gens])).pairs
            product: Counter[int] = Counter()
            for a, m in counts.items():
                for b, n in pairs:
                    product[a * b] += m * n
            counts = product
        return DegreeSpectrum(tuple(sorted(counts.items())), G.order)
    return dixon_degrees(conjugacy_classes(G))
