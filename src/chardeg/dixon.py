"""Exact irreducible character degrees via modular class-algebra splitting.

The degrees of the complex irreducible characters of a finite group are
recovered without any floating point: structure constants of the class
algebra are reduced modulo a prime l = 1 (mod exponent), the common
eigenvectors of the class-sum matrices over F_l are the reductions of the
central characters, and each degree is recovered from its square modulo l
and lifted to the unique integer below l/2.

The common eigenspaces are found by splitting invariant subspaces class by
class (Dixon 1967, Schneider 1990).  Since l does not divide |G|, each class
matrix restricted to a subspace is diagonalisable, so a subspace it cannot
split is exactly one where it acts as a scalar.  Every open subspace is
spanned by central characters w with w[0] = 1, so its reduced echelon basis
B pivots first on column 0, and class i acts on it as the scalar B[0, i]
exactly when B[1:, i] is zero.  A class whose column is zero below the
first row of every open subspace splits nothing, and its matrix is never
built.  Otherwise, with m the product of (x - lam) over the distinct
eigenvalues and h_lam = m / (x - lam), the row v h_lam(R) lies in the
lam-eigenspace for every v, so one Krylov sequence of v and one matrix
product give the eigenrow of every simple eigenvalue.  Repeated
eigenvalues, and simple ones whose component in v vanishes, take their
eigenspace from a kernel computation instead.  The eigenvalues are the
points of F_l where the characteristic polynomial vanishes, found by one
Horner evaluation over all of F_l: l times the degree multiply-adds.

All linear algebra is dense numpy arithmetic on int64 arrays mod l, so
repeated runs agree exactly.  The solver's invariants raise InvariantError,
so they also hold under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .groups import POINT_DTYPE, ClassStructure, PermGroup, conjugacy_classes
from .numbers import InvariantError, is_prime, sqrt_mod

CLASS_CAP = 150


class ClassCountError(Exception):
    """Raised when a group has more conjugacy classes than the solver cap."""


@dataclass(frozen=True)
class DegreeSpectrum:
    """Sorted multiset of irreducible character degrees of a group."""

    degrees: tuple[int, ...]
    group_order: int

    def __post_init__(self):
        if self.degrees != tuple(sorted(self.degrees)):
            raise InvariantError("degrees are not sorted")
        total = sum(d * d for d in self.degrees)
        if total != self.group_order:
            raise InvariantError(f"squared degrees sum to {total}, not {self.group_order}")

    def count(self, d: int) -> int:
        """Multiplicity of degree d in the spectrum."""
        return sum(1 for x in self.degrees if x == d)


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
    """Reduced row echelon form mod l; returns nonzero rows and pivot columns."""
    A = M.copy() % ell
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if len(nz) == 0:
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


def _nullspace(M: np.ndarray, ell: int) -> np.ndarray:
    """Rows spanning the kernel {x : M x = 0} of M over F_l."""
    R, pivots = _rref(M, ell)
    n = M.shape[1]
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[:, free].T) % ell
    return basis


def _charpoly(R: np.ndarray, ell: int) -> np.ndarray:
    """Characteristic polynomial of R mod l, ascending coefficients, monic."""
    H = R.copy() % ell
    n = H.shape[0]
    for j in range(n - 2):
        col = H[j + 1 :, j]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        p = j + 1 + int(nz[0])
        if p != j + 1:
            H[[j + 1, p]] = H[[p, j + 1]]
            H[:, [j + 1, p]] = H[:, [p, j + 1]]
        ipiv = pow(int(H[j + 1, j]), -1, ell)
        factors = H[j + 2 :, j] * ipiv % ell
        if np.any(factors):
            H[j + 2 :, :] = (H[j + 2 :, :] - np.outer(factors, H[j + 1, :])) % ell
            H[:, j + 1] = (H[:, j + 1] + H[:, j + 2 :] @ factors) % ell
    polys = [np.array([1], dtype=np.int64)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        p = np.zeros(m + 1, dtype=np.int64)
        p[1:] += prev
        p[:-1] -= int(H[m - 1, m - 1]) * prev
        beta = 1
        for t in range(m - 1, 0, -1):
            beta = beta * int(H[t, t - 1]) % ell
            coeff = int(H[t - 1, m - 1]) * beta % ell
            if coeff:
                p[:t] -= coeff * polys[t - 1]
        polys.append(p % ell)
    return polys[n]


def _eigenrows(R: np.ndarray, roots: list[int], ell: int) -> np.ndarray:
    """Row t is v h_t(R) for the all-ones row v, where h_t is the product of
    (x - lam) over the roots other than roots[t].

    For diagonalisable R whose eigenvalues are exactly the roots, row t lies
    in the roots[t]-eigenrow space; it is zero when v has no component there.
    """
    r, dim = len(roots), R.shape[0]
    lam = np.array(roots, dtype=np.int64)
    m = np.array([1], dtype=np.int64)
    for x in roots:
        m = np.convolve(m, [-x, 1]) % ell
    # h_t = m / (x - lam_t) by synthetic division, for all t at once
    H = np.empty((r, r), dtype=np.int64)
    H[:, r - 1] = 1
    for j in range(r - 1, 0, -1):
        H[:, j - 1] = (m[j] + lam * H[:, j]) % ell
    K = np.empty((r, dim), dtype=np.int64)
    K[0] = 1
    for j in range(1, r):
        K[j] = K[j - 1] @ R % ell
    return H @ K % ell


def _split(
    B: np.ndarray, pivots: list[int], R: np.ndarray, ell: int
) -> list[tuple[np.ndarray, list[int]]]:
    """Split the space with echelon basis B into the eigenspaces of the
    coefficient action c -> c R, each in reduced echelon form.

    R must be diagonalisable, which holds for class matrices because l does
    not divide |G|: a scalar R keeps the space whole, and a non-scalar R
    with a single eigenvalue is an error.
    """
    dim = R.shape[0]
    if np.array_equal(R, R[0, 0] * np.eye(dim, dtype=np.int64)):
        return [(B, pivots)]
    charpoly = _charpoly(R, ell)
    roots = _distinct_roots(charpoly, ell)
    if len(roots) == 1:
        raise InvariantError("non-scalar class matrix with a single eigenvalue")
    U = _eigenrows(R, roots, ell)
    lam = np.array(roots, dtype=np.int64)
    if not np.array_equal(U @ R % ell, lam[:, None] * U % ell):
        raise InvariantError("projected row is not an eigenrow")
    slope = _polyval(charpoly[1:] * np.arange(1, len(charpoly), dtype=np.int64), lam, ell)
    spaces: list[tuple[np.ndarray, list[int]]] = []
    total = 0
    for t, x in enumerate(roots):
        if slope[t] and U[t].any():
            # a simple root: its eigenrow space is the line through U[t]
            w = U[t] @ B % ell
            p = int(np.flatnonzero(w)[0])
            spaces.append(((w * pow(int(w[p]), -1, ell) % ell)[None, :], [p]))
            total += 1
        else:
            # coefficient rows transform as c -> c R, so eigenrows for x
            # form the kernel of (R - x I) transposed
            K = _nullspace((R - x * np.eye(dim, dtype=np.int64)).T % ell, ell)
            total += K.shape[0]
            spaces.append(_rref(K @ B % ell, ell))
    if total != dim:
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
        by_class = np.argsort(cs.class_id, kind="stable")
        self.member_images = np.split(cs.index.images[by_class], np.cumsum(cs.sizes)[:-1])
        self.reps = np.array(cs.reps, dtype=POINT_DTYPE)

    def matrix(self, i: int) -> np.ndarray:
        k = len(self.cs.reps)
        X = self.member_images[self.cs.inverse_class[i]]
        products = self.cs.index.find(self.reps[:, X], "a product").ravel()
        column = np.repeat(np.arange(k), len(X))
        return np.bincount(self.cs.class_id[products] * k + column, minlength=k * k).reshape(k, k)


def _common_eigenspaces(cs: ClassStructure, ell: int) -> list[tuple[np.ndarray, list[int]]]:
    """The lines spanned by the central characters mod l, each in reduced
    echelon form, found by intersecting eigenspaces class by class."""
    k = len(cs.reps)
    builder = _ClassMatrixBuilder(cs)
    spaces: list[tuple[np.ndarray, list[int]]] = [(np.eye(k, dtype=np.int64), list(range(k)))]
    class_order = sorted(range(1, k), key=lambda i: (cs.sizes[i], i))
    for i in class_order:
        open_blocks = [(B, pivots) for B, pivots in spaces if B.shape[0] > 1]
        if not open_blocks:
            break
        if any(pivots[0] != 0 for _, pivots in open_blocks):
            raise InvariantError("open block does not pivot on the identity class")
        if not any(B[1:, i].any() for B, _ in open_blocks):
            continue
        At = builder.matrix(i).T % ell
        next_spaces: list[tuple[np.ndarray, list[int]]] = []
        for B, pivots in spaces:
            if B.shape[0] == 1:
                next_spaces.append((B, pivots))
                continue
            W = B @ At % ell
            R = W[:, pivots]
            if not np.array_equal(W, R @ B % ell):
                raise InvariantError("space was not invariant")
            if not B[1:, i].any():
                # class i must act on this block as the scalar B[0, i]
                if not np.array_equal(R, B[0, i] * np.eye(len(pivots), dtype=np.int64)):
                    raise InvariantError("class is not the scalar its column predicts")
            next_spaces.extend(_split(B, pivots, R, ell))
        spaces = next_spaces
    if any(B.shape[0] != 1 for B, _ in spaces):
        raise InvariantError("splitting incomplete")
    return spaces


def dixon_degrees(cs: ClassStructure) -> DegreeSpectrum:
    """Character degree spectrum from a class structure."""
    k = len(cs.reps)
    if k > CLASS_CAP:
        raise ClassCountError(f"{k} classes exceed the solver cap of {CLASS_CAP}")
    order = cs.order
    if k == 1:
        return DegreeSpectrum((1,), 1)
    ell = choose_modulus(order, cs.exponent(), min_value=k)
    spaces = _common_eigenspaces(cs, ell)
    V = np.array([B[0] for B, _ in spaces], dtype=np.int64)
    if not V[:, 0].all():
        raise InvariantError("central character vanishes on the identity class")
    # normalised central characters, one row per space
    omega = V * np.array([pow(int(v), -1, ell) for v in V[:, 0]], dtype=np.int64)[:, None] % ell
    inv_sizes = np.array([pow(h, -1, ell) for h in cs.sizes], dtype=np.int64)
    # reduce before summing, so every term stays below l and the sum below k l^2
    sums = (omega * omega[:, list(cs.inverse_class)] % ell) @ inv_sizes % ell
    degrees = []
    bound = isqrt(order)
    for s in sums.tolist():
        d2 = order * pow(s, -1, ell) % ell
        d = sqrt_mod(d2, ell)
        d = min(d, ell - d)
        if not (1 <= d <= bound and order % d == 0):
            raise InvariantError(f"degree lift {d} out of range for order {order}")
        degrees.append(d)
    if len(degrees) != k:
        raise InvariantError(f"{len(degrees)} degrees for {k} classes")
    degrees.sort()
    return DegreeSpectrum(tuple(degrees), order)


def degree_spectrum(G: PermGroup, *, factors: list[PermGroup] | None = None) -> DegreeSpectrum:
    """Spectrum of G: all ones for abelian groups, a pointwise product over
    explicit direct factors, and the modular solver otherwise."""
    if factors:
        spectra = [degree_spectrum(F) for F in factors]
        degrees = [1]
        order = 1
        for sp in spectra:
            degrees = [a * b for a in degrees for b in sp.degrees]
            order *= sp.group_order
        if order != G.order:
            raise InvariantError("factor orders disagree with the product group")
        return DegreeSpectrum(tuple(sorted(degrees)), order)
    if G.is_abelian():
        return DegreeSpectrum((1,) * G.order, G.order)
    return dixon_degrees(conjugacy_classes(G))
