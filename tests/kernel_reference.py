"""Reference eigenspace splitting by characteristic polynomials and kernels.

The solver splits a block from its identity component alone.  This module
splits it the textbook way instead, for the tests to compare against: the
eigenvalues are the roots of the characteristic polynomial (a Hessenberg
reduction), and each eigenspace is the kernel of (R - lam I) transposed,
since coefficient rows transform as c -> c R.
"""

import numpy as np

from chardeg.dixon import _ClassMatrixBuilder, _distinct_roots, _rref, choose_modulus


def charpoly(R: np.ndarray, ell: int) -> np.ndarray:
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


def nullspace(M: np.ndarray, ell: int) -> np.ndarray:
    """Rows spanning the kernel {x : M x = 0} of M over F_l."""
    R, pivots = _rref(M, ell)
    n = M.shape[1]
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[:, free].T) % ell
    return basis


def kernel_split(
    B: np.ndarray, pivots: list[int], R: np.ndarray, ell: int
) -> list[tuple[np.ndarray, list[int]]]:
    """The eigenspaces of c -> c R on the block with echelon basis B, one
    kernel per root of the characteristic polynomial, in ascending order
    of the roots, each in reduced echelon form."""
    dim = R.shape[0]
    spaces = []
    for lam in _distinct_roots(charpoly(R, ell), ell):
        K = nullspace((R - lam * np.eye(dim, dtype=np.int64)).T % ell, ell)
        spaces.append(_rref(K @ B % ell, ell))
    assert sum(len(p) for _, p in spaces) == dim, "class matrix is not diagonalisable"
    return spaces


def every_class_eigenspaces(cs) -> list[tuple[np.ndarray, list[int]]]:
    """Reference splitting loop: build every class matrix, in the solver's
    class order, while any space is open, and split every open space by
    kernels."""
    k = len(cs.reps)
    ell = choose_modulus(cs.order, cs.exponent(), min_value=k)
    builder = _ClassMatrixBuilder(cs)
    spaces = [_rref(np.eye(k, dtype=np.int64), ell)]
    for i in sorted(range(1, k), key=lambda j: (cs.sizes[j], j)):
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        At = builder.matrix(i).T % ell
        next_spaces = []
        for B, pivots in spaces:
            if B.shape[0] == 1:
                next_spaces.append((B, pivots))
            else:
                next_spaces.extend(kernel_split(B, pivots, (B @ At % ell)[:, pivots], ell))
        spaces = next_spaces
    return spaces
