"""Independent numeric oracle for irreducible character degrees.

Everything here is deliberately separate from the library's modular
implementation: elements are enumerated by plain breadth-first closure,
conjugacy classes by brute-force conjugation, class-multiplication
constants by direct counting, and the common eigenbasis is found by
complex floating-point diagonalization of one random real linear
combination of the class matrices.  Degrees come from

    d = sqrt(|G| / sum_j |w_j|^2 / |C_j|)

where w is a central character normalized at the identity class.  Results
are only accepted when every d is within 1e-6 of an integer and the
squares sum exactly to |G|; otherwise a different random combination is
tried.
"""

from __future__ import annotations

import numpy as np


def _mult(p, q):
    return tuple(q[i] for i in p)


def _inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def oracle_elements(generators, degree: int, cap: int = 100_000) -> list[tuple[int, ...]]:
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = _mult(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError("oracle enumeration cap exceeded")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def oracle_classes(elements, generators):
    """Conjugacy classes as lists, ordered by (size, least member)."""
    remaining = set(elements)
    classes = []
    for x in elements:
        if x not in remaining:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in generators:
                    z = _mult(_mult(_inverse(g), y), g)
                    if z not in orbit:
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        remaining -= orbit
        classes.append(sorted(orbit))
    classes.sort(key=lambda c: (len(c), c[0]))
    return classes


def oracle_class_matrices(generators, degree: int):
    """Classes (ordered as by oracle_classes) and the structure constants
    mats[i][j][k] = #{(x, y) in C_i x C_j : x y = reps[k]}, counted directly."""
    generators = [tuple(g) for g in generators]
    elements = oracle_elements(generators, degree)
    classes = oracle_classes(elements, generators)
    k = len(classes)
    class_of = {}
    for j, cls in enumerate(classes):
        for x in cls:
            class_of[x] = j
    reps = [cls[0] for cls in classes]
    assert class_of[tuple(range(degree))] == 0 and len(classes[0]) == 1

    mats = np.zeros((k, k, k))
    for i, cls in enumerate(classes):
        for x in cls:
            xinv = _inverse(x)
            for kk, z in enumerate(reps):
                mats[i][class_of[_mult(xinv, z)]][kk] += 1
    return classes, mats


def oracle_degrees(generators, degree: int, seed: int = 12345) -> tuple[int, ...]:
    """Sorted degree multiset via complex eigendecomposition."""
    classes, mats = oracle_class_matrices(generators, degree)
    n = sum(len(cls) for cls in classes)
    k = len(classes)
    sizes = np.array([len(cls) for cls in classes], dtype=float)

    rng = np.random.default_rng(seed)
    for _attempt in range(8):
        coeffs = rng.normal(size=k)
        T = np.tensordot(coeffs, mats, axes=1)
        _vals, vecs = np.linalg.eig(T)
        degrees = []
        ok = True
        for col in range(k):
            w = vecs[:, col]
            if abs(w[0]) < 1e-9:
                ok = False
                break
            w = w / w[0]
            s = float(np.sum(np.abs(w) ** 2 / sizes))
            d_float = np.sqrt(n / s)
            d = round(d_float)
            if d < 1 or abs(d_float - d) > 1e-6 * max(1.0, d):
                ok = False
                break
            degrees.append(d)
        if ok and sum(d * d for d in degrees) == n and len(degrees) == k:
            return tuple(sorted(degrees))
    raise RuntimeError("oracle failed to separate eigenvectors")
