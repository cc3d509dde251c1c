"""Brute-force similarity oracles written directly against scipy.

They share no code with the library under test: similarities come from
plain sparse products over the raw rows, so a defect in the library's
kernels, candidate generation or verification cannot hide in its own
reference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

BLOCK = 512


def _unit_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    norms[norms == 0] = 1.0
    return sp.csr_matrix(sp.diags(1.0 / norms) @ matrix)


def _binary(matrix: sp.csr_matrix) -> sp.csr_matrix:
    binary = sp.csr_matrix(matrix, copy=True)
    binary.data[:] = 1.0
    return binary


def cross(left: sp.csr_matrix, right: sp.csr_matrix, measure: str) -> np.ndarray:
    """Dense ``len(left) x len(right)`` similarity matrix (cosine or jaccard)."""
    if measure == "cosine":
        return (_unit_rows(left) @ _unit_rows(right).T).toarray()
    if measure == "jaccard":
        a, b = _binary(left), _binary(right)
        inter = (a @ b.T).toarray()
        sizes_a = np.asarray(a.sum(axis=1)).ravel()
        sizes_b = np.asarray(b.sum(axis=1)).ravel()
        union = sizes_a[:, None] + sizes_b[None, :] - inter
        return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    raise ValueError(f"unknown measure {measure!r}")


def all_pairs(matrix: sp.csr_matrix, threshold: float, measure: str) -> dict:
    """Every pair ``i < j`` with similarity strictly above ``threshold``."""
    found: dict[tuple[int, int], float] = {}
    n = matrix.shape[0]
    for start in range(0, n, BLOCK):
        block = cross(matrix[start : start + BLOCK], matrix, measure)
        rows, cols = np.nonzero(block > threshold)
        for row, col in zip(rows.tolist(), cols.tolist()):
            if start + row < col:
                found[(start + row, col)] = float(block[row, col])
    return found


def pair_similarities(matrix: sp.csr_matrix, left, right, measure: str) -> np.ndarray:
    """Exact similarity of each ``(left[p], right[p])`` row pair of one matrix."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if measure == "cosine":
        unit = _unit_rows(matrix)
        return np.asarray(unit[left].multiply(unit[right]).sum(axis=1)).ravel()
    binary = _binary(matrix)
    inter = np.asarray(binary[left].multiply(binary[right]).sum(axis=1)).ravel()
    sizes = np.asarray(binary.sum(axis=1)).ravel()
    union = sizes[left] + sizes[right] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
