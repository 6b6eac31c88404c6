"""Independent persistent-Betti rank oracle and a Vietoris-Rips builder, used
by the tests to check the boundary-matrix reduction.

persistent_betti uses dense Gaussian elimination over GF(2) on bit-packed
numpy arrays and shares no code with pdbundle.persistence.reduce_pairs.
"""
import math
from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np

from pdbundle.complexes import SimplicialComplex, ValidationError
from pdbundle.persistence import PairSet


def _pack_rows(rows: List[List[int]], width: int) -> np.ndarray:
    """Pack 0/1 rows (given as column-index lists) into uint64 words."""
    words = (width + 63) // 64 if width else 1
    M = np.zeros((len(rows), words), dtype=np.uint64)
    for r, cols in enumerate(rows):
        for c in cols:
            M[r, c >> 6] |= np.uint64(1) << np.uint64(c & 63)
    return M


def _gf2_rank(M: np.ndarray) -> int:
    """Rank over GF(2) of a bit-packed matrix; destroys its argument."""
    rank = 0
    nrows = M.shape[0]
    for r in range(nrows):
        row = M[r]
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        w = nz[0]
        bit = row[w] & (~row[w] + np.uint64(1))     # lowest set bit
        # eliminate this pivot from all later rows
        mask = (M[r + 1:, w] & bit).astype(bool)
        M[r + 1:][mask] ^= row
        rank += 1
    return rank


def persistent_betti(K: SimplicialComplex, values: Sequence, q: int,
                     r, s) -> int:
    """Rank of the inclusion-induced map H_q(K_r) -> H_q(K_s) over Z/2.

    Computed directly from matrix ranks:
        dim Z_q(K_r) = #q-simplices in K_r - rank(d_q on K_r)
        dim(Z_q(K_r) cap B_q(K_s)) = rank(d_{q+1} on K_s)
                                     - rank(d_{q+1} on K_s, rows outside K_r)
    and the answer is the difference. Shares nothing with reduce_pairs.
    """
    if r > s:
        raise ValidationError(f"persistent_betti needs r <= s, got {r} > {s}")
    in_r = [i for i in range(K.n) if values[i] <= r]
    in_s = [i for i in range(K.n) if values[i] <= s]
    q_r = [i for i in in_r if K.dim(i) == q]
    qm1_r = [i for i in in_r if K.dim(i) == q - 1]
    q_s = [i for i in in_s if K.dim(i) == q]
    qp1_s = [i for i in in_s if K.dim(i) == q + 1]

    # rank of d_q restricted to K_r (rows: (q-1)-simplices of K_r)
    row_of_qm1 = {i: k for k, i in enumerate(qm1_r)}
    cols = [[row_of_qm1[f] for f in K.facet_indices(i)] for i in q_r]
    rank_dq = _gf2_rank(_pack_rows(cols, max(len(qm1_r), 1)))
    dim_z = len(q_r) - rank_dq

    # rank of d_{q+1} on K_s, with all rows and with K_r rows deleted
    row_of_q = {i: k for k, i in enumerate(q_s)}
    in_r_set = set(q_r)
    full_rows = [[row_of_q[f] for f in K.facet_indices(i)] for i in qp1_s]
    rank_b = _gf2_rank(_pack_rows(full_rows, max(len(q_s), 1)))
    outside = {i: k for k, i in enumerate(x for x in q_s if x not in in_r_set)}
    cut_rows = [[outside[f] for f in K.facet_indices(i) if f in outside]
                for i in qp1_s]
    rank_b_out = _gf2_rank(_pack_rows(cut_rows, max(len(outside), 1)))

    dim_zb = rank_b - rank_b_out
    return dim_z - dim_zb


def pairs_betti_count(pairs: PairSet, K: SimplicialComplex, values: Sequence,
                      q: int, r, s) -> int:
    """Persistent Betti number derived from the simplex pairs: classes born
    by r that survive past s."""
    count = 0
    for b, d in pairs.pairs:
        if K.dim(b) == q and values[b] <= r and values[d] > s:
            count += 1
    for b in pairs.essential:
        if K.dim(b) == q and values[b] <= r:
            count += 1
    return count


def vietoris_rips(points: Sequence[Sequence[float]], max_dim: int
                  ) -> Tuple[SimplicialComplex, List[float]]:
    """Full Vietoris-Rips filtration on a point cloud up to max_dim:
    f(sigma) = half the largest pairwise distance among its vertices.
    Simplices are listed by dimension then lexicographically."""
    m = len(points)
    dist = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d = math.dist(points[i], points[j])
            dist[i][j] = dist[j][i] = d
    simplices: List[Tuple[int, ...]] = []
    values: List[float] = []
    for k in range(min(max_dim, m - 1) + 1):
        for comb in combinations(range(m), k + 1):
            simplices.append(comb)
            f = 0.0
            for a, b in combinations(comb, 2):
                f = max(f, dist[a][b])
            values.append(f / 2.0)
    return SimplicialComplex(simplices), values
