"""Exact rank over a word-sized prime field F_p, p < 2^31, by blocked
elimination with float64 BLAS products.

The kernel works on a reduced copy of its argument, with the rows in
order of their first nonzero column. The rank does not depend on the row
order, and on interpolation matrices this order puts a usable pivot at
the top of most columns, so few pivots need a row swap.

The kernel then walks the columns in panels of PANEL columns. Inside a
panel it works column by column (left-looking): a column is brought up to
date with one product against the pivot rows found so far, its first
nonzero entry is the pivot, and the pivot row's remaining part is brought
up to date the same way at the moment the pivot is chosen. After the
panel, the trailing Schur complement gets the whole panel at once, as
GEMMs over row chunks of CHUNK rows, so temporaries stay O(CHUNK ×
columns).

Exactness. Every residue lies in [0, p) with p < 2^31. Eliminating row i
with pivot row u and pivot c subtracts l·u, l = a_i/c, from row i. The
kernel stores a_i split into 16-bit halves, ``a_i = hi·2^16 + lo``, and
the pivot row as the two residue rows ``−2^16·u/c mod p`` and
``−u/c mod p``, so ``hi·(−2^16·u/c) + lo·(−u/c) ≡ −l·u (mod p)``. Each
update is then one float64 product over the 2k ≤ 2·PANEL interleaved
half columns of the k pivots so far, and a sum of at most 2·PANEL = 64
terms, each below 2^16·2^31, plus one residue stays below
``64·(2^31−2)·(2^16−1) + 2^31 < 2^53``. So every partial sum is an exact
integer whatever the BLAS summation order or thread count; it is added
to the residue in int64 and reduced there.

Four pivots in one step. At column j of a panel, with four or more rows
and columns left in it, the next four columns are brought up to date
with one product, and their leading 4 × 4 block B is inverted mod p by
its adjugate over Python ints. When B is invertible, its four rows are
pivot rows: their trailing part is brought up to date, the multipliers
of the rows below are the rows of C·B⁻¹ (C: those rows of the four
columns), and U and H get the four pivot rows and the halves of the
multipliers, two rows each, so the product H.T @ U subtracts C·B⁻¹
times the pivot rows from the rows below, as four single steps would.
The block's own columns are not written back: nothing reads a column
again once the panel has passed it. When B is singular, column j
takes the single step with the update already made, and the next block
is tried at column j + 1. The multipliers come from one int64 product:
|C| ≤ p − 1 and B⁻¹ is kept in balanced residues, |B⁻¹| ≤ (p − 1)/2, so
four products sum to at most 2(p − 1)^2 < 2^63. H and U hold the same
ranges as in a single step, so the bound above is unchanged.

The rank does not depend on which pivots are chosen, so the result is
the same as that of the scalar reference ``_rank_mod_p_scalar``, which
the tests run against this kernel.

The kernel is exact; randomness enters only through the points that
``fplinalg`` samples. Unlucky points can lower the rank of a matrix
(Schwartz–Zippel bounds the chance, see ``fplinalg``), and a deficient
rank only ever yields a retry or Inconclusive, never a wrong verdict.
"""
from __future__ import annotations

import importlib.util

import numpy as np

from .fplinalg import P_LIMIT

# Reported in the benchmark's environment record; no code path depends on it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None

# the widest panel the bound below allows; measured against narrower ones
# on the ledger's 435-741 column matrices, 24 is 7 % and 16 is 30 %
# slower, and on the family's 100-199 column matrices 24 ties and 16 is
# 2 % slower
PANEL = 32
CHUNK = 128
_HALF = 1 << 16
# 2·PANEL products (p−1)·(2^16−1) plus one residue stay below 2^53
assert 2 * PANEL * (P_LIMIT - 2) * (_HALF - 1) + P_LIMIT - 2 < 2**53
# pivots taken in one step when their leading block is invertible;
# ``_inverse4`` is written for this size
BLOCK = 4
# BLOCK products of a residue and a balanced one fit in int64
assert BLOCK * (P_LIMIT - 2) * ((P_LIMIT - 2) // 2) < 2**63


def _inverse4(B: list, p: int) -> np.ndarray | None:
    """Inverse mod p of the 4 × 4 residue matrix B (nested lists) by the
    adjugate over Python ints, in balanced residues, or None when B is
    singular mod p."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), \
        (a20, a21, a22, a23), (a30, a31, a32, a33) = B
    # 2 × 2 minors of the top two rows (s) and of the bottom two (c)
    s0 = a00 * a11 - a10 * a01
    s1 = a00 * a12 - a10 * a02
    s2 = a00 * a13 - a10 * a03
    s3 = a01 * a12 - a11 * a02
    s4 = a01 * a13 - a11 * a03
    s5 = a02 * a13 - a12 * a03
    c5 = a22 * a33 - a32 * a23
    c4 = a21 * a33 - a31 * a23
    c3 = a21 * a32 - a31 * a22
    c2 = a20 * a33 - a30 * a23
    c1 = a20 * a32 - a30 * a22
    c0 = a20 * a31 - a30 * a21
    det = (s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0) % p
    if not det:
        return None
    d = pow(det, -1, p)
    h = p >> 1  # (x + h) % p - h is the residue of x in [-h, h]
    adj = (
        a11 * c5 - a12 * c4 + a13 * c3, -a01 * c5 + a02 * c4 - a03 * c3,
        a31 * s5 - a32 * s4 + a33 * s3, -a21 * s5 + a22 * s4 - a23 * s3,
        -a10 * c5 + a12 * c2 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
        -a30 * s5 + a32 * s2 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1,
        a10 * c4 - a11 * c2 + a13 * c0, -a00 * c4 + a01 * c2 - a03 * c0,
        a30 * s4 - a31 * s2 + a33 * s0, -a20 * s4 + a21 * s2 - a23 * s0,
        -a10 * c3 + a11 * c1 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
        -a30 * s3 + a31 * s1 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0,
    )
    return np.array([(x * d + h) % p - h for x in adj], dtype=np.int64).reshape(4, 4)


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank of the int64 matrix A over F_p, p < 2^31; A is left as it is."""
    m, n = A.shape
    if m == 0 or n == 0:
        return 0
    # the key reads the entries as given: one that is a nonzero multiple
    # of p can only make the order worse, never the rank wrong
    A = A[np.argsort((A != 0).argmax(axis=1), kind="stable")]
    A %= p
    r = 0
    scale = np.empty(2, dtype=np.int64)
    bscale = np.array([(-1 << 16) % p, p - 1], dtype=np.int64)
    for c0 in range(0, n, PANEL):
        if r == m:
            break
        w = min(PANEL, n - c0)
        S = A[r:, c0:]
        # H[2i], H[2i+1]: the 16-bit halves of the entries that pivot i
        # eliminates; U[2i], U[2i+1]: pivot row i times -2^16/c_i, -1/c_i.
        # A block of pivots i..i+3 keeps the halves of its four
        # multipliers as H[2i:2i+4] (hi) and H[2i+4:2i+8] (lo), and U
        # pairs them likewise.
        H = np.zeros((2 * w, m - r))
        U = np.empty((2 * w, n - c0))
        k = 0  # pivots found in this panel; they are rows 0..k-1 of S
        j = 0
        while j < w and r + k < m:
            kk = 2 * k
            col = S[k:, j]
            if j + BLOCK <= w and r + k + BLOCK <= m:
                Ct = S[k:, j:j + BLOCK]
                if k:
                    Ct = Ct + (H[:kk, k:].T @ U[:kk, j:j + BLOCK]).astype(np.int64)
                    Ct %= p
                Binv = _inverse4(Ct[:BLOCK].tolist(), p)
                if Binv is not None:
                    # nothing reads the block's own columns again
                    P = S[k:k + BLOCK, j + BLOCK:]
                    if k:
                        P += (H[:kk, k:k + BLOCK].T
                              @ U[:kk, j + BLOCK:]).astype(np.int64)
                        P %= p
                    U[kk:kk + 2 * BLOCK, j + BLOCK:] = (
                        np.multiply.outer(bscale, P) % p).reshape(2 * BLOCK, P.shape[1])
                    M = Ct[BLOCK:] @ Binv
                    M %= p
                    np.divmod(M.T, _HALF, out=(H[kk:kk + BLOCK, k + BLOCK:],
                                               H[kk + BLOCK:kk + 2 * BLOCK,
                                                 k + BLOCK:]))
                    k += BLOCK
                    j += BLOCK
                    continue
                # singular block: the single step below, on column j
                # only, whose update Ct already holds
                if k:
                    col[:] = Ct[:, 0]
            elif k:
                col += (H[:kk, k:].T @ U[:kk, j]).astype(np.int64)
                col %= p
            if not col[0]:
                nz = col.nonzero()[0]
                if nz.size == 0:
                    j += 1
                    continue
                i = k + int(nz[0])
                t = S[k, j:].copy()
                S[k, j:] = S[i, j:]
                S[i, j:] = t
                if k:
                    t = H[:kk, k].copy()
                    H[:kk, k] = H[:kk, i]
                    H[:kk, i] = t
            row = S[k, j:]
            if k:
                rest = row[1:]
                rest += (H[:kk, k] @ U[:kk, j + 1:]).astype(np.int64)
                rest %= p
            inv = pow(int(row[0]), -1, p)
            scale[0] = (-inv << 16) % p
            scale[1] = -inv % p
            U[kk:kk + 2, j:] = np.multiply.outer(scale, row) % p
            np.divmod(col[1:], _HALF, out=(H[kk, k + 1:], H[kk + 1, k + 1:]))
            k += 1
            j += 1
        if k and w < n - c0 and r + k < m:
            T = S[k:, w:]
            kk = 2 * k
            for i in range(0, len(T), CHUNK):
                X = T[i:i + CHUNK]
                L = H[:kk, k + i:k + i + CHUNK].T
                X += (L @ U[:kk, w:]).astype(np.int64)
                X -= X // p * p  # cheaper than %= on a block
        r += k
    return r


def _rank_mod_p_scalar(A: np.ndarray, p: int) -> int:
    """Reference kernel: plain row elimination, one entry at a time.

    Only the tests run it, as the oracle for ``rank_mod_p``.  It works on
    a reduced copy, so that every product below stays in int64.
    """
    A = A % p
    m, n = A.shape
    r = 0
    for c in range(n):
        piv = -1
        for i in range(r, m):
            if A[i, c] % p != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for j in range(c, n):
                t = A[r, j]
                A[r, j] = A[piv, j]
                A[piv, j] = t
        # modular inverse by binary exponentiation
        inv = 1
        b = A[r, c] % p
        e = p - 2
        while e > 0:
            if e & 1:
                inv = (inv * b) % p
            b = (b * b) % p
            e >>= 1
        for j in range(c, n):
            A[r, j] = (A[r, j] * inv) % p
        for i in range(r + 1, m):
            f = A[i, c] % p
            if f != 0:
                for j in range(c, n):
                    A[i, j] = (A[i, j] - f * A[r, j]) % p
        r += 1
        if r == m:
            break
    return r
