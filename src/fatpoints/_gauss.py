"""Exact rank over a word-sized prime field F_p, p < 2^31, by blocked
elimination with float64 BLAS products.

The kernel works on a reduced copy of its argument, with the rows in
order of their first nonzero column. The rank does not depend on the row
order, and on interpolation matrices this order puts a usable pivot at
the top of most columns, so few pivots need a row swap.

The kernel then walks the columns in panels of PANEL columns. Inside a
panel it is left-looking and takes one pivot step at a time, of width
b = BLOCK = 4 when four columns and four rows are left, else b = 1. A
step brings its b columns up to date with one product against the pivot
rows found so far. For b = 4 their leading 4 × 4 block B is inverted mod
p by its adjugate over Python ints; when B is singular, the step falls
back to b = 1 on the first of those columns, whose update is already
made. For b = 1 the pivot is the column's first nonzero entry: when the
top entry is 0, the first row below with a nonzero entry is swapped in,
and a zero column gives no pivot. B is then the 1 × 1 block of that
entry. Either way the b pivot rows' trailing part P is brought up to
date, the multipliers of the rows below are the rows of M = C·B⁻¹ mod p
(C: those rows of the step's columns), and U gets ``−2^16·P`` and ``−P``
mod p while H gets the 16-bit halves of M, ``M = hi·2^16 + lo``. So
``hi·(−2^16·P) + lo·(−P) ≡ −M·P (mod p)``: the product H.T @ U subtracts
C·B⁻¹ times the pivot rows from the rows below, as b single eliminations
would. Nothing reads a column of the step again once it is passed. After
the panel, the trailing Schur complement gets the whole panel at once,
as GEMMs over row chunks of CHUNK rows, so temporaries stay O(CHUNK ×
columns).

Exactness. Every residue in U and H lies in [0, p) with p < 2^31, and
each half in H below 2^16. Each update is one float64 product over the
2k ≤ 2·PANEL interleaved rows of the k pivots so far, a sum of at most
2·PANEL = 64 terms, each below 2^16·2^31, plus one residue: that stays
below ``64·(2^31−2)·(2^16−1) + 2^31 < 2^53``. So every partial sum is an
exact integer whatever the BLAS summation order or thread count; it is
added to the entry in int64, which is reduced as below. M comes from one
int64 product: |C| ≤ p − 1 and B⁻¹ is kept in balanced residues,
|B⁻¹| ≤ (p − 1)/2, so a sum of b ≤ BLOCK products stays below
``BLOCK·(p − 1)^2/2 < 2^63``, the bound asserted at import; for b = 1
it is below 2^61.

The trailing block is not reduced after each panel's GEMMs. The kernel
reads S only through a step's ``Ct`` and ``P``, and reduces both mod p
on every step, so every residue that reaches U, H, M or a pivot test
lies in [0, p). A trailing update adds a nonnegative integer below 2^53
to each entry, so the block is reduced once every TRAIL_REDUCE updates:
an entry read by a step then holds a residue plus at most
TRAIL_REDUCE − 1 trailing updates plus the step's own, which stays below
``TRAIL_REDUCE·2^53 + 2^31 < 2^63``, the bound asserted at import.

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
# trailing updates between reductions of the trailing block, the most
# the bound below allows (see "Exactness" in the docstring)
TRAIL_REDUCE = 1023
assert TRAIL_REDUCE * 2**53 + P_LIMIT < 2**63
# pivots taken in one step when their leading block is invertible, else
# one; ``_inverse4`` is written for this size
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
    grown = 0  # trailing updates since the trailing block was last reduced
    h = p >> 1  # (x + h) % p - h is the residue of x in [-h, h]
    bscale = np.array([(-1 << 16) % p, p - 1], dtype=np.int64)
    for c0 in range(0, n, PANEL):
        if r == m:
            break
        w = min(PANEL, n - c0)
        S = A[r:, c0:]
        # a step of b pivots i..i+b-1 keeps the 16-bit halves of its
        # multipliers as H[2i:2i+b] (hi) and H[2i+b:2i+2b] (lo), and its
        # pivot rows times -2^16 and -1 as U[2i:2i+b] and U[2i+b:2i+2b]
        H = np.zeros((2 * w, m - r))
        U = np.empty((2 * w, n - c0))
        k = 0  # pivots found in this panel; they are rows 0..k-1 of S
        j = 0
        while j < w and r + k < m:
            kk = 2 * k
            b = BLOCK if j + BLOCK <= w and r + k + BLOCK <= m else 1
            Ct = S[k:, j:j + b] + (H[:kk, k:].T @ U[:kk, j:j + b]).astype(np.int64)
            Ct %= p
            Binv = _inverse4(Ct[:BLOCK].tolist(), p) if b == BLOCK else None
            if Binv is None:
                b = 1
                Ct = Ct[:, :1]
                if not Ct[0, 0]:
                    nz = Ct[:, 0].nonzero()[0]
                    if nz.size == 0:
                        j += 1
                        continue
                    i = int(nz[0])
                    S[[k, k + i], j + 1:] = S[[k + i, k], j + 1:]
                    Ct[[0, i]] = Ct[[i, 0]]
                    H[:kk, [k, k + i]] = H[:kk, [k + i, k]]
                inv = pow(int(Ct[0, 0]), -1, p)
                Binv = np.array([[(inv + h) % p - h]], dtype=np.int64)
            # nothing reads the step's own columns of S again
            P = S[k:k + b, j + b:]
            P += (H[:kk, k:k + b].T @ U[:kk, j + b:]).astype(np.int64)
            P %= p
            U[kk:kk + 2 * b, j + b:] = (
                np.multiply.outer(bscale, P) % p).reshape(2 * b, P.shape[1])
            M = Ct[b:, :b] @ Binv
            M %= p
            np.divmod(M.T, _HALF, out=(H[kk:kk + b, k + b:],
                                       H[kk + b:kk + 2 * b, k + b:]))
            k += b
            j += b
        if k and w < n - c0 and r + k < m:
            T = S[k:, w:]
            kk = 2 * k
            grown += 1
            for i in range(0, len(T), CHUNK):
                X = T[i:i + CHUNK]
                L = H[:kk, k + i:k + i + CHUNK].T
                X += (L @ U[:kk, w:]).astype(np.int64)
                if grown == TRAIL_REDUCE:
                    X -= X // p * p  # cheaper than %= on a block
            grown %= TRAIL_REDUCE
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
