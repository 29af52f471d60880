"""Interpolation matrices over a large prime field and the one-sided
randomized non-specialty certificate.

The matrix of V(D; m1,...,mr) at points p1,...,pr has one column per
monomial of D and one row per point and derivative order (alpha, beta)
with alpha+beta < mj.  Full rank at specialized points over F_p implies
full rank over the rationals at general points, so a full-rank outcome
certifies non-specialty; a deficient rank never certifies anything.

The prime is bounded, 10^6 < p < 2^31.  Below 2^31 every product of two
residues fits in int64, so ``build_matrix`` multiplies one entry of a
per-point x table by one of a y table and reduces once.  The rank kernel
(``_gauss``) splits the entries it eliminates into 16-bit halves and
keeps each pivot row as two residue rows, so a float64 product over a
panel of 32 pivots (64 half columns) keeps every sum below 2^53 and the
rank is exact.

The heaviest point at the origin.  A diagram D is down-closed when
dividing any of its monomials by x or by y stays in D.  Then the span of
D is mapped to itself by every translation (x, y) -> (x + u, y + v): a
monomial x^a y^b goes to itself plus monomials x^a' y^b' with a' <= a,
b' <= b and a' + b' < a + b, all in D, so the map is unitriangular and
invertible over any field.  Translations commute with derivatives, so
moving every point by -p0 changes the matrix only by that change of
basis, and its rank over F_p is the same at the same sampled points.  At
the origin, a point of multiplicity m asks exactly that the coefficients
of the monomials of degree < m vanish (row (alpha, beta) is alpha! beta!
times the unit vector of x^alpha y^beta, or zero when that monomial is
not in D).  Those are the cells of D's first m layers, so its block
holds one pivot per such cell, and the rank is their count plus the
rank of the other points' rows on the remaining columns.
``interpolation_rank`` takes p0 to be the first point of largest
multiplicity, which leaves the smallest matrix, and keeps the plain
matrix for any diagram that is not down-closed.

The next heaviest point at (1, 0).  Let p1 = (dx, dy), dx != 0, be the
first of the other points of largest multiplicity m1 after the move.
The linear map (x, y) -> (x/dx, y - (dy/dx)·x) fixes the origin and
takes p1 to (1, 0).  Its inverse sends x^a y^b to (dx·x)^a (y + dy·x)^b,
a sum of monomials of the same degree with y-exponent <= b.  Layer j of
D holds the monomials of degree j - 1 with y-exponent below c_j, so the
map takes the span of D, and of D without its first m0 layers, onto
itself, and the rank is again the same at the same sampled points.  At
y = 0 the derivative d^beta/dy^beta of a polynomial is beta! times its
coefficient of y^beta, so p1's rows say: for each b < m1, the slice
sum_a f_ab x^a vanishes to order k = m1 - b at x = 1.  The slice b of a
down-closed D is an initial segment a < A_b, since dividing by x stays
in D (equivalently, D's layers are full up to some layer and
non-increasing after it).  Without the first m0 layers, for b < m1 <=
m0, it is the interval of the n_b degrees m0 <= a + b < m0 + n_b.  A
polynomial x^lo h(x), deg h < n, vanishes to order k at 1 exactly when
(x - 1)^k divides h, so p1's rows have rank min(k, n) on the slice.
When k < n, the columns of x^(a-k) (x - 1)^k y^b = sum_t C(k,t)
(-1)^(k-t) x^(a-k+t) y^b, for the last n - k cells of the slice,
together with the first k cells, are a unitriangular change of basis
on which p1's rows vanish except on those first k cells, where they
have full column rank.  So the rank is sum_b min(k, n_b) plus the rank
of the other points' rows on the changed columns (the "fold") and on
the cells with b >= m1, which p1's rows do not touch.  When there is
no other point, or the first heaviest one lies on p0's vertical line
(dx = 0), m1 = 0 and nothing is folded.

The third heaviest point at [0:1:0], on a full triangle.  When D is the
triangle (1, ..., n), its span is every polynomial of degree <= n - 1,
and a projective map takes that space onto itself.  Let p2 = (x2, y2) be
the first of the remaining points of largest multiplicity m2 after the
two moves above.  The map (x, y) -> ((x - (x2/y2)·y)/(1 - y/y2),
y/(1 - y/y2)) fixes (0, 0) and (1, 0) and sends p2 to [0:1:0]; the
other points stay affine when none of them lies on the line y = y2.
"Vanishes to order m at a point" does not depend on the coordinates,
so the space cut out by the points, and the rank, are the same at the
same sampled points.  At [0:1:0], in the chart Y = 1 of the form
F(X, Y, Z), a point of multiplicity m2 asks exactly that the
coefficients of x^a y^b = X^a Y^b Z^(n-1-a-b) with a + (n - 1 - a - b)
< m2 vanish: the C(m2 + 1, 2) cells with b >= n - m2, one pivot each.
The move is made only when m1 > 0, y2 != 0, no other point has y = y2,
and m0 + m2 <= n, so that p0's cells (degree < m0) and p2's cells are
disjoint; m1 <= m0 then gives m1 + m2 <= n, so the slices b < m1 that
p1 folds keep all their cells, and the fold above holds on the layers
of D past m0 capped at n - m2.  Otherwise nothing more is moved.  Over
any D that is not a full triangle such a map would leave D's span.

The fold happens in the per-point tables, before the product.  Row
(j, alpha, beta) of the column of x^a y^b is X_j[alpha, a]·Y_j[beta, b],
with X_j[alpha, a] = a!/(a-alpha)!·x_j^(a-alpha) and Y_j likewise in y.
Multiplying by x - 1 takes a first backward difference in a, so the
column of x^(a-k) (x - 1)^k y^b is (Delta^k X_j)[alpha, a]·Y_j[beta, b].
``build_matrix`` with ``fold`` = m1 takes k <= m1 differences of the
small x-table and gathers each kept column from the k-th one, reduced
mod p: one pass builds the folded matrix.  A difference at most doubles
the largest entry, so the table itself is reduced only once every 30
passes, which keeps it below 2^30·p < 2^61 in int64.  The columns of
slice b are one run of the output, as the columns go slice by slice.

numpy and the kernel are imported inside ``build_matrix`` and ``rank``,
so they load at the first matrix, not with the package.  Standard form,
the axioms, glueing and reduction need no matrix, and a process that
only runs those never pays numpy's import, which is most of the
package's start-up time.  The points of a certificate come from the
standard library's ``random.Random`` (``task_rng``), so a certificate
loads numpy and the kernel but not numpy.random, which would bring
secrets, hashlib and OpenSSL's libcrypto, about 6 MB of resident memory.

Unlucky points.  A maximal minor of the matrix is a polynomial in the
point coordinates of degree at most N·e (N its size, e the largest
monomial degree of D), so by the Schwartz–Zippel lemma points drawn at
random vanish on a nonzero minor with probability at most about N·e/p:
below 10^-4 for N = 2,000 columns, e = 60 and the default p = 2^31 − 1.
Such bad luck only lowers the rank, and a deficient rank only ever leads
to another attempt with fresh points or to Inconclusive, never to a
wrong verdict.  A full-rank step proves its claim from its integer
points alone: some maximal minor is nonzero mod p, so nonzero over the
integers, so the matrix has full rank over Q at those points and, by
semicontinuity, at general points; the moves above are changes of
coordinates over F_p and keep the rank mod p.  Schwartz–Zippel bounds
only the chance of a retry.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING

from .diagrams import Diagram, triangle
from .systems import INCONCLUSIVE, NON_SPECIAL, Step, Verdict

if TYPE_CHECKING:
    import random

    import numpy as np

DEFAULT_PRIME = 2**31 - 1
# every product of two residues below P_LIMIT fits in int64, and the rank
# kernel's split float64 products stay exact (see ``_gauss``)
P_LIMIT = 2**31
# fold passes between reductions: 2^FOLD_REDUCE·p stays below 2^63
FOLD_REDUCE = 30
assert 2**FOLD_REDUCE * P_LIMIT < 2**63
# entries in one block of rows that ``build_matrix`` fills at a time
# (128 KiB). Best of seven, against 2^15-2^17 and one block of the whole
# matrix: the fastest on a 174 × 171 family matrix (380-430 µs, against
# 480-530 µs), and 5-20 % slower than 2^16 on the 2,520 × 2,530 matrix
# of L(78;20^15) at 6,000 columns (50-59 ms, against 47-49 ms, and 81 ms
# for the whole matrix at once)
BUILD_BLOCK = 1 << 14


class DegeneratePointsError(ValueError):
    """Raised when interpolation points repeat."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin on bases 2, 7 and 61: exact for every
    n < 4,759,123,141 (Jaeschke 1993), which covers all n < 2^31."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=16, typed=True)
def _check_prime(p: int) -> None:
    """Refuse a modulus that is not a prime below 2^31.  Cached per
    modulus: the primality test takes about 15 µs, and a family run builds
    and ranks some 2,000 matrices with one p."""
    if p >= P_LIMIT:
        raise ValueError(f"p must be below 2^31 for exact arithmetic, got {p}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@dataclass(frozen=True)
class PrimeFieldConfig:
    """Prime modulus, RNG seed and retry count for rank certificates."""

    p: int = DEFAULT_PRIME
    seed: int = 0
    attempts: int = 3

    def __post_init__(self) -> None:
        # numpy integers are accepted, and floats refused, as p is coerced
        # before the cached primality check, which tells types apart
        object.__setattr__(self, "p", operator.index(self.p))
        if self.p <= 10**6:
            raise ValueError("p must exceed 10^6 so derivative coefficients "
                             "never vanish spuriously")
        _check_prime(self.p)
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


def task_rng(cfg: PrimeFieldConfig, key: str) -> random.Random:
    """Deterministic per-task stream derived from (seed, task key).

    The stream is ``random.Random(f"{cfg.seed}:{key}")``: CPython's
    Mersenne Twister seeded from the bytes of that string and their
    SHA-512 digest, so it depends neither on numpy nor on
    ``PYTHONHASHSEED``.  Parallel and serial runs see identical streams
    because the stream depends only on the task content, never on
    scheduling order.
    """
    # imported on first use, as numpy is
    import random

    return random.Random(f"{cfg.seed}:{key}")


def sample_points(n: int, p: int, rng: random.Random) -> list[tuple[int, int]]:
    """n points in F_p^2 with pairwise distinct x and y coordinates.

    Point by point, x then y, each coordinate is ``rng.randrange(1, p)``;
    a point whose x or y repeats an earlier point's is dropped and the
    next pair is drawn.  Only p - 1 nonzero coordinates exist, so n > p - 1
    raises ``ValueError``.
    """
    if n > p - 1:
        raise ValueError(f"{n} points with distinct nonzero coordinates "
                         f"need n <= p - 1, got p = {p}")
    xs: set[int] = set()
    ys: set[int] = set()
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        x = rng.randrange(1, p)
        y = rng.randrange(1, p)
        if x in xs or y in ys:
            continue
        xs.add(x)
        ys.add(y)
        pts.append((x, y))
    return pts


def _check_points(mults: list, points: list, p: int) -> None:
    if len(points) != len(mults):
        raise ValueError("need exactly one point per multiplicity")
    if any(m < 1 for m in mults):
        raise ValueError("build_matrix needs multiplicities >= 1")
    if len(set(points)) != len(points):
        raise DegeneratePointsError("repeated interpolation points")
    _check_prime(p)


def build_matrix(D: Diagram, mults, points, p: int = DEFAULT_PRIME,
                 fold: int = 0) -> np.ndarray:
    """Dense interpolation matrix of V(D; mults) at the given points.

    Row (point j, derivative (alpha, beta)) and column (monomial x^a y^b)
    hold the falling-factorial coefficient a!/(a-alpha)! * b!/(b-beta)!
    times x^(a-alpha) y^(b-beta), taken as zero when alpha > a or
    beta > b; all arithmetic is mod p, a prime below 2^31.  The columns
    go layer by layer.  Besides the result, the call holds per-point
    tables with one row per point and derivative order in x or in y, and
    temporaries of one block of ``BUILD_BLOCK`` entries: the result is
    filled and reduced a block of rows at a time.

    ``fold`` = m1 > 0 gives instead the matrix left after a point of
    multiplicity m1 at (1, 0) is folded out (see the module docstring).
    D must start with m0 >= m1 empty layers (m0 counts them all).  Slice
    by slice, b = 0, 1, ..., each cell x^a y^b of D with a + b >= m0 + k,
    k = max(m1 - b, 0), gives the column of x^(a-k) (x - 1)^k y^b.
    """
    import numpy as np

    p = operator.index(p)
    mults = list(mults)
    points = list(points)
    _check_points(mults, points, p)
    if any(D.layers[:fold]):
        raise ValueError(f"fold={fold} needs the first {fold} layers of D empty")
    # the cells x^(m0+i-b) y^b, b < c_i, past D's m0 leading empty layers
    m0 = next((j for j, c in enumerate(D.layers) if c), 0)
    c = np.array(D.layers[m0:], dtype=np.int64)
    b = np.arange(max(D.layers, default=0))[:, None]
    kept = (b < c) & (np.arange(len(c)) >= fold - b)
    eb, ei = np.nonzero(kept) if fold else np.nonzero(kept.T)[::-1]
    ea = m0 + ei - eb
    n = len(ea)
    rows = sum(comb(m + 1, 2) for m in mults)
    if n == 0 or rows == 0:
        return np.zeros((rows, n), dtype=np.int64)
    mmax = max(mults)
    # exponents reach nlayers - 1 and derivative orders mmax - 1, even on
    # low-degree diagrams
    w = max(D.nlayers, mmax)
    top = np.arange(w, dtype=np.int64)
    # FF[alpha, a] = a (a-1) ... (a-alpha+1) mod p, which is 0 for alpha > a
    FF = np.ones((mmax, w), dtype=np.int64)
    for i in range(1, mmax):
        FF[i] = FF[i - 1] * np.maximum(top - i + 1, 0) % p
    # PW[0, j, i] = x_j^i and PW[1, j, i] = y_j^i mod p
    # by doubling: x^(s+i) = x^s x^i for i < s
    PW = np.ones((2, len(points), w), dtype=np.int64)
    xs = np.array(points, dtype=np.int64).reshape(-1, 2).T % p
    s = 1
    while s < w:
        PW[:, :, s:2 * s] = PW[:, :, :min(s, w - s)] * xs[:, :, None] % p
        xs = xs * xs % p
        s *= 2
    # per-point tables X[o_j + alpha, a] = FF[alpha, a] x_j^(a-alpha) and
    # Y[o_j + beta, b] = FF[beta, b] y_j^(b-beta) for alpha, beta < m_j,
    # o_j = m_1 + ... + m_(j-1); where alpha > a the FF factor is 0, so
    # the clipped power index is harmless
    point = np.repeat(np.arange(len(mults)), mults)[:, None]
    order = np.concatenate([top[:m] for m in mults])
    X, Y = FF[order] * PW[:, point, np.maximum(top - order[:, None], 0)] % p
    # one row per (point j, alpha, beta) with alpha + beta < m_j, in order
    orders = {m: np.nonzero(np.add.outer(top[:m], top[:m]) < m) for m in set(mults)}
    pt = np.repeat(np.cumsum(mults) - mults, [comb(m + 1, 2) for m in mults])
    al = np.concatenate([orders[m][0] for m in mults])
    be = np.concatenate([orders[m][1] for m in mults])
    # the columns of slice b = m1 - k come from the k-th differences of
    # X; with fold > 0 eb is sorted, so each slice is one run of columns
    G = X[:, ea]
    run = np.searchsorted(eb, np.arange(fold + 1)).tolist()
    for k in range(1, fold + 1):
        X[:, 1:] -= X[:, :-1]
        if k % FOLD_REDUCE == 0:
            X %= p
        lo, hi = run[fold - k], run[fold - k + 1]
        np.remainder(X[:, ea[lo:hi]], p, out=G[:, lo:hi])
    # the result is filled a block of rows at a time, each row the product
    # of its x-table row and y-table row (G and Y gathered to the kept
    # columns), so no temporary is larger than a block
    ix, iy = pt + al, pt + be
    Y = Y[:, eb]
    A = np.empty((rows, n), dtype=np.int64)
    step = max(1, BUILD_BLOCK // n)
    for i in range(0, rows, step):
        B = A[i:i + step]
        np.multiply(G[ix[i:i + step]], Y[iy[i:i + step]], out=B)
        B -= B // p * p  # cheaper than % on a block
    return A


def rank(A: np.ndarray, p: int = DEFAULT_PRIME, *, overwrite: bool = False) -> int:
    """Exact rank of an integer matrix over F_p; p must be a prime below
    2^31, else ``ValueError``.

    A is left as it is, and the kernel works on a sorted, reduced copy.
    With ``overwrite`` (scipy's ``overwrite_a``), an int64 ndarray A is
    the kernel's working storage instead, so the call holds no second
    copy of it; A's entries are then left undefined.  Any other A is
    converted to int64 first, so only the converted copy changes.
    """
    import numpy as np

    from ._gauss import rank_mod_p

    p = operator.index(p)
    _check_prime(p)
    return int(rank_mod_p(np.asarray(A, dtype=np.int64), p, overwrite=overwrite))


def matrix_shape(D: Diagram, mults) -> tuple[int, int]:
    """Rows and columns, at most, of the matrix ``interpolation_rank``
    builds for V(D; mults).  On a down-closed D the heaviest point's rows
    and the cells it pivots on are left out.  The shape is an upper
    bound: the fold of a second point and, on a full triangle, the move
    of a third to [0:1:0] depend on the sampled points and only make the
    matrix smaller."""
    rows = sum(comb(m + 1, 2) for m in mults)
    if not mults or not D.down_closed:
        return rows, D.cells
    m0 = max(mults)
    return rows - comb(m0 + 1, 2), D.cells - sum(D.layers[:m0])


def interpolation_rank(D: Diagram, mults, points, p: int = DEFAULT_PRIME) -> int:
    """Rank over F_p of the interpolation matrix of V(D; mults) at points.

    On a down-closed D the heaviest point goes to the origin and the next
    heaviest, unless it shares that point's x coordinate, to (1, 0); on a
    full triangle a third goes to [0:1:0] when its guards hold.  The rank
    is their pivots plus the rank of a smaller folded matrix (see the
    module docstring).  Any other D, or no point, gets the plain matrix.
    Either way one ``build_matrix`` and one ``rank`` call are made.
    """
    p = operator.index(p)
    mults = list(mults)
    points = list(points)
    _check_points(mults, points, p)
    # the matrix is built for this call only, so the kernel works in it
    if not points or not D.down_closed:
        return rank(build_matrix(D, mults, points, p), p, overwrite=True)
    i = mults.index(max(mults))
    m0 = mults.pop(i)
    x0, y0 = points.pop(i)
    points = [((x - x0) % p, (y - y0) % p) for x, y in points]
    fixed = sum(D.layers[:m0])
    m1, u, v = 0, 1, 0
    i = mults.index(max(mults)) if mults else None
    if i is not None and points[i][0]:
        m1 = mults.pop(i)
        dx, dy = points.pop(i)
        u = pow(dx, -1, p)
        v = dy * u % p
    points = [(x * u % p, (y - v * x) % p) for x, y in points]
    # on a full triangle the next heaviest point goes to [0:1:0]; m1 <= m0,
    # so m0 + m2 <= n gives m1 + m2 <= n as well
    top = n = D.nlayers
    i = mults.index(max(mults)) if m1 and mults else None
    if i is not None and m0 + mults[i] <= n and D == triangle(n):
        x2, y2 = points[i]
        if y2 and [y for _, y in points].count(y2) == 1:
            top -= mults[i]
            fixed += comb(mults.pop(i) + 1, 2)
            del points[i]
            inv = [pow(y2 - y, -1, p) for _, y in points]
            points = [((x * y2 - x2 * y) * t % p, y * t % p)
                      for (x, y), t in zip(points, inv)]
    # the cells past the first m0 layers, with y-exponent below top
    rest = Diagram(tuple(min(c, top) if j >= m0 else 0 for j, c in enumerate(D.layers)))
    A = build_matrix(rest, mults, points, p, fold=m1)
    # each cell the fold leaves out holds one pivot of the point at (1, 0)
    return fixed + rest.cells - A.shape[1] + rank(A, p, overwrite=True)


def certify_nonspecial_rank(
    D: Diagram,
    mults,
    cfg: PrimeFieldConfig | None = None,
    key: str | None = None,
) -> Verdict:
    """One-sided randomized certificate for V(D; mults).

    Samples points from the task-keyed RNG and checks for full rank.
    Success returns NonSpecial with the vector-space dimension
    cols - rank; after cfg.attempts failures returns Inconclusive
    (rank deficiency at special points proves nothing).

    The rank comes from ``interpolation_rank``; it is the whole matrix's
    rank at the sampled points (see the module docstring), so the step
    records the rows, columns and rank of the whole matrix.
    """
    cfg = cfg or PrimeFieldConfig()
    mults = [m for m in mults]
    if any(m < 1 for m in mults):
        raise ValueError("certify_nonspecial_rank needs multiplicities >= 1")
    cols = D.cells
    rows = sum(comb(m + 1, 2) for m in mults)
    if not mults:
        step = Step("rank", {"rows": 0, "cols": cols, "rank": 0}, before=D)
        return Verdict(NON_SPECIAL, dim=cols, certificate=(step,))
    if key is None:
        key = f"{D}|{','.join(map(str, mults))}"
    rng = task_rng(cfg, key)
    for attempt in range(1, cfg.attempts + 1):
        pts = sample_points(len(mults), cfg.p, rng)
        rk = interpolation_rank(D, mults, pts, cfg.p)
        if rk == min(rows, cols):
            step = Step(
                "rank",
                {
                    "rows": rows,
                    "cols": cols,
                    "rank": rk,
                    "p": cfg.p,
                    "seed": cfg.seed,
                    "attempt": attempt,
                },
                before=D,
            )
            return Verdict(NON_SPECIAL, dim=cols - rk, certificate=(step,))
    return Verdict(
        INCONCLUSIVE,
        reason=f"rank below min({rows},{cols}) after {cfg.attempts} attempts",
    )
