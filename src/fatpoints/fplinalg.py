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

numpy and the kernel are imported inside ``build_matrix``, ``rank`` and
``task_rng``, so they load at the first matrix, not with the package.
Standard form, the axioms, glueing and reduction need no matrix, and a
process that only runs those never pays numpy's import, which is most of
the package's start-up time.

Unlucky points.  A maximal minor of the matrix is a polynomial in the
point coordinates of degree at most N·e (N its size, e the largest
monomial degree of D), so by the Schwartz–Zippel lemma points drawn at
random vanish on a nonzero minor with probability at most about N·e/p:
below 10^-4 for N = 2,000 columns, e = 60 and the default p = 2^31 − 1.
Such bad luck only lowers the rank, and a deficient rank only ever leads
to another attempt with fresh points or to Inconclusive, never to a
wrong verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

from .diagrams import Diagram
from .systems import INCONCLUSIVE, NON_SPECIAL, Step, Verdict

if TYPE_CHECKING:
    import numpy as np

DEFAULT_PRIME = 2**31 - 1
# every product of two residues below P_LIMIT fits in int64, and the rank
# kernel's split float64 products stay exact (see ``_gauss``)
P_LIMIT = 2**31


class DegeneratePointsError(ValueError):
    """Raised when interpolation points repeat (code DEGENERATE)."""

    code = "DEGENERATE"


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


def _check_modulus(p: int) -> None:
    if p >= P_LIMIT:
        raise ValueError(f"p must be below 2^31 for exact arithmetic, got {p}")


@dataclass(frozen=True)
class PrimeFieldConfig:
    """Prime modulus, RNG seed and retry count for rank certificates."""

    p: int = DEFAULT_PRIME
    seed: int = 0
    attempts: int = 3

    def __post_init__(self) -> None:
        if self.p <= 10**6:
            raise ValueError("p must exceed 10^6 so derivative coefficients "
                             "never vanish spuriously")
        _check_modulus(self.p)
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


def task_rng(cfg: PrimeFieldConfig, key: str) -> np.random.Generator:
    """Deterministic per-task stream derived from (seed, task key).

    Parallel and serial runs see identical streams because the stream
    depends only on the task content, never on scheduling order.
    """
    # imported on first use: hashlib maps OpenSSL's libcrypto, about 3.5 MB
    # of resident memory that a process which never samples points is spared
    import hashlib

    import numpy as np

    digest = hashlib.sha256(f"{cfg.seed}:{key}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def sample_points(n: int, p: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """n points in F_p^2 with pairwise distinct x and y coordinates."""
    xs: set[int] = set()
    ys: set[int] = set()
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        x = int(rng.integers(1, p))
        y = int(rng.integers(1, p))
        if x in xs or y in ys:
            continue
        xs.add(x)
        ys.add(y)
        pts.append((x, y))
    return pts


def build_matrix(D: Diagram, mults, points, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Dense interpolation matrix of V(D; mults) at the given points.

    Row (point j, derivative (alpha, beta)) and column (monomial x^a y^b)
    hold the falling-factorial coefficient a!/(a-alpha)! * b!/(b-beta)!
    times x^(a-alpha) y^(b-beta), taken as zero when alpha > a or
    beta > b; all arithmetic is mod p.
    """
    import numpy as np

    mults = list(mults)
    points = list(points)
    if len(points) != len(mults):
        raise ValueError("need exactly one point per multiplicity")
    if any(m < 1 for m in mults):
        raise ValueError("build_matrix needs multiplicities >= 1")
    if len(set(points)) != len(points):
        raise DegeneratePointsError("repeated interpolation points")
    _check_modulus(p)
    mons = D.monomials()
    n = len(mons)
    rows = sum(comb(m + 1, 2) for m in mults)
    if n == 0 or rows == 0:
        return np.zeros((rows, n), dtype=np.int64)
    ea, eb = np.array(mons, dtype=np.int64).T
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
    PW = np.ones((2, len(points), w), dtype=np.int64)
    xy = np.array(points, dtype=np.int64).reshape(-1, 2).T % p
    for i in range(1, w):
        PW[:, :, i] = PW[:, :, i - 1] * xy % p
    # per-point tables XY[0][j·mmax + alpha, a] = FF[alpha, a] x_j^(a-alpha)
    # and XY[1][j·mmax + beta, b] = FF[beta, b] y_j^(b-beta); where
    # alpha > a the FF factor is 0, so the clipped power index is harmless
    shift = np.maximum(top - top[:mmax, None], 0)
    XY = (FF * PW[:, :, shift] % p).reshape(2, -1, w)
    # one row per (point j, alpha, beta) with alpha + beta < m_j, in order
    orders = {m: np.nonzero(np.add.outer(top[:m], top[:m]) < m) for m in set(mults)}
    pt = np.repeat(np.arange(len(mults)) * mmax, [comb(m + 1, 2) for m in mults])
    al = np.concatenate([orders[m][0] for m in mults])
    be = np.concatenate([orders[m][1] for m in mults])
    A = XY[0, pt + al][:, ea] * XY[1, pt + be][:, eb]
    A -= A // p * p  # cheaper than % on a block
    return A


def rank(A: np.ndarray, p: int = DEFAULT_PRIME) -> int:
    """Exact rank of an integer matrix over F_p, p < 2^31."""
    import numpy as np

    from ._gauss import rank_mod_p

    _check_modulus(p)
    return int(rank_mod_p(np.asarray(A, dtype=np.int64), p))


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
    """
    cfg = cfg or PrimeFieldConfig()
    mults = [m for m in mults]
    if any(m < 1 for m in mults):
        raise ValueError("certify_nonspecial_rank needs multiplicities >= 1")
    cols = D.cells
    rows = sum(comb(m + 1, 2) for m in mults)
    if key is None:
        key = f"{D}|{','.join(map(str, mults))}"
    rng = task_rng(cfg, key)
    if not mults:
        step = Step("rank", {"rows": 0, "cols": cols, "rank": 0}, before=str(D))
        return Verdict(NON_SPECIAL, dim=cols, certificate=(step,))
    for attempt in range(1, cfg.attempts + 1):
        pts = sample_points(len(mults), cfg.p, rng)
        rk = rank(build_matrix(D, mults, pts, cfg.p), cfg.p)
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
                before=str(D),
            )
            return Verdict(NON_SPECIAL, dim=cols - rk, certificate=(step,))
    return Verdict(
        INCONCLUSIVE,
        reason=f"rank below min({rows},{cols}) after {cfg.attempts} attempts",
    )
