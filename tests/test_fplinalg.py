from __future__ import annotations

import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from cells import monomials
from fatpoints import _gauss
from fatpoints._gauss import (
    BLOCK,
    CHUNK,
    PANEL,
    P_LIMIT,
    _inverse4,
    _rank_mod_p_scalar,
    rank_mod_p,
)
from fatpoints.diagrams import Diagram, p_of, reduce_chain, triangle
from fatpoints.engine import EngineConfig, classify
from fatpoints import fplinalg
from fatpoints.fplinalg import (
    DegeneratePointsError,
    _is_prime,
    PrimeFieldConfig,
    build_matrix,
    certify_nonspecial_rank,
    interpolation_rank,
    rank,
    sample_points,
    task_rng,
)
from fatpoints.initial_cases import (
    FamilySpec,
    run_initial_cases,
    tail_diagram,
    tails,
)
from fatpoints.systems import INCONCLUSIVE, NON_SPECIAL
from fatpoints.textio import parse_system


class TestConfig:
    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            PrimeFieldConfig(p=101)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeFieldConfig(p=2**20 + 1)  # 1048577 = 17 * 61681

    def test_rejects_prime_too_large_for_exact_arithmetic(self):
        PrimeFieldConfig(p=2**31 - 1)
        with pytest.raises(ValueError, match="below 2"):
            PrimeFieldConfig(p=2**61 - 1)
        with pytest.raises(ValueError, match="below 2"):
            PrimeFieldConfig(p=2**31 + 11)  # prime, but too large

    def test_primality_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(3)
        odd = [int(x) | 1 for x in rng.integers(10**6, 2**31, size=2000)]
        primes = [int(sympy.randprime(10**6, 2**31)) for _ in range(300)]
        # products of two primes near sqrt(2^31) and the strong pseudoprimes
        # 1,373,653 (bases 2, 3) and 25,326,001 (bases 2, 3, 5)
        hard = [46337 * 46327, 40009 * 40013, 1_373_653, 25_326_001]
        for n in odd + primes + hard + [10**6 + 3, 2**31 - 1]:
            assert _is_prime(n) == sympy.isprime(n), n
        assert not _is_prime(1_373_653) and not _is_prime(25_326_001)

    def test_numpy_integer_modulus(self):
        cfg = PrimeFieldConfig(p=np.int64(2**31 - 1))
        assert cfg.p == 2**31 - 1 and type(cfg.p) is int
        with pytest.raises(TypeError):
            PrimeFieldConfig(p=float(2**31 - 1))

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            PrimeFieldConfig(attempts=0)

    def test_task_rng_depends_on_key_and_seed(self):
        cfg = PrimeFieldConfig()
        a = task_rng(cfg, "k1").randrange(2**30)
        b = task_rng(cfg, "k2").randrange(2**30)
        c = task_rng(cfg, "k1").randrange(2**30)
        assert a == c and a != b
        other = task_rng(PrimeFieldConfig(seed=1), "k1").randrange(2**30)
        assert other != a


class TestSampling:
    def test_distinct_coordinates(self):
        cfg = PrimeFieldConfig()
        pts = sample_points(50, cfg.p, task_rng(cfg, "sampling"))
        assert len({x for x, _ in pts}) == 50
        assert len({y for _, y in pts}) == 50

    def test_stream_is_pinned(self):
        # random.Random seeded with "0:pin", x then y; the same on every
        # Python from 3.10 and whatever PYTHONHASHSEED is
        pts = sample_points(3, 2**31 - 1, task_rng(PrimeFieldConfig(), "pin"))
        assert pts == [(345773499, 1528805532), (985683776, 1710273571),
                       (1733450060, 2007363975)]
        assert task_rng(PrimeFieldConfig(seed=7), "pin").getstate() == (
            random.Random("7:pin").getstate())

    def test_refuses_more_points_than_nonzero_coordinates(self):
        # F_3 has two nonzero coordinates, so a third point cannot be drawn
        with pytest.raises(ValueError, match="3 points .* need n <= p - 1, got p = 3"):
            sample_points(3, 3, random.Random(0))
        pts = sample_points(2, 3, random.Random(0))
        assert sorted(x for x, _ in pts) == sorted(y for _, y in pts) == [1, 2]


def _build_matrix_reference(D, mults, points, p, fold=0):
    """build_matrix entry by entry with Python ints.  With fold = m1,
    slice by slice, the kept cell x^a y^b of k = max(m1 - b, 0) becomes
    x^(a-k) (x - 1)^k y^b: sum_t (-1)^(k-t) C(k,t) x^(a-k+t) y^b."""
    def ff(a, k):  # a (a-1) ... (a-k+1), zero when k > a
        out = 1
        for i in range(k):
            out *= a - i
        return out

    def entry(a, b, x, y, al, be):
        return ff(a, al) * ff(b, be) * pow(x, max(a - al, 0), p) * pow(y, max(b - be, 0), p)

    cells = [(a, b, 0) for a, b in monomials(D)]
    if fold:
        m0 = next((j for j, c in enumerate(D.layers) if c), 0)
        cells = sorted(((a, b, max(fold - b, 0)) for a, b in monomials(D)
                        if a + b >= m0 + max(fold - b, 0)), key=lambda c: (c[1], c[0]))
    return [[sum((-1) ** (k - t) * comb(k, t) * entry(a - k + t, b, x, y, al, be)
                 for t in range(k + 1)) % p for a, b, k in cells]
            for (x, y), m in zip(points, mults)
            for al in range(m) for be in range(m - al)]


class TestBuildMatrix:
    @pytest.mark.parametrize("D, mults", [
        (triangle(8), [3, 2, 2, 1]),
        (Diagram((1, 2, 3, 2, 4, 0, 1)), [5, 1, 2]),  # orders beyond some degrees
        (Diagram((1, 1, 1)), [4, 4]),
        (triangle(1), [1]),
    ])
    def test_matches_entrywise_reference(self, D, mults):
        p = PrimeFieldConfig().p
        rng = random.Random(len(mults))
        points = sample_points(len(mults) - 1, p, rng) + [(p - 1, p - 2)]
        A = build_matrix(D, mults, points, p)
        assert A.dtype == np.int64
        assert A.shape == (sum(m * (m + 1) // 2 for m in mults), D.cells)
        assert A.tolist() == _build_matrix_reference(D, mults, points, p)

    def test_simple_point_row(self):
        p = PrimeFieldConfig().p
        A = build_matrix(triangle(2), [1], [(5, 7)], p)
        assert A.tolist() == [[1, 5, 7]]

    def test_double_point_rows(self):
        p = PrimeFieldConfig().p
        A = build_matrix(triangle(2), [2], [(5, 7)], p)
        # rows: value, d/dx, d/dy on monomials 1, x, y
        assert sorted(A.tolist()) == sorted(
            [[1, 5, 7], [0, 1, 0], [0, 0, 1]]
        )

    def test_falling_factorials(self):
        p = PrimeFieldConfig().p
        # V(triangle(3); point of mult 3) includes row d2/dx2 on x^2: 2
        A = build_matrix(triangle(3), [3], [(2, 3)], p)
        mon = monomials(triangle(3))
        col = mon.index((2, 0))
        assert 2 in A[:, col]

    def test_rejects_repeated_points(self):
        with pytest.raises(DegeneratePointsError):
            build_matrix(triangle(2), [1, 1], [(5, 7), (5, 7)])

    def test_rejects_mult_zero(self):
        with pytest.raises(ValueError):
            build_matrix(triangle(2), [0], [(5, 7)])

    @pytest.mark.parametrize("seed", range(12))
    def test_fold_matches_entrywise_reference(self, seed):
        # a random down-closed diagram without its first m0 layers, as
        # interpolation_rank folds it, at random points
        rng = np.random.default_rng(seed)
        D = _random_down_closed(rng, int(rng.integers(4, 14)))
        m0 = int(rng.integers(1, max(D.nlayers, 2)))
        rest = Diagram((0,) * m0 + D.layers[m0:])
        fold = int(rng.integers(1, m0 + 1))
        mults = [int(m) for m in rng.integers(1, fold + 1, size=int(rng.integers(1, 4)))]
        points = sample_points(len(mults), P, random.Random(seed))
        A = build_matrix(rest, mults, points, P, fold=fold)
        assert A.tolist() == _build_matrix_reference(rest, mults, points, P, fold)

    # two slices of 64 degrees from 61: k from 22 to 61 differences
    @pytest.mark.parametrize("m1", [22, 23, 29, 30, 31, 45, 61])
    def test_fold_on_long_slices(self, m1):
        rest = Diagram((0,) * 61 + (2,) * 64)
        mults = [3, 1, 2]
        points = sample_points(3, P, random.Random(m1))
        A = build_matrix(rest, mults, points, P, fold=m1)
        assert A.shape == (10, 2 * 64 - (2 * m1 - 1))
        assert A.tolist() == _build_matrix_reference(rest, mults, points, P, m1)

    def test_rejects_fold_over_a_nonempty_layer(self):
        with pytest.raises(ValueError, match="fold=3"):
            build_matrix(Diagram((0, 0, 3, 4)), [1], [(5, 7)], fold=3)
        assert build_matrix(Diagram((0, 0, 3, 4)), [1], [(5, 7)], fold=2).shape == (1, 4)
        assert build_matrix(Diagram(()), [1], [(5, 7)], fold=2).shape == (1, 0)

    @pytest.mark.parametrize("fold", [0, 10])
    def test_peak_memory_about_two_matrices(self, fold):
        # L(37; 12, 10^12), whole and as interpolation_rank builds it: the
        # output and one full-size factor, not a third copy
        D, mults = triangle(38), [12] + [10] * 12
        points = sample_points(len(mults), P, random.Random(0))
        if fold:
            D, mults, points = Diagram((0,) * 12 + D.layers[12:]), mults[2:], points[2:]
        build_matrix(D, mults, points, P, fold=fold)  # numpy's first-use allocations
        tracemalloc.start()
        try:
            A = build_matrix(D, mults, points, P, fold=fold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * A.nbytes


class TestRank:
    def test_known_ranks(self):
        p = PrimeFieldConfig().p
        assert rank(np.eye(4, dtype=np.int64), p) == 4
        assert rank(np.zeros((3, 5), dtype=np.int64), p) == 0
        assert rank(np.zeros((2, 0), dtype=np.int64), p) == 0
        assert rank(np.zeros((0, 3), dtype=np.int64), p) == 0
        A = np.array([[1, 2], [2, 4]], dtype=np.int64)
        assert rank(A, p) == 1

    def test_rank_mod_p_not_over_q(self):
        p = PrimeFieldConfig().p
        A = np.array([[1, 0], [0, p]], dtype=np.int64)
        assert rank(A, p) == 1


    def test_scalar_kernel_matches_numpy_kernel(self):
        # The blocked kernel against the plain-Python reference kernel.
        p = 2**31 - 1
        rng = np.random.default_rng(7)
        deficient = 0
        for _ in range(80):
            m, n = (int(x) for x in rng.integers(1, 9, size=2))
            A = rng.integers(0, p, size=(m, n), dtype=np.int64)
            for i in range(1, m):
                pick = int(rng.integers(0, 4))
                if pick == 0:
                    A[i] = 0
                elif pick == 1:
                    A[i] = A[int(rng.integers(0, i))]
                elif pick == 2:  # a combination of two earlier rows
                    a, b = (int(x) for x in rng.integers(1, p, size=2))
                    j, k = (int(x) for x in rng.integers(0, i, size=2))
                    A[i] = [(a * int(x) + b * int(y)) % p
                            for x, y in zip(A[j], A[k])]
            want = _rank_mod_p_scalar(A.copy(), p)
            assert rank_mod_p(A.copy(), p) == want, A
            deficient += want < min(m, n)
        assert deficient >= 20

    def test_scalar_oracle_on_unreduced_input(self):
        # entries up to 3p in size: the oracle reduces its copy before it
        # multiplies, so it agrees with itself on the reduced matrix and
        # with the kernel
        p = 2**31 - 1
        rng = np.random.default_rng(0)
        for _ in range(1000):
            m, n = (int(x) for x in rng.integers(2, 6, size=2))
            A = rng.integers(-3 * p, 3 * p + 1, size=(m, n), dtype=np.int64)
            if rng.random() < 0.5:  # a row equal to the first mod p
                A[-1] = A[0] + p * int(rng.integers(-2, 3))
            want = _rank_mod_p_scalar(A % p, p)
            assert _rank_mod_p_scalar(A.copy(), p) == want, A
            assert rank_mod_p(A, p) == want, A

    def test_rejects_prime_too_large_for_exact_arithmetic(self):
        # int64 products of residues overflow past 2^31: the kernel would
        # return a wrong rank, so the modulus is refused up front
        A = np.eye(5, dtype=np.int64)
        assert rank(A, 2**31 - 1) == 5
        for p in (2**31, 2**61 - 1):
            with pytest.raises(ValueError, match="below 2"):
                rank(A, p)
        with pytest.raises(ValueError, match="below 2"):
            build_matrix(triangle(2), [1], [(5, 7)], 2**61 - 1)

    # composite, zero, one and negative moduli: F_p is a field only for a
    # prime p, so the kernel's inverses and ranks would mean nothing
    @pytest.mark.parametrize("p", [4, 0, 1, -7, -2, 2**31 - 3, 46337 * 46327])
    def test_rejects_modulus_that_is_not_prime(self, p):
        refused = f"p must be prime, got {p}$"
        for A in ([[2, 0], [0, 1]], [[3]]):
            with pytest.raises(ValueError, match=refused):
                rank(A, p)
        with pytest.raises(ValueError, match=refused):
            build_matrix(triangle(2), [1], [(5, 7)], p)
        # the moves invert differences mod p before any matrix is built
        with pytest.raises(ValueError, match=refused):
            interpolation_rank(triangle(3), [1, 1], [(1, 1), (3, 2)], p)

    def test_primality_is_tested_once_per_modulus(self, monkeypatch):
        calls = []
        is_prime = fplinalg._is_prime
        monkeypatch.setattr(fplinalg, "_is_prime", lambda n: calls.append(n) or is_prime(n))
        fplinalg._check_prime.cache_clear()
        for _ in range(50):
            assert rank([[1, 2]], 1_000_003) == 1
        assert calls == [1_000_003]

    def test_numpy_integer_modulus(self, monkeypatch):
        # p is coerced before the primality check, which is cached by type:
        # an int and an np.int64 of one prime are tested once between them
        calls = []
        is_prime = fplinalg._is_prime
        monkeypatch.setattr(fplinalg, "_is_prime", lambda n: calls.append(n) or is_prime(n))
        fplinalg._check_prime.cache_clear()
        q = 1_000_033
        assert rank([[1, 2], [3, 4]], np.int64(7)) == 2
        assert rank([[1, 2], [3, 4]], q) == rank([[1, 2], [3, 4]], np.int64(q)) == 2
        args = (triangle(4), [2, 1], [(5, 7), (2, 3)])
        want = build_matrix(*args, q)
        assert np.array_equal(build_matrix(*args, np.int64(q)), want)
        assert interpolation_rank(*args, np.int64(q)) == interpolation_rank(*args, q) == 4
        assert calls == [7, q]
        for p in (7.0, float(q)):
            with pytest.raises(TypeError):
                rank([[1, 2], [3, 4]], p)
            with pytest.raises(TypeError):
                build_matrix(*args, p)
            with pytest.raises(TypeError):
                interpolation_rank(*args, p)

    def test_small_primes_are_fields(self):
        assert rank([[2, 0], [0, 1]], 7) == 2
        assert rank([[3]], 2) == 1 and rank([[2]], 2) == 0
        assert rank(np.array([[1, 1], [1, 1]]), 3) == 1


P = 2**31 - 1
W = PANEL


def _edge_shapes(w):
    """Shapes at the edges of panels of w columns."""
    return [
        (w - 1, w - 1), (w, w), (w + 1, w + 1), (2 * w + 1, 2 * w + 1),
        (w - 7, 2 * w + 1), (w // 2, w + 1),  # m < w
        (1, 2 * w + 1), (2 * w + 1, 1), (1, 1),
        (2 * w + 3, w + 1), (3 * w, w - 1),  # tall
        (w + 2, 2 * w + 5),  # wide
    ]


# the kernel's panel edges and those of panels twice as wide, which are
# panel edges too (shapes that occur twice are run once), and matrices
# with no columns or no rows, as an emptied diagram gives
EDGE_SHAPES = list(dict.fromkeys(_edge_shapes(W) + _edge_shapes(2 * W)))
EDGE_SHAPES += [(2, 0), (0, 3)]


def _random_deficient(m, n, seed):
    """Random m x n residues with a zero row and a row combining two others."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, P, size=(m, n), dtype=np.int64)
    if m >= 3:
        A[m // 2] = 0
        A[m - 1] = (3 * A[0] + A[1]) % P
    return A


class TestBlockedKernel:
    """The blocked kernel against the reference at panel edges and at the
    exactness bound."""

    @pytest.mark.parametrize("m, n", EDGE_SHAPES)
    def test_shapes(self, m, n):
        A = _random_deficient(m, n, seed=m * 1000 + n)
        assert rank_mod_p(A.copy(), P) == _rank_mod_p_scalar(A.copy(), P)

    def test_entries_outside_0_to_p(self):
        # the kernel reduces its input first: adding multiples of p, also
        # negative ones, changes nothing
        A = _random_deficient(W + 5, W + 3, seed=5)
        want = _rank_mod_p_scalar(A.copy(), P)
        shifted = A + P * np.random.default_rng(6).integers(-3, 4, size=A.shape)
        before = shifted.copy()
        assert rank_mod_p(shifted, P) == want
        assert np.array_equal(shifted, before)  # reduced and sorted in a copy
        assert rank(np.array([[P, 1], [-2 * P, 3]]), P) == 1

    def test_dependent_columns_across_panel_edge(self):
        n = 2 * W + 1
        A = _random_deficient(n + 4, n, seed=11)
        A[:, 5] = 2 * A[:, 2] % P  # deficiency inside the first panel
        A[:, W - 1] = 0  # a zero column at the end of the first panel
        A[:, W] = (A[:, W - 2] + 3 * A[:, 1]) % P  # first column of the second
        A[:, 2 * W] = A[:, W]  # first column of the third panel
        want = _rank_mod_p_scalar(A.copy(), P)
        assert want == n - 4
        assert rank_mod_p(A.copy(), P) == want

    def test_split_product_at_the_exactness_edge(self):
        # Every term at its maximum: 2·PANEL half columns of 2^16 - 1
        # against scaled pivot rows of p - 1, added to entries of p - 1.
        # The sums reach within 2^38 of 2^53 and must stay exact.
        K = 2 * PANEL
        assert K * (P_LIMIT - 2) * (2**16 - 1) + P_LIMIT - 2 < 2**53
        H = np.full((3, K), float(2**16 - 1))
        U = np.full((K, 9), float(P - 1))
        U[:, 4] = P - 2  # one column a unit lower, to catch an off-by-one
        X = np.full((3, 9), P - 1, dtype=np.int64)
        want = [[(P - 1) + K * (2**16 - 1) * int(U[0, j]) for j in range(9)]
                for _ in range(3)]
        assert max(map(max, want)) > 2**53 - 2**38
        X += (H @ U).astype(np.int64)  # the kernel's update
        assert X.tolist() == want

    def test_all_entries_p_minus_1_with_full_panels(self):
        # entries p-1 off the diagonal and 1 on it: every multiplier of the
        # first pivot is p-1 and each of the first panels holds w pivots
        n = 2 * W + 1
        A = np.full((n, n), P - 1, dtype=np.int64)
        np.fill_diagonal(A, 1)
        assert rank_mod_p(A.copy(), P) == n == _rank_mod_p_scalar(A.copy(), P)
        assert rank_mod_p(np.full((W + 3, n), P - 1, dtype=np.int64), P) == 1

    @pytest.mark.parametrize("rows, cols, r", [(400, 420, 390), (430, 410, 40)])
    def test_large_matrix_of_known_rank(self, rows, cols, r):
        # A = B C with B = [I; B2] (rows x r) and C = [I | C2] (r x cols),
        # multiplied with Python ints, so rank A = r exactly; rows and
        # columns are then shuffled.
        rng = np.random.default_rng(rows + r)
        B2 = rng.integers(0, P, size=(rows - r, r)).astype(object)
        C2 = rng.integers(0, P, size=(r, cols - r)).astype(object)
        A = np.empty((rows, cols), dtype=object)
        A[:r, :r] = np.eye(r, dtype=np.int64).astype(object)
        A[:r, r:] = C2
        A[r:, :r] = B2
        A[r:, r:] = (B2 @ C2) % P
        A = A[rng.permutation(rows)][:, rng.permutation(cols)].astype(np.int64)
        assert rank(A, P) == r


@pytest.fixture
def inversions(monkeypatch):
    """Record each block inverse the kernel takes: True when the block was
    invertible, False when it fell back to the single step."""
    seen = []

    def recording(B, p):
        Binv = _inverse4(B, p)
        seen.append(Binv is not None)
        return Binv

    monkeypatch.setattr(_gauss, "_inverse4", recording)
    return seen


def _inverse_mod(B, p):
    """Inverse of a square matrix mod p by Gauss-Jordan on Python ints."""
    n = len(B)
    M = [[x % p for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(B)]
    for c in range(n):
        piv = next(i for i in range(c, n) if M[i][c])
        M[c], M[piv] = M[piv], M[c]
        inv = pow(M[c][c], -1, p)
        M[c] = [x * inv % p for x in M[c]]
        for i in range(n):
            if i != c and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[c])]
    return [row[n:] for row in M]


class TestBlockStep:
    """Four pivots per step: the block inverse, its int64 bound, and the
    single-step fallback on singular blocks, against the reference."""

    def test_inverse_in_balanced_residues(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            B = rng.integers(0, P, size=(BLOCK, BLOCK)).tolist()
            Binv = _inverse4(B, P)
            assert Binv.dtype == np.int64
            assert np.abs(Binv).max() <= (P - 1) // 2
            assert (Binv % P).tolist() == _inverse_mod(B, P)

    def test_singular_blocks_have_no_inverse(self):
        rng = np.random.default_rng(4)
        for rank in range(BLOCK):
            for _ in range(20):
                X = rng.integers(0, P, size=(BLOCK, rank)).astype(object)
                Y = rng.integers(0, P, size=(rank, BLOCK)).astype(object)
                assert _inverse4(((X @ Y) % P).tolist(), P) is None

    @pytest.mark.parametrize("v", [(P - 1) // 2, -(P - 1) // 2, -1])
    def test_multipliers_at_the_int64_bound(self, inversions, v):
        # B⁻¹ has a first column of v and the rows below B are all
        # p - 1, so each multiplier in that column sums four products
        # (p - 1)·v: at v = ±(p - 1)/2 they reach ±2(p - 1)^2, within
        # 2^35 of 2^63, and at v = -1 they would pass 2^63 if v were
        # kept as the residue p - 1
        V = [[v, 0, 0, 0], [v, 1, 0, 0], [v, 0, 1, 0], [v, 0, 0, 1]]
        B = _inverse_mod(V, P)
        Binv = _inverse4(B, P)
        assert Binv.tolist() == V
        C = np.full((5, BLOCK), P - 1, dtype=np.int64)
        want = [[sum(int(c) * x for c, x in zip(row, col)) for col in zip(*V)]
                for row in C.tolist()]
        assert max(abs(x) for row in want for x in row) == 4 * (P - 1) * abs(v)
        assert (C @ Binv).tolist() == want
        # the same rows in a matrix: rows below B that are the
        # combinations -(1, 1, 1, 1)·V of B's rows, so the rank is 4
        rng = np.random.default_rng(8)
        top = np.hstack([np.array(B, dtype=np.int64),
                         rng.integers(0, P, size=(BLOCK, 9), dtype=np.int64)])
        y = [-sum(col) % P for col in zip(*V)]
        below = np.array([[sum(a * int(b) for a, b in zip(y, c)) % P
                           for c in top.T.tolist()]] * 5, dtype=np.int64)
        assert below[:, :BLOCK].tolist() == C.tolist()
        A = np.vstack([top, below])
        assert _rank_mod_p_scalar(A, P) == BLOCK == rank_mod_p(A, P)
        assert inversions[0]

    def test_singular_blocks_at_every_panel_start(self, inversions):
        # a zero column at each panel start and six columns in, so blocks
        # fail at k = 0 and at k = 4; a repeated row pair at the top of
        # the last panel, and a last row that combines two of the first,
        # which only exact updates through every fallback bring to zero
        n = 3 * W + 8
        A = np.random.default_rng(21).integers(0, P, size=(n - 10, n), dtype=np.int64)
        for c0 in range(0, n, W):
            A[:, c0] = 0
            A[:, c0 + 6] = 0
        A[3 * (W - 2) + 1] = A[3 * (W - 2)]
        A[-1] = (3 * A[2] + A[5]) % P
        assert rank_mod_p(A, P) == _rank_mod_p_scalar(A, P) == len(A) - 2
        # three panels of [False, True, False, False] + [True] * 6, then
        # the zero column and the repeated pair
        panel = [False, True, False, False] + [True] * 6
        assert inversions == 3 * panel + [False] * 2

    @pytest.mark.parametrize("n, tries", [(W, 8), (2 * W + 1, 16)])
    def test_block_at_the_panel_edge(self, inversions, n, tries):
        # with column 0 zero, blocks start at 1, 5, ..., 25 and end at
        # column 28; columns 29-31 are too few for one, so they take
        # single steps and no block crosses into the next panel, which
        # takes eight blocks of its own
        A = np.random.default_rng(n).integers(0, P, size=(n + 2, n), dtype=np.int64)
        A[:, 0] = 0
        assert rank_mod_p(A, P) == _rank_mod_p_scalar(A, P) == n - 1
        assert inversions == [False] + [True] * (tries - 1)

    @pytest.mark.parametrize("m, n", [
        (5, 9), (6, 9), (7, 9), (W + 1, 2 * W), (W + 3, 2 * W + 5),  # wide
        (5, 4), (6, 5), (7, 6), (W + 3, W - 1), (2 * W + 3, W + 2),  # tall
    ])
    def test_one_to_three_rows_left(self, m, n):
        rng = np.random.default_rng(m * 100 + n)
        A = rng.integers(0, P, size=(m, n), dtype=np.int64)
        assert rank_mod_p(A, P) == _rank_mod_p_scalar(A, P) == min(m, n)
        A[-1] = (A[0] + 2 * A[1]) % P
        assert rank_mod_p(A, P) == _rank_mod_p_scalar(A, P)


class TestDeferredReductionKernel:
    """The trailing block reduced once every TRAIL_REDUCE panel updates
    (1 and 2 here as well as the real period): a step reduces the entries
    it reads, so the rank is the reference's whatever the period."""

    @pytest.mark.parametrize("period", [1, 2, _gauss.TRAIL_REDUCE])
    @pytest.mark.parametrize("m, n", [
        (3 * W + 5, 3 * W + 5), (4 * W + 2, 3 * W + 7), (2 * W + 9, 4 * W + 1),
    ])
    def test_matches_reference(self, monkeypatch, period, m, n):
        monkeypatch.setattr(_gauss, "TRAIL_REDUCE", period)
        A = np.random.default_rng(m * n).integers(0, P, size=(m, n), dtype=np.int64)
        assert rank_mod_p(A, P) == _rank_mod_p_scalar(A, P) == min(m, n)
        A = _random_deficient(m, n, seed=m + n)
        assert rank_mod_p(A, P) == _rank_mod_p_scalar(A, P)

    @pytest.mark.parametrize("period", [1, 2, _gauss.TRAIL_REDUCE])
    def test_dependent_row_at_the_top_of_a_later_panel(self, monkeypatch, period):
        # rows 0..2W-1 give the pivots of the first two panels, so row 2W
        # is the top row at the third panel's first step, with k = 0; it
        # combines rows of the first two panels, so its entries there are
        # 0 mod p, but unreduced multiples of p unless the trailing
        # block was reduced after the second panel
        monkeypatch.setattr(_gauss, "TRAIL_REDUCE", period)
        n = 4 * W
        A = np.random.default_rng(31).integers(0, P, size=(n, n), dtype=np.int64)
        A[2 * W] = (5 * A[3] + (P - 1) * A[W - 1] + A[W + 7]) % P
        assert rank_mod_p(A, P) == _rank_mod_p_scalar(A, P) == n - 1


@pytest.fixture(scope="module")
def family_matrices():
    """Interpolation matrices of three reduced diagrams of the staircase
    family (5,10,1): for each, the one at p(R) points, no taller than
    wide, and the tall one at p(R) + 1, as the family's certification
    builds them."""
    spec = FamilySpec(5, 10, 1)
    finals = sorted({t.final.layers for t in (
        reduce_chain(tail_diagram(spec, tail), (5, 5))
        for tail in tails(spec)) if t.consumed_all})
    cfg = PrimeFieldConfig()
    out = []
    for layers in (finals[0], finals[len(finals) // 2], finals[-1]):
        R = Diagram(layers)
        for count in (p_of(R, 5), p_of(R, 5) + 1):
            rng = task_rng(cfg, f"{R}|5x{count}")
            out.append(build_matrix(R, [5] * count, sample_points(count, P, rng), P))
    return out


class TestFamilyTraffic:
    """The kernel on the matrices the family certification feeds it: rows
    of derivative orders put structural zeros under many pivots, so rows
    move, which random dense matrices almost never make them do."""

    @pytest.mark.parametrize("i", range(6))
    def test_matches_reference(self, family_matrices, i):
        A = family_matrices[i]
        rows, cols = A.shape
        assert (rows <= cols) == (i % 2 == 0)  # wide at p(R), tall at p(R)+1
        want = _rank_mod_p_scalar(A.copy(), P)
        assert want == min(rows, cols)  # the family certifies these
        assert rank_mod_p(A.copy(), P) == want

    def test_blocks_and_fallbacks_both_run(self, family_matrices, inversions):
        for A in family_matrices:
            assert rank_mod_p(A, P) == min(A.shape)
        assert True in inversions and False in inversions

    def test_appended_row_combination(self, family_matrices):
        A = family_matrices[2]
        extra = (5 * A[3] + (P - 2) * A[-1] + A[len(A) // 2]) % P
        B = np.vstack([A, extra])
        assert B.shape[0] < B.shape[1]  # still wide, so the rank is deficient
        want = _rank_mod_p_scalar(B.copy(), P)
        assert want == len(A)
        assert rank_mod_p(B.copy(), P) == want
        # the combination as the first row, ahead of the rows it combines
        assert rank_mod_p(np.vstack([extra, A]), P) == want

    def test_rank_leaves_its_argument_unmodified(self, family_matrices):
        A = family_matrices[1] + P  # entries outside [0, p) as well
        before = A.copy()
        assert rank(A, P) == min(A.shape)
        assert np.array_equal(A, before)


def _single_cycle(m, n, seed):
    """m x n residues, m <= n, whose row i has its first nonzero entry in
    column (i + 1) % m: sorting the rows is one cycle through all m."""
    A = np.random.default_rng(seed).integers(1, P, size=(m, n), dtype=np.int64)
    for i in range(m):
        A[i, :(i + 1) % m] = 0
    return A


def _upper_triangular(m, n, seed):
    """Random residues on and above a nonzero diagonal: rows already sorted."""
    A = np.triu(np.random.default_rng(seed).integers(0, P, size=(m, n), dtype=np.int64))
    A[np.arange(min(m, n)), np.arange(min(m, n))] = 1
    return A


class TestRankInPlace:
    """``overwrite=True``: the kernel sorts, reduces and eliminates the
    matrix in place, and the rank is that of a copy.  With CHUNK = 2 the
    trailing updates run two rows at a time."""

    @pytest.mark.parametrize("order", [
        [0, 1, 2, 3, 4, 5],  # identity
        [5, 0, 1, 2, 3, 4],  # one long cycle
        [1, 0, 3, 2, 5, 4],  # three transpositions
        [2, 0, 1, 3, 5, 4],  # a 3-cycle, a fixed point and a transposition
    ])
    def test_permute_rows(self, order):
        A = np.arange(6 * 7, dtype=np.int64).reshape(6, 7)
        want = A[order]
        _gauss._permute_rows(A, order)
        assert np.array_equal(A, want)

    def test_permute_rows_random(self):
        rng = np.random.default_rng(2)
        for m in (1, 2, 17, 200):
            A = rng.integers(0, P, size=(m, 5), dtype=np.int64)
            order = rng.permutation(m).tolist()
            want = A[order]
            _gauss._permute_rows(A, order)
            assert np.array_equal(A, want)

    @pytest.mark.parametrize("make", [
        lambda: np.random.default_rng(1).integers(0, P, size=(W + 9, W + 5), dtype=np.int64),
        lambda: np.random.default_rng(2).integers(0, P, size=(3 * W, 2 * W + 1), dtype=np.int64),
        lambda: _random_deficient(2 * W + 3, 2 * W + 1, seed=3),
        lambda: _random_deficient(W + 2, 3 * W, seed=4),
        lambda: _upper_triangular(2 * W + 5, 2 * W + 5, seed=5),  # identity order
        lambda: _upper_triangular(W + 3, 2 * W, seed=6),
        lambda: _single_cycle(2 * W + 7, 2 * W + 9, seed=7),
        lambda: _single_cycle(9, 9, seed=8),
        lambda: np.random.default_rng(9).integers(0, P, size=(1, 2 * W + 1), dtype=np.int64),
        lambda: np.array([[0, 0, 3, P + 1]], dtype=np.int64),  # a single row
        lambda: _random_deficient(W + 5, W + 3, seed=10)
        + P * np.random.default_rng(11).integers(-3, 4, size=(W + 5, W + 3)),
        lambda: np.zeros((5, 0), dtype=np.int64),
    ], ids=["full-square", "full-tall", "deficient-tall", "deficient-wide",
            "sorted", "sorted-wide", "one-cycle", "one-cycle-small", "one-row",
            "one-row-short", "outside-0-p", "no-columns"])
    @pytest.mark.parametrize("chunk", [2, CHUNK])
    def test_matches_copy(self, monkeypatch, make, chunk):
        monkeypatch.setattr(_gauss, "CHUNK", chunk)
        A = make()
        want = rank(A.copy(), P)
        assert want == _rank_mod_p_scalar(A.copy(), P)
        assert rank(A, P, overwrite=True) == want

    @pytest.mark.parametrize("chunk", [2, CHUNK])
    def test_family_matrices(self, monkeypatch, family_matrices, chunk):
        monkeypatch.setattr(_gauss, "CHUNK", chunk)
        for M in family_matrices:
            A = M.copy()
            assert rank(A, P, overwrite=True) == rank(M.copy(), P) == min(M.shape)
            # worked in place
            assert not np.array_equal(A, M)

    def test_holds_no_second_matrix(self):
        # its rows are sorted along one cycle through all of them
        A = _single_cycle(6 * CHUNK, 6 * CHUNK, seed=12)
        want = rank(A.copy(), P)
        rank(A[:9].copy(), P)  # numpy's first-use allocations
        tracemalloc.start()
        try:
            assert rank(A, P, overwrite=True) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the kernel's own temporaries: a trailing update's CHUNK rows of
        # float64 and int64, and the sort key's booleans
        assert peak < 0.75 * A.nbytes

    def test_certificate_peak_within_two_matrices(self, monkeypatch):
        # L(37; 12, 10^12), the ledger's largest rank: the built matrix is
        # the one matrix-sized array held while it is built and eliminated
        sizes = []

        def recording(*args, **kw):
            A = build_matrix(*args, **kw)
            sizes.append(A.nbytes)
            return A

        monkeypatch.setattr(fplinalg, "build_matrix", recording)
        classify(parse_system("L(4;2^5)"), EngineConfig(stages=("rank",)))  # numpy's first use
        sizes.clear()
        tracemalloc.start()
        try:
            v = classify(parse_system("L(37;12,10^12)"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (v.kind, v.dim) == (NON_SPECIAL, 2)
        assert max(sizes) == 550 * 553 * 8
        assert peak <= 2 * max(sizes)


def _random_down_closed(rng, nlayers):
    """A random down-closed diagram: a layer may be anything after a full
    one, and no longer than the one before otherwise."""
    c = [1]
    for j in range(2, nlayers + 1):
        if c[-1] == j - 1 and rng.random() < 0.6:
            c.append(j)
        else:
            c.append(int(rng.integers(0, (j if c[-1] == j - 1 else c[-1]) + 1)))
    return Diagram(tuple(c))


def _whole_rank(D, mults, points):
    return rank(build_matrix(D, mults, points, P), P)


@pytest.fixture
def builds(monkeypatch):
    """Record (diagram, mults, points, shape) of every build_matrix call."""
    seen = []

    def recording(D, mults, points, p, fold=0):
        A = build_matrix(D, mults, points, p, fold=fold)
        seen.append((D, list(mults), list(points), A.shape))
        return A

    monkeypatch.setattr(fplinalg, "build_matrix", recording)
    return seen


@pytest.fixture
def ranked(monkeypatch):
    """Record the shape of every matrix passed to rank, before the call,
    and forward rank's keywords."""
    seen = []

    def recording(A, p, **kw):
        seen.append(A.shape)
        return rank(A, p, **kw)

    monkeypatch.setattr(fplinalg, "rank", recording)
    return seen


def _all_diagrams(nlayers):
    """Every layer tuple of at most nlayers layers."""
    layers = [()]
    for j in range(1, nlayers + 1):
        layers += [c + (k,) for c in layers if len(c) == j - 1 for k in range(j + 1)]
    return layers


class TestDownClosed:
    @pytest.mark.parametrize("layers, closed", [
        ((), False),
        ((1,), True),
        ((0, 1), False),
        ((1, 0, 1), False),
        ((1, 1, 1), True),
        ((1, 1, 2), False),
        ((1, 2, 2, 2), True),
        ((1, 2, 1, 3), False),
        ((1, 2, 2, 3), False),
        ((1, 2, 3, 4, 2), True),
        ((1, 2, 3, 4, 5), True),
        ((1, 2, 3, 4, 5, 0, 1), False),
    ])
    def test_table(self, layers, closed):
        assert Diagram(layers).down_closed is closed

    def test_is_closure_under_division(self):
        # every diagram of at most five layers, against the definition
        def closed(D):
            cells = set(monomials(D))
            return bool(cells) and all(
                (a - 1, b) in cells for a, b in cells if a) and all(
                (a, b - 1) in cells for a, b in cells if b)

        layers = _all_diagrams(5)
        assert len(layers) == 1 + 2 + 6 + 24 + 120 + 720
        for c in layers:
            assert Diagram(c).down_closed is closed(Diagram(c)), c


class TestInterpolationRank:
    """The heaviest point moved to the origin and the next heaviest to
    (1, 0): same rank as the whole matrix at the same points, from a
    smaller matrix."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_whole_matrix(self, seed):
        rng = np.random.default_rng(seed)
        D = _random_down_closed(rng, int(rng.integers(1, 10)))
        assert D.down_closed
        mults = [int(m) for m in rng.integers(1, 6, size=int(rng.integers(1, 7)))]
        random_points = sample_points(len(mults), P, random.Random(seed))
        # points on the line y = 2x + 5 impose dependent conditions, so the
        # rank is often deficient; the line misses the origin, so the
        # moved configuration differs from the unmoved one
        line = [(k, 2 * k + 5) for k in range(1, len(mults) + 1)]
        parabola = [(k, k * k + 3) for k in range(1, len(mults) + 1)]
        for points in (random_points, line, parabola):
            assert interpolation_rank(D, mults, points, P) == _whole_rank(D, mults, points)

    @pytest.mark.parametrize("D, mults, shape", [
        (triangle(5), [2, 3, 3, 1], (4, 4)),  # a tie: the first 3 goes
        (triangle(3), [5, 1], (0, 0)),  # m >= nlayers
        (Diagram((1, 2, 2, 2)), [3, 1], (0, 1)),  # no triangle(3) inside D
        (triangle(4), [2], (0, 7)),  # a single point: no row left
        (triangle(3), [4, 2], (0, 0)),  # the diagram emptied: no column left
        (triangle(5), [2] * 5, (9, 9)),  # L(4; 2^5): deficient
    ])
    def test_edge_cases(self, builds, ranked, D, mults, shape):
        points = [(3 + 5 * k, 11 + 7 * k) for k in range(len(mults))]
        got = interpolation_rank(D, mults, points, P)
        ((_, ms, _, built),) = builds
        assert [built] == ranked == [shape]
        # distinct x coordinates: two points move, or the only one
        assert len(ms) == max(len(mults) - 2, 0)
        assert got == _whole_rank(D, mults, points)

    def test_ties_move_the_first_heaviest_point(self, builds):
        # not a full triangle, so the double point is not sent to [0:1:0]
        D, points = Diagram((1, 2, 3, 4, 4)), [(3, 4), (10, 20), (30, 50)]
        got = interpolation_rank(D, [2, 3, 3], points, P)
        ((_, ms, moved, _),) = builds
        assert ms == [2]
        # (3, 4) - (10, 20) = (-7, -16), then (x, y) -> (x/dx, y - (dy/dx)·x)
        # for (dx, dy) = (30, 50) - (10, 20) = (20, 30)
        u = pow(20, -1, P)
        assert moved == [(-7 * u % P, (-16 + 30 * u * 7) % P)]
        assert got == _whole_rank(D, [2, 3, 3], points)

    # built: the rows, and the cells of the diagram that build_matrix
    # gets; folded: the shape it builds, which rank gets
    @pytest.mark.parametrize("D, mults, built, folded", [
        # m1 = 2 < m0 = 4: slices b = 0, 1 of degrees 4..7 keep 2 and 3
        # cells; on the full triangle a simple point goes to [0:1:0] and
        # takes x^0 y^7 with it
        (triangle(8), [4, 2, 1, 1], (1, 25), (1, 22)),
        # a tie m0 = m1 = 3 on (4, 4, 3) from degree 3: slice 0 (3 cells,
        # k = 3) is all pivots, slices 1 and 2 keep 1 and 2, slice 3 is kept
        (Diagram((1, 2, 3, 4, 4, 3)), [3, 1, 3], (1, 11), (1, 5)),
        # k >= n in every slice b < m1: only x^0 y^3 is left
        (Diagram((1, 2, 3, 4, 2)), [3, 3, 2, 1], (4, 6), (4, 1)),
        # two slices of 30 degrees from 23: k = 23 and 22 differences
        (Diagram((1,) + (2,) * 52), [23, 23, 2], (3, 60), (3, 15)),
    ])
    def test_slices_short_and_long(self, builds, ranked, D, mults, built, folded):
        points = sample_points(len(mults), P, random.Random(len(mults)))
        got = interpolation_rank(D, mults, points, P)
        ((rest, _, _, shape),) = builds
        assert [shape] == ranked == [folded]
        assert (shape[0], rest.cells) == built
        assert got == _whole_rank(D, mults, points)

    def test_points_collinear_with_the_first_two_land_on_y_0(self, builds):
        # quintics with a triple, two double and a simple point on the
        # line y = 3x + 1: the line is a component, so the rank is deficient
        D, mults = triangle(6), [3, 2, 2, 1]
        points = [(x, 3 * x + 1) for x in (2, 5, 7, 11)]
        got = interpolation_rank(D, mults, points, P)
        ((_, _, moved, _),) = builds
        assert all(y == 0 for _, y in moved)
        assert got == _whole_rank(D, mults, points) < 13

    def test_a_point_on_the_first_ones_vertical_line(self, builds):
        # (5, 11) shares p0's x coordinate: it moves to x = 0 (D is not a
        # full triangle, so it is not sent on to [0:1:0])
        D, points = Diagram((1, 2, 3, 4, 5, 6, 6)), [(5, 7), (9, 2), (5, 11), (8, 3)]
        got = interpolation_rank(D, [3, 2, 2, 1], points, P)
        ((_, ms, moved, _),) = builds
        assert ms == [2, 1] and moved[0][0] == 0
        assert got == _whole_rank(D, [3, 2, 2, 1], points)

    def test_second_point_on_the_first_ones_vertical_line(self, builds, ranked):
        # dx = 0: only the move to the origin
        points = [(5, 7), (5, 11), (9, 2)]
        got = interpolation_rank(triangle(6), [3, 2, 1], points, P)
        ((_, ms, moved, built),) = builds
        assert ms == [2, 1] and moved == [(0, 4), (4, (2 - 7) % P)]
        assert built == ranked[0] == (4, 15)
        assert got == _whole_rank(triangle(6), [3, 2, 1], points)

    def test_every_small_diagram_with_three_points(self):
        # every diagram of at most five layers; on a down-closed one each
        # slice x^a y^b is an interval of degrees, also above any degree m0
        points = [(2, 9), (7, 4), (12, 30)]
        for layers in _all_diagrams(5):
            D = Diagram(layers)
            if D.down_closed:
                cells = monomials(D)
                for m0 in range(6):
                    for b in range(5):
                        deg = sorted(a + b for a, bb in cells if bb == b and a + b >= m0)
                        lo = max(m0, b)
                        assert deg == list(range(lo, lo + len(deg))), (layers, m0, b)
            for mults in ([2, 2, 1], [3, 1, 2], [1, 1, 1]):
                assert interpolation_rank(D, mults, points, P) == _whole_rank(D, mults, points)

    def test_no_point_at_one_leaves_the_matrix(self):
        # fold = 0 on a diagram without its first layers: the plain
        # matrix, in layer order rather than slice by slice
        rest = Diagram((0, 0, 3, 3, 2))
        points = [(3, 4), (10, 20)]
        A = build_matrix(rest, [2, 1], points, P)
        assert A.tolist() == _build_matrix_reference(rest, [2, 1], points, P)

    def test_not_down_closed_takes_the_whole_matrix(self, builds):
        D = Diagram((1, 2, 1, 3))
        assert not D.down_closed
        points = [(3, 4), (10, 20)]
        assert interpolation_rank(D, [2, 1], points, P) == _whole_rank(D, [2, 1], points)
        assert builds[0][:3] == (D, [2, 1], points)

    def test_rejects_what_build_matrix_rejects(self):
        with pytest.raises(DegeneratePointsError):
            interpolation_rank(triangle(3), [1, 2], [(5, 7), (5, 7)])
        with pytest.raises(ValueError, match="multiplicities >= 1"):
            interpolation_rank(triangle(3), [2, 0], [(5, 7), (6, 8)])
        with pytest.raises(ValueError, match="one point per"):
            interpolation_rank(triangle(3), [2, 1], [(5, 7)])

    def test_family_attempts_match_the_whole_matrix(self, monkeypatch):
        # every certification attempt of (5,10,1), on its own sampled points
        calls = []

        def checked(D, mults, points, p):
            got = interpolation_rank(D, mults, points, p)
            assert D.down_closed
            assert got == rank(build_matrix(D, mults, points, p), p)
            calls.append(got)
            return got

        monkeypatch.setattr(fplinalg, "interpolation_rank", checked)
        run_initial_cases(FamilySpec(5, 10, 1))
        assert len(calls) == 624


def _third_point_moves(n, mults, points):
    """Whether ``interpolation_rank`` sends a third point of triangle(n)
    to [0:1:0], read off the points as given: m0 + m2 <= n, p1 off p0's
    vertical line, p2 off the line p0p1, and no other point on the
    parallel to p0p1 through p2."""
    def cross(u, v, w):  # (v - u) x (w - u) mod P
        return ((v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])) % P

    order = sorted(range(len(mults)), key=lambda i: -mults[i])  # ties keep order
    if len(order) < 3 or mults[order[0]] + mults[order[2]] > n:
        return False
    p0, p1, p2 = (points[i] for i in order[:3])
    q1 = (p2[0] + p1[0] - p0[0], p2[1] + p1[1] - p0[1])  # p2 + (p1 - p0)
    return bool((p1[0] - p0[0]) % P and cross(p0, p1, p2)) and all(
        cross(p2, q1, points[i]) for i in order[3:])


class TestThirdPointRank:
    """On a full triangle of n layers the third heaviest point goes to
    [0:1:0], where it asks that the C(m2 + 1, 2) coefficients of the
    monomials with y-exponent >= n - m2 vanish: the same rank as the whole
    matrix, whether the guards hold or one of them trips."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_whole_matrix(self, builds, seed):
        rng = np.random.default_rng(1000 + seed)
        point_rng = random.Random(1000 + seed)
        moved = 0
        for _ in range(10):
            n = int(rng.integers(3, 12))
            r = int(rng.integers(3, 8))
            mults = [int(m) for m in rng.integers(1, n // 2 + 2, size=r)]
            # small coordinates put points on common lines, so guards trip
            # and ranks are often deficient
            small = list(dict.fromkeys(map(tuple, rng.integers(1, 5, size=(r, 2)).tolist())))
            for points in (sample_points(r, P, point_rng), small):
                ms = mults[:len(points)]
                builds.clear()
                got = interpolation_rank(triangle(n), ms, points, P)
                assert got == _whole_rank(triangle(n), ms, points), (n, ms, points)
                ((_, left, _, _),) = builds
                moves = _third_point_moves(n, ms, points)
                assert (len(ms) - len(left) == 3) is moves, (n, ms, points)
                moved += moves
        assert moved

    def test_cells_at_infinity_become_pivots(self, builds, ranked):
        # L(6; 3, 2^2, 1): p0 takes the 6 cells of degree < 3 and p2 the 3
        # cells with y-exponent >= 5, which caps the layers of rest at 5;
        # p1's fold keeps 2 and 3 of the 4 cells of slices b = 0 and 1
        points = [(2, 3), (7, 5), (4, 9), (11, 13)]
        got = interpolation_rank(triangle(7), [3, 2, 2, 1], points, P)
        ((rest, ms, _, shape),) = builds
        assert ms == [1] and rest == Diagram((0, 0, 0, 4, 5, 5, 5))
        assert [shape] == ranked == [(1, 16)]
        assert got == _whole_rank(triangle(7), [3, 2, 2, 1], points) == 13

    # dropped: how many points leave before build_matrix (3 when p2 goes
    # to [0:1:0]); p0 = (2, 3), p1 = (7, 5), so p1 - p0 = (5, 2)
    @pytest.mark.parametrize("n, mults, points, dropped", [
        (7, [3, 2, 2, 1], [(2, 3), (7, 5), (4, 9), (11, 13)], 3),
        (6, [4, 2, 2], [(2, 3), (7, 5), (4, 9)], 3),  # m0 + m2 = n
        (6, [5, 2, 2], [(2, 3), (7, 5), (4, 9)], 2),  # m0 + m2 = n + 1
        # m1 + m2 = n + 1; as m1 <= m0, only a tie m1 = m0 gets there, and
        # then m0 + m2 = n + 1 as well
        (6, [4, 4, 3], [(2, 3), (7, 5), (4, 9)], 2),
        # p2 = p0 + 2 (p1 - p0): on the line through p0 and p1, so y2 = 0
        (7, [3, 2, 2, 1], [(2, 3), (7, 5), (12, 7), (11, 13)], 2),
        # (9, 11) = p2 + (p1 - p0): another point on y = y2
        (7, [3, 2, 2, 1], [(2, 3), (7, 5), (4, 9), (9, 11)], 2),
        # p1 on p0's vertical line: no point at (1, 0), so none at infinity
        (7, [3, 2, 2, 1], [(2, 3), (2, 8), (4, 9), (11, 13)], 1),
    ])
    def test_guards(self, builds, n, mults, points, dropped):
        got = interpolation_rank(triangle(n), mults, points, P)
        ((_, ms, _, _),) = builds
        assert len(mults) - len(ms) == dropped
        assert _third_point_moves(n, mults, points) is (dropped == 3)
        assert got == _whole_rank(triangle(n), mults, points)

    def test_not_on_a_triangle_with_a_short_last_layer(self, builds):
        # (1, ..., 6, 6) is down-closed, but the move would not keep its span
        D, points = Diagram((1, 2, 3, 4, 5, 6, 6)), [(2, 3), (7, 5), (4, 9), (11, 13)]
        got = interpolation_rank(D, [3, 2, 2, 1], points, P)
        ((_, ms, _, _),) = builds
        assert ms == [2, 1]
        assert got == _whole_rank(D, [3, 2, 2, 1], points)


class TestCertificate:
    def test_nonspecial_square_case(self):
        # four double points and three simple ones on quartics: 15x15
        v = certify_nonspecial_rank(triangle(5), [2] * 4 + [1] * 3)
        assert v.kind == NON_SPECIAL and v.dim == 0
        step = v.certificate[-1]
        assert step.params["rows"] == step.params["cols"] == 15
        assert step.params["rank"] == 15

    def test_deterministic(self):
        a = certify_nonspecial_rank(triangle(6), [2] * 6)
        b = certify_nonspecial_rank(triangle(6), [2] * 6)
        assert a.certificate == b.certificate

    def test_special_system_is_inconclusive(self):
        # L(4; 2^5) is -1-special: the rank is always deficient
        v = certify_nonspecial_rank(triangle(5), [2] * 5)
        assert v.kind == INCONCLUSIVE

    def test_no_mults(self):
        v = certify_nonspecial_rank(triangle(3), [])
        assert v.kind == NON_SPECIAL and v.dim == 6
