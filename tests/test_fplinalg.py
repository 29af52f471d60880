from __future__ import annotations

import numpy as np
import pytest

from fatpoints._gauss import _rank_mod_p_numpy, _rank_mod_p_scalar
from fatpoints.diagrams import triangle
from fatpoints.fplinalg import (
    DegeneratePointsError,
    PrimeFieldConfig,
    build_matrix,
    certify_nonspecial_rank,
    rank,
    sample_points,
    task_rng,
)
from fatpoints.systems import INCONCLUSIVE, NON_SPECIAL


class TestConfig:
    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            PrimeFieldConfig(p=101)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeFieldConfig(p=2**20 + 1)  # 1048577 = 17 * 61681

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            PrimeFieldConfig(attempts=0)

    def test_task_rng_depends_on_key_and_seed(self):
        cfg = PrimeFieldConfig()
        a = task_rng(cfg, "k1").integers(0, 2**30)
        b = task_rng(cfg, "k2").integers(0, 2**30)
        c = task_rng(cfg, "k1").integers(0, 2**30)
        assert a == c and a != b
        other = task_rng(PrimeFieldConfig(seed=1), "k1").integers(0, 2**30)
        assert other != a


class TestSampling:
    def test_distinct_coordinates(self):
        cfg = PrimeFieldConfig()
        pts = sample_points(50, cfg.p, task_rng(cfg, "sampling"))
        assert len({x for x, _ in pts}) == 50
        assert len({y for _, y in pts}) == 50


class TestBuildMatrix:
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
        mon = triangle(3).monomials()
        col = mon.index((2, 0))
        assert 2 in A[:, col]

    def test_rejects_repeated_points(self):
        with pytest.raises(DegeneratePointsError):
            build_matrix(triangle(2), [1, 1], [(5, 7), (5, 7)])

    def test_rejects_mult_zero(self):
        with pytest.raises(ValueError):
            build_matrix(triangle(2), [0], [(5, 7)])


class TestRank:
    def test_known_ranks(self):
        p = PrimeFieldConfig().p
        assert rank(np.eye(4, dtype=np.int64), p) == 4
        assert rank(np.zeros((3, 5), dtype=np.int64), p) == 0
        A = np.array([[1, 2], [2, 4]], dtype=np.int64)
        assert rank(A, p) == 1

    def test_rank_mod_p_not_over_q(self):
        p = PrimeFieldConfig().p
        A = np.array([[1, 0], [0, p]], dtype=np.int64)
        assert rank(A, p) == 1


    def test_scalar_kernel_matches_numpy_kernel(self):
        # The scalar kernel is what numba compiles; run it as plain Python
        # so its logic is checked where numba is absent.
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
            want = _rank_mod_p_numpy(A.copy(), p)
            assert _rank_mod_p_scalar(A.copy(), p) == want, A
            deficient += want < min(m, n)
        assert deficient >= 20


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
