import numpy as np
import pytest

from ttembed.linalg import numerical_rank, svd


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(res.singular_values, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        rng = np.random.default_rng(8)
        m = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        s = svd(m).singular_values
        assert s[0] > 1e-8
        assert np.all(s[1:] < 1e-12 * s[0])

    @pytest.mark.parametrize(
        "shape",
        [
            (8, 5),
            (5, 8),
            (16, 16),
            (64, 64),
            (1, 1),
            # rank-deficient: null columns of u (or rows of vt) must still
            # come out orthonormal
            pytest.param((9, 4, "outer"), id="outer-9x4"),
            pytest.param((4, 9, "outer"), id="outer-4x9"),
            pytest.param((6, 6, "repeated-column"), id="repeated-column-6x6"),
        ],
    )
    def test_reconstruction_and_orthonormality(self, shape):
        rows, cols, *kind = shape
        rng = np.random.default_rng(rows + cols)
        m = rng.standard_normal((rows, cols))
        if kind == ["outer"]:
            m = np.outer(m[:, 0], m[0, :])
        elif kind == ["repeated-column"]:
            m[:, 3] = m[:, 1]
        res = svd(m)
        rec = res.u @ np.diag(res.singular_values) @ res.vt
        assert np.linalg.norm(rec - m) <= 1e-10 * np.linalg.norm(m)
        k = res.singular_values.size
        assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) < 1e-10
        assert np.linalg.norm(res.vt @ res.vt.T - np.eye(k)) < 1e-10
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((7, 5))
        res = svd(m)
        piv = np.argmax(np.abs(res.u), axis=0)
        assert np.all(res.u[piv, np.arange(5)] > 0)

    def test_zero_matrix(self):
        res = svd(np.zeros((4, 3)))
        assert np.all(res.singular_values == 0)
        assert np.linalg.norm(res.u.T @ res.u - np.eye(3)) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (3, 0)], ids=["0x3", "0x0", "3x0"])
    def test_empty_matrix_gives_empty_thin_factors(self, shape):
        rows, cols = shape
        res = svd(np.zeros(shape))
        assert res.u.shape == (rows, 0)
        assert res.singular_values.shape == (0,)
        assert res.vt.shape == (0, cols)


class TestNumericalRank:
    def test_zero(self):
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_rank_one_plus_noise(self):
        rng = np.random.default_rng(10)
        m = np.outer(rng.standard_normal(16), rng.standard_normal(16))
        m += 1e-15 * rng.standard_normal((16, 16))
        assert numerical_rank(m) == 1

    def test_gram_preserves_rank(self):
        for seed in range(5):
            m = np.random.default_rng(seed).standard_normal((10, 10))
            if seed % 2:
                m[:, -1] = m[:, 0]  # make it exactly deficient
            assert numerical_rank(m @ m.T) == numerical_rank(m)
