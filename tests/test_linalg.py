import numpy as np
import pytest

from ttembed import linalg
from ttembed.linalg import ShapeError, numerical_rank, r_factor, svd


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


# row counts of r_factor's input around its block of rows
R_FACTOR_ROWS = {
    "1": lambda block: 1,
    "block-1": lambda block: block - 1,
    "block": lambda block: block,
    "block+1": lambda block: block + 1,
    "3*block+17": lambda block: 3 * block + 17,
}


class TestRFactor:
    # (cols, QR_BLOCK_ENTRIES): the module's budget, and one so small that
    # the stacked R factors of 3 * block + 17 rows take a second round
    @pytest.mark.parametrize("cols, budget", [(5, None), (64, None), (4, 64)])
    @pytest.mark.parametrize("rows", sorted(R_FACTOR_ROWS))
    @pytest.mark.parametrize("kind", ["gaussian", "zero", "rank-2"])
    def test_matches_the_gram_and_singular_values(self, monkeypatch, cols, budget, rows, kind):
        if budget is not None:
            monkeypatch.setattr(linalg, "QR_BLOCK_ENTRIES", budget)
        block = max(linalg.QR_BLOCK_ENTRIES // cols, 2 * cols)
        rows = R_FACTOR_ROWS[rows](block)
        rng = np.random.default_rng(rows + cols)
        a = rng.standard_normal((rows, cols))
        if kind == "zero":
            a[...] = 0.0
        elif kind == "rank-2":
            a = rng.standard_normal((rows, 2)) @ rng.standard_normal((2, cols))
        qrs = []
        lapack = np.linalg.qr

        def spy(m, *args, **kwargs):
            qrs.append(m.shape[0])
            return lapack(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        r = r_factor(a)
        assert r.shape == (min(rows, cols), cols)
        assert max(qrs) <= block
        assert len(qrs) == 1 if rows <= block else len(qrs) > 2
        norm_sq = np.linalg.norm(a) ** 2
        assert np.all(np.abs(r.T @ r - a.T @ a) <= 1e-12 * norm_sq)
        s, s_ref = np.linalg.svd(r, compute_uv=False), np.linalg.svd(a, compute_uv=False)
        assert np.all(np.abs(s - s_ref) <= 1e-13 * s_ref[0])

    def test_rejects_a_vector(self):
        with pytest.raises(ShapeError, match="r_factor expects a matrix"):
            r_factor(np.ones(3))


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

    @pytest.mark.parametrize(
        "tol", [0.0, -1e-9, float("nan"), float("inf")], ids=["zero", "negative", "nan", "inf"]
    )
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="^tol_factor must be positive"):
            numerical_rank(np.eye(3), tol)

    def test_bad_input_rejected(self):
        with pytest.raises(ShapeError, match="numerical_rank expects a matrix"):
            numerical_rank(np.ones(3))
        with pytest.raises(ValueError, match="numerical_rank input contains non-finite"):
            numerical_rank([[1.0, np.inf], [0.0, 1.0]])

    def test_reads_singular_values_only(self, monkeypatch):
        calls = []
        lapack = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return lapack(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert numerical_rank(np.diag([2.0, 1.0, 0.0])) == 2
        assert calls == [False]
