"""PCA against the definitional eigendecomposition oracle."""
import numpy as np
import pytest

from spikecast.errors import RankError
from spikecast.pca import fit_pca, transform, transform_rows


def oracle_basis(rows: np.ndarray, d_prime: int):
    """Definitional PCA: eigh of the population covariance, top d' vectors."""
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / rows.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return mean, evecs[:, order[:d_prime]], evals[order[:d_prime]]


class TestFitPca:
    @pytest.mark.parametrize("seed", range(10))
    def test_projector_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 40, 8
        scales = rng.uniform(0.5, 2.0, size=d)
        rows = rng.normal(size=(n, d)) * scales
        d_prime = int(rng.integers(1, 6))
        basis = fit_pca(rows, d_prime)
        mean, w_ref, _ = oracle_basis(rows, d_prime)
        assert np.allclose(basis.mean, mean, atol=1e-12)
        p_got = basis.components @ basis.components.T
        p_ref = w_ref @ w_ref.T
        assert np.abs(p_got - p_ref).max() < 1e-6

    def test_orthonormal_components(self):
        rng = np.random.default_rng(3)
        basis = fit_pca(rng.normal(size=(30, 6)), 4)
        gram = basis.components.T @ basis.components
        assert np.abs(gram - np.eye(4)).max() < 1e-8

    def test_explained_variance_descending_nonnegative(self):
        rng = np.random.default_rng(4)
        basis = fit_pca(rng.normal(size=(50, 7)), 5)
        ev = basis.explained_variance
        assert np.all(ev[:-1] >= ev[1:])
        assert np.all(ev >= 0)

    def test_full_rank_preserves_total_variance(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(60, 5))
        basis = fit_pca(rows, 5)
        total = ((rows - rows.mean(axis=0)) ** 2).sum(axis=0).sum() / rows.shape[0]
        assert basis.explained_variance.sum() == pytest.approx(total, rel=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        basis = fit_pca(rng.normal(size=(25, 5)), 3)
        for j in range(3):
            col = basis.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(20, 4))
        b1 = fit_pca(rows, 2)
        b2 = fit_pca(rows.copy(), 2)
        assert np.array_equal(b1.components, b2.components)
        assert np.array_equal(b1.mean, b2.mean)

    def test_planted_direction_dominates(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(0, 0.05, size=(40, 6))
        rows[:, 2] = rng.choice([-2.0, 2.0], size=40)
        basis = fit_pca(rows, 1)
        assert abs(basis.components[2, 0]) > 0.99

    def test_rank_errors(self):
        rng = np.random.default_rng(9)
        with pytest.raises(RankError):
            fit_pca(rng.normal(size=(1, 4)), 1)  # one row
        with pytest.raises(RankError):
            fit_pca(rng.normal(size=(10, 4)), 5)  # d' > d
        with pytest.raises(RankError):
            fit_pca(rng.normal(size=(3, 8)), 3)  # d' > n-1
        with pytest.raises(RankError):
            fit_pca(np.ones((10, 4)), 2)  # zero variance

    def test_fitted_on_recorded(self):
        rng = np.random.default_rng(10)
        basis = fit_pca(rng.normal(size=(17, 4)), 2)
        assert basis.fitted_on == 17
        assert basis.d == 4 and basis.d_prime == 2


class TestTransform:
    def test_mean_maps_to_origin(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(30, 5)) + 3.0
        basis = fit_pca(rows, 3)
        assert np.abs(transform(basis, basis.mean)).max() < 1e-12

    def test_matches_definition(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(30, 5))
        basis = fit_pca(rows, 2)
        v = rng.normal(size=5)
        want = basis.components.T @ (v - basis.mean)
        assert np.allclose(transform(basis, v), want, atol=1e-12)

    def test_rows_consistent_with_single(self):
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(30, 5))
        basis = fit_pca(rows, 2)
        batch = rng.normal(size=(7, 5))
        got = transform_rows(basis, batch)
        assert got.shape == (7, 2)
        for i in range(7):
            assert np.allclose(got[i], transform(basis, batch[i]), atol=1e-12)

    def test_reduced_coordinates_decorrelated(self):
        rng = np.random.default_rng(14)
        cov_root = rng.normal(size=(6, 6))
        rows = rng.normal(size=(400, 6)) @ cov_root
        basis = fit_pca(rows, 3)
        z = transform_rows(basis, rows)
        c = z.T @ z / len(z)
        off = c - np.diag(np.diag(c))
        assert np.abs(off).max() < 1e-8
