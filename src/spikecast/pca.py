"""PCA projection for news embeddings via covariance eigendecomposition.

The symmetric covariance matrix is decomposed by LAPACK through
numpy.linalg.eigh, so a fit costs one O(d^3) library call at any embedding
width.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, RankError


@dataclass(frozen=True)
class PcaBasis:
    """Fitted projection: mean vector plus top-d' principal directions."""

    mean: np.ndarray                 # (d,)
    components: np.ndarray           # (d, d'), orthonormal columns
    explained_variance: np.ndarray   # (d',), population variance along each column
    fitted_on: int                   # number of training rows

    @property
    def d(self) -> int:
        return self.components.shape[0]

    @property
    def d_prime(self) -> int:
        return self.components.shape[1]


def fit_pca(rows: np.ndarray, d_prime: int) -> PcaBasis:
    """Fit the top-d' principal directions of mean-centered training rows.

    Sign convention: the largest-magnitude entry of each component is made
    positive, so the basis is unique and reproducible.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ContractError(f"expected 2-D row matrix, got shape {rows.shape}")
    n, d = rows.shape
    if n < 2:
        raise RankError(f"need >= 2 rows to fit PCA, got {n}")
    if not np.isfinite(rows).all():
        raise ContractError("embedding rows must be finite")
    if d_prime < 1 or d_prime > min(d, n - 1):
        raise RankError(
            f"d_prime={d_prime} out of range for {n} rows of dim {d} "
            f"(max {min(d, n - 1)})"
        )

    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / n  # population covariance
    total_var = float(np.trace(cov))
    if total_var <= 0.0:
        raise RankError("zero covariance: all rows identical")

    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    components = eigvecs[:, ::-1][:, :d_prime].copy()
    variance = np.maximum(eigvals[::-1][:d_prime], 0.0)
    peaks = components[np.argmax(np.abs(components), axis=0), np.arange(d_prime)]
    components[:, peaks < 0] *= -1.0
    return PcaBasis(mean=mean, components=components,
                    explained_variance=variance, fitted_on=n)


def cap_message(basis: PcaBasis, d_prime: int) -> str:
    """The warning of a basis fitted at a lower rank than the d' requested."""
    return (f"reduced dimension capped at {basis.d_prime} (requested {d_prime}) "
            f"by {basis.fitted_on} train rows of width {basis.d}")


def transform(basis: PcaBasis, vector: np.ndarray) -> np.ndarray:
    """Project one embedding onto the basis: W^T (e - mean)."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (basis.d,):
        raise ContractError(
            f"vector dim {vector.shape} does not match basis dim ({basis.d},)"
        )
    return basis.components.T @ (vector - basis.mean)


def transform_rows(basis: PcaBasis, rows: np.ndarray) -> np.ndarray:
    """Project embeddings (..., d) onto the basis: (..., d')."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim < 2 or rows.shape[-1] != basis.d:
        raise ContractError(
            f"rows shape {rows.shape} does not match basis dim {basis.d}"
        )
    return (rows - basis.mean) @ basis.components
