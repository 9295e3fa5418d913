"""Evaluation metrics over feature sets.

Three metrics cover the three evaluation axes: a Frechet distance
between Gaussian fits of identity-feature sets (realism / identity
preservation), a mean Euclidean distance between time-aligned audio and
visual sync embeddings (lip sync), and a mean cosine similarity between
aligned expression-feature embeddings (emotional fidelity). Feature
extraction itself happens out of process; these functions consume
precomputed vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .numerics import as_matrix, as_vector, cosine_with_flag, psd_sqrt_trace


@dataclass
class FeatureSet:
    """A stack of same-dimension feature vectors with a provenance tag and,
    optionally, one sample id per row: the key the pairwise metrics pair on,
    so a set without ids gets no pairwise metric."""

    vectors: np.ndarray
    source_tag: str = ""
    ids: list[str] | None = None

    def __post_init__(self):
        self.vectors = as_matrix(self.vectors, name=f"features[{self.source_tag}]")
        if self.ids is not None:
            self.ids = list(self.ids)
            if len(self.ids) != self.n or len(set(self.ids)) != self.n:
                raise ContractError(f"features[{self.source_tag}] needs {self.n} "
                                    f"distinct ids, got {len(set(self.ids))}")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class GaussianFit:
    """Sample mean and unbiased covariance of a feature set."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = as_vector(self.mean, name="mean")
        self.cov = as_matrix(self.cov, shape=(self.mean.shape[0],) * 2, name="cov")
        if np.max(np.abs(self.cov - self.cov.T)) > 1e-8:
            raise ContractError("covariance is not symmetric within 1e-8")


def fit_gaussian(fs: FeatureSet) -> GaussianFit:
    """Sample mean and n-1 covariance, symmetrized against rounding."""
    if fs.n < 2:
        raise ContractError(f"need at least 2 vectors to fit, got {fs.n}")
    mean = fs.vectors.mean(axis=0)
    centered = fs.vectors - mean
    cov = centered.T @ centered / (fs.n - 1)
    return GaussianFit(mean, (cov + cov.T) / 2.0)


def frechet_distance(fit_real: GaussianFit, fit_gen: GaussianFit) -> float:
    """||mu_r - mu_g||^2 + Tr(S_r + S_g - 2 (S_r S_g)^{1/2}) between two fits."""
    if fit_real.mean.shape != fit_gen.mean.shape:
        raise ContractError("fits have different dimensions")
    delta = fit_real.mean - fit_gen.mean
    return (float(delta @ delta) + float(np.trace(fit_real.cov))
            + float(np.trace(fit_gen.cov))
            - 2.0 * psd_sqrt_trace(fit_real.cov, fit_gen.cov))


def fad(real: FeatureSet, gen: FeatureSet) -> float:
    """Frechet distance between the Gaussian fits of two feature sets."""
    if real.dim != gen.dim:
        raise ContractError(f"dims differ: {real.dim} vs {gen.dim}")
    return frechet_distance(fit_gaussian(real), fit_gaussian(gen))


def lse_d(audio_embs: list[np.ndarray], visual_embs: list[np.ndarray]) -> float:
    """Mean Euclidean distance between time-aligned audio/visual embeddings."""
    if len(audio_embs) != len(visual_embs):
        raise ContractError(f"length mismatch: {len(audio_embs)} vs {len(visual_embs)}")
    if not audio_embs:
        raise ContractError("need at least one aligned pair")
    total = 0.0
    for t, (a, v) in enumerate(zip(audio_embs, visual_embs)):
        a = as_vector(a, name=f"audio[{t}]")
        v = as_vector(v, dim=a.shape[0], name=f"visual[{t}]")
        total += float(np.linalg.norm(a - v))
    return total / len(audio_embs)


def csim(gen_embs: list[np.ndarray], real_embs: list[np.ndarray]) -> float:
    """Mean cosine similarity over aligned (generated, real) embedding pairs."""
    if len(gen_embs) != len(real_embs):
        raise ContractError(f"length mismatch: {len(gen_embs)} vs {len(real_embs)}")
    if not gen_embs:
        raise ContractError("need at least one aligned pair")
    return float(np.mean([cosine_with_flag(g, r)[0]
                          for g, r in zip(gen_embs, real_embs)]))


def _paired_gen_rows(real: FeatureSet, gen: FeatureSet) -> np.ndarray | None:
    """The generated rows aligned to the real rows by sample id, or None when
    either set carries no ids; a differing id set is an error."""
    if real.ids is None or gen.ids is None:
        return None
    unmatched = set(real.ids) ^ set(gen.ids)
    if unmatched:
        raise ContractError(f"{len(unmatched)} sample ids are unmatched between the "
                            f"{real.source_tag or 'real'} and {gen.source_tag or 'gen'} "
                            f"sets ({real.n} and {gen.n} ids)")
    row_of = {sample_id: i for i, sample_id in enumerate(gen.ids)}
    return gen.vectors[[row_of[sample_id] for sample_id in real.ids]]


def metric_report(real: FeatureSet, gen: FeatureSet) -> dict:
    """All three metrics between two feature sets. The pairwise metrics
    pair rows by sample id, and are None when either set carries no ids."""
    paired_gen = _paired_gen_rows(real, gen)
    report = {"fad": fad(real, gen), "n_real": real.n, "n_gen": gen.n}
    if paired_gen is not None:
        pairs_real = list(real.vectors)
        pairs_gen = list(paired_gen)
        report["lse_d"] = lse_d(pairs_real, pairs_gen)
        report["csim"] = csim(pairs_gen, pairs_real)
    else:
        report["lse_d"] = None
        report["csim"] = None
    return report
