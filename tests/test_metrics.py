import numpy as np
import pytest

from emosup.errors import ContractError
from emosup.metrics import (FeatureSet, GaussianFit, csim, fad, fit_gaussian,
                            frechet_distance, lse_d, metric_report)


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# Gaussian fitting
# ---------------------------------------------------------------------------

def test_fit_identical_vectors_zero_covariance():
    fit = fit_gaussian(FeatureSet(np.array([[1.0, 2.0], [1.0, 2.0]])))
    assert np.array_equal(fit.cov, np.zeros((2, 2)))


def test_fit_hand_computed_variance():
    # unbiased variance of {0, 2}: ((0-1)^2 + (2-1)^2) / (2-1) = 2
    fit = fit_gaussian(FeatureSet(np.array([[0.0], [2.0]])))
    assert np.array_equal(fit.mean, [1.0])
    assert np.array_equal(fit.cov, [[2.0]])


def test_fit_permutation_invariance(rng):
    x = rng.standard_normal((20, 4))
    fit_a = fit_gaussian(FeatureSet(x))
    fit_b = fit_gaussian(FeatureSet(x[::-1].copy()))
    assert np.allclose(fit_a.mean, fit_b.mean, atol=1e-14)
    assert np.allclose(fit_a.cov, fit_b.cov, atol=1e-13)


def test_fit_needs_two_vectors():
    with pytest.raises(ContractError):
        fit_gaussian(FeatureSet(np.array([[1.0, 2.0]])))


# ---------------------------------------------------------------------------
# Frechet distance
# ---------------------------------------------------------------------------

def test_fad_same_set_is_zero(rng):
    x = rng.standard_normal((50, 16))
    assert abs(fad(FeatureSet(x), FeatureSet(x.copy()))) < 1e-9


def test_fad_closed_form_one_dimensional():
    # N(0,1) vs N(3,4): 3^2 + (1 + 4 - 2 sqrt(4)) = 10
    a = GaussianFit(np.array([0.0]), np.array([[1.0]]))
    b = GaussianFit(np.array([3.0]), np.array([[4.0]]))
    assert frechet_distance(a, b) == pytest.approx(10.0, abs=1e-9)


def test_fad_closed_form_multivariate_shift():
    d = 8
    delta = np.zeros(d)
    delta[0] = 1.0
    a = GaussianFit(np.zeros(d), np.eye(d))
    b = GaussianFit(delta, np.eye(d))
    assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-6)


def test_fad_sampled_standard_normals_with_unit_shift(rng):
    # closed form says 1; the sampled estimate carries O(d^2/n) bias
    d, n = 8, 20000
    delta = np.zeros(d)
    delta[0] = 1.0
    real = FeatureSet(rng.standard_normal((n, d)))
    gen = FeatureSet(rng.standard_normal((n, d)) + delta)
    assert fad(real, gen) == pytest.approx(1.0, abs=0.1)


def test_fad_symmetry(rng):
    a = FeatureSet(rng.standard_normal((40, 6)))
    b = FeatureSet(rng.standard_normal((40, 6)) + 0.5)
    assert fad(a, b) == pytest.approx(fad(b, a), abs=1e-9)


def test_fad_rotation_invariance(rng):
    a = rng.standard_normal((60, 6))
    b = rng.standard_normal((60, 6)) * 1.3 + 0.2
    q = random_rotation(rng, 6)
    original = fad(FeatureSet(a), FeatureSet(b))
    rotated = fad(FeatureSet(a @ q.T), FeatureSet(b @ q.T))
    assert rotated == pytest.approx(original, abs=1e-6)


def test_fad_dim_mismatch(rng):
    with pytest.raises(ContractError):
        fad(FeatureSet(rng.standard_normal((5, 3))),
            FeatureSet(rng.standard_normal((5, 4))))


# ---------------------------------------------------------------------------
# LSE-D
# ---------------------------------------------------------------------------

def test_lse_d_identical_sequences(rng):
    seq = [rng.standard_normal(4) for _ in range(6)]
    assert lse_d(seq, [s.copy() for s in seq]) == 0.0


def test_lse_d_constant_unit_offset(rng):
    audio = [rng.standard_normal(5) for _ in range(8)]
    offset = np.zeros(5)
    offset[2] = 1.0
    visual = [a + offset for a in audio]
    assert lse_d(audio, visual) == pytest.approx(1.0, abs=1e-12)


def test_lse_d_matches_bruteforce_oracle(rng):
    audio = [rng.standard_normal(7) for _ in range(10)]
    visual = [rng.standard_normal(7) for _ in range(10)]
    oracle = sum(float(np.sqrt(np.sum((a - v) ** 2)))
                 for a, v in zip(audio, visual)) / 10
    assert lse_d(audio, visual) == pytest.approx(oracle, abs=1e-12)


def test_lse_d_length_mismatch(rng):
    with pytest.raises(ContractError):
        lse_d([rng.standard_normal(3)], [rng.standard_normal(3)] * 2)


def test_lse_d_joint_permutation_invariance(rng):
    audio = [rng.standard_normal(4) for _ in range(9)]
    visual = [rng.standard_normal(4) for _ in range(9)]
    perm = rng.permutation(9)
    assert lse_d(audio, visual) == pytest.approx(
        lse_d([audio[i] for i in perm], [visual[i] for i in perm]), abs=1e-12)


# ---------------------------------------------------------------------------
# CSIM
# ---------------------------------------------------------------------------

def test_csim_identical_pairs(rng):
    v = [rng.standard_normal(6) for _ in range(5)]
    assert csim(v, [x.copy() for x in v]) == pytest.approx(1.0)


def test_csim_opposite_pairs(rng):
    v = [rng.standard_normal(6) for _ in range(5)]
    assert csim(v, [-x for x in v]) == pytest.approx(-1.0)


def test_csim_half_aligned_half_orthogonal():
    # constructed pairs: two with similarity 1, two with similarity 0
    gen = [np.array([1.0, 0.0]), np.array([0.0, 2.0]),
           np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    real = [np.array([2.0, 0.0]), np.array([0.0, 1.0]),
            np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    assert csim(gen, real) == pytest.approx(0.5)


def test_csim_positive_scaling_invariance(rng):
    gen = [rng.standard_normal(5) for _ in range(7)]
    real = [rng.standard_normal(5) for _ in range(7)]
    scaled = [g * s for g, s in zip(gen, rng.uniform(0.1, 10, 7))]
    assert csim(gen, real) == pytest.approx(csim(scaled, real), abs=1e-12)


def test_csim_joint_permutation_invariance(rng):
    gen = [rng.standard_normal(5) for _ in range(7)]
    real = [rng.standard_normal(5) for _ in range(7)]
    perm = rng.permutation(7)
    assert csim(gen, real) == pytest.approx(
        csim([gen[i] for i in perm], [real[i] for i in perm]), abs=1e-12)


def test_csim_length_mismatch(rng):
    with pytest.raises(ContractError):
        csim([rng.standard_normal(3)], [])


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

def test_metric_report_against_itself(rng):
    ids = [f"s{i:02d}" for i in range(30)]
    x = FeatureSet(rng.standard_normal((30, 8)), "x", ids)
    report = metric_report(x, FeatureSet(x.vectors.copy(), "y", ids))
    assert abs(report["fad"]) < 1e-9
    assert report["lse_d"] == 0.0
    assert report["csim"] == pytest.approx(1.0)
    assert report["n_real"] == report["n_gen"] == 30


def test_metric_report_unequal_counts(rng):
    report = metric_report(FeatureSet(rng.standard_normal((12, 4))),
                           FeatureSet(rng.standard_normal((9, 4))))
    assert report["lse_d"] is None and report["csim"] is None
    assert report["fad"] > 0


def test_metric_report_pairs_rows_by_id(rng):
    x = rng.standard_normal((12, 5))
    ids = [f"s{i:02d}" for i in range(12)]
    order = rng.permutation(12)
    real = FeatureSet(x, "real", ids)
    shuffled = FeatureSet(x[order], "gen", [ids[i] for i in order])
    report = metric_report(real, shuffled)
    assert report["lse_d"] == 0.0
    assert report["csim"] == pytest.approx(1.0)
    # a set without ids is not paired by position
    report = metric_report(real, FeatureSet(x[order]))
    assert report["lse_d"] is None and report["csim"] is None


def test_metric_report_refuses_unmatched_ids(rng):
    x = rng.standard_normal((6, 3))
    real = FeatureSet(x, "real", [f"a{i}" for i in range(6)])
    gen = FeatureSet(x, "gen", [f"a{i}" for i in range(4)] + ["b4", "b5"])
    with pytest.raises(ContractError, match="4 sample ids are unmatched"):
        metric_report(real, gen)
    with pytest.raises(ContractError):
        FeatureSet(x, "dup", ["a"] * 6)
