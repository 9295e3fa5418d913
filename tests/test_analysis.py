import numpy as np
import pytest

import emosup as es
from emosup.analysis import (CrossModalSimilarityMatrix, GapReport,
                             cross_modal_matrix, derive_negative_pools,
                             format_gap_report, load_reference_gap_table,
                             load_reference_matrix, load_reference_pools,
                             modality_gap_report, pool_discrepancies)
from emosup.errors import ContractError
from emosup.numerics import EPS_NORM

E = es.EmotionLabel


def orthonormal_text_table(d=16):
    return {e: np.eye(d)[int(e)] for e in es.EMOTIONS}


# ---------------------------------------------------------------------------
# gap report
# ---------------------------------------------------------------------------

def test_gap_zero_when_images_equal_their_text():
    texts = orthonormal_text_table()
    features = {e: np.stack([texts[e], texts[e]]) for e in es.EMOTIONS}
    report = modality_gap_report(features, texts)
    assert np.allclose(report.s_image, 1.0)
    assert np.allclose(report.s_match, 1.0)
    assert np.allclose(report.gap, 0.0)


def test_gap_report_requires_two_images():
    texts = orthonormal_text_table()
    features = {e: np.stack([texts[e], texts[e]]) for e in es.EMOTIONS}
    features[E.happy] = features[E.happy][:1]
    with pytest.raises(ContractError):
        modality_gap_report(features, texts)


def test_gap_report_arithmetic_invariant(rng):
    texts = {e: rng.standard_normal(12) for e in es.EMOTIONS}
    features = {e: rng.standard_normal((5, 12)) for e in es.EMOTIONS}
    report = modality_gap_report(features, texts)
    assert np.max(np.abs(report.gap - (report.s_image - report.s_match))) < 1e-15
    assert report.avg_gap == pytest.approx(report.avg_s_image - report.avg_s_match,
                                           abs=1e-12)


def test_gap_report_rejects_inconsistent_rows():
    ones = np.ones(7)
    with pytest.raises(ContractError):
        GapReport(ones, 0.5 * ones, ones)  # gap != s_image - s_match


def test_excluding_self_pairs_matters(rng):
    # a single repeated vector plus one orthogonal vector: including
    # self-pairs would bias s_image toward 1
    v = np.zeros(16)
    v[10] = 1.0
    u = np.zeros(16)
    u[11] = 1.0
    texts = orthonormal_text_table()
    features = {e: np.stack([v, v, u]) for e in es.EMOTIONS}
    report = modality_gap_report(features, texts)
    # pairs: (v,v)=1, (v,u)=0, (v,u)=0 -> mean 1/3 exactly
    assert np.allclose(report.s_image, 1 / 3)


def test_reference_gap_table_is_self_consistent():
    table = load_reference_gap_table()
    for emotion, (s_image, s_match, gap) in table.rows.items():
        assert gap == pytest.approx(s_image - s_match, abs=5e-4)
    rows = np.array([table.rows[e] for e in es.EMOTIONS])
    for col, avg in enumerate(table.average):
        assert avg == pytest.approx(rows[:, col].mean(), abs=5e-4)


def test_format_gap_report_with_reference(rng):
    texts = {e: rng.standard_normal(8) for e in es.EMOTIONS}
    features = {e: rng.standard_normal((4, 8)) for e in es.EMOTIONS}
    out = format_gap_report(modality_gap_report(features, texts),
                            load_reference_gap_table())
    assert "ref_gap" in out and "average" in out
    assert len(out.splitlines()) == 9


# ---------------------------------------------------------------------------
# cross-modal matrix
# ---------------------------------------------------------------------------

def test_matrix_identity_pattern():
    texts = orthonormal_text_table()
    features = {e: np.stack([texts[e], texts[e]]) for e in es.EMOTIONS}
    matrix = cross_modal_matrix(features, texts)
    assert np.allclose(matrix.values, np.eye(7))
    assert matrix.values.shape == (7, 7)


def test_matrix_spot_cells_against_bruteforce(rng):
    texts = {e: rng.standard_normal(10) for e in es.EMOTIONS}
    features = {e: rng.standard_normal((6, 10)) for e in es.EMOTIONS}
    matrix = cross_modal_matrix(features, texts)
    for i, j in [(E.angry, E.happy), (E.neutral, E.neutral), (E.sad, E.fear)]:
        sims = []
        for v in features[i]:
            t = texts[j]
            sims.append(float(v @ t) / (np.linalg.norm(v) * np.linalg.norm(t)))
        assert matrix.cell(i, j) == pytest.approx(np.mean(sims), abs=1e-12)


def test_an_image_row_below_eps_norm_adds_similarity_zero(rng):
    # the degenerate row counts in every mean but adds 0 to every sum; a row
    # just above the threshold is normalized like a unit row
    texts = {e: rng.standard_normal(8) for e in es.EMOTIONS}
    features = {e: rng.standard_normal((4, 8)) for e in es.EMOTIONS}
    clean_report = modality_gap_report(features, texts)
    clean_matrix = cross_modal_matrix(features, texts)
    direction = rng.standard_normal(8)
    direction /= np.linalg.norm(direction)

    def with_row(row):
        grown = {**features, E.happy: np.vstack([features[E.happy], row])}
        return modality_gap_report(grown, texts), cross_modal_matrix(grown, texts)

    report, matrix = with_row(0.5 * EPS_NORM * direction)
    h = int(E.happy)
    expected_image, expected_match = clean_report.s_image.copy(), clean_report.s_match.copy()
    expected_image[h] *= 6 / 10  # 6 of the 10 pairs of 5 rows are non-degenerate
    expected_match[h] *= 4 / 5
    np.testing.assert_allclose(report.s_image, expected_image, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(report.s_match, expected_match, rtol=1e-12, atol=1e-15)
    expected_values = clean_matrix.values.copy()
    expected_values[h] *= 4 / 5
    np.testing.assert_allclose(matrix.values, expected_values, rtol=1e-12, atol=1e-15)

    small, unit = with_row(2 * EPS_NORM * direction), with_row(direction)
    np.testing.assert_allclose(small[0].s_image, unit[0].s_image, rtol=1e-12)
    np.testing.assert_allclose(small[0].s_match, unit[0].s_match, rtol=1e-12)
    np.testing.assert_allclose(small[1].values, unit[1].values, rtol=1e-12)


def test_matrix_csv_shape(tmp_path, rng):
    texts = {e: rng.standard_normal(6) for e in es.EMOTIONS}
    features = {e: rng.standard_normal((3, 6)) for e in es.EMOTIONS}
    path = tmp_path / "matrix.csv"
    cross_modal_matrix(features, texts).to_csv(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 8 and lines[0].startswith("image_emotion,")


# ---------------------------------------------------------------------------
# negative pool derivation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_similarity_is_refused(bad):
    values = np.full((7, 7), 0.5)
    values[2, 4] = bad
    with pytest.raises(ContractError, match="similarities must be finite"):
        CrossModalSimilarityMatrix(values, np.full((7, 7), 10))


def test_derive_pools_k0_keeps_all_others():
    pools = derive_negative_pools(load_reference_matrix(), 0)
    for e in es.EMOTIONS:
        assert pools.pool[e] == frozenset(x for x in es.EMOTIONS if x != e)


def test_derive_pools_k1_matches_reference_on_consistent_rows():
    derived = derive_negative_pools(load_reference_matrix(), 1)
    reference = load_reference_pools()
    consistent = {E.angry, E.disgusted, E.fear, E.happy, E.sad}
    discrepant = set(pool_discrepancies(derived, reference))
    assert discrepant == {E.neutral, E.surprised}
    for e in consistent:
        assert derived.pool[e] == reference.pool[e]
    # the discrepant rows drop exactly their top off-diagonal cell
    assert derived.pool[E.neutral] == frozenset(es.EMOTIONS) - {E.neutral, E.happy}
    assert derived.pool[E.surprised] == frozenset(es.EMOTIONS) - {E.surprised, E.fear}


def test_derive_pools_k_range():
    matrix = load_reference_matrix()
    for k in range(6):
        pools = derive_negative_pools(matrix, k)  # validates on construction
        for e in es.EMOTIONS:
            assert len(pools.pool[e]) == 6 - k
    with pytest.raises(ContractError):
        derive_negative_pools(matrix, 6)
    with pytest.raises(ContractError):
        derive_negative_pools(matrix, -1)


def test_derive_pools_tie_break_deterministic():
    values = np.full((7, 7), 0.5)
    np.fill_diagonal(values, 0.9)
    matrix = CrossModalSimilarityMatrix(values, np.full((7, 7), 10))
    pools = derive_negative_pools(matrix, 1)
    # all off-diagonals tie; the lowest emotion code is excluded
    assert pools.pool[E.angry] == frozenset(es.EMOTIONS) - {E.angry, E.neutral}
    assert pools.pool[E.neutral] == frozenset(es.EMOTIONS) - {E.neutral, E.angry}


def test_reference_pools_contents():
    pools = load_reference_pools()
    assert pools.pool[E.happy] == frozenset(
        {E.angry, E.disgusted, E.fear, E.sad, E.surprised})
    assert pools.pool[E.neutral] == frozenset(x for x in es.EMOTIONS if x != E.neutral)
    for e in es.EMOTIONS:
        assert e not in pools.pool[e]


def test_reference_matrix_diagonal_dominates_rows():
    matrix = load_reference_matrix()
    for e in es.EMOTIONS:
        row = matrix.values[int(e)]
        assert np.argmax(row) == int(e)


def test_synthetic_gap_reflects_designed_offset():
    # a large designed offset drives the image-text similarity well below
    # the within-class image similarity
    world = es.build_synthetic_world(21, es.WorldConfig(gap=2.0, noise_sigma=0.05))
    suite = es.synthetic_suite(world)
    manifest = es.generate_synthetic_corpus(world, 4)
    features = {e: suite.visual_encode(tuple(s.image_ref for s in manifest.samples
                                             if s.emotion == e))
                for e in es.EMOTIONS}
    texts = {e: world.text_prototype(e) for e in es.EMOTIONS}
    report = modality_gap_report(features, texts)
    assert report.avg_gap > 0.2
