import dataclasses

import numpy as np
import pytest

import emosup as es
import emosup.differencing as df
import emosup.prompts as pr
from emosup.differencing import (DifferencePair, PairEmbeddings, diff_vectors,
                                 difference_loss_with_grads, embed_pair,
                                 export_difference_rows, write_difference_csv)
from emosup.errors import ContractError
from conftest import pair_loss, passthrough_checkpoint, passthrough_layers, project_row


def single_conditional_checkpoint(suite, seed=0):
    cfg = es.TrainConfig(projector_mode=pr.SINGLE_CONDITIONAL)
    return pr._fresh_checkpoint(suite, cfg,
                                np.random.Generator(np.random.PCG64(seed))).freeze()


def per_row_export(ckpt, manifest, suite, include_mismatched=False):
    """Oracle: each row composed on its own from the suite, ``project_row``
    and ``build_personalized_prompt``, sharing no table with the export."""
    def visual(sample):
        return project_row(ckpt, suite.visual_encode((sample.image_ref,))[0],
                           sample.emotion)[0]

    def text(reference, emotion):
        return suite.text_encode(es.build_personalized_prompt(ckpt, reference, emotion,
                                                              suite)[None])[0]

    first_of = {}
    for s in sorted(manifest.samples, key=lambda s: s.id):
        first_of.setdefault((s.identity, s.emotion), s)
    rows = []
    for source in sorted(manifest.samples, key=lambda s: s.id):
        reference = manifest.by_id(source.neutral_ref)
        for target_emotion in es.EMOTIONS:
            target = first_of.get((source.identity, target_emotion))
            if target_emotion == source.emotion or target is None:
                continue
            visual_diff = visual(source) - visual(target)
            prompt_emotions = [target_emotion]
            if include_mismatched:
                prompt_emotions += [e for e in es.EMOTIONS
                                    if e not in (target_emotion, source.emotion)]
            for prompt_emotion in prompt_emotions:
                rows.append({"identity": source.identity,
                             "source_emotion": source.emotion.name,
                             "target_emotion": target_emotion.name,
                             "prompt_emotion": prompt_emotion.name,
                             "visual_diff": visual_diff,
                             "text_diff": (text(reference, source.emotion)
                                           - text(reference, prompt_emotion))})
    return rows


def random_pair(rng, d=16):
    return PairEmbeddings(rng.standard_normal(d), rng.standard_normal(d),
                          rng.standard_normal(d), rng.standard_normal(d),
                          es.EmotionLabel.happy, es.EmotionLabel.sad)


# ---------------------------------------------------------------------------
# embed_pair
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_reg(trained_checkpoint, default_manifest, default_suite):
    return es.DifferenceRegularizer(trained_checkpoint[0], default_suite, default_manifest)


def of_same_identity(manifest, source, emotion):
    return next(s for s in manifest.samples
                if s.identity == source.identity and s.emotion == emotion)


def test_embed_pair_same_target_gives_equal_embeddings(trained_reg, default_manifest):
    source = default_manifest.samples[3]
    pe = embed_pair(trained_reg, source, source)
    assert np.array_equal(pe.visual_source, pe.visual_target)
    assert np.array_equal(pe.text_source, pe.text_target)


def test_embed_pair_deterministic(trained_checkpoint, trained_reg, default_manifest,
                                  default_suite):
    # a second regularizer, built on its own, gives the same bytes
    source = default_manifest.samples[4]
    target = of_same_identity(default_manifest, source, es.EmotionLabel.happy)
    rebuilt = es.DifferenceRegularizer(trained_checkpoint[0], default_suite,
                                       default_manifest)
    a = embed_pair(trained_reg, source, target)
    b = embed_pair(rebuilt, source, target)
    for field in ("visual_source", "text_source", "visual_target", "text_target"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert (a.source_emotion, a.target_emotion) == (source.emotion, target.emotion)


@pytest.mark.parametrize("mode", [pr.MULTI, pr.SINGLE_CONDITIONAL])
def test_embed_pair_matches_direct_composition(trained_checkpoint, default_manifest,
                                               default_suite, mode):
    # compositional oracle: recompute each of the four embeddings through
    # the public single-embedding operations
    ckpt = (trained_checkpoint[0] if mode == pr.MULTI
            else single_conditional_checkpoint(default_suite))
    reg = es.DifferenceRegularizer(ckpt, default_suite, default_manifest)
    source = default_manifest.samples[5]
    target = of_same_identity(default_manifest, source, es.EmotionLabel.surprised)
    reference = default_manifest.by_id(source.neutral_ref)
    pe = embed_pair(reg, source, target)

    vis_s, vis_t = (project_row(ckpt, default_suite.visual_encode((s.image_ref,))[0],
                                s.emotion)[0] for s in (source, target))
    txt_s, txt_t = (default_suite.text_encode(es.build_personalized_prompt(
        ckpt, reference, s.emotion, default_suite)[None])[0] for s in (source, target))
    assert np.array_equal(pe.visual_source, vis_s)
    assert np.array_equal(pe.visual_target, vis_t)
    assert np.array_equal(pe.text_source, txt_s)
    assert np.array_equal(pe.text_target, txt_t)


def test_embed_pair_refuses_a_sample_outside_the_manifest_or_of_another_identity(
        trained_reg, default_manifest):
    source = default_manifest.samples[0]
    target = of_same_identity(default_manifest, source, es.EmotionLabel.angry)
    # an unknown id, and a known id whose sample differs from the manifest's
    for stranger in (dataclasses.replace(target, id="nobody"),
                     dataclasses.replace(target, emotion=es.EmotionLabel.happy)):
        with pytest.raises(ContractError, match="not in the regularizer's manifest"):
            embed_pair(trained_reg, source, stranger)
        with pytest.raises(ContractError, match="not in the regularizer's manifest"):
            embed_pair(trained_reg, stranger, target)
    other_identity = next(s for s in default_manifest.samples
                          if s.identity != source.identity)
    with pytest.raises(ContractError, match="not of the source's identity"):
        embed_pair(trained_reg, source, other_identity)


def test_export_requires_a_frozen_checkpoint(default_manifest, default_suite):
    ckpt = pr._fresh_checkpoint(default_suite, es.TrainConfig(),
                                np.random.Generator(np.random.PCG64(0)))
    with pytest.raises(ContractError, match="must be frozen"):
        export_difference_rows(ckpt, default_manifest, default_suite)


# ---------------------------------------------------------------------------
# diff_vectors
# ---------------------------------------------------------------------------

def test_diff_zero_sets_degenerate_flag():
    v = np.array([1.0, 2.0])
    pe = PairEmbeddings(v, v + 1, v, v + 2, es.EmotionLabel.happy,
                        es.EmotionLabel.happy)
    dp = diff_vectors(pe)
    assert np.array_equal(dp.visual_diff, np.zeros(2))
    loss, g_vis, g_txt = difference_loss_with_grads(
        DifferencePair(dp.visual_diff[None], dp.text_diff[None]))
    assert loss.tolist() == [1.0] and not g_vis.any() and not g_txt.any()


def test_diff_subtraction_order():
    pe = PairEmbeddings([2.0], [5.0], [1.0], [3.0],
                        es.EmotionLabel.happy, es.EmotionLabel.sad)
    dp = diff_vectors(pe)
    assert np.array_equal(dp.visual_diff, [1.0])
    assert np.array_equal(dp.text_diff, [2.0])


def test_diff_antisymmetry(rng):
    for _ in range(20):
        pe = random_pair(rng)
        swapped = PairEmbeddings(pe.visual_target, pe.text_target,
                                 pe.visual_source, pe.text_source,
                                 pe.target_emotion, pe.source_emotion)
        d1, d2 = diff_vectors(pe), diff_vectors(swapped)
        assert np.allclose(d1.visual_diff, -d2.visual_diff, atol=1e-15)
        assert np.allclose(d1.text_diff, -d2.text_diff, atol=1e-15)


# ---------------------------------------------------------------------------
# difference loss
# ---------------------------------------------------------------------------

def test_loss_aligned_is_zero():
    v = np.array([1.0, -2.0, 3.0])
    assert pair_loss(DifferencePair(v, v)) == pytest.approx(0.0)


def test_loss_opposed_is_two():
    v = np.array([1.0, -2.0, 3.0])
    assert pair_loss(DifferencePair(v, -v)) == pytest.approx(2.0)


def test_loss_orthogonal_is_one():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 5.0])
    assert pair_loss(DifferencePair(a, b)) == pytest.approx(1.0)


def test_loss_degenerate_is_one_with_flag():
    dp = DifferencePair(np.zeros(3), np.ones(3))
    assert pair_loss(dp) == 1.0
    loss, g_vis, g_txt = difference_loss_with_grads(DifferencePair(np.zeros((1, 3)),
                                                                   np.ones((1, 3))))
    assert loss.tolist() == [1.0]
    assert np.all(g_vis == 0) and np.all(g_txt == 0)


def test_loss_bounds(rng):
    for _ in range(500):
        dp = diff_vectors(random_pair(rng))
        assert 0.0 <= pair_loss(dp) <= 2.0


def test_offset_cancellation(rng):
    # adding one constant to both visual embeddings (or both text embeddings)
    # leaves the loss unchanged to floating-point resolution
    for _ in range(50):
        pe = random_pair(rng)
        base = pair_loss(diff_vectors(pe))
        c = rng.standard_normal(16)
        shifted = PairEmbeddings(pe.visual_source + c, pe.text_source,
                                 pe.visual_target + c, pe.text_target,
                                 pe.source_emotion, pe.target_emotion)
        assert abs(pair_loss(diff_vectors(shifted)) - base) < 1e-12
        t = rng.standard_normal(16)
        shifted_t = PairEmbeddings(pe.visual_source, pe.text_source + t,
                                   pe.visual_target, pe.text_target + t,
                                   pe.source_emotion, pe.target_emotion)
        assert abs(pair_loss(diff_vectors(shifted_t)) - base) < 1e-12


def test_positive_scale_invariance(rng):
    for _ in range(50):
        dp = diff_vectors(random_pair(rng))
        lam, mu = rng.uniform(0.1, 10, size=2)
        scaled = DifferencePair(lam * dp.visual_diff, mu * dp.text_diff)
        assert pair_loss(scaled) == pytest.approx(pair_loss(dp),
                                                        abs=1e-11)


@pytest.mark.parametrize("half", [0, 1])
def test_identity_cancellation_in_noise_free_world(noise_free_world, half):
    # with identity projectors the visual difference reduces to the mapped
    # prototype difference, identical across identities; the two halves
    # together check every entry
    suite = es.synthetic_suite(noise_free_world)
    manifest = es.generate_synthetic_corpus(noise_free_world, 1)
    reg = es.DifferenceRegularizer(passthrough_checkpoint(suite, half=half), suite, manifest)
    _, carried = passthrough_layers(suite.d_e, half)
    np.testing.assert_allclose(reg.projected_source[:, carried], reg.visual[:, carried],
                               rtol=0, atol=1e-12)
    assert not reg.projected_source[:, ~carried].any()
    source_emotion, target_emotion = es.EmotionLabel.angry, es.EmotionLabel.happy
    diffs = []
    for identity in noise_free_world.identity_names:
        source = next(s for s in manifest.samples
                      if s.identity == identity and s.emotion == source_emotion)
        target = next(s for s in manifest.samples
                      if s.identity == identity and s.emotion == target_emotion)
        pe = embed_pair(reg, source, target)
        diffs.append(diff_vectors(pe).visual_diff)
    for d in diffs[1:]:
        assert np.max(np.abs(d - diffs[0])) < 1e-9


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_rows_and_csv(trained_checkpoint, default_manifest, default_suite,
                             tmp_path):
    ckpt, _ = trained_checkpoint
    rows = export_difference_rows(ckpt, default_manifest, default_suite)
    assert len(rows) == len(default_manifest.samples) * 6
    for row in rows[:10]:
        assert row["prompt_emotion"] == row["target_emotion"]
        assert row["visual_diff"].shape == (default_suite.d_e,)
    path = tmp_path / "diffs.csv"
    write_difference_csv(rows, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:4] == ["identity", "source_emotion", "target_emotion",
                          "prompt_emotion"]
    assert len(header) == 4 + 2 * default_suite.d_e


def test_export_mismatched_rows(trained_checkpoint, default_manifest,
                                default_suite):
    ckpt, _ = trained_checkpoint
    rows = export_difference_rows(ckpt, default_manifest, default_suite,
                                  include_mismatched=True)
    mismatched = [r for r in rows if r["prompt_emotion"] != r["target_emotion"]]
    assert mismatched
    for row in mismatched[:10]:
        assert row["prompt_emotion"] != row["source_emotion"]


@pytest.mark.parametrize("mode", [pr.MULTI, pr.SINGLE_CONDITIONAL])
@pytest.mark.parametrize("include_mismatched", [False, True])
def test_export_equals_the_per_row_composition(trained_checkpoint, default_manifest,
                                               default_suite, tmp_path, mode,
                                               include_mismatched):
    ckpt = (trained_checkpoint[0] if mode == pr.MULTI
            else single_conditional_checkpoint(default_suite))
    assert ckpt.mode == mode
    rows = export_difference_rows(ckpt, default_manifest, default_suite,
                                  include_mismatched=include_mismatched)
    expected = per_row_export(ckpt, default_manifest, default_suite,
                              include_mismatched=include_mismatched)
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert row.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(row[key], value)
            else:
                assert row[key] == value
    write_difference_csv(rows, tmp_path / "export.csv")
    write_difference_csv(expected, tmp_path / "per_row.csv")
    assert (tmp_path / "export.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()


def test_export_embeds_each_prompt_and_image_once(trained_checkpoint, default_manifest,
                                                  default_suite, monkeypatch):
    ckpt, _ = trained_checkpoint
    # calls, but refs for visual_encode, which takes a tuple of them
    calls = {"build_personalized_prompt": 0, "embed_pair": 0, "visual_encode": 0}

    def counting(module, name):
        wrapped = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += len(args[0]) if name == "visual_encode" else 1
            return wrapped(*args, **kwargs)
        return call

    project, projections = pr.project_visual, []

    def recorded_projection(*args):
        result = project(*args)
        projections.append(result[0])
        return result

    monkeypatch.setattr(pr, "build_personalized_prompt",
                        counting(pr, "build_personalized_prompt"))
    monkeypatch.setattr(pr, "project_visual", recorded_projection)
    monkeypatch.setattr(df, "embed_pair", counting(df, "embed_pair"))
    suite = dataclasses.replace(default_suite,
                                visual_encode=counting(default_suite, "visual_encode"))
    rows = export_difference_rows(ckpt, default_manifest, suite)
    references = {s.neutral_ref for s in default_manifest.samples}
    assert calls["embed_pair"] == len(rows) == len(default_manifest.samples) * 6
    assert calls["build_personalized_prompt"] == len(references) * len(es.EMOTIONS)
    assert calls["visual_encode"] == len(default_manifest.samples)
    # one projection pass over every source sample, none per exported row
    assert len(projections) == 1
    for n, sample in enumerate(default_manifest.samples):
        assert np.array_equal(projections[0][n], project_row(
            ckpt, default_suite.visual_encode((sample.image_ref,))[0], sample.emotion)[0])
