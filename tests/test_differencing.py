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
from conftest import identity_mlp


def passthrough_checkpoint(suite, seed=0):
    """Frozen checkpoint whose projectors are exact identity maps."""
    cfg = es.TrainConfig()
    ckpt = pr._fresh_checkpoint(suite, cfg, np.random.Generator(np.random.PCG64(seed)))
    ckpt = dataclasses.replace(ckpt, bank=es.EmotionProjectorBank(
        "multi", [identity_mlp(suite.d_e) for _ in range(7)]))
    return ckpt.freeze()


def single_conditional_checkpoint(suite, seed=0):
    cfg = es.TrainConfig(projector_mode=pr.SINGLE_CONDITIONAL)
    return pr._fresh_checkpoint(suite, cfg,
                                np.random.Generator(np.random.PCG64(seed))).freeze()


def per_row_export(ckpt, manifest, suite, include_mismatched=False):
    """Oracle: the export loop as it ran before rows shared one memo. Each
    row embeds its pair from scratch and encodes every mismatched prompt
    inline."""
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
            pe = embed_pair(ckpt, source, target.image_ref, target_emotion, reference,
                            suite)
            dp = diff_vectors(pe)
            prompt_emotions = [target_emotion]
            if include_mismatched:
                prompt_emotions += [e for e in es.EMOTIONS
                                    if e not in (target_emotion, source.emotion)]
            for prompt_emotion in prompt_emotions:
                if prompt_emotion == target_emotion:
                    text_diff = dp.text_diff
                else:
                    t_alt = suite.text_encode(
                        es.build_personalized_prompt(ckpt, reference, prompt_emotion,
                                                     suite))
                    text_diff = pe.text_source - t_alt
                rows.append({"identity": source.identity,
                             "source_emotion": source.emotion.name,
                             "target_emotion": target_emotion.name,
                             "prompt_emotion": prompt_emotion.name,
                             "visual_diff": dp.visual_diff.copy(),
                             "text_diff": text_diff.copy()})
    return rows


def difference_loss(dp):
    return difference_loss_with_grads(dp)[0]


def random_pair(rng, d=16):
    return PairEmbeddings(rng.standard_normal(d), rng.standard_normal(d),
                          rng.standard_normal(d), rng.standard_normal(d),
                          es.EmotionLabel.happy, es.EmotionLabel.sad)


# ---------------------------------------------------------------------------
# embed_pair
# ---------------------------------------------------------------------------

def test_embed_pair_same_target_gives_equal_embeddings(trained_checkpoint,
                                                       default_manifest,
                                                       default_suite):
    ckpt, _ = trained_checkpoint
    source = default_manifest.samples[3]
    reference = default_manifest.by_id(source.neutral_ref)
    pe = embed_pair(ckpt, source, source.image_ref, source.emotion, reference,
                    default_suite)
    assert np.array_equal(pe.visual_source, pe.visual_target)
    assert np.array_equal(pe.text_source, pe.text_target)


def test_embed_pair_deterministic(trained_checkpoint, default_manifest,
                                  default_suite):
    ckpt, _ = trained_checkpoint
    source = default_manifest.samples[4]
    target = default_manifest.samples[10]
    reference = default_manifest.by_id(source.neutral_ref)
    a = embed_pair(ckpt, source, target.image_ref, target.emotion, reference,
                   default_suite)
    b = embed_pair(ckpt, source, target.image_ref, target.emotion, reference,
                   default_suite)
    for field in ("visual_source", "text_source", "visual_target", "text_target"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_embed_pair_matches_direct_composition(trained_checkpoint,
                                               default_manifest, default_suite):
    # compositional oracle: recompute each of the four embeddings through
    # the public single-embedding operations
    ckpt, _ = trained_checkpoint
    source = default_manifest.samples[5]
    target_emotion = es.EmotionLabel.surprised
    target = next(s for s in default_manifest.samples
                  if s.identity == source.identity and s.emotion == target_emotion)
    reference = default_manifest.by_id(source.neutral_ref)
    pe = embed_pair(ckpt, source, target.image_ref, target_emotion, reference,
                    default_suite)

    vis_s = pr.project_visual(ckpt.bank, default_suite.visual_encode(source.image_ref),
                              source.emotion)[0]
    vis_t = pr.project_visual(ckpt.bank, default_suite.visual_encode(target.image_ref),
                              target_emotion)[0]
    txt_s = default_suite.text_encode(
        es.build_personalized_prompt(ckpt, reference, source.emotion, default_suite))
    txt_t = default_suite.text_encode(
        es.build_personalized_prompt(ckpt, reference, target_emotion, default_suite))
    assert np.array_equal(pe.visual_source, vis_s)
    assert np.array_equal(pe.visual_target, vis_t)
    assert np.array_equal(pe.text_source, txt_s)
    assert np.array_equal(pe.text_target, txt_t)


def test_embed_pair_contract_errors(trained_checkpoint, default_manifest,
                                    default_suite):
    ckpt, _ = trained_checkpoint
    source = default_manifest.samples[0]
    emotional = next(s for s in default_manifest.samples
                     if s.emotion != es.EmotionLabel.neutral)
    with pytest.raises(ContractError):
        embed_pair(ckpt, source, source.image_ref, es.EmotionLabel.sad, emotional,
                   default_suite)
    other_identity_neutral = next(
        s for s in default_manifest.samples
        if s.emotion == es.EmotionLabel.neutral and s.identity != source.identity)
    with pytest.raises(ContractError):
        embed_pair(ckpt, source, source.image_ref, es.EmotionLabel.sad,
                   other_identity_neutral, default_suite)


def test_embed_pair_requires_frozen(default_manifest, default_suite):
    ckpt = pr._fresh_checkpoint(default_suite, es.TrainConfig(),
                                np.random.Generator(np.random.PCG64(0)))
    s = default_manifest.samples[0]
    with pytest.raises(ContractError):
        embed_pair(ckpt, s, s.image_ref, s.emotion,
                   default_manifest.by_id(s.neutral_ref), default_suite)


def test_embed_pair_refuses_a_memo_of_another_checkpoint_or_suite(
        trained_checkpoint, default_world, default_manifest, default_suite):
    ckpt, _ = trained_checkpoint
    source = default_manifest.samples[0]
    reference = default_manifest.by_id(source.neutral_ref)
    other_ckpt = single_conditional_checkpoint(default_suite)
    other_suite = es.synthetic_suite(default_world)
    for memo in (pr._FrozenEmbeddings(other_ckpt, default_suite),
                 pr._FrozenEmbeddings(ckpt, other_suite)):
        with pytest.raises(ContractError, match="another checkpoint"):
            embed_pair(ckpt, source, source.image_ref, es.EmotionLabel.sad, reference,
                       default_suite, frozen=memo)
    memo = pr._FrozenEmbeddings(ckpt, default_suite)
    pe = embed_pair(ckpt, source, source.image_ref, es.EmotionLabel.sad, reference,
                    default_suite, frozen=memo)
    assert np.array_equal(pe.text_target, memo.text(reference, es.EmotionLabel.sad))


def test_embed_pair_checks_frozen_before_the_memo(default_manifest, default_suite):
    # the memo is only sound for a frozen checkpoint, so the frozen check
    # comes first, whichever memo is passed
    ckpt = pr._fresh_checkpoint(default_suite, es.TrainConfig(),
                                np.random.Generator(np.random.PCG64(0)))
    memo = pr._FrozenEmbeddings(single_conditional_checkpoint(default_suite),
                                default_suite)
    s = default_manifest.samples[0]
    with pytest.raises(ContractError, match="must be frozen"):
        embed_pair(ckpt, s, s.image_ref, s.emotion, default_manifest.by_id(s.neutral_ref),
                   default_suite, frozen=memo)
    with pytest.raises(ContractError, match="must be frozen"):
        pr._FrozenEmbeddings(ckpt, default_suite)


def test_memo_keys_an_image_by_its_projector_and_keeps_no_raw_vector(
        trained_checkpoint, default_manifest, default_suite):
    ckpt, _ = trained_checkpoint
    source = default_manifest.samples[1]
    reference = default_manifest.by_id(source.neutral_ref)
    memo = pr._FrozenEmbeddings(ckpt, default_suite)
    raw = default_suite.visual_encode(source.image_ref)

    def projected(visual, emotion):
        return pr.project_visual(ckpt.bank, visual, emotion)[0]

    for emotion in (es.EmotionLabel.happy, es.EmotionLabel.sad):
        # the source image again, projected for another emotion
        pe = embed_pair(ckpt, source, source.image_ref, emotion, reference, default_suite,
                        frozen=memo)
        assert np.array_equal(pe.visual_source, projected(raw, source.emotion))
        assert np.array_equal(pe.visual_target, projected(raw, emotion))
    for visual in (raw, raw + 1.0):
        pe = embed_pair(ckpt, source, visual, es.EmotionLabel.happy, reference,
                        default_suite, frozen=memo)
        assert np.array_equal(pe.visual_target, projected(visual, es.EmotionLabel.happy))
    # the suite takes refs only, so embed_pair validates a raw vector itself
    with pytest.raises(ContractError, match=f"visual feature has dim {raw.size - 1}"):
        embed_pair(ckpt, source, raw[:-1], es.EmotionLabel.happy, reference, default_suite,
                   frozen=memo)


# ---------------------------------------------------------------------------
# diff_vectors
# ---------------------------------------------------------------------------

def test_diff_zero_sets_degenerate_flag():
    v = np.array([1.0, 2.0])
    pe = PairEmbeddings(v, v + 1, v, v + 2, es.EmotionLabel.happy,
                        es.EmotionLabel.happy)
    dp = diff_vectors(pe)
    assert np.array_equal(dp.visual_diff, np.zeros(2))
    loss, g_vis, g_txt = difference_loss_with_grads(dp)
    assert loss == 1.0 and not g_vis.any() and not g_txt.any()


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
    assert difference_loss(DifferencePair(v, v)) == pytest.approx(0.0)


def test_loss_opposed_is_two():
    v = np.array([1.0, -2.0, 3.0])
    assert difference_loss(DifferencePair(v, -v)) == pytest.approx(2.0)


def test_loss_orthogonal_is_one():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 5.0])
    assert difference_loss(DifferencePair(a, b)) == pytest.approx(1.0)


def test_loss_degenerate_is_one_with_flag():
    dp = DifferencePair(np.zeros(3), np.ones(3))
    assert difference_loss(dp) == 1.0
    loss, g_vis, g_txt = difference_loss_with_grads(dp)
    assert loss == 1.0
    assert np.all(g_vis == 0) and np.all(g_txt == 0)


def test_loss_bounds(rng):
    for _ in range(500):
        dp = diff_vectors(random_pair(rng))
        assert 0.0 <= difference_loss(dp) <= 2.0


def test_offset_cancellation(rng):
    # adding one constant to both visual embeddings (or both text embeddings)
    # leaves the loss unchanged to floating-point resolution
    for _ in range(50):
        pe = random_pair(rng)
        base = difference_loss(diff_vectors(pe))
        c = rng.standard_normal(16)
        shifted = PairEmbeddings(pe.visual_source + c, pe.text_source,
                                 pe.visual_target + c, pe.text_target,
                                 pe.source_emotion, pe.target_emotion)
        assert abs(difference_loss(diff_vectors(shifted)) - base) < 1e-12
        t = rng.standard_normal(16)
        shifted_t = PairEmbeddings(pe.visual_source, pe.text_source + t,
                                   pe.visual_target, pe.text_target + t,
                                   pe.source_emotion, pe.target_emotion)
        assert abs(difference_loss(diff_vectors(shifted_t)) - base) < 1e-12


def test_positive_scale_invariance(rng):
    for _ in range(50):
        dp = diff_vectors(random_pair(rng))
        lam, mu = rng.uniform(0.1, 10, size=2)
        scaled = DifferencePair(lam * dp.visual_diff, mu * dp.text_diff)
        assert difference_loss(scaled) == pytest.approx(difference_loss(dp),
                                                        abs=1e-11)


def test_identity_cancellation_in_noise_free_world(noise_free_world):
    # with identity projectors the visual difference reduces to the mapped
    # prototype difference, identical across identities
    suite = es.synthetic_suite(noise_free_world)
    manifest = es.generate_synthetic_corpus(noise_free_world, 1)
    ckpt = passthrough_checkpoint(suite)
    source_emotion, target_emotion = es.EmotionLabel.angry, es.EmotionLabel.happy
    diffs = []
    for identity in noise_free_world.identity_names:
        source = next(s for s in manifest.samples
                      if s.identity == identity and s.emotion == source_emotion)
        target = next(s for s in manifest.samples
                      if s.identity == identity and s.emotion == target_emotion)
        reference = manifest.by_id(source.neutral_ref)
        pe = embed_pair(ckpt, source, target.image_ref, target_emotion, reference,
                        suite)
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
def test_memoized_export_equals_the_per_row_loop(trained_checkpoint, default_manifest,
                                                 default_suite, tmp_path, mode,
                                                 include_mismatched):
    ckpt = (trained_checkpoint[0] if mode == pr.MULTI
            else single_conditional_checkpoint(default_suite))
    assert ckpt.bank.mode == mode
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
    write_difference_csv(rows, tmp_path / "memo.csv")
    write_difference_csv(expected, tmp_path / "per_row.csv")
    assert (tmp_path / "memo.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()


def test_export_embeds_each_prompt_and_image_once(trained_checkpoint, default_manifest,
                                                  default_suite, monkeypatch):
    ckpt, _ = trained_checkpoint
    calls = {"build_personalized_prompt": 0, "project_visual": 0, "embed_pair": 0}

    def counting(module, name):
        wrapped = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counting(pr, "build_personalized_prompt")
    counting(pr, "project_visual")
    counting(df, "embed_pair")
    rows = export_difference_rows(ckpt, default_manifest, default_suite)
    references = {s.neutral_ref for s in default_manifest.samples}
    assert calls["embed_pair"] == len(rows) == len(default_manifest.samples) * 6
    assert 0 < calls["build_personalized_prompt"] <= len(references) * len(es.EMOTIONS)
    assert 0 < calls["project_visual"] <= len(default_manifest.samples)
