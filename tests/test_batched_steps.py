"""The batched L1/L2 training steps and the batched generator demo against
the per-entry loops they replace, and the row-stacked numerics they run on.

The per-entry loops below are the reference: each entry runs its own
guider-head, projector and generator passes, in batch order, exactly as
training and the demo did before they were batched.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emosup as es
import emosup.prompts as pr
import emosup.supervision as sv
from emosup.differencing import DifferencePair, difference_loss_with_grads
from emosup.emotions import EMOTIONS
from emosup.encoders import _hash_generator
from emosup.numerics import (EPS_NORM, cosine_grads, cosine_with_flag, init_mlp,
                             mlp_backward, mlp_forward, sgd_step)
from conftest import (bank_index, demo_rows, draws, entries, input_grad_row, network,
                      project_row)

MODES = [pr.MULTI, pr.SINGLE_CONDITIONAL]


# ---------------------------------------------------------------------------
# per-entry reference
# ---------------------------------------------------------------------------

def personalized_per_entry(ckpt, reference, emotion, suite):
    id_feat = suite.backbone_identity(reference.image_ref)
    head_out, head_cache = mlp_forward(ckpt.guider_head, id_feat)
    tokens = [head_out[i * ckpt.d_tok:(i + 1) * ckpt.d_tok]
              for i in range(ckpt.token_count)]
    seq = np.concatenate([tokens, suite.tokenize(es.prompt_for(emotion))])
    return suite.text_encode(seq[None])[0], seq, head_cache


def head_grads_per_entry(ckpt, seq, head_cache, upstream, suite):
    token_grads = [suite.text_token_vjp(seq[None], i, upstream[None])[0]
                   for i in range(ckpt.token_count)]
    return mlp_backward(ckpt.guider_head, head_cache, np.concatenate(token_grads))


def sim_and_grads(a, b):
    sim, degenerate = cosine_with_flag(a, b)
    if degenerate:
        return 0.0, np.zeros_like(a), np.zeros_like(b)
    da, db, _, _ = cosine_grads(a[None], b[None])
    return sim, da[0], db[0]


def encode_one(suite, ref):
    """One image's embedding, as the one-ref tuple's row."""
    return suite.visual_encode((ref,))[0]


def contrastive_per_entry(ckpt, batch, suite):
    grad = np.zeros_like(ckpt.vector)
    grads = ckpt.split(grad)
    total = 0.0
    scale = 1.0 / len(batch.anchor)
    for entry in entries(batch):
        t_pos, seq_pos, cache_pos = personalized_per_entry(
            ckpt, entry.reference, entry.positive_prompt, suite)
        t_neg, seq_neg, cache_neg = personalized_per_entry(
            ckpt, entry.reference, entry.negative_prompt, suite)
        visual = encode_one(suite, entry.anchor.image_ref)
        i_vis, proj_cache, net = project_row(ckpt, visual, entry.anchor.emotion)
        sim_pos, d_tpos, d_ivis_pos = sim_and_grads(t_pos, i_vis)
        sim_neg, d_tneg, d_ivis_neg = sim_and_grads(t_neg, i_vis)
        total += (1.0 - sim_pos) + sim_neg
        grads[0] += head_grads_per_entry(ckpt, seq_pos, cache_pos, -scale * d_tpos, suite)
        grads[0] += head_grads_per_entry(ckpt, seq_neg, cache_neg, scale * d_tneg, suite)
        grads[1][bank_index(ckpt, entry.anchor.emotion)] += mlp_backward(
            net, proj_cache, scale * (d_ivis_neg - d_ivis_pos))
    return total * scale, grad


def difference_per_entry(ckpt, batch, suite):
    grad = np.zeros_like(ckpt.vector)
    grads = ckpt.split(grad)
    total = 0.0
    scale = 1.0 / len(batch.source)
    for draw in draws(batch):
        t_s, seq_s, cache_s = personalized_per_entry(ckpt, draw.reference,
                                                     draw.source.emotion, suite)
        t_t, seq_t, cache_t = personalized_per_entry(ckpt, draw.reference,
                                                     draw.target.emotion, suite)
        i_s, cache_is, net_s = project_row(
            ckpt, encode_one(suite, draw.source.image_ref), draw.source.emotion)
        i_t, cache_it, net_t = project_row(
            ckpt, encode_one(suite, draw.target.image_ref), draw.target.emotion)
        i_diff, t_diff = i_s - i_t, t_s - t_t
        sim, degenerate = cosine_with_flag(i_diff, t_diff)
        if degenerate:
            total += 1.0
            continue
        total += 1.0 - sim
        d_idiff, d_tdiff, _, _ = cosine_grads(i_diff[None], t_diff[None])
        d_idiff, d_tdiff = -scale * d_idiff[0], -scale * d_tdiff[0]
        grads[0] += head_grads_per_entry(ckpt, seq_s, cache_s, d_tdiff, suite)
        grads[0] += head_grads_per_entry(ckpt, seq_t, cache_t, -d_tdiff, suite)
        grads[1][bank_index(ckpt, draw.source.emotion)] += mlp_backward(
            net_s, cache_is, d_idiff)
        grads[1][bank_index(ckpt, draw.target.emotion)] += mlp_backward(
            net_t, cache_it, -d_idiff)
    return total * scale, grad


# ---------------------------------------------------------------------------
# batched steps == per-entry reference
# ---------------------------------------------------------------------------

def assert_grads_close(batched, reference):
    assert batched.shape == reference.shape
    np.testing.assert_allclose(batched, reference, rtol=1e-12, atol=1e-12)


def train_table(manifest, suite):
    """The frozen table of ``manifest``'s train split under ``suite``, which
    every batch drawn from the manifest indexes."""
    return pr._frozen_table(manifest.in_split("train"), suite)


def step_setup(suite, mode, tokens, seed, degenerate_identity):
    """A fresh checkpoint and a suite whose visual encoder maps every image
    of ``degenerate_identity`` to zero: their rows of each encoded stack are
    zeroed. Fresh projectors have zero biases, so those images project to a
    zero-norm row (in single_conditional mode once the one-hot input columns
    are zeroed too)."""
    ckpt = pr._fresh_checkpoint(
        suite, es.TrainConfig(projector_mode=mode, guider_token_count=tokens),
        np.random.Generator(np.random.PCG64(seed)))
    if degenerate_identity is None:
        return ckpt, suite
    if mode == pr.SINGLE_CONDITIONAL:
        ckpt.bank.layers[0].weights[0, :, suite.d_e:] = 0.0
    prefix = f"img:{degenerate_identity}:"

    def visual_encode(refs):
        stack = suite.visual_encode(refs)
        stack[[ref.startswith(prefix) for ref in refs]] = 0.0
        return stack

    return ckpt, dataclasses.replace(suite, visual_encode=visual_encode)


step_cases = dict(mode=st.sampled_from(MODES), tokens=st.sampled_from([1, 2]),
                  seed=st.integers(0, 10_000), batch_size=st.integers(1, 12),
                  degenerate=st.booleans())


@settings(max_examples=24)
@given(**step_cases)
def test_contrastive_step_matches_per_entry_reference(default_manifest, default_suite,
                                                      reference_pools, mode, tokens, seed,
                                                      batch_size, degenerate):
    ckpt, suite = step_setup(default_suite, mode, tokens, seed,
                             "id001" if degenerate else None)
    rng = np.random.default_rng(seed)
    batch = es.sample_contrastive_batch(default_manifest, reference_pools, batch_size, rng)
    if degenerate:  # make sure the batch holds a zero-norm row
        train = batch.samples
        position = next(i for i, s in enumerate(train) if s.identity == "id001")
        anchor = train[position]
        batch.anchor[0] = position
        batch.negative[0] = min(reference_pools.pool[anchor.emotion])
        batch.reference[0] = next(i for i, s in enumerate(train) if s.identity == "id001"
                                  and s.emotion == es.EmotionLabel.neutral)
        projected, _, _ = project_row(ckpt, encode_one(suite, anchor.image_ref),
                                      anchor.emotion)
        assert not projected.any()
    loss, grad = pr.contrastive_step_grads(ckpt, batch, suite,
                                           train_table(default_manifest, suite))
    ref_loss, ref_grad = contrastive_per_entry(ckpt, batch, suite)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
    assert_grads_close(grad, ref_grad)


@settings(max_examples=24)
@given(**step_cases)
def test_difference_step_matches_per_entry_reference(default_manifest, default_suite,
                                                     reference_pools, mode, tokens, seed,
                                                     batch_size, degenerate):
    ckpt, suite = step_setup(default_suite, mode, tokens, seed,
                             "id002" if degenerate else None)
    rng = np.random.default_rng(seed)
    batch = es.sample_pair_batch(default_manifest, reference_pools, batch_size, rng)
    if degenerate:  # a same-identity pair of zero images: a zero visual difference
        other = es.sample_pair_batch(default_manifest, reference_pools, 64,
                                     np.random.default_rng(0))
        n = next(i for i, d in enumerate(draws(other)) if d.source.identity == "id002")
        for name in ("source", "target", "reference"):
            getattr(batch, name)[0] = getattr(other, name)[n]
        draw = draws(batch)[0]
        pair = [project_row(ckpt, encode_one(suite, s.image_ref), s.emotion)[0]
                for s in (draw.source, draw.target)]
        assert not (pair[0] - pair[1]).any()
    loss, grad = pr.difference_step_grads(ckpt, batch, suite,
                                          train_table(default_manifest, suite))
    ref_loss, ref_grad = difference_per_entry(ckpt, batch, suite)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
    assert_grads_close(grad, ref_grad)


def bank_pass_per_row(ckpt, samples, suite, upstream):
    """Oracle of ``_project_rows``: each row's own ``mlp_forward`` and
    ``mlp_backward`` on its emotion's network, sliced out of the bank, the
    parameter gradients added up per network (keyed by ``bank_index``)."""
    outs, grads = [], {}
    for sample, u in zip(samples, upstream):
        index = bank_index(ckpt, sample.emotion)
        net = network(ckpt.bank, index)
        x = encode_one(suite, sample.image_ref)
        if ckpt.mode == pr.SINGLE_CONDITIONAL:
            x = np.concatenate([x, np.eye(len(EMOTIONS))[sample.emotion]])
        out, cache = mlp_forward(net, x)
        outs.append(out)
        grads[index] = grads.get(index, 0.0) + mlp_backward(net, cache, u)
    return np.array(outs), grads


one_emotion_batch = st.tuples(st.integers(0, 6), st.integers(1, 12)).map(
    lambda c: [c[0]] * c[1])


@settings(max_examples=30)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 10_000),
       codes=st.one_of(st.lists(st.integers(0, 6), min_size=1, max_size=12),
                       one_emotion_batch))
@example(mode=pr.MULTI, seed=0, codes=[4])
@example(mode=pr.SINGLE_CONDITIONAL, seed=0, codes=[2])
@example(mode=pr.MULTI, seed=1, codes=[5] * 9)
def test_bank_pass_matches_per_row_oracle(default_manifest, default_suite, default_table,
                                          mode, seed, codes):
    rng = np.random.default_rng(seed)
    ckpt = pr._fresh_checkpoint(default_suite, es.TrainConfig(projector_mode=mode), rng)
    for p in range(len(ckpt.bank.vector)):  # padded slots then project to non-zero rows
        for layer in ckpt.bank.layers:
            layer.bias[p] = rng.uniform(-0.5, 0.5, layer.bias.shape[1:])
    train = default_manifest.in_split("train")
    positions = [rng.choice([i for i, s in enumerate(train) if int(s.emotion) == c])
                 for c in codes]
    upstream = rng.standard_normal((len(positions), default_suite.d_e))
    out, backward = pr._project_rows(ckpt, default_table.visual[positions],
                                     default_table.emotion[positions])
    grad = rng.standard_normal(ckpt.vector.shape)
    head = grad[:ckpt.guider_head.vector.size].copy()
    backward(upstream, grad)
    expected_out, expected_grads = bank_pass_per_row(ckpt, [train[i] for i in positions],
                                                     default_suite, upstream)
    np.testing.assert_allclose(out, expected_out, rtol=1e-12, atol=1e-12)
    head_part, bank_part = ckpt.split(grad)
    assert np.array_equal(head_part, head)  # the guider head's block is untouched
    for index, part in enumerate(bank_part):
        if index in expected_grads:
            np.testing.assert_allclose(part, expected_grads[index], rtol=1e-12, atol=1e-12)
        else:  # a projector with no rows gets exactly zero gradient
            assert not part.any()


def test_steps_refuse_an_empty_batch_and_another_splits_batch(default_manifest,
                                                               default_suite, default_table,
                                                               reference_pools):
    ckpt, _ = step_setup(default_suite, pr.MULTI, 1, 0, None)
    train = default_manifest.in_split("train")
    empty = np.zeros(0, dtype=int)
    with pytest.raises(es.ContractError, match="contrastive_step_grads needs a batch"):
        pr.contrastive_step_grads(ckpt,
                                  es.corpus.ContrastiveBatch(train, empty, empty, empty),
                                  default_suite, default_table)
    with pytest.raises(es.ContractError, match="difference_step_grads needs a batch"):
        pr.difference_step_grads(ckpt, es.corpus.PairBatch(train, empty, empty, empty),
                                 default_suite, default_table)
    # a batch of a larger corpus's train split does not index this table
    other = es.generate_synthetic_corpus(es.build_synthetic_world(1), 4)
    rng = np.random.default_rng(0)
    for sampler, step in ((es.sample_contrastive_batch, pr.contrastive_step_grads),
                          (es.sample_pair_batch, pr.difference_step_grads)):
        with pytest.raises(es.ContractError, match=f"the table holds {len(train)}$"):
            step(ckpt, sampler(other, reference_pools, 4, rng), default_suite,
                 default_table)


def test_steps_write_their_gradient_into_out_and_refuse_a_bad_one(default_manifest,
                                                                  default_suite,
                                                                  default_table,
                                                                  reference_pools):
    ckpt, _ = step_setup(default_suite, pr.MULTI, 1, 0, None)
    size = ckpt.vector.size
    read_only = np.empty(size)
    read_only.flags.writeable = False
    # a non-contiguous vector would get the bank's block as a reshaped copy
    bad_outs = [np.empty(size + 1), np.empty(2 * size)[::2],
                np.empty(size, dtype=np.float32), read_only]
    for sampler, step in ((es.sample_contrastive_batch, pr.contrastive_step_grads),
                          (es.sample_pair_batch, pr.difference_step_grads)):
        batch = sampler(default_manifest, reference_pools, 8, np.random.default_rng(3))
        loss, grad = step(ckpt, batch, default_suite, default_table)
        # a reused buffer: whatever it held before is overwritten
        out = np.full(size, np.nan)
        out_loss, written = step(ckpt, batch, default_suite, default_table, out=out)
        assert written is out and out_loss == loss
        assert np.array_equal(out, grad)
        for bad in bad_outs:
            with pytest.raises(es.ContractError, match="out must be"):
                step(ckpt, batch, default_suite, default_table, out=bad)


def test_frozen_table_rows_are_each_samples_encodings(default_manifest, default_suite,
                                                      default_table):
    # row n of each array belongs to train position n; only the train
    # neutrals, the batches' references, have identity features
    train = default_manifest.in_split("train")
    table = default_table
    assert table.visual.shape == (len(train), default_suite.d_e)
    assert table.identity.shape == (len(train), default_suite.d_b)
    for n, s in enumerate(train):
        assert np.array_equal(table.visual[n], encode_one(default_suite, s.image_ref))
        assert table.emotion[n] == int(s.emotion)
        if s.emotion == es.EmotionLabel.neutral:
            assert np.array_equal(table.identity[n],
                                  default_suite.backbone_identity(s.image_ref))
        else:
            assert np.isnan(table.identity[n]).all()
    for k, e in enumerate(es.EMOTIONS):
        assert np.array_equal(table.prompt_tokens[k],
                              default_suite.tokenize(es.prompt_for(e)))
    # a reference that is not a train neutral reaches the guider head as NaN
    ckpt, _ = step_setup(default_suite, pr.MULTI, 1, 0, None)
    batch = es.sample_contrastive_batch(default_manifest, es.load_reference_pools(), 4,
                                        np.random.default_rng(0))
    batch.reference[0] = next(n for n, s in enumerate(train)
                              if s.emotion != es.EmotionLabel.neutral)
    with pytest.raises(es.ContractError, match="non-finite"):
        pr.contrastive_step_grads(ckpt, batch, default_suite, table)


# ---------------------------------------------------------------------------
# per-entry generator demo reference
# ---------------------------------------------------------------------------

def generate_per_entry(gen, visual, target):
    return mlp_forward(gen, np.concatenate([visual, np.eye(len(EMOTIONS))[target]]))


def l2_grad_per_entry(reg, source, generated, target, with_grad):
    ckpt, row = reg.ckpt, reg.row[source.id]
    visual_gen, gen_cache, net = project_row(ckpt, generated, target)
    visual_diff = reg.projected_source[row] - visual_gen
    prompts = reg.prompts[reg.reference[row]]
    text_diff = prompts[int(source.emotion)] - prompts[int(target)]
    degenerate = bool(np.linalg.norm(visual_diff) < EPS_NORM
                      or np.linalg.norm(text_diff) < EPS_NORM)
    sim, d_sim, _ = sim_and_grads(visual_diff, text_diff)
    loss = 1.0 if degenerate else 1.0 - sim
    if not with_grad:
        return loss, np.zeros_like(generated)
    # loss = 1 - sim and visual_diff = projected_source - visual_gen, so
    # d loss / d visual_gen = d sim / d visual_diff
    input_grad = input_grad_row(net, gen_cache, d_sim)
    if ckpt.mode != pr.MULTI:
        input_grad = input_grad[:ckpt.d_e]  # drop the one-hot block
    return loss, input_grad


def train_per_entry(manifest, reg, world, lam, config, difference_path):
    rng = np.random.Generator(np.random.PCG64(config.seed))
    gen = init_mlp([reg.ckpt.d_e + len(EMOTIONS), *config.hidden, reg.ckpt.d_e], rng)
    train = manifest.in_split("train")
    base_hist, l2_hist = [], []
    for _ in range(config.steps):
        grad = np.zeros_like(gen.vector)
        base_sum = l2_sum = 0.0
        for _ in range(config.batch_size):
            source = train[int(rng.integers(len(train)))]
            others = [e for e in EMOTIONS if e != source.emotion]
            target = others[int(rng.integers(len(others)))]
            row = reg.row[source.id]
            out, cache = generate_per_entry(gen, reg.visual[row], target)
            diff = out - world.clean_visual(source.identity, target)
            base_val, base_grad = float(np.mean(diff * diff)), 2.0 * diff / diff.shape[0]
            if difference_path:
                l2_val, l2_grad = l2_grad_per_entry(reg, source, out, target, lam != 0)
            else:
                l2_val, l2_grad = 0.0, np.zeros_like(out)
            upstream = base_grad + lam * l2_grad
            grad += mlp_backward(gen, cache, upstream / config.batch_size)
            base_sum += base_val
            l2_sum += l2_val
        sgd_step(gen.vector, grad, config.lr)
        base_hist.append(base_sum / config.batch_size)
        l2_hist.append(l2_sum / config.batch_size)
    tail = max(1, config.steps // 10)
    return gen, float(np.mean(base_hist[-tail:])), float(np.mean(l2_hist[-tail:]))


def accuracy_per_entry(gen, manifest, reg):
    hits = total = 0
    for source in sorted(manifest.in_split("val"), key=lambda s: s.id):
        row = reg.row[source.id]
        prompts = [reg.prompts[reg.reference[row], int(k)] for k in EMOTIONS]
        for target in EMOTIONS:
            if target == source.emotion:
                continue
            out, _ = generate_per_entry(gen, reg.visual[row], target)
            sims = [cosine_with_flag(prompts[int(k)],
                                     project_row(reg.ckpt, out, k)[0])[0]
                    for k in EMOTIONS]
            hits += int(np.argmax(sims)) == int(target)
            total += 1
    return hits / total


# ---------------------------------------------------------------------------
# batched generator demo == per-entry reference
# ---------------------------------------------------------------------------

TINY = es.DemoConfig(seed=3, steps=15, batch_size=4, lr=0.05, hidden=(16,))
DEGENERATE_IDENTITY = "id001"


def train_demo(manifest, reg, world, lams, config):
    """The demo's fused training loop over ``lams``, against ``world``'s clean
    targets: the run-axis generator and each run's base and l2 losses."""
    return sv._train_generators(manifest, reg, sv._clean_targets(manifest, world), lams,
                                config, sv.squared_error_loss)


@pytest.fixture(scope="module", params=MODES)
def demo_regularizer(request, default_manifest, reference_pools, default_suite):
    ckpt, _ = es.pretrain_alignment(
        default_manifest, reference_pools, default_suite,
        es.TrainConfig(projector_mode=request.param, epochs=2, steps_per_epoch=10))
    return es.DifferenceRegularizer(ckpt, default_suite, default_manifest)


def zero_text_diffs(reg, identity):
    """A copy of ``reg`` in which every prompt of ``identity``'s references is
    its neutral prompt, so each of its (source, target) rows has a zero-norm
    text difference."""
    degenerate = copy.copy(reg)
    degenerate.prompts = reg.prompts.copy()
    for i, ref in enumerate(reg.references):
        if ref.startswith(identity + "_"):
            degenerate.prompts[i] = reg.prompts[i, int(es.EmotionLabel.neutral)]
    return degenerate


@pytest.mark.parametrize("mode, tokens", [(pr.MULTI, 1), (pr.SINGLE_CONDITIONAL, 1),
                                          (pr.MULTI, 2)])
def test_demo_tables_equal_the_per_sample_path(default_manifest, reference_pools,
                                               default_suite, monkeypatch, mode, tokens):
    # the per-entry demo references read the regularizer's tables, so a wrong
    # table would pass them; here each table entry is rebuilt per sample
    ckpt, _ = es.pretrain_alignment(
        default_manifest, reference_pools, default_suite,
        es.TrainConfig(projector_mode=mode, guider_token_count=tokens, epochs=1,
                       steps_per_epoch=3))
    project, build = pr.project_visual, pr.build_personalized_prompt
    stacks, prompts = [], []

    def counted_projection(ckpt, visual, codes):
        stacks.append(np.shape(visual))
        return project(ckpt, visual, codes)

    def counted(*args):
        prompts.append(args[1:3])
        return build(*args)

    monkeypatch.setattr(pr, "project_visual", counted_projection)
    monkeypatch.setattr(pr, "build_personalized_prompt", counted)
    reg = es.DifferenceRegularizer(ckpt, default_suite, default_manifest)
    monkeypatch.undo()
    # one project_visual over the stack of every source sample
    assert stacks == [(len(default_manifest.samples), default_suite.d_e)]
    # one prompt per (reference, emotion), none per sample
    assert len(prompts) == len(set(prompts)) == len(reg.references) * len(EMOTIONS)
    assert reg.prompts.shape == (len(reg.references), len(EMOTIONS), default_suite.d_e)
    for array in (reg.emotion, reg.reference, reg.visual, reg.projected_source,
                  reg.prompts):
        assert not array.flags.writeable
    for i, sample in enumerate(default_manifest.samples):
        visual = encode_one(default_suite, sample.image_ref)
        assert reg.row[sample.id] == i and reg.emotion[i] == int(sample.emotion)
        assert np.array_equal(reg.visual[i], visual)
        assert np.array_equal(reg.projected_source[i],
                              project_row(ckpt, visual, sample.emotion)[0])
        assert reg.references[reg.reference[i]] == sample.neutral_ref
    for r, ref in enumerate(reg.references):
        reference = default_manifest.by_id(ref)
        for k in EMOTIONS:
            expected = default_suite.text_encode(
                es.build_personalized_prompt(ckpt, reference, k, default_suite)[None])[0]
            assert np.array_equal(reg.prompts[r, int(k)], expected)


@pytest.mark.parametrize("runs", [(), (2,)], ids=["no_run_axis", "two_runs"])
def test_judge_projects_each_output_through_all_seven_projectors(default_manifest,
                                                                 demo_regularizer,
                                                                 monkeypatch, runs):
    # one generator forward for every run, then per run one project_visual
    # pass: output n through projector c is row 7n + c of a repeat/tile
    # stack, bit-equal to its 1-D projection, a zero output row included;
    # one nearest_prompt per run reads them, and each run's accuracy is the
    # per-row oracle's over its own outputs
    reg, k = demo_regularizer, len(EMOTIONS)
    generated, calls, reads = [], [], []

    # stands in for the generator: random rows, each run's first zero
    def outputs(params, visual, targets):
        out = np.random.default_rng(0).standard_normal((*runs, *visual.shape))
        out[..., 0, :] = 0.0
        generated.append(out)
        return out, None

    project, nearest = sv.project_visual, pr.DifferenceRegularizer.nearest_prompt

    def recorded(*args):
        result = project(*args)
        calls.append((*args[1:], result[0]))
        return result

    def read(*args):
        reads.append(args)
        return nearest(*args)

    monkeypatch.setattr(sv, "_generate", outputs)
    monkeypatch.setattr(sv, "project_visual", recorded)
    monkeypatch.setattr(pr.DifferenceRegularizer, "nearest_prompt", read)
    accuracies = sv._eval_emotion_accuracy(None, default_manifest, reg)
    monkeypatch.undo()
    [out] = generated
    val = sorted(default_manifest.in_split("val"), key=lambda s: s.id)
    pairs = [(s, t) for s in val for t in EMOTIONS if t != s.emotion]
    outputs = out.reshape(-1, len(pairs), reg.ckpt.d_e)
    assert len(outputs) == int(np.prod(runs)) == len(calls) == len(reads)
    hits = []
    for run, (stack, codes, projected) in zip(outputs, calls, strict=True):
        assert np.array_equal(stack, np.repeat(run, k, axis=0))
        assert np.array_equal(codes, np.tile(np.arange(k), len(pairs)))
        hits.append(0)
        for n, ((source, target), row) in enumerate(zip(pairs, run)):
            prompts = reg.prompts[reg.reference[reg.row[source.id]]]
            sims = []
            for c in range(k):
                expected = project_row(reg.ckpt, row, c)[0]
                assert np.array_equal(projected[k * n + c], expected)
                sims.append(cosine_with_flag(prompts[c], expected)[0])
            hits[-1] += int(np.argmax(sims)) == int(target)
    assert accuracies == [h / len(pairs) for h in hits]


@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("lam, difference_path", [(0.0, True), (0.4, True)])
def test_demo_run_matches_per_entry_reference(default_manifest, default_world,
                                              demo_regularizer, lam, difference_path,
                                              degenerate):
    reg = (zero_text_diffs(demo_regularizer, DEGENERATE_IDENTITY) if degenerate
           else demo_regularizer)
    gen, [base], [l2] = train_demo(default_manifest, reg, default_world, [lam], TINY)
    ref_gen, ref_base, ref_l2 = train_per_entry(default_manifest, reg, default_world, lam,
                                                TINY, difference_path)
    assert base == pytest.approx(ref_base, rel=1e-12)
    assert l2 == pytest.approx(ref_l2, rel=1e-12)
    lone = network(gen, 0)  # the one run of the block
    for mine, theirs in zip(lone.layers, ref_gen.layers):
        np.testing.assert_allclose(mine.weights, theirs.weights, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(mine.bias, theirs.bias, rtol=1e-12, atol=1e-15)
    assert (sv._eval_emotion_accuracy(gen, default_manifest, reg)
            == [accuracy_per_entry(lone, default_manifest, reg)])


@pytest.mark.parametrize("steps", [1, 7, 25])
def test_lambda_zero_tail_l2_matches_per_entry_reference(default_manifest, default_world,
                                                         demo_regularizer, steps):
    # the reference computes L2 on every step; the demo's lambda 0 run only
    # on the last max(1, steps // 10), the steps its row averages
    config = dataclasses.replace(TINY, steps=steps)
    gen, [base], [l2] = train_demo(default_manifest, demo_regularizer, default_world,
                                   [0.0], config)
    ref_gen, ref_base, ref_l2 = train_per_entry(default_manifest, demo_regularizer,
                                                default_world, 0.0, config, True)
    assert base == pytest.approx(ref_base, rel=1e-12)
    assert l2 == pytest.approx(ref_l2, rel=1e-12)
    np.testing.assert_allclose(gen.vector, [ref_gen.vector],
                               rtol=1e-12, atol=1e-15)


def test_l2_grad_of_a_batch_with_a_zero_norm_row(default_manifest, demo_regularizer):
    reg = zero_text_diffs(demo_regularizer, DEGENERATE_IDENTITY)
    train = default_manifest.in_split("train")
    sources = [s for s in train if s.identity == DEGENERATE_IDENTITY][:1] + train[-5:]
    rows = np.array([reg.row[s.id] for s in sources])
    generated = np.random.default_rng(0).standard_normal((len(sources), reg.ckpt.d_e))
    mixed = np.array([(int(s.emotion) + 1) % len(EMOTIONS) for s in sources])
    assert 1 in np.bincount(mixed)  # one target emotion holds a single row
    happy = int(es.EmotionLabel.happy)
    assert all(s.emotion != happy for s in sources)
    for targets in (mixed, np.full(len(sources), happy)):
        losses, grad = reg.loss_and_grad(rows, generated, targets)
        for i, (source, target) in enumerate(zip(sources, targets)):
            ref_loss, ref_grad = l2_grad_per_entry(reg, source, generated[i],
                                                   EMOTIONS[target], True)
            assert losses[i] == pytest.approx(ref_loss, rel=1e-12)
            np.testing.assert_allclose(grad[i], ref_grad, rtol=1e-12, atol=1e-15)
            # a row's result does not depend on the rows beside it
            alone = reg.loss_and_grad(rows[i:i + 1], generated[i:i + 1],
                                      targets[i:i + 1])
            assert np.array_equal(alone[0], losses[i:i + 1])
            assert np.array_equal(alone[1], grad[i:i + 1])
        assert losses[0] == 1.0 and not grad[0].any()
        assert grad[1:].any(axis=1).all()


@pytest.mark.parametrize("mode", MODES)
def test_frozen_bank_is_read_only_views_of_the_checkpoint(default_manifest, default_suite,
                                                          mode):
    config = es.TrainConfig(projector_mode=mode)
    ckpt = pr._fresh_checkpoint(default_suite, config, np.random.default_rng(5))
    assert ckpt.frozen_bank is None
    with pytest.raises(es.ContractError, match="frozen"):
        es.DifferenceRegularizer(ckpt, default_suite, default_manifest)
    reg = es.DifferenceRegularizer(ckpt.freeze(), default_suite, default_manifest)
    assert reg.ckpt.frozen_bank is ckpt.frozen_bank  # built once, by freeze
    nets = [network(ckpt.bank, p) for p in range(len(ckpt.bank.vector))]
    assert len(ckpt.frozen_bank) == len(nets[0].layers)
    for i, layer in enumerate(ckpt.frozen_bank):
        # (P, 1, out, in) and (P, 1, out): a singleton row axis after the bank's P
        assert np.array_equal(layer.weights[:, 0], [net.layers[i].weights for net in nets])
        assert np.array_equal(layer.bias[:, 0], [net.layers[i].bias for net in nets])
        assert layer.weights.shape[1] == layer.bias.shape[1] == 1
        assert layer.activation == nets[0].layers[i].activation
        for array in (layer.weights, layer.bias):
            assert not array.flags.writeable
            assert np.shares_memory(array, ckpt.vector)
            with pytest.raises(ValueError):
                array[0] = 0.0


def chain_blocks(dims, start):
    """Per layer of the chain ``dims`` laid out from ``start`` of a vector:
    the weights' slice and shape, then the bias's slice."""
    blocks = []
    for cols, rows in zip(dims, dims[1:]):
        end = start + rows * cols
        blocks.append((slice(start, end), (rows, cols), slice(end, end + rows)))
        start = end + rows
    return blocks


@pytest.mark.parametrize("mode", MODES)
def test_networks_are_views_of_the_vector_and_the_bank_pass_writes_its_block(
        default_suite, default_table, mode):
    # the guider head's layers, then network p's of the (P, out, in) / (P, out)
    # bank, read the checkpoint vector where the file layout puts them: the
    # head's block, then P = 7 or 1 equal network blocks
    ckpt = pr._fresh_checkpoint(default_suite, es.TrainConfig(projector_mode=mode),
                                np.random.default_rng(6))
    head = pr.guider_head_dims(ckpt.d_b, ckpt.d_tok, ckpt.token_count)
    projector = pr.projector_dims(ckpt.d_e, mode)
    n_head, size = es.numerics.chain_size(head), es.numerics.chain_size(projector)
    count = {pr.MULTI: 7, pr.SINGLE_CONDITIONAL: 1}[mode]
    assert ckpt.vector.shape == (n_head + count * size,)
    assert ckpt.bank.vector.shape == (count, size)
    views = [(ckpt.guider_head.layers, None, chain_blocks(head, 0))] + [
        (ckpt.bank.layers, p, chain_blocks(projector, n_head + p * size))
        for p in range(count)]
    for layers, p, blocks in views:
        assert [l.activation for l in layers] == ["relu"] * (len(layers) - 1) + ["identity"]
        for layer, (weights, shape, bias) in zip(layers, blocks, strict=True):
            w, b = (layer.weights, layer.bias) if p is None else (layer.weights[p],
                                                                  layer.bias[p])
            assert w.shape == shape
            assert np.array_equal(w, ckpt.vector[weights].reshape(shape))
            assert np.array_equal(b, ckpt.vector[bias])
            assert np.shares_memory(w, ckpt.vector[weights])
            assert np.shares_memory(b, ckpt.vector[bias])
    # read-only once frozen, every view and the vector
    ckpt.freeze()
    for layer in ckpt.guider_head.layers + ckpt.bank.layers:
        for array in (layer.weights, layer.bias):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0
    # the bank pass writes exactly the bank's block of a gradient
    _, backward = pr._project_rows(ckpt, default_table.visual[:12], default_table.emotion[:12])
    grad = np.full(ckpt.vector.shape, np.nan)
    backward(np.ones((12, ckpt.d_e)), grad)
    assert np.isnan(grad[:n_head]).all() and np.isfinite(grad[n_head:]).all()


@pytest.mark.parametrize("degenerate", [False, True])
def test_fused_lambda_runs_equal_separate_runs(default_manifest, default_world,
                                               demo_regularizer, degenerate):
    # a grid trains as one stacked block; each run must be its lone run, bit
    # for bit, whatever runs stand beside it, in whichever order, at any batch
    reg = (zero_text_diffs(demo_regularizer, DEGENERATE_IDENTITY) if degenerate
           else demo_regularizer)
    truth = sv._clean_targets(default_manifest, default_world)
    for batch_size in (1, 4, 128):
        config = dataclasses.replace(TINY, batch_size=batch_size)
        lone = {lam: train_demo(default_manifest, reg, default_world, [lam], config)
                for lam in (0.0, 0.4, 1.0)}
        lone_rows = {lam: demo_rows(default_manifest, reg, truth, [lam], config)[0]
                     for lam in lone}
        for grid in ([0.4], [0.0, 0.4], [0.0, 0.4, 1.0], [1.0, 0.0, 1.0]):
            gen, bases, l2s = train_demo(default_manifest, reg, default_world, grid, config)
            assert gen.vector.shape == (len(grid), lone[0.0][0].vector.size)
            for r, lam in enumerate(grid):
                ref_gen, [ref_base], [ref_l2] = lone[lam]
                assert np.array_equal(gen.vector[r], ref_gen.vector[0]), \
                    (grid, batch_size, lam)
                assert (bases[r], l2s[r]) == (ref_base, ref_l2), (grid, batch_size, lam)
            rows = demo_rows(default_manifest, reg, truth, grid, config)
            assert rows == [lone_rows[lam] for lam in grid], (grid, batch_size)


# ---------------------------------------------------------------------------
# row-stacked numerics == separate per-row calls
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 9),
       dims=st.lists(st.integers(1, 7), min_size=2, max_size=4))
def test_stacked_mlp_passes_equal_per_row_calls(seed, rows, dims):
    rng = np.random.default_rng(seed)
    net = init_mlp(dims, rng)
    x = rng.standard_normal((rows, dims[0]))
    u = rng.standard_normal((rows, dims[-1]))
    out, cache = mlp_forward(net, x)
    grad = mlp_backward(net, cache, u)
    assert out.shape == (rows, dims[-1]) and grad.shape == net.vector.shape
    summed = np.zeros_like(net.vector)
    for i in range(rows):
        out_i, cache_i = mlp_forward(net, x[i])
        np.testing.assert_allclose(out[i], out_i, rtol=1e-12, atol=1e-12)
        summed += mlp_backward(net, cache_i, u[i])
    np.testing.assert_allclose(grad, summed, rtol=1e-12, atol=1e-12)


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000), runs=st.integers(1, 4), rows=st.integers(1, 9),
       dims=st.lists(st.integers(1, 7), min_size=2, max_size=4), stacked=st.booleans())
def test_run_axis_mlp_passes_equal_each_networks_own(seed, runs, rows, dims, stacked):
    # R networks in one (R, size) block, all fed the same input: each
    # network's output and parameter gradient are its own passes', bit for bit
    rng = np.random.default_rng(seed)
    nets = [init_mlp(dims, rng) for _ in range(runs)]
    block = es.MlpParams(dims, np.tile(nets[0].vector, (runs, 1)))
    assert all(np.array_equal(row, nets[0].vector) for row in block.vector)
    block.vector[...] = [net.vector for net in nets]
    x = rng.standard_normal((rows, dims[0]) if stacked else dims[0])
    u = rng.standard_normal((runs, *np.shape(x)[:-1], dims[-1]))
    out, cache = mlp_forward(block, x)
    grad = mlp_backward(block, cache, u)
    assert out.shape == u.shape and grad.shape == block.vector.shape
    for r, net in enumerate(nets):
        for layer, own in zip(block.layers, net.layers):
            assert np.array_equal(layer.weights[r], own.weights)
        out_r, cache_r = mlp_forward(net, x)
        assert np.array_equal(out[r], out_r)
        assert np.array_equal(grad[r], mlp_backward(net, cache_r, u[r]))
    with pytest.raises(es.ContractError, match="does not match the forward batch"):
        mlp_backward(block, cache, u[0])


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 9), dim=st.integers(1, 8),
       zero_row=st.booleans())
def test_stacked_cosine_grads_equal_per_row_calls(seed, rows, dim, zero_row):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, dim))
    b = rng.standard_normal((rows, dim))
    if zero_row:
        a[rows // 2] = 0.0
    da, db, sims, degenerate = cosine_grads(a, b)
    assert sims.shape == degenerate.shape == (rows,)
    for i in range(rows):
        # row i alone, as a one-row stack
        da_i, db_i, sim_one, degenerate_one = cosine_grads(a[i:i + 1], b[i:i + 1])
        sim_i, degenerate_i = cosine_with_flag(a[i], b[i])
        np.testing.assert_allclose(da[i], da_i[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db[i], db_i[0], rtol=1e-12, atol=1e-12)
        assert sim_one.shape == degenerate_one.shape == (1,)
        assert sims[i] == pytest.approx(sim_i, rel=1e-12, abs=1e-12)
        assert sim_one[0] == pytest.approx(sim_i, rel=1e-12, abs=1e-12)
        assert degenerate[i] == degenerate_i == degenerate_one[0]
    assert degenerate[rows // 2] == zero_row


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 9), dim=st.integers(1, 8),
       zero_row=st.booleans(), lam=st.sampled_from([0.0, 0.4, 2.5]))
def test_stacked_losses_equal_per_row_calls(seed, rows, dim, zero_row, lam):
    rng = np.random.default_rng(seed)
    generated, target, l2_grad, text_diff = rng.standard_normal((4, rows, dim))
    visual_diff = generated - target
    if zero_row:
        visual_diff[rows // 2] = 0.0
    l2 = rng.uniform(0, 2, rows)
    base, base_grad = sv.squared_error_loss(generated, target)
    total, grad = sv.total_loss(base, base_grad, l2, l2_grad, es.LambdaConfig(lam))
    dp = DifferencePair(visual_diff, text_diff)
    losses, d_vis, d_txt = difference_loss_with_grads(dp)
    # L1 of (t_pos, t_neg, i_vis) = (text_diff, target, visual_diff)
    l1, *l1_grads = es.contrastive_loss_with_grads(text_diff, target, visual_diff)
    assert base.shape == total.shape == losses.shape == l1.shape == (rows,)
    for i in range(rows):
        one = slice(i, i + 1)  # row i alone, as a one-row stack
        base_i, base_grad_i = sv.squared_error_loss(generated[one], target[one])
        total_i, grad_i = sv.total_loss(base_i, base_grad_i, l2[one], l2_grad[one],
                                        es.LambdaConfig(lam))
        loss_i, d_vis_i, d_txt_i = difference_loss_with_grads(
            DifferencePair(visual_diff[one], text_diff[one]))
        l1_i, *l1_grads_i = es.contrastive_loss_with_grads(text_diff[one], target[one],
                                                           visual_diff[one])
        assert base_i.shape == total_i.shape == loss_i.shape == l1_i.shape == (1,)
        assert (base[i], total[i]) == pytest.approx((base_i[0], total_i[0]), rel=1e-12)
        assert losses[i] == pytest.approx(loss_i[0], rel=1e-12)
        assert l1[i] == pytest.approx(l1_i[0], rel=1e-12)
        for mine, theirs in ((base_grad[i], base_grad_i), (grad[i], grad_i),
                             (d_vis[i], d_vis_i), (d_txt[i], d_txt_i),
                             *((g[i], g_i) for g, g_i in zip(l1_grads, l1_grads_i))):
            np.testing.assert_allclose(mine, theirs[0], rtol=1e-12, atol=1e-15)
    if zero_row:
        assert losses[rows // 2] == l1[rows // 2] == 1.0
        assert not d_vis[rows // 2].any() and not d_txt[rows // 2].any()
        assert not any(g[rows // 2].any() for g in l1_grads)


def test_stacked_losses_need_matching_shapes(rng):
    a, b = rng.standard_normal((2, 3, 4))
    with pytest.raises(es.ContractError):
        sv.squared_error_loss(a, b[:2])
    with pytest.raises(es.ContractError):
        sv.squared_error_loss(a[0], b[:1])
    base, grad = sv.squared_error_loss(a, b)
    with pytest.raises(es.ContractError):
        sv.total_loss(base[:2], grad, base, grad, es.LambdaConfig(0.4))
    with pytest.raises(es.ContractError):
        sv.total_loss(base, grad, np.append(base[:2], np.inf), grad, es.LambdaConfig(0.4))


def test_the_losses_refuse_a_1d_row(rng):
    # one row is the one-row stack x[None]; a 1-D row no longer gives a float
    a, b, c = rng.standard_normal((3, 4))
    for call in (lambda: sv.squared_error_loss(a, b),
                 lambda: sv.total_loss(0.5, a, 1.0, b, es.LambdaConfig(0.4)),
                 lambda: difference_loss_with_grads(DifferencePair(a, b)),
                 lambda: es.contrastive_loss_with_grads(a, b, c)):
        with pytest.raises(es.ContractError, match="2-D"):
            call()


def test_stacked_backward_needs_a_matching_upstream(rng):
    net = init_mlp([3, 4, 2], rng)
    _, cache = mlp_forward(net, rng.standard_normal((5, 3)))
    for bad in (rng.standard_normal(2), rng.standard_normal((4, 2))):
        with pytest.raises(es.ContractError):
            mlp_backward(net, cache, bad)


# ---------------------------------------------------------------------------
# memoized word tokens
# ---------------------------------------------------------------------------

def test_memoized_word_tokens_are_read_only_fresh_draws():
    world = es.build_synthetic_world(1)
    for word in ("photo", "zebra"):
        token = world.word_token(word)
        assert world.word_token(word) is token
        assert not token.flags.writeable
        with pytest.raises(ValueError):
            token[0] = 1.0
        fresh = _hash_generator(world.seed, "word", word).standard_normal(world.config.d_tok)
        fresh = world.config.word_token_scale * fresh / np.linalg.norm(fresh)
        assert np.array_equal(token, fresh)
