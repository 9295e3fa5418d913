import copy
import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

import emosup as es
import emosup.cli as cli
import emosup.prompts as pr
from emosup.corpus import TRAIN, VAL
from emosup.encoders import position_weight
from emosup.errors import ContractError, canonical_json, load_json_object
from conftest import network_views, passthrough_layers, project_row


def fresh_checkpoint(suite, seed=0, **kwargs):
    cfg = es.TrainConfig(**kwargs)
    return pr._fresh_checkpoint(suite, cfg, np.random.Generator(np.random.PCG64(seed)))


def zero_head_checkpoint(suite):
    ckpt = fresh_checkpoint(suite)
    for layer in ckpt.guider_head.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    return ckpt


# ---------------------------------------------------------------------------
# prompt construction
# ---------------------------------------------------------------------------

def test_prompt_length_is_word_count_plus_one(default_manifest, default_suite):
    ckpt = fresh_checkpoint(default_suite)
    sample = default_manifest.samples[0]
    reference = default_manifest.by_id(sample.neutral_ref)
    seq = es.build_personalized_prompt(ckpt, reference, es.EmotionLabel.happy,
                                       default_suite)
    assert seq.shape == (7, default_suite.d_tok)


def test_zero_guider_head_gives_zero_token_and_plain_tail(default_manifest,
                                                          default_suite):
    ckpt = zero_head_checkpoint(default_suite)
    reference = default_manifest.by_id(default_manifest.samples[0].neutral_ref)
    seq = es.build_personalized_prompt(ckpt, reference, es.EmotionLabel.sad,
                                       default_suite)
    assert np.array_equal(seq[0], np.zeros(default_suite.d_tok))
    plain = default_suite.tokenize(es.prompt_for(es.EmotionLabel.sad))
    assert np.array_equal(seq[1:], plain)


def test_different_identities_differ_only_in_first_token(default_manifest,
                                                         default_suite):
    ckpt = fresh_checkpoint(default_suite)
    refs = {}
    for s in default_manifest.samples:
        if s.emotion == es.EmotionLabel.neutral and s.identity not in refs:
            refs[s.identity] = s
    ref_a, ref_b = list(refs.values())[:2]
    seq_a = es.build_personalized_prompt(ckpt, ref_a, es.EmotionLabel.fear,
                                         default_suite)
    seq_b = es.build_personalized_prompt(ckpt, ref_b, es.EmotionLabel.fear,
                                         default_suite)
    assert not np.array_equal(seq_a[0], seq_b[0])
    assert np.array_equal(seq_a[1:], seq_b[1:])


def test_emotional_reference_rejected(default_manifest, default_suite):
    ckpt = fresh_checkpoint(default_suite)
    emotional = next(s for s in default_manifest.samples
                     if s.emotion != es.EmotionLabel.neutral)
    with pytest.raises(ContractError):
        es.build_personalized_prompt(ckpt, emotional, es.EmotionLabel.happy,
                                     default_suite)


# ---------------------------------------------------------------------------
# personalized text embedding
# ---------------------------------------------------------------------------

def test_personalized_embedding_linearity(default_manifest, default_world,
                                          default_suite):
    # under the linear synthetic encoder, the personalized embedding equals
    # the plain-prompt embedding plus the weighted image of the identity token
    ckpt = fresh_checkpoint(default_suite)
    reference = default_manifest.by_id(default_manifest.samples[0].neutral_ref)
    seq = es.build_personalized_prompt(ckpt, reference, es.EmotionLabel.angry,
                                       default_suite)
    lhs = default_suite.text_encode(seq[None])[0]
    plain = default_suite.tokenize(es.prompt_for(es.EmotionLabel.angry))
    rhs = (default_suite.text_encode(plain[None])[0]
           + position_weight(0, len(seq)) * (default_world.token_map @ seq[0]))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_personalized_embedding_deterministic(default_manifest, default_suite):
    ckpt = fresh_checkpoint(default_suite)
    reference = default_manifest.by_id(default_manifest.samples[0].neutral_ref)
    seq = es.build_personalized_prompt(ckpt, reference, es.EmotionLabel.happy,
                                       default_suite)
    assert np.array_equal(default_suite.text_encode(seq[None]),
                          default_suite.text_encode(seq[None]))


# ---------------------------------------------------------------------------
# emotion visual embedding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("half", [0, 1])
def test_identity_projector_passes_nonnegative_through(default_suite, half):
    # identity weights through the d -> d -> d/2 -> d -> d chain, projector k
    # scaling its last layer by k + 1: a nonnegative row keeps one half of
    # its entries, times k + 1, and the rest read 0; the two halves together
    # check every entry
    d = default_suite.d_e
    ckpt = fresh_checkpoint(default_suite)
    weights, carried = passthrough_layers(d, half)
    for layer, w in zip(ckpt.bank.layers, weights):
        layer.weights[...], layer.bias[...] = w, 0.0
    ckpt.bank.layers[-1].weights[...] *= np.arange(1, 8)[:, None, None]
    ckpt.freeze()
    # one nonnegative row through each of the seven projectors
    x = np.tile(np.abs(np.random.default_rng(0).standard_normal(d)), (len(es.EMOTIONS), 1))
    out, _ = pr.project_visual(ckpt, x, np.arange(len(es.EMOTIONS)))
    assert np.array_equal(out, np.where(carried, x, 0.0) * np.arange(1, 8)[:, None])


def test_multi_mode_uses_disjoint_parameters(default_manifest, default_suite,
                                             reference_pools, default_table):
    # a batch holding only emotion k leaves all other projectors at zero grads
    ckpt = fresh_checkpoint(default_suite)
    train = default_manifest.in_split(TRAIN)
    anchor = next(n for n, s in enumerate(train) if s.emotion == es.EmotionLabel.happy)
    reference = next(n for n, s in enumerate(train) if s.emotion == es.EmotionLabel.neutral
                     and s.identity == train[anchor].identity)
    batch = es.corpus.ContrastiveBatch(train, np.full(4, anchor),
                                       np.full(4, int(es.EmotionLabel.sad)),
                                       np.full(4, reference))
    _, grad = pr.contrastive_step_grads(ckpt, batch, default_suite, default_table)
    grads = network_views(ckpt, grad)
    for idx, emotion in enumerate(es.EMOTIONS):
        g = grads[1 + idx]
        magnitude = max(np.max(np.abs(w)) for w, _ in g)
        if emotion == es.EmotionLabel.happy:
            assert magnitude > 0
        else:
            assert magnitude == 0.0


def test_project_visual_refuses_an_unfrozen_checkpoint(default_suite):
    ckpt = fresh_checkpoint(default_suite)
    x, codes = np.zeros((1, default_suite.d_e)), np.array([0])
    with pytest.raises(ContractError, match="must be frozen"):
        pr.project_visual(ckpt, x, codes)
    assert pr.project_visual(ckpt.freeze(), x, codes)[0].shape == x.shape


def test_single_conditional_mode_shapes(default_manifest, default_suite):
    ckpt = fresh_checkpoint(default_suite, projector_mode="single_conditional").freeze()
    sample = default_manifest.samples[0]
    out, _ = pr.project_visual(ckpt, default_suite.visual_encode((sample.image_ref,)),
                               np.array([int(sample.emotion)]))
    assert out.shape == (1, default_suite.d_e)
    assert ckpt.bank.vector.shape[0] == 1  # one shared network
    assert ckpt.bank.in_dim == default_suite.d_e + 7


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------

def contrastive_loss(t_pos, t_neg, i_vis) -> float:
    """L1 of one entry, as the one-row stacks the loss takes."""
    return es.contrastive_loss_with_grads(t_pos[None], t_neg[None], i_vis[None])[0][0]


def test_contrastive_loss_global_minimum():
    v = np.array([1.0, 2.0, -1.0])
    assert contrastive_loss(v, -v, v) == pytest.approx(-1.0)


def test_contrastive_loss_orthogonal_negative():
    v, orthogonal = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert contrastive_loss(v, orthogonal, v) == pytest.approx(0.0)


def test_contrastive_loss_equal_everything():
    v = np.array([0.3, -0.7, 2.0])
    assert contrastive_loss(v, v, v) == pytest.approx(1.0)


def test_contrastive_loss_bounds_and_degenerates(rng):
    zero = np.zeros(5)
    for _ in range(500):
        t_pos = rng.standard_normal(5) * rng.choice([0.0, 1.0])
        t_neg = rng.standard_normal(5)
        i_vis = rng.standard_normal(5)
        for combo in [(t_pos, t_neg, i_vis), (zero, t_neg, i_vis),
                      (t_pos, zero, zero)]:
            val = contrastive_loss(*combo)
            assert -1.0 - 1e-12 <= val <= 3.0 + 1e-12


# ---------------------------------------------------------------------------
# gradients through the full loss path
# ---------------------------------------------------------------------------

def loss_on_batch(ckpt, batch, suite, table):
    return pr.contrastive_step_grads(ckpt, batch, suite, table)[0]


def test_full_path_gradients_match_finite_differences(default_manifest,
                                                      default_suite,
                                                      reference_pools, default_table):
    ckpt = fresh_checkpoint(default_suite, seed=5)
    rng = np.random.default_rng(5)
    batch = es.sample_contrastive_batch(default_manifest, reference_pools, 3, rng)
    _, grad = pr.contrastive_step_grads(ckpt, batch, default_suite, default_table)
    grads = network_views(ckpt, grad)

    h = 1e-5
    params = network_views(ckpt, ckpt.vector)  # per network, views of the parameters
    rng_pick = np.random.default_rng(0)
    for p_idx, (p, g) in enumerate(zip(params, grads)):
        for l_idx, (weights, _) in enumerate(p):
            flat = weights.reshape(-1)
            for flat_idx in rng_pick.choice(flat.size, size=min(6, flat.size),
                                            replace=False):
                idx = np.unravel_index(flat_idx, weights.shape)
                orig = weights[idx]
                weights[idx] = orig + h
                up = loss_on_batch(ckpt, batch, default_suite, default_table)
                weights[idx] = orig - h
                down = loss_on_batch(ckpt, batch, default_suite, default_table)
                weights[idx] = orig
                fd = (up - down) / (2 * h)
                analytic = g[l_idx][0][idx]
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-7), \
                    f"param {p_idx} layer {l_idx} idx {idx}"


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_learning_rate_schedule():
    cfg = es.TrainConfig()
    expected = [0.1, 0.1, 0.01, 0.01, 0.001, 0.001, 0.0001, 0.0001, 0.0001, 0.0001]
    assert [cfg.learning_rate_at(e) for e in range(10)] == pytest.approx(expected)


def test_pretrain_deterministic(default_manifest, default_suite, reference_pools):
    cfg = es.TrainConfig(seed=3, epochs=2, steps_per_epoch=4, batch_size=8)
    ck1, curve1 = es.pretrain_alignment(default_manifest, reference_pools,
                                        default_suite, cfg)
    ck2, curve2 = es.pretrain_alignment(default_manifest, reference_pools,
                                        default_suite, cfg)
    assert ck1.content_hash() == ck2.content_hash()
    assert curve1.records == curve2.records


def test_difference_objective_deterministic_and_same_schema(
        default_manifest, default_suite, reference_pools, tmp_path):
    cfg = es.TrainConfig(seed=3, epochs=2, steps_per_epoch=4, batch_size=8)
    ck1, curve1 = es.pretrain_with_difference_objective(
        default_manifest, reference_pools, default_suite, cfg)
    ck2, curve2 = es.pretrain_with_difference_objective(
        default_manifest, reference_pools, default_suite, cfg)
    assert ck1.content_hash() == ck2.content_hash()
    assert curve1.records == curve2.records
    path = tmp_path / "curve.csv"
    curve1.save_csv(path)
    header, *lines = path.read_text().splitlines()
    assert header == "epoch,step,loss,lr"
    assert [tuple(map(float, line.split(","))) for line in lines] == curve1.records


def test_difference_objective_gives_guider_zero_gradient(
        default_manifest, default_suite, reference_pools, default_table):
    # the identity token cancels in the text difference, so the guider head
    # receives exactly zero gradient under the linear text encoder
    ckpt = fresh_checkpoint(default_suite, seed=2)
    rng = np.random.default_rng(3)
    draws = es.sample_pair_batch(default_manifest, reference_pools, 8, rng)
    _, grad = pr.difference_step_grads(ckpt, draws, default_suite, default_table)
    assert max(np.max(np.abs(w)) for w, _ in network_views(ckpt, grad)[0]) == 0.0


def test_momentum_matches_hand_written_loop(default_manifest, default_suite,
                                            reference_pools, default_table):
    cfg = es.TrainConfig(seed=3, epochs=2, steps_per_epoch=3, batch_size=8,
                         decay_epochs=(1,), momentum=0.9)
    ckpt, curve = es.pretrain_alignment(default_manifest, reference_pools,
                                        default_suite, cfg)
    # v = m v + g; theta -= lr v, over the same draws
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    ref = pr._fresh_checkpoint(default_suite, cfg, rng)
    velocity = np.zeros_like(ref.vector)
    losses = []
    for epoch in range(cfg.epochs):
        for _ in range(cfg.steps_per_epoch):
            batch = es.sample_contrastive_batch(default_manifest, reference_pools,
                                                cfg.batch_size, rng)
            loss, grad = pr.contrastive_step_grads(ref, batch, default_suite, default_table)
            velocity = cfg.momentum * velocity + grad
            ref.vector -= cfg.learning_rate_at(epoch) * velocity
            losses.append(loss)
    assert np.array_equal(ckpt.vector, ref.vector)
    assert np.array_equal([r[2] for r in curve.records], losses)
    plain, _ = es.pretrain_alignment(default_manifest, reference_pools, default_suite,
                                     es.TrainConfig(**{**cfg.to_dict(), "momentum": 0.0}))
    assert not np.allclose(plain.vector, ckpt.vector, rtol=1e-6)


def test_encoder_outputs_constant_across_training(default_manifest, default_world,
                                                  default_suite, reference_pools):
    ref = default_manifest.samples[0].image_ref
    before = default_suite.visual_encode((ref,))
    cfg = es.TrainConfig(seed=1, epochs=1, steps_per_epoch=3, batch_size=4)
    es.pretrain_alignment(default_manifest, reference_pools, default_suite, cfg)
    assert np.array_equal(before, default_suite.visual_encode((ref,)))


def test_nonfinite_loss_aborts_with_context(default_manifest, default_suite,
                                            reference_pools, monkeypatch):
    def bad_loss(*args, **kwargs):
        return float("nan"), np.zeros_like(args[0].vector)

    monkeypatch.setattr(pr, "contrastive_step_grads", bad_loss)
    with pytest.raises(es.NumericalError, match="epoch 0 step 0"):
        es.pretrain_alignment(default_manifest, reference_pools, default_suite,
                              es.TrainConfig(seed=1, epochs=1, steps_per_epoch=1))


# ---------------------------------------------------------------------------
# freezing
# ---------------------------------------------------------------------------

def test_checkpoint_networks_are_views_of_one_vector(default_suite):
    ckpt = fresh_checkpoint(default_suite, projector_mode="single_conditional")
    params = ckpt.all_params()
    assert ckpt.vector.size == sum(p.vector.size for p in params)
    for p, part in zip(params, ckpt.split(ckpt.vector), strict=True):
        assert p.vector.base is ckpt.vector and np.shares_memory(p.vector, part)
        assert p.vector.shape == part.shape
    ckpt.vector[-1] = 7.0
    assert ckpt.bank.layers[-1].bias[-1, -1] == 7.0


@pytest.mark.parametrize("name", ["guider_head", "bank"])
def test_swapped_network_cannot_be_frozen(default_suite, name):
    ckpt = fresh_checkpoint(default_suite)
    setattr(ckpt, name, copy.deepcopy(getattr(ckpt, name)))  # a vector of its own
    with pytest.raises(ContractError, match="swapped in"):
        ckpt.freeze()


def test_a_replacement_leaves_its_frozen_original_as_it_was(default_suite):
    ckpt = fresh_checkpoint(default_suite).freeze()
    before = ckpt.vector.copy()
    other = dataclasses.replace(ckpt, metadata={"note": 1})
    # the replacement shares the vector, still read-only; the original keeps
    # its own read-only views of it
    assert other.vector is ckpt.vector and not other.frozen and ckpt.metadata == {}
    for p in ckpt.all_params():
        assert p.vector.base is ckpt.vector
        assert not any(array.flags.writeable for layer in p.layers
                       for array in (layer.weights, layer.bias))
    with pytest.raises(ValueError):
        other.vector[0] = 123.0
    # a replacement with a vector of its own trains without touching the original
    own = dataclasses.replace(ckpt, vector=ckpt.vector.copy())
    own.vector[0] = 123.0
    assert own.guider_head.layers[0].weights[0, 0] == 123.0
    assert np.array_equal(ckpt.vector, before) and ckpt.guider_head.vector[0] == before[0]
    assert ckpt.frozen and ckpt.frozen_bank[0].weights.base is ckpt.vector


def test_checkpoint_equality_is_identity(default_suite):
    # the vector is a field, but == never compares it: two checkpoints are
    # equal only when they are one object
    ckpt = fresh_checkpoint(default_suite)
    assert ckpt == ckpt
    nudged = dataclasses.replace(ckpt, vector=ckpt.vector.copy())
    nudged.vector[-1] += 1e-12
    assert nudged != ckpt and dataclasses.replace(ckpt) != ckpt


def test_checkpoint_refuses_a_vector_of_another_size(default_suite):
    ckpt = fresh_checkpoint(default_suite)
    for vector in (ckpt.vector[:-1], ckpt.vector.astype(np.float32), list(ckpt.vector)):
        with pytest.raises(ContractError, match="holds a float64 vector of 89696 param"):
            dataclasses.replace(ckpt, vector=vector)


def test_checkpoint_refuses_a_view_of_another_array(default_suite):
    # freezing a view would leave its owner writable
    ckpt = fresh_checkpoint(default_suite)
    big = np.concatenate([ckpt.vector, [0.0]])
    with pytest.raises(ContractError, match="must own its memory"):
        dataclasses.replace(ckpt, vector=big[:-1])


def test_frozen_checkpoint_rejects_mutation(trained_checkpoint):
    ckpt, _ = trained_checkpoint
    with pytest.raises(ValueError):
        ckpt.vector[0] = 5.0
    with pytest.raises(ValueError):
        ckpt.guider_head.layers[0].weights[0, 0] = 5.0
    with pytest.raises(ValueError):
        ckpt.bank.layers[0].bias[0, 0] = 1.0


def test_checkpoint_json_roundtrip(trained_checkpoint, tmp_path):
    ckpt, _ = trained_checkpoint
    path = tmp_path / "checkpoint.json"
    ckpt.save(path)
    back = es.AlignmentCheckpoint.load(path)
    assert back.frozen
    assert back.content_hash() == ckpt.content_hash()
    assert back.to_json_dict()["format_version"] == 1


def relabel_single_conditional(d):
    d["projector_mode"] = pr.SINGLE_CONDITIONAL
    d["projectors"] = d["projectors"][:1]


def narrow_projector_3(d):
    """Hidden widths 64 -> 16 -> 64 in place of 64 -> 32 -> 64."""
    middle, after = d["projectors"][3][1], d["projectors"][3][2]
    middle["weights"], middle["bias"] = middle["weights"][:16], middle["bias"][:16]
    after["weights"] = [row[:16] for row in after["weights"]]


def extend_projector_3(d):
    """One more 64 -> 64 layer after the last."""
    d["projectors"][3].append(dict(d["projectors"][3][-1]))


# edits that keep each network's input and output dims
PROJECTOR_EDITS = {
    "narrowed": (narrow_projector_3, r"projector 3 maps 64 -> 64, through widths "
                 r"\[64, 64, 16, 64, 64\] .* need 64 -> 64, through widths "
                 r"\[64, 64, 32, 64, 64\]"),
    "extended": (extend_projector_3, r"projector 3 maps 64 -> 64, through widths "
                 r"\[64, 64, 32, 64, 64, 64\] with activations \['relu', 'relu', "
                 r"'relu', 'identity', 'identity'\]"),
    "linear": (lambda d: d["projectors"][3][0].update(activation="identity"),
               r"projector 3 .* activations \['identity', 'relu', 'relu', 'identity'\], "
               r"but .* activations \['relu', 'relu', 'relu', 'identity'\]$"),
}


def unchained_projector_3(d):
    """Layer 2 reads 16 inputs where layer 1 gives 32: the widths the
    weights' rows give still match, the shapes do not."""
    after = d["projectors"][3][2]
    after["weights"] = [row[:16] for row in after["weights"]]


def set_weight(value):
    def edit(d):
        d["projectors"][5][1]["weights"][7][3] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["dims"].update(token_count=2), "guider head maps 32 -> 32, .* need 32 -> 64"),
    (lambda d: d["dims"].update(d_b=16), "guider head maps 32 -> 32, .* need 16 -> 32"),
    (lambda d: d["dims"].update(d_tok=16), "guider head maps 32 -> 32, .* need 32 -> 16"),
    (lambda d: d["dims"].update(d_e=48), "projector 0 maps 64 -> 64, .* need 48 -> 48"),
    (relabel_single_conditional, "projector 0 maps 64 -> 64, .* need 71 -> 64"),
    *PROJECTOR_EDITS.values(),
    (lambda d: d["projectors"][6][-1].update(activation="relu"),
     r"projector 6 .* activations \['relu', 'relu', 'relu', 'relu'\], but"),
    (unchained_projector_3,
     re.escape("projector 3 has layers of (weights, bias) shapes [((64, 64), (64,)), "
               "((32, 64), (32,)), ((64, 16), (64,)), ((64, 64), (64,))], but its dims ")
     + ".* need " + re.escape("[((64, 64), (64,)), ((32, 64), (32,)), ((64, 32), (64,)), "
                              "((64, 64), (64,))]") + "$"),
    (lambda d: d["projectors"][2].clear(),
     re.escape("projector 2 has layers of (weights, bias) shapes [], but")),
    (lambda d: d["projectors"][1][0].update(weights=1.5),
     re.escape("projector 1 has layers of (weights, bias) shapes [((), (64,)), ")),
    (set_weight(float("nan")), "^checkpoint parameters contain non-finite entries$"),
    (set_weight(float("inf")), "^checkpoint parameters contain non-finite entries$"),
])
def test_checkpoint_load_refuses_dims_its_networks_do_not_have(trained_checkpoint,
                                                               edit, message):
    ckpt, _ = trained_checkpoint
    d = ckpt.to_json_dict()
    edit(d)
    with pytest.raises(ContractError, match=message):
        es.AlignmentCheckpoint.from_json_dict(d)


# ---------------------------------------------------------------------------
# checkpoint file I/O, streamed from and into the layer arrays
# ---------------------------------------------------------------------------

ODD_METADATA = {"nan": float("nan"), "inf": [float("inf"), -float("inf")],
                "nested": {"b": [1, 2.5, None, {"c": "\u00e9\n"}], "a": [], "z": {}},
                "seed": 3}


@pytest.mark.parametrize("mode", [pr.MULTI, pr.SINGLE_CONDITIONAL])
@pytest.mark.parametrize("token_count", [1, 2])
def test_streamed_save_is_the_canonical_text_of_the_list_form(default_suite, tmp_path,
                                                              mode, token_count):
    ckpt = fresh_checkpoint(default_suite, projector_mode=mode,
                            guider_token_count=token_count)
    ckpt.metadata = ODD_METADATA
    path = tmp_path / "checkpoint.json"
    ckpt.save(path)
    text = canonical_json(ckpt.to_json_dict()).encode()
    assert path.read_bytes() == text
    assert ckpt.content_hash() == hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize("mode", [pr.MULTI, pr.SINGLE_CONDITIONAL])
def test_load_gives_the_arrays_and_metadata_of_the_list_form_parse(default_suite, tmp_path,
                                                                   mode):
    ckpt = fresh_checkpoint(default_suite, projector_mode=mode, guider_token_count=2)
    ckpt.metadata = ODD_METADATA
    path = tmp_path / "checkpoint.json"
    ckpt.save(path)
    loaded = es.AlignmentCheckpoint.load(path)
    listed = es.AlignmentCheckpoint.from_json_dict(json.loads(path.read_text()))
    assert loaded.frozen and listed.frozen
    assert loaded.vector.tobytes() == listed.vector.tobytes() == ckpt.vector.tobytes()
    for a, b in zip(loaded.all_params(), listed.all_params(), strict=True):
        for la, lb in zip(a.layers, b.layers, strict=True):
            assert la.weights.shape == lb.weights.shape and la.bias.shape == lb.bias.shape
            assert la.activation == lb.activation
    assert ((loaded.d_e, loaded.d_b, loaded.d_tok, loaded.token_count, loaded.mode)
            == (listed.d_e, listed.d_b, listed.d_tok, listed.token_count, listed.mode))
    # NaN is not equal to itself, so the metadata is compared as text
    assert canonical_json(loaded.metadata) == canonical_json(listed.metadata) \
        == canonical_json(ODD_METADATA)


def ragged_weights(d):
    rows = d["projectors"][2][1]["weights"]
    rows[3] = rows[3][:-1]


def string_weights(d):
    d["guider_head"][0]["weights"][0][0] = "w"


def string_bias(d):
    d["projectors"][0][3]["bias"] = "b"


def huge_integer_weight(d):
    d["projectors"][5][0]["weights"][1][2] = 10**400


@pytest.mark.parametrize("edit", [
    ragged_weights, string_weights, string_bias, huge_integer_weight,
    lambda d: d["guider_head"][1].pop("activation"),
    lambda d: d["projectors"][6][0].pop("weights"),
    lambda d: d["projectors"][4][2].pop("bias"),
    lambda d: d.pop("metadata"),
])
def test_load_refuses_what_the_list_form_parse_refuses(trained_checkpoint, tmp_path, edit):
    ckpt, _ = trained_checkpoint
    d = ckpt.to_json_dict()
    edit(d)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ContractError) as streamed:
        es.AlignmentCheckpoint.load(path)
    with pytest.raises(ContractError) as listed:
        load_json_object(path, es.AlignmentCheckpoint.from_json_dict)
    assert str(streamed.value) == str(listed.value)
    assert str(streamed.value).startswith(f"{path}: malformed (")


def test_a_layer_shaped_object_in_the_metadata_round_trips(default_suite, tmp_path):
    metadata = {"layer": {"activation": "relu", "bias": [1, 2], "weights": [[0.5, 3]]},
                "layers": [{"activation": "x", "bias": "b", "weights": "w"}], "seed": 1}
    ckpt = fresh_checkpoint(default_suite)
    ckpt.metadata = metadata
    path, again = tmp_path / "checkpoint.json", tmp_path / "again.json"
    ckpt.save(path)
    loaded = es.AlignmentCheckpoint.load(path)
    # the integers stay integers, which == alone would not show
    assert canonical_json(loaded.metadata) == canonical_json(metadata)
    assert loaded.vector.tobytes() == ckpt.vector.tobytes()
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_a_failed_save_leaves_the_old_checkpoint(trained_checkpoint, tmp_path):
    ckpt, _ = trained_checkpoint
    path = tmp_path / "checkpoint.json"
    ckpt.save(path)
    before = path.read_bytes()
    copy = es.AlignmentCheckpoint.load(path)
    copy.metadata["bad"] = {1, 2}
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        copy.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_and_load_hold_one_layer_of_python_floats_at_most(default_suite, tmp_path):
    ckpt = fresh_checkpoint(default_suite).freeze()
    assert ckpt.vector.size == 89_696  # the default checkpoint
    path = tmp_path / "checkpoint.json"
    # one row's floats at a time; a whole 64 x 64 layer's lists would read
    # about 0.16 MB, and the whole list form about 3 MB
    assert traced_peak(lambda: ckpt.save(path)) < 0.1e6
    text = path.read_text()

    def parse(hook):
        return lambda: es.AlignmentCheckpoint.from_json_dict(json.loads(text, object_hook=hook))

    assert traced_peak(parse(pr._layer_arrays)) < 2.5e6
    # the list form holds every parameter as a Python float (32 B with its
    # list slot), so the same measure reads it above the bound
    assert traced_peak(parse(None)) > 2.5e6


def test_from_json_dict_holds_the_vector_and_one_network_more(default_suite, tmp_path):
    ckpt = fresh_checkpoint(default_suite).freeze()
    path = tmp_path / "checkpoint.json"
    ckpt.save(path)
    parsed = json.loads(path.read_text(), object_hook=pr._layer_arrays)
    # the 0.72 MB vector, each layer written into its view, and at most one
    # network more; a copy of every network before the vector would read
    # about 1.45 MB
    assert traced_peak(lambda: es.AlignmentCheckpoint.from_json_dict(parsed)) < 1.1e6


@pytest.mark.parametrize("steps", [2, 8])
@pytest.mark.parametrize("train", [es.pretrain_alignment,
                                   es.pretrain_with_difference_objective])
def test_pretraining_allocates_no_checkpoint_sized_array_per_step(
        train, steps, default_manifest, reference_pools, default_suite):
    # the vector, the run's one step buffer and the frozen table read about
    # 2.1-2.5 MB; a new gradient and an lr * grad temporary each step would
    # read about 3.5-3.9 MB
    vector_bytes = fresh_checkpoint(default_suite).vector.nbytes
    cfg = es.TrainConfig(seed=1, epochs=1, steps_per_epoch=steps)
    peak = traced_peak(lambda: train(default_manifest, reference_pools, default_suite, cfg))
    assert peak < 4 * vector_bytes


def test_run_metadata_hashes_a_checkpoint_without_holding_it(trained_checkpoint, tmp_path):
    # the checkpoint text is about 3 MB; it is hashed in 64 KiB blocks
    trained_checkpoint[0].save(tmp_path / "checkpoint.json")
    hashes = {}
    assert traced_peak(lambda: hashes.update(cli._write_run_metadata(
        tmp_path, "pretrain", {}, ["checkpoint.json"]))) < 0.5e6
    data = (tmp_path / "checkpoint.json").read_bytes()
    assert len(data) > 2.5e6
    assert hashes == {"checkpoint.json": hashlib.sha256(data).hexdigest()}


# ---------------------------------------------------------------------------
# retrieval accuracy
# ---------------------------------------------------------------------------

def test_untrained_retrieval_is_chance_level(default_manifest, default_suite):
    # chance-level oracle: balanced classes make expected accuracy 1/7; the
    # mean over several random checkpoints must land in the binomial band
    n = len(default_manifest.samples)
    n_train = len(default_manifest.in_split(TRAIN))
    accs = []
    for seed in range(12):
        ckpt = fresh_checkpoint(default_suite, seed=seed)
        ckpt.freeze()
        acc_t = es.retrieval_accuracy(ckpt, default_manifest, TRAIN, default_suite)
        acc_v = es.retrieval_accuracy(ckpt, default_manifest, VAL, default_suite)
        accs.append((acc_t * n_train + acc_v * (n - n_train)) / n)
    mean = float(np.mean(accs))
    band = 3 * np.sqrt(n * (1 / 7) * (6 / 7)) / n
    assert abs(mean - 1 / 7) < band


def test_trained_retrieval_exceeds_095(trained_checkpoint, default_manifest,
                                       default_suite):
    ckpt, _ = trained_checkpoint
    assert es.retrieval_accuracy(ckpt, default_manifest, VAL, default_suite) > 0.95


def test_single_sample_split_scores_one(trained_checkpoint, default_manifest,
                                        default_suite):
    ckpt, _ = trained_checkpoint
    correct = next(s for s in default_manifest.in_split(VAL))
    split = {s.id: TRAIN for s in default_manifest.samples}
    split[correct.id] = VAL
    single = es.CorpusManifest(list(default_manifest.samples), split,
                               default_manifest.world_config,
                               default_manifest.world_seed)
    assert es.retrieval_accuracy(ckpt, single, VAL, default_suite) == 1.0


def test_empty_split_rejected(trained_checkpoint, default_manifest, default_suite):
    ckpt, _ = trained_checkpoint
    split = {s.id: TRAIN for s in default_manifest.samples}
    manifest = es.CorpusManifest(list(default_manifest.samples), split,
                                 default_manifest.world_config,
                                 default_manifest.world_seed)
    with pytest.raises(ContractError):
        es.retrieval_accuracy(ckpt, manifest, VAL, default_suite)


def retrieval_oracle(ckpt, manifest, split, suite):
    """Per sample: ``visual_encode`` of its one ref then ``project_row``; per
    candidate emotion: ``text_encode`` of ``build_personalized_prompt`` as a
    one-sequence stack; a hit when the argmax of the ``cosine_with_flag``
    scores is the sample's emotion."""
    samples = manifest.in_split(split)
    hits = 0
    for sample in samples:
        reference = manifest.by_id(sample.neutral_ref)
        visual = project_row(ckpt, suite.visual_encode((sample.image_ref,))[0],
                             sample.emotion)[0]
        sims = [es.cosine_with_flag(suite.text_encode(
                    es.build_personalized_prompt(ckpt, reference, k, suite)[None])[0],
                    visual)[0]
                for k in es.EMOTIONS]
        hits += int(np.argmax(sims)) == int(sample.emotion)
    return hits / len(samples)


@pytest.mark.parametrize("tokens", [1, 2])
@pytest.mark.parametrize("mode", [pr.MULTI, pr.SINGLE_CONDITIONAL])
@pytest.mark.parametrize("world_seed", [1, 2, 3])
def test_retrieval_equals_the_per_sample_oracle(reference_pools, world_seed, mode,
                                                tokens):
    # weakly trained, so both figures lie strictly between 0 and 1 and a
    # wrong row would move them (fully trained, val reads 1.0)
    world = es.build_synthetic_world(world_seed)
    suite = es.synthetic_suite(world)
    manifest = es.generate_synthetic_corpus(world, 3)
    ckpt, _ = es.pretrain_alignment(
        manifest, reference_pools, suite,
        es.TrainConfig(projector_mode=mode, guider_token_count=tokens, epochs=1,
                       steps_per_epoch=3))
    for split in (TRAIN, VAL):
        accuracy = es.retrieval_accuracy(ckpt, manifest, split, suite)
        assert 0 < accuracy < 1
        assert accuracy == retrieval_oracle(ckpt, manifest, split, suite)


def nearest_prompt_oracle(reg, rows, projected):
    """Per row, one ``cosine_with_flag`` per candidate code k: prompt k of the
    row's reference against the row's projection, or against entry k of its
    seven; the first code of the largest score."""
    codes = []
    for row, candidates in zip(rows, projected):
        if candidates.ndim == 1:
            candidates = [candidates] * len(es.EMOTIONS)
        sims = [es.cosine_with_flag(reg.prompts[reg.reference[row], k], candidates[k])[0]
                for k in range(len(es.EMOTIONS))]
        codes.append(max(range(len(sims)), key=lambda k: (sims[k], -k)))
    return codes


@pytest.mark.parametrize("entries", [False, True], ids=["(B, d_e)", "(B, 7, d_e)"])
def test_nearest_prompt_equals_the_per_candidate_oracle(trained_checkpoint,
                                                        default_manifest, default_suite,
                                                        entries):
    reg = es.DifferenceRegularizer(trained_checkpoint[0], default_suite, default_manifest)
    # a copy in which prompt 5 of reference 0 is its prompt 2, for an exact tie
    tied = copy.copy(reg)
    tied.prompts = reg.prompts.copy()
    tied.prompts[0, 5] = reg.prompts[0, 2]
    rng = np.random.default_rng(3)
    rows = rng.integers(0, len(reg.samples), 40)
    rows[:2] = np.flatnonzero(reg.reference == 0)[:2]
    d_e = reg.ckpt.d_e
    projected = rng.normal(size=(40, 7, d_e) if entries else (40, d_e))
    projected[0] = 0.0  # a zero-norm projection: every candidate scores 0
    projected[1] = tied.prompts[0, 2]  # prompts 2 and 5 score the same pair
    got = tied.nearest_prompt(rows, projected)
    assert got.tolist() == nearest_prompt_oracle(tied, rows, projected)
    assert got[:2].tolist() == [0, 2]  # the first code wins a tie
    assert len(set(got[2:].tolist())) > 1
    with pytest.raises(ContractError, match="projected must be of shape"):
        tied.nearest_prompt(rows, projected[:, :6] if entries else projected[:, :-1])
    with pytest.raises(ContractError, match="rows must lie in"):
        tied.nearest_prompt(rows + len(reg.samples), projected)


@pytest.mark.parametrize("call", [
    lambda ckpt, manifest, suite: es.DifferenceRegularizer(ckpt, suite, manifest),
    lambda ckpt, manifest, suite: es.retrieval_accuracy(ckpt, manifest, VAL, suite),
    lambda ckpt, manifest, suite: es.export_difference_rows(ckpt, manifest, suite)],
    ids=["DifferenceRegularizer", "retrieval_accuracy", "export_difference_rows"])
def test_a_suite_of_other_dims_is_refused_by_name(trained_checkpoint, call):
    world = es.build_synthetic_world(1, es.WorldConfig(d_e=48))
    with pytest.raises(ContractError,
                       match="^checkpoint d_e is 64 but the encoder suite has d_e 48$"):
        call(trained_checkpoint[0], es.generate_synthetic_corpus(world, 1),
             es.synthetic_suite(world))


@pytest.mark.parametrize("dims, message", [
    (dict(d_b=24), "checkpoint d_b is 32 but the encoder suite has d_b 24"),
    (dict(d_tok=24), "checkpoint d_tok is 32 but the encoder suite has d_tok 24")])
def test_require_suite_names_each_dim(trained_checkpoint, dims, message):
    ckpt, _ = trained_checkpoint
    suite = es.synthetic_suite(es.build_synthetic_world(1, es.WorldConfig(**dims)))
    with pytest.raises(ContractError, match=message):
        ckpt.require_suite(suite)


def test_identity_sensitivity_of_trained_prompts(trained_checkpoint,
                                                 default_manifest, default_suite):
    ckpt, _ = trained_checkpoint
    refs = {}
    for s in default_manifest.samples:
        if s.emotion == es.EmotionLabel.neutral and s.identity not in refs:
            refs[s.identity] = s
    ref_a, ref_b = list(refs.values())[:2]
    emb_a, emb_b = default_suite.text_encode(np.stack([
        es.build_personalized_prompt(ckpt, ref, es.EmotionLabel.happy, default_suite)
        for ref in (ref_a, ref_b)]))
    assert np.max(np.abs(emb_a - emb_b)) > 1e-9
