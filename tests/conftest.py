from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

import emosup as es

# Property tests draw the same examples on every run, and no example fails
# for taking long on a slow or busy CPU.
settings.register_profile("emosup", derandomize=True, deadline=None)
settings.load_profile("emosup")


def network(params: es.MlpParams, r=...) -> es.MlpParams:
    """A copy of network ``r`` of ``params``' run axis, or of ``params``
    itself without ``r``, as a 1-D ``MlpParams`` with each layer's
    activation (which a test may have changed from the dims' rule)."""
    net = es.MlpParams([params.in_dim] + [l.out_dim for l in params.layers],
                       params.vector[r].copy())
    for layer, own in zip(net.layers, params.layers, strict=True):
        layer.activation = own.activation
    return net


def demo_rows(manifest, reg, truth, lams, config) -> list:
    """``sweep_lambda``'s rows for the regularizer ``reg`` and the ground
    truth ``truth`` (``supervision._clean_targets``): the demo's fused
    training, then its judge of each run."""
    sv = es.supervision
    params, bases, l2s = sv._train_generators(manifest, reg, truth, lams, config,
                                              sv.squared_error_loss)
    accuracies = sv._eval_emotion_accuracy(params, manifest, reg)
    return [sv.DemoRow(*row, config.seed) for row in zip(lams, bases, l2s, accuracies)]


def bank_index(ckpt: es.AlignmentCheckpoint, emotion) -> int:
    """The network of ``ckpt.bank`` that projects ``emotion``: its own in
    ``multi`` mode, the shared one in ``single_conditional``."""
    return int(emotion) if ckpt.mode == es.prompts.MULTI else 0


def network_views(ckpt: es.AlignmentCheckpoint, vector) -> list:
    """Per network, the guider head and then each of the bank's projectors,
    the ``(weights, bias)`` views of a vector in the checkpoint's layout (a
    gradient, or the parameters), one pair per layer."""
    head, bank = ckpt.split(vector)
    return [ckpt.guider_head.views(head)] + [[(w[p], b[p]) for w, b in ckpt.bank.views(bank)]
                                             for p in range(len(bank))]


def project_row(ckpt: es.AlignmentCheckpoint, x, emotion):
    """Oracle of ``prompts.project_visual`` for one row: the 1-D
    ``mlp_forward`` of ``x`` through the bank's network for ``emotion``,
    sliced out of the run axis, on its ``_with_codes`` input. Returns the
    projection, the forward cache and the projector, for ``mlp_backward``."""
    net = network(ckpt.bank, bank_index(ckpt, emotion))
    out, cache = es.mlp_forward(net, es.prompts._with_codes(ckpt.mode, x, int(emotion)))
    return out, cache, net


def input_grad_row(net: es.MlpParams, cache, u) -> np.ndarray:
    """Oracle of ``project_visual``'s input gradient for one row: the
    gradient of ``dot(output, u)`` w.r.t. the 1-D input of ``net``'s forward
    ``cache`` (``project_row``), one ``layers_backward`` pass over its one
    row."""
    return es.numerics.layers_backward(net.layers, cache.inputs, cache.preactivations,
                                       u[None])[0]


def pair_loss(dp: es.DifferencePair) -> float:
    """``L2`` of one pair of difference vectors, as the one-row stacks
    ``difference_loss_with_grads`` takes."""
    return es.difference_loss_with_grads(es.DifferencePair(dp.visual_diff[None],
                                                           dp.text_diff[None]))[0][0]


def passthrough_layers(d: int, half: int):
    """Identity weights through the ``d -> d -> d/2 -> d -> d`` projector
    chain that carry one half of an input's entries, the first ``d // 2``
    (``half`` 0) or the last (``half`` 1), and give 0 for the other half.
    Returns the four layers' weights and the mask of the carried entries."""
    h = d // 2
    k = half * (d - h)  # the first carried entry
    return ([np.eye(d), np.eye(h, d, k=k), np.eye(d, h, k=-k), np.eye(d)],
            (np.arange(d) >= k) & (np.arange(d) < k + h))


def passthrough_checkpoint(suite, seed: int = 0, shift: float = 100.0, half: int = 0):
    """A frozen ``multi`` checkpoint whose seven projectors pass one half of
    an input through (``passthrough_layers``), with ``shift`` added before
    the relu layers and taken off by the last one. Exact up to rounding for
    inputs above ``-shift``."""
    ckpt = es.prompts._fresh_checkpoint(suite, es.TrainConfig(),
                                        np.random.Generator(np.random.PCG64(seed)))
    weights, carried = passthrough_layers(suite.d_e, half)
    for layer, w, bias in zip(ckpt.bank.layers, weights, [shift, 0.0, 0.0, -shift * carried]):
        layer.weights[...], layer.bias[...] = w, bias
    return ckpt.freeze()


@dataclass(frozen=True)
class ContrastiveEntry:
    anchor: es.Sample
    positive_prompt: es.EmotionLabel
    negative_prompt: es.EmotionLabel
    reference: es.Sample


@dataclass(frozen=True)
class PairDraw:
    """A same-identity (source, target) pair plus a neutral reference."""

    source: es.Sample
    target: es.Sample
    reference: es.Sample


def entries(batch) -> list[ContrastiveEntry]:
    """The per-entry view of a ``ContrastiveBatch``'s index arrays."""
    s = batch.samples
    return [ContrastiveEntry(s[a], s[a].emotion, es.EmotionLabel(k), s[r])
            for a, k, r in zip(batch.anchor.tolist(), batch.negative.tolist(),
                               batch.reference.tolist())]


def draws(batch) -> list[PairDraw]:
    """The per-draw view of a ``PairBatch``'s index arrays."""
    s = batch.samples
    return [PairDraw(s[a], s[t], s[r]) for a, t, r
            in zip(batch.source.tolist(), batch.target.tolist(), batch.reference.tolist())]


def check_contrastive_entries(batch, pools) -> None:
    """Each entry's positive prompt is its anchor's emotion, its negative is
    in the anchor's pool, and its reference is a neutral of the anchor's
    identity."""
    for e in entries(batch):
        assert e.positive_prompt == e.anchor.emotion
        assert e.negative_prompt in pools.pool[e.anchor.emotion]
        assert e.reference.emotion == es.EmotionLabel.neutral
        assert e.reference.identity == e.anchor.identity


@pytest.fixture(scope="session")
def default_world():
    return es.build_synthetic_world(1)


@pytest.fixture(scope="session")
def default_suite(default_world):
    return es.synthetic_suite(default_world)


@pytest.fixture(scope="session")
def default_manifest(default_world):
    return es.generate_synthetic_corpus(default_world, 3)


@pytest.fixture(scope="session")
def default_table(default_manifest, default_suite):
    """The frozen-encoder table of the default manifest's train split, which
    every batch drawn from that manifest indexes."""
    return es.prompts._frozen_table(default_manifest.in_split("train"), default_suite)


@pytest.fixture(scope="session")
def reference_pools():
    return es.load_reference_pools()


@pytest.fixture(scope="session")
def trained_checkpoint(default_manifest, reference_pools, default_suite):
    ckpt, curve = es.pretrain_alignment(default_manifest, reference_pools,
                                        default_suite, es.TrainConfig(seed=1))
    return ckpt, curve


@pytest.fixture(scope="session")
def noise_free_world():
    return es.build_synthetic_world(11, es.WorldConfig(noise_sigma=0.0))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
