import numpy as np
import pytest
from hypothesis import settings

import emosup as es

# Property tests draw the same examples on every run, and no example fails
# for taking long on a slow or busy CPU.
settings.register_profile("emosup", derandomize=True, deadline=None)
settings.load_profile("emosup")


def identity_mlp(dim: int, depth: int = 1, activation: str = "identity") -> es.MlpParams:
    """Square identity-weight MLP: a passthrough under identity activations,
    or for nonnegative inputs under relu hidden layers."""
    return es.MlpParams([es.DenseLayer(np.eye(dim), np.zeros(dim),
                                       activation if i < depth - 1 else "identity")
                         for i in range(depth)])


def project_row(bank: es.EmotionProjectorBank, x, emotion):
    """Oracle of ``prompts.project_visual`` for one row: the 1-D
    ``mlp_forward`` of ``x`` through ``bank.projector_for(emotion)``, on its
    ``_with_codes`` input. Returns the projection, the forward cache and the
    projector, for ``mlp_backward``."""
    net = bank.projector_for(emotion)
    out, cache = es.mlp_forward(net, es.prompts._with_codes(bank.mode, x, int(emotion)))
    return out, cache, net


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
