import hashlib
import itertools
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emosup as es
from emosup import corpus
from emosup.corpus import (TRAIN, VAL, CorpusManifest, Sample,
                           sample_pair_batch)
from emosup.errors import ContractError
from conftest import ContrastiveEntry, PairDraw, check_contrastive_entries, draws, entries


def test_sample_counts():
    w = es.build_synthetic_world(2, es.WorldConfig(n_identities=2))
    m = es.generate_synthetic_corpus(w, 1)
    assert len(m.samples) == 2 * 7 * 1


def test_same_seed_identical_manifest():
    w1 = es.build_synthetic_world(3)
    w2 = es.build_synthetic_world(3)
    m1 = es.generate_synthetic_corpus(w1, 2)
    m2 = es.generate_synthetic_corpus(w2, 2)
    assert m1.to_json_dict() == m2.to_json_dict()


def test_neutral_refs_resolve(default_manifest):
    for s in default_manifest.samples:
        ref = default_manifest.by_id(s.neutral_ref)
        assert ref.emotion == es.EmotionLabel.neutral
        assert ref.identity == s.identity


def test_split_disjoint_exhaustive(default_manifest):
    train = {s.id for s in default_manifest.in_split(TRAIN)}
    val = {s.id for s in default_manifest.in_split(VAL)}
    assert train.isdisjoint(val)
    assert train | val == {s.id for s in default_manifest.samples}
    assert len(val) == pytest.approx(0.1 * len(default_manifest.samples), abs=4)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_split_properties_across_seeds(seed):
    w = es.build_synthetic_world(seed, es.WorldConfig(n_identities=3))
    m = es.generate_synthetic_corpus(w, 2)
    m.validate()
    for identity in m.identities():
        ids = [s for s in m.samples if s.identity == identity]
        n_val = sum(1 for s in ids if m.split[s.id] == VAL)
        assert n_val >= 1  # identity-stratified split


def test_manifest_json_roundtrip(default_manifest, tmp_path):
    path = tmp_path / "manifest.json"
    default_manifest.save(path)
    back = CorpusManifest.load(path)
    assert back.to_json_dict() == default_manifest.to_json_dict()
    world = back.rebuild_world()
    assert world.seed == default_manifest.world_seed


def test_a_manifest_without_a_world_loads_and_has_none_to_rebuild(default_manifest):
    spec = {**default_manifest.to_json_dict(), "world": None}
    manifest = CorpusManifest.from_json_dict(spec)
    assert manifest.world_config is None and manifest.world_seed is None
    with pytest.raises(ContractError, match="carries no synthetic-world config"):
        manifest.rebuild_world()


@pytest.mark.parametrize("seed, config, error, message", [
    ("1", {}, ValueError, "world seed must be an int >= 0, got '1'"),
    (True, {}, ValueError, "world seed must be an int >= 0, got True"),
    (-1, {}, ValueError, "world seed must be an int >= 0, got -1"),
    (1, {"d_e": "64"}, TypeError, "d_e must be an int, got '64'"),
    (1, {"d_e": 64.0}, TypeError, "d_e must be an int, got 64.0"),
    (1, {"gap": True}, TypeError, "gap must be a number, got True"),
    (1, {"bogus": 1}, TypeError, "unexpected keyword argument 'bogus'"),
    (1, {"d_e": 0}, ContractError, "d_e must be positive, got 0")])
def test_a_malformed_world_block_is_refused_on_load(default_manifest, seed, config, error,
                                                    message):
    # checked as the manifest is parsed, before any world is built
    world = {"seed": seed, "config": {**default_manifest.world_config, **config}}
    spec = {**default_manifest.to_json_dict(), "world": world}
    with pytest.raises(error, match=re.escape(message)):
        CorpusManifest.from_json_dict(spec)


def test_pool_table_validation():
    bad_self = {e: frozenset({e}) for e in es.EMOTIONS}
    with pytest.raises(ContractError):
        es.NegativePoolTable(bad_self)
    partial = {es.EmotionLabel.happy: frozenset({es.EmotionLabel.sad})}
    with pytest.raises(ContractError):
        es.NegativePoolTable(partial)


def test_all_others_pool_table():
    pools = es.NegativePoolTable.all_others()
    for e in es.EMOTIONS:
        assert len(pools.pool[e]) == 6 and e not in pools.pool[e]


# ---------------------------------------------------------------------------
# contrastive sampling
# ---------------------------------------------------------------------------

def test_singleton_pool_fully_determines_negative(default_manifest):
    pools = es.NegativePoolTable(
        {e: frozenset({es.EmotionLabel((int(e) + 1) % 7)}) for e in es.EMOTIONS})
    rng = np.random.default_rng(0)
    batch = es.sample_contrastive_batch(default_manifest, pools, 64, rng)
    for entry in entries(batch):
        assert entry.negative_prompt == es.EmotionLabel((int(entry.anchor.emotion) + 1) % 7)


def test_reference_pool_angry_never_draws_disgusted(default_manifest, reference_pools):
    rng = np.random.default_rng(7)
    seen = 0
    for _ in range(50):
        batch = es.sample_contrastive_batch(default_manifest, reference_pools, 32, rng)
        for e in entries(batch):
            if e.anchor.emotion == es.EmotionLabel.angry:
                seen += 1
                assert e.negative_prompt != es.EmotionLabel.disgusted
                assert e.negative_prompt in reference_pools.pool[es.EmotionLabel.angry]
    assert seen > 0


def test_negative_draw_uniformity_chi_squared(default_manifest):
    # statistical oracle: negatives for a fixed anchor emotion should be
    # uniform over its pool (chi-squared at alpha = 0.01, pinned seed)
    pools = es.load_reference_pools()
    rng = np.random.default_rng(123)
    counts = {}
    n_draws = 0
    while n_draws < 100_000:
        batch = es.sample_contrastive_batch(default_manifest, pools, 500, rng)
        for e in entries(batch):
            n_draws += 1
            if e.anchor.emotion == es.EmotionLabel.happy:
                counts[e.negative_prompt] = counts.get(e.negative_prompt, 0) + 1
    pool = sorted(pools.pool[es.EmotionLabel.happy])
    observed = [counts.get(p, 0) for p in pool]
    _, p_value = scipy.stats.chisquare(observed)
    assert p_value > 0.01


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64))
def test_batch_invariants_property(seed, batch_size):
    w = es.build_synthetic_world(1)
    m = es.generate_synthetic_corpus(w, 2)
    pools = es.load_reference_pools()
    rng = np.random.default_rng(seed)
    batch = es.sample_contrastive_batch(m, pools, batch_size, rng)
    assert len(entries(batch)) == batch_size
    check_contrastive_entries(batch, pools)
    train_ids = {s.id for s in m.in_split(TRAIN)}
    for entry in entries(batch):
        assert entry.anchor.id in train_ids


def test_sampling_pure_function_of_rng_state(default_manifest, reference_pools):
    b1 = es.sample_contrastive_batch(default_manifest, reference_pools, 16,
                                     np.random.default_rng(9))
    b2 = es.sample_contrastive_batch(default_manifest, reference_pools, 16,
                                     np.random.default_rng(9))
    assert [(e.anchor.id, e.negative_prompt, e.reference.id) for e in entries(b1)] \
        == [(e.anchor.id, e.negative_prompt, e.reference.id) for e in entries(b2)]


def test_missing_neutral_sample_errors_with_identity_name():
    samples = [Sample("a_happy_00", "idX", es.EmotionLabel.happy, "img:x", "a_n"),
               Sample("a_n", "idX", es.EmotionLabel.neutral, "img:n", "a_n"),
               Sample("b_happy_00", "idY", es.EmotionLabel.happy, "img:y", "a_n")]
    split = {"a_happy_00": TRAIN, "a_n": TRAIN, "b_happy_00": TRAIN}
    manifest = CorpusManifest(samples, split)
    pools = es.NegativePoolTable.all_others()
    rng = np.random.default_rng(0)
    with pytest.raises(ContractError, match="idY"):
        for _ in range(200):
            es.sample_contrastive_batch(manifest, pools, 8, rng)


def test_neutrals_of_keeps_manifest_order_and_returns_a_fresh_list():
    samples = [Sample("b_n2", "idB", es.EmotionLabel.neutral, "img:b2", "b_n2"),
               Sample("a_n", "idA", es.EmotionLabel.neutral, "img:a", "a_n"),
               Sample("b_sad", "idB", es.EmotionLabel.sad, "img:bs", "b_n2"),
               Sample("b_n0", "idB", es.EmotionLabel.neutral, "img:b0", "b_n2")]
    manifest = CorpusManifest(samples, {s.id: TRAIN for s in samples})
    neutrals = manifest.neutrals_of("idB")
    assert [s.id for s in neutrals] == ["b_n2", "b_n0"]
    neutrals.clear()
    assert [s.id for s in manifest.neutrals_of("idB")] == ["b_n2", "b_n0"]
    assert manifest.neutrals_of("idC") == []


def test_validate_rejects_an_identity_without_a_neutral():
    samples = [Sample("a_n", "idA", es.EmotionLabel.neutral, "img:a", "a_n"),
               Sample("b_happy", "idB", es.EmotionLabel.happy, "img:b", "a_n")]
    manifest = CorpusManifest(samples, {s.id: TRAIN for s in samples})
    with pytest.raises(ContractError, match="identity 'idB' has no neutral sample"):
        manifest.validate()


def test_split_equals_a_per_identity_scan():
    world = es.build_synthetic_world(4, es.WorldConfig(n_identities=48))
    manifest = es.generate_synthetic_corpus(world, 5)
    expected = {}
    for identity in world.identity_names:
        ids = [s.id for s in manifest.samples if s.identity == identity]
        ids.sort(key=lambda sid: hashlib.sha256(
            f"{world.seed}:split:{sid}".encode()).hexdigest())
        n_val = max(1, round(0.1 * len(ids)))
        expected.update({sid: VAL if i < n_val else TRAIN for i, sid in enumerate(ids)})
    assert len(manifest.samples) == 48 * 7 * 5
    assert list(manifest.split.items()) == list(expected.items())


def test_pair_batch_same_identity_different_emotion(default_manifest, reference_pools):
    rng = np.random.default_rng(11)
    pairs = draws(sample_pair_batch(default_manifest, reference_pools, 64, rng))
    for d in pairs:
        assert d.source.identity == d.target.identity
        assert d.source.emotion != d.target.emotion
        assert d.target.emotion in reference_pools.pool[d.source.emotion]
        assert d.reference.emotion == es.EmotionLabel.neutral
        assert d.reference.identity == d.source.identity


def test_references_come_from_train_neutrals_only():
    # world seed 2 puts neutral samples of three identities in val
    world = es.build_synthetic_world(2)
    manifest = es.generate_synthetic_corpus(world, 3)
    pools = es.load_reference_pools()
    val_neutrals = {s.id for s in manifest.in_split(VAL)
                    if s.emotion == es.EmotionLabel.neutral}
    assert val_neutrals == {"id000_neutral_02", "id002_neutral_02", "id003_neutral_02"}
    rng = np.random.default_rng(1)
    references = []
    for _ in range(40):
        references += [e.reference for e in
                       entries(es.sample_contrastive_batch(manifest, pools, 32, rng))]
        references += [d.reference
                       for d in draws(sample_pair_batch(manifest, pools, 32, rng))]
    assert len(references) == 2 * 1280
    assert all(manifest.split[r.id] == TRAIN for r in references)
    assert {r.identity for r in references} == set(manifest.identities())


@pytest.mark.parametrize("seed", range(1, 11))
def test_one_sample_per_emotion_keeps_a_train_neutral_per_identity(seed):
    # at one sample per emotion an identity's one val pick may rank its only
    # neutral first (world seeds 4, 6, 7 and 9); the next-ranked id goes to
    # val instead, and pre-training finds a train neutral for every identity
    world = es.build_synthetic_world(seed)
    manifest = es.generate_synthetic_corpus(world, 1)
    for identity in manifest.identities():
        assert [manifest.split[s.id] for s in manifest.neutrals_of(identity)] == [TRAIN]
        assert sum(manifest.split[s.id] == VAL for s in manifest.samples
                   if s.identity == identity) == 1
    suite = es.synthetic_suite(world)
    es.pretrain_alignment(manifest, es.load_reference_pools(), suite,
                          es.TrainConfig(epochs=1, steps_per_epoch=2, batch_size=4))


def test_manifests_of_more_than_one_sample_per_emotion_keep_their_bytes(tmp_path):
    # the val pick passes over an identity's last neutral only when val
    # would take every neutral, which needs round(0.7 k) >= k, so k = 1:
    # these manifests (the default gen-corpus one among them) are unchanged
    digest = hashlib.sha256()
    for seed in range(1, 11):
        for k in (2, 3):
            path = tmp_path / f"manifest_{seed}_{k}.json"
            es.generate_synthetic_corpus(es.build_synthetic_world(seed), k).save(path)
            digest.update(path.read_bytes())
    assert digest.hexdigest() == ("316134349b8ffe0e2c9cc712e5d1beb4"
                                  "0b7232de529a6d7f627533d41e520331")


def test_identity_without_train_neutral_errors_with_identity_name():
    samples = [Sample("x_happy_00", "idX", es.EmotionLabel.happy, "img:x", "x_n"),
               Sample("x_sad_00", "idX", es.EmotionLabel.sad, "img:x2", "x_n"),
               Sample("x_n", "idX", es.EmotionLabel.neutral, "img:n", "x_n")]
    manifest = CorpusManifest(samples, {"x_happy_00": TRAIN, "x_sad_00": TRAIN,
                                        "x_n": VAL})
    manifest.validate()
    pools = es.NegativePoolTable.all_others()
    for sampler in (es.sample_contrastive_batch, sample_pair_batch):
        with pytest.raises(ContractError, match="idX.*train-split neutral"):
            sampler(manifest, pools, 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the samplers against the per-entry scalar draws they replay
# ---------------------------------------------------------------------------

def uniform_choice(items, rng):
    return items[int(rng.integers(len(items)))]


def train_neutrals(groups, identity):
    neutrals = groups.get((identity, es.EmotionLabel.neutral))
    if not neutrals:
        raise ContractError(f"identity {identity!r} has no train-split neutral sample")
    return neutrals


def train_groups(manifest):
    train = manifest.in_split(TRAIN)
    groups = {}
    for s in train:
        groups.setdefault((s.identity, s.emotion), []).append(s)
    return train, groups


def contrastive_per_entry(manifest, pools, batch_size, rng):
    """The contrastive sampler as per-entry records: a scalar
    ``rng.integers`` draw of the anchor, the negative and the reference."""
    train, groups = train_groups(manifest)
    records = []
    for _ in range(batch_size):
        anchor = uniform_choice(train, rng)
        negative = uniform_choice(sorted(pools.pool[anchor.emotion]), rng)
        reference = uniform_choice(train_neutrals(groups, anchor.identity), rng)
        records.append(ContrastiveEntry(anchor, anchor.emotion, negative, reference))
    return records


def pairs_per_entry(manifest, pools, batch_size, rng):
    """The pair sampler as per-entry records: scalar draws of the source, the
    target emotion, the target and the reference."""
    train, groups = train_groups(manifest)
    pairs = []
    for _ in range(batch_size):
        source = uniform_choice(train, rng)
        candidates = sorted(e for e in pools.pool[source.emotion]
                            if (source.identity, e) in groups)
        if not candidates:
            raise ContractError(f"identity {source.identity!r} has no admissible "
                                f"target emotion for {source.emotion.name}")
        target_emotion = uniform_choice(candidates, rng)
        target = uniform_choice(groups[(source.identity, target_emotion)], rng)
        reference = uniform_choice(train_neutrals(groups, source.identity), rng)
        pairs.append(PairDraw(source, target, reference))
    return pairs


SAMPLERS = [(es.sample_contrastive_batch, contrastive_per_entry, entries),
            (sample_pair_batch, pairs_per_entry, draws)]
POOLS = {"reference": es.load_reference_pools(),
         "all": es.NegativePoolTable.all_others(),
         # one admissible emotion: a source whose identity lacks it in train
         # has no target
         "next": es.NegativePoolTable({e: frozenset({es.EmotionLabel((int(e) + 1) % 7)})
                                       for e in es.EMOTIONS})}


@pytest.fixture(scope="module")
def one_per_emotion_manifest():
    """The corpus of ``gen-corpus --seed 1 --per-emotion 1``: every identity
    has one train neutral, and every train group holds one sample."""
    manifest = es.generate_synthetic_corpus(es.build_synthetic_world(1), 1)
    index = manifest._train
    assert all(len(neutrals) == 1 for neutrals in index.neutrals)
    assert sum(len(members) == 1 for members in index.members) == 24
    return manifest


def outcome(sampler, view, manifest, pools, batch_size, rng):
    """The sampler's records, or the message of the ContractError it raised."""
    try:
        drawn = sampler(manifest, pools, batch_size, rng)
    except ContractError as error:
        return str(error)
    return drawn if view is None else view(drawn)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 64 - 1), batch_size=st.integers(1, 64),
       one_per_emotion=st.booleans(), pools=st.sampled_from(["reference", "all"]),
       calls=st.integers(1, 3))
def test_samplers_equal_the_per_entry_draws(default_manifest, one_per_emotion_manifest,
                                            seed, batch_size, one_per_emotion, pools,
                                            calls):
    manifest = one_per_emotion_manifest if one_per_emotion else default_manifest
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(calls):
        for sampler, oracle, view in SAMPLERS:
            drawn = view(sampler(manifest, POOLS[pools], batch_size, batched))
            assert drawn == oracle(manifest, POOLS[pools], batch_size, scalar)
            assert batched.bit_generator.state == scalar.bit_generator.state


def without_a_train_neutral(manifest: CorpusManifest, identity: str) -> CorpusManifest:
    """``manifest`` with ``identity``'s neutrals in val and its other samples
    in train."""
    split = {s.id: (VAL if s.emotion == es.EmotionLabel.neutral else TRAIN)
             if s.identity == identity else manifest.split[s.id] for s in manifest.samples}
    return CorpusManifest(manifest.samples, split, world_config=manifest.world_config,
                          world_seed=manifest.world_seed)


def test_samplers_raise_where_the_per_entry_draws_raise():
    # world seed 4 at one sample per emotion, with id000's one val pick its
    # only neutral, leaves an identity without a train neutral, and
    # identities without some train emotions
    manifest = without_a_train_neutral(
        es.generate_synthetic_corpus(es.build_synthetic_world(4), 1), "id000")
    assert any(not neutrals for neutrals in manifest._train.neutrals)
    messages = set()
    for (sampler, oracle, view), pools, seed in itertools.product(
            SAMPLERS, POOLS.values(), range(3)):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(12):
            got = outcome(sampler, view, manifest, pools, 4, batched)
            assert got == outcome(oracle, None, manifest, pools, 4, scalar)
            assert batched.bit_generator.state == scalar.bit_generator.state
            messages.add(got.split(" has ")[1] if isinstance(got, str) else "a batch")
    # both errors are reached, and so are batches between them
    assert {"a batch", "no train-split neutral sample"} < messages
    assert any(m.startswith("no admissible target emotion for ") for m in messages)


# n = 1 takes no word; 2**31 + 1 rejects about half the words; the largest
# bounds reject rarely but use the whole word
bounds = st.one_of(st.just(1), st.integers(2, 9),
                   st.sampled_from([2 ** 31 + 1, 2 ** 31 + 3]),
                   st.integers(2 ** 31, 2 ** 32 - 1), st.integers(2, 2 ** 32 - 1))


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 64 - 1), earlier=st.integers(0, 4).map(lambda k: 2 * k + 1),
       ns=st.lists(bounds, max_size=40), size=st.integers(1, 12))
@example(seed=0, earlier=1, ns=[2 ** 31 + 1] * 30, size=4)
@example(seed=1, earlier=3, ns=[1] * 5, size=5)
@example(seed=2, earlier=1, ns=[2 ** 32 - 1, 1, 2, 2 ** 31 + 1], size=40)
def test_replay_equals_scalar_integers(seed, earlier, ns, size):
    # an odd number of earlier 32-bit draws leaves half a 64-bit output cached
    scalar, replayed = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (scalar, replayed):
        rng.integers(0, 2 ** 32, size=earlier, dtype=np.uint32)
    want = [int(scalar.integers(n)) for n in ns]
    with corpus._Replay(replayed, size) as draw:
        got = [draw(n) for n in ns]
    assert got == want
    assert replayed.bit_generator.state == scalar.bit_generator.state


def test_replay_leaves_the_scalar_state_when_the_walk_raises():
    scalar, replayed = np.random.default_rng(7), np.random.default_rng(7)
    want = [int(scalar.integers(n)) for n in (5, 2 ** 31 + 1, 1, 3)]
    with pytest.raises(ContractError, match="stop"):
        with corpus._Replay(replayed, 20) as draw:
            assert [draw(n) for n in (5, 2 ** 31 + 1, 1, 3)] == want
            raise ContractError("stop")
    assert replayed.bit_generator.state == scalar.bit_generator.state


# ---------------------------------------------------------------------------
# the split index
# ---------------------------------------------------------------------------

def test_pretraining_reads_the_train_split_once(monkeypatch, reference_pools):
    # the samplers read the manifest's split index; only the run's frozen
    # table reads in_split, once, however large the corpus or long the run
    in_split = CorpusManifest.in_split
    calls = []

    def counted(self, split):
        calls.append(split)
        return in_split(self, split)

    counts = []
    for n_identities in (4, 12):
        world = es.build_synthetic_world(1, es.WorldConfig(n_identities=n_identities))
        manifest = es.generate_synthetic_corpus(world, 3)
        suite = es.synthetic_suite(world)
        for epochs in (1, 3):
            config = es.TrainConfig(epochs=epochs, steps_per_epoch=2, batch_size=4)
            for train in (es.pretrain_alignment, es.pretrain_with_difference_objective):
                with monkeypatch.context() as patch:
                    patch.setattr(CorpusManifest, "in_split", counted)
                    calls.clear()
                    train(manifest, reference_pools, suite, config)
                    counts.append(len(calls))
    assert len(set(counts)) == 1 and counts[0] <= 1


def test_split_index_equals_a_scan():
    # world seed 2 puts neutrals in val; shuffling the samples checks that the
    # index keeps manifest order
    generated = es.generate_synthetic_corpus(es.build_synthetic_world(2), 3)
    order = np.random.default_rng(5).permutation(len(generated.samples))
    manifest = CorpusManifest([generated.samples[i] for i in order], generated.split)
    assert manifest.samples != generated.samples
    assert any(s.emotion == es.EmotionLabel.neutral for s in manifest.in_split(VAL))
    for split in (TRAIN, VAL):
        scan = [s for s in manifest.samples if manifest.split[s.id] == split]
        assert manifest.in_split(split) == scan
    # the samplers' positional index of the train split is the same scan,
    # grouped by (identity, emotion) in order of first appearance
    train = [s for s in manifest.samples if manifest.split[s.id] == TRAIN]
    groups = {}
    for s in train:
        groups.setdefault((s.identity, s.emotion), []).append(s)
    index = manifest._train
    assert index.samples == train and index.samples is manifest._splits[TRAIN]
    assert index.emotion == [int(s.emotion) for s in train]
    keys = list(groups)
    assert [keys[g] for g in index.group] == [(s.identity, s.emotion) for s in train]
    assert [[train[n] for n in members] for members in index.members] \
        == list(groups.values())
    for s, neutrals in zip(train, index.neutrals):
        assert [train[n] for n in neutrals] == groups.get(
            (s.identity, es.EmotionLabel.neutral), [])
    assert manifest._train is index


def test_in_split_returns_a_fresh_list(default_manifest, reference_pools):
    train = default_manifest.in_split(TRAIN)
    assert train is not default_manifest.in_split(TRAIN)
    n_train = len(train)
    train.clear()
    assert len(default_manifest.in_split(TRAIN)) == n_train
    batch = es.sample_contrastive_batch(default_manifest, reference_pools, 8,
                                        np.random.default_rng(0))
    assert len(entries(batch)) == 8


def test_split_missing_an_id_constructs_and_validate_refuses():
    samples = [Sample("x_happy_00", "idX", es.EmotionLabel.happy, "img:x", "x_n"),
               Sample("x_n", "idX", es.EmotionLabel.neutral, "img:n", "x_n")]
    manifest = CorpusManifest(samples, {"x_n": TRAIN})
    assert manifest.in_split(TRAIN) == [samples[1]]
    assert manifest.in_split(VAL) == []
    with pytest.raises(ContractError, match="split tags must cover exactly the sample ids"):
        manifest.validate()
