import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emosup as es
from emosup.emotions import EMOTION_WORD_POSITION, parse_emotion
from emosup.encoders import NOISE_BLOCK, position_weight, seed_state_words
from emosup.errors import ContractError


def worlds_equal(a, b):
    arrays = ["emotion_prototypes", "identity_latents", "modality_offset",
              "visual_map", "text_map", "backbone_map", "token_map",
              "latent_to_token"]
    return (all(np.array_equal(getattr(a, n), getattr(b, n)) for n in arrays)
            and all(np.array_equal(a.emotion_word_tokens[k], b.emotion_word_tokens[k])
                    for k in a.emotion_word_tokens))


def test_same_seed_bitwise_identical_world():
    assert worlds_equal(es.build_synthetic_world(3), es.build_synthetic_world(3))


def test_different_seed_differs():
    assert not worlds_equal(es.build_synthetic_world(3), es.build_synthetic_world(4))


def test_world_structure(default_world):
    w = default_world
    protos = w.emotion_prototypes
    assert protos.shape[0] == 7
    for i in range(7):
        for j in range(i + 1, 7):
            assert not np.allclose(protos[i], protos[j])
    for m in (w.visual_map, w.text_map, w.backbone_map):
        assert np.linalg.matrix_rank(m) == w.config.d_latent


def test_noise_free_zero_gap_offset_is_identity_term():
    w = es.build_synthetic_world(5, es.WorldConfig(noise_sigma=0.0, gap=0.0))
    suite = es.synthetic_suite(w)
    for e in (es.EmotionLabel.happy, es.EmotionLabel.angry):
        for idx in (0, 1):
            ident = w.identity_names[idx]
            visual = suite.visual_encode((w.image_ref(ident, e, 0),))[0]
            text = suite.text_encode(suite.tokenize(es.prompt_for(e))[None])[0]
            identity_term = w.visual_map @ w.identity_latents[idx]
            assert np.max(np.abs((visual - text) - identity_term)) < 1e-12


def test_mean_cross_modal_offset_matches_designed_gap():
    # Monte-Carlo oracle directly on the generative model: fresh identity
    # latents and noise, mean(visual - matching text) should estimate the
    # modality offset within 3 sigma/sqrt(N) per dimension aggregate.
    w = es.build_synthetic_world(7, es.WorldConfig(noise_sigma=0.1, gap=1.5))
    rng = np.random.default_rng(99)
    n = 20000
    offsets = np.zeros((n, w.config.d_e))
    for i in range(n):
        z = rng.standard_normal(w.config.d_latent)
        z /= np.linalg.norm(z)
        k = int(rng.integers(7))
        noise = w.config.noise_sigma * rng.standard_normal(w.config.d_e)
        visual = w.visual_map @ (z + w.emotion_prototypes[k]) + w.modality_offset + noise
        offsets[i] = visual - w.text_prototype(es.EmotionLabel(k))
    mean = offsets.mean(axis=0)
    sem = offsets.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - w.modality_offset) < 3.5 * sem)


def test_generation_validation_errors():
    for config, message in [
            (es.WorldConfig(n_identities=1), "need at least 2 identities"),
            (es.WorldConfig(noise_sigma=-0.1), "noise_sigma must be >= 0"),
            (es.WorldConfig(noise_sigma=np.nan), "noise_sigma must be finite, got nan"),
            (es.WorldConfig(gap=np.nan), "gap must be finite, got nan"),
            (es.WorldConfig(gap=np.inf), "gap must be finite, got inf"),
            (es.WorldConfig(word_token_scale=np.nan),
             "word_token_scale must be finite, got nan"),
            (es.WorldConfig(d_latent=64, d_tok=32), "dims must satisfy")]:
        with pytest.raises(ContractError, match=message):
            es.build_synthetic_world(1, config)


# ---------------------------------------------------------------------------
# tokenizer / text encoder
# ---------------------------------------------------------------------------

def test_tokenize_word_count(default_suite):
    seq = default_suite.tokenize("a photo of a happy face")
    assert seq.shape == (6, default_suite.d_tok) and seq.dtype == np.float64


def test_tokenize_deterministic(default_suite):
    a = default_suite.tokenize("a photo of a sad face")
    b = default_suite.tokenize("a photo of a sad face")
    assert np.array_equal(a, b)


def test_tokenize_prompts_differ_only_at_emotion_word(default_suite):
    a = default_suite.tokenize(es.prompt_for(es.EmotionLabel.happy))
    b = default_suite.tokenize(es.prompt_for(es.EmotionLabel.sad))
    for i in range(len(a)):
        same = np.array_equal(a[i], b[i])
        assert same == (i != EMOTION_WORD_POSITION)


def test_tokenize_empty_prompt(default_suite, precomputed_suite):
    for suite in (default_suite, precomputed_suite):
        with pytest.raises(ContractError, match="cannot tokenize an empty prompt"):
            suite.tokenize("   ")


def test_text_encode_zero_token_is_zero(default_suite, default_world):
    stack = np.zeros((1, 1, default_world.config.d_tok))
    assert np.array_equal(default_suite.text_encode(stack),
                          np.zeros((1, default_world.config.d_e)))


def test_text_encode_deterministic(default_suite):
    stack = default_suite.tokenize("a photo of a fear face")[None]
    assert np.array_equal(default_suite.text_encode(stack),
                          default_suite.text_encode(stack))


def test_text_encode_prepending_changes_output(default_suite, default_world, rng):
    for _ in range(5):
        base = rng.standard_normal((4, default_world.config.d_tok))
        extra = rng.standard_normal((1, default_world.config.d_tok))
        prepended = np.concatenate([extra, base])
        assert not np.allclose(default_suite.text_encode(base[None]),
                               default_suite.text_encode(prepended[None]))


def test_text_encode_prepend_additivity(default_suite, default_world, rng):
    # prepending adds exactly the weighted image of the new token
    seq = default_suite.tokenize(es.prompt_for(es.EmotionLabel.happy))
    tau = rng.standard_normal(default_world.config.d_tok)
    lhs = default_suite.text_encode(np.concatenate([tau[None], seq])[None])[0]
    rhs = (default_suite.text_encode(seq[None])[0]
           + position_weight(0, len(seq) + 1) * (default_world.token_map @ tau))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_plain_prompt_encodings_hit_text_prototypes(default_suite, default_world):
    for e in es.EMOTIONS:
        enc = default_suite.text_encode(default_suite.tokenize(es.prompt_for(e))[None])[0]
        assert np.max(np.abs(enc - default_world.text_prototype(e))) < 1e-12


def test_frozen_encoders_repeat_identically(default_world, default_suite):
    ref = default_world.image_ref("id001", es.EmotionLabel.fear, 1)
    assert np.array_equal(default_suite.visual_encode((ref,)),
                          default_suite.visual_encode((ref,)))
    assert np.array_equal(default_suite.backbone_identity(ref),
                          default_suite.backbone_identity(ref))


def test_same_identity_emotion_encode_identically_at_zero_noise(noise_free_world):
    suite = es.synthetic_suite(noise_free_world)
    refs = tuple(noise_free_world.image_ref("id000", es.EmotionLabel.sad, j) for j in (0, 1))
    a, b = suite.visual_encode(refs)
    assert np.array_equal(a, b)


# a replicate of more digits than int() converts by default (4300), which
# image_ref cannot spell either
OVERLONG_REF = "img:id000:happy:" + "1" * 4301
# other spellings of img:id000:happy:1, or no ref at all: a leading zero, a
# space, a sign, no digit, non-ASCII digits (Arabic-Indic, fullwidth), a
# capitalized emotion, no replicate, a fifth field, and an overlong replicate
NON_CANONICAL_REFS = ["img:id000:happy:01", "img:id000:happy: 1", "img:id000:happy:-1",
                      "img:id000:happy:+1", "img:id000:happy:x", "img:id000:happy:\u0663",
                      "img:id000:happy:\uff11", "img:id000:Happy:1", "img:id000:happy:",
                      "img:id000:happy:1:0", pytest.param(OVERLONG_REF, id="overlong")]


@pytest.mark.parametrize("encoder", ["visual_embedding", "visual_encode",
                                     "backbone_identity"])
@pytest.mark.parametrize("ref", NON_CANONICAL_REFS)
def test_a_non_canonical_image_ref_is_refused(default_world, default_suite, encoder, ref):
    # the noise is hashed from the ref string, so another spelling of
    # img:id000:happy:1 would be a second embedding of the same image
    encode = {"visual_embedding": default_world.visual_embedding,
              "visual_encode": lambda ref: default_suite.visual_encode((ref,)),
              "backbone_identity": default_suite.backbone_identity}[encoder]
    encode("img:id000:happy:1")
    with pytest.raises(KeyError, match=re.escape(f"unknown image ref {ref!r}")):
        encode(ref)


@pytest.mark.parametrize("name, error", [("Happy", ValueError), ("HAPPY", ValueError),
                                         (4, ValueError), (["happy"], TypeError)])
def test_parse_emotion_refuses_anything_but_a_canonical_name(name, error):
    assert all(parse_emotion(e.name) is e for e in es.EMOTIONS)
    with pytest.raises(error):
        parse_emotion(name)


def test_identity_index_is_the_position_in_the_name_list():
    world = es.build_synthetic_world(3, es.WorldConfig(n_identities=48))
    names = [f"id{i:03d}" for i in range(48)]
    assert world.identity_names == names
    for name in names:
        assert world.identity_index(name) == names.index(name)
    for name in ["id48", "id048", "id0", "id0000", "idX"]:
        with pytest.raises(KeyError, match=f"unknown identity {name!r}"):
            world.identity_index(name)


# ---------------------------------------------------------------------------
# batched visual encoding and the vectorized SeedSequence
# ---------------------------------------------------------------------------

def numpy_state_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_seed_state_words_match_numpy_at_word_boundaries(seed):
    words = seed_state_words(np.array([seed], dtype=np.uint64))
    assert words.shape == (1, 4) and words.dtype == np.uint64
    assert np.array_equal(words[0], numpy_state_words(seed))


@settings(max_examples=50)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
def test_seed_state_words_match_numpy(seeds):
    expected = np.array([numpy_state_words(s) for s in seeds])
    assert np.array_equal(seed_state_words(np.array(seeds, dtype=np.uint64)), expected)


def test_seed_state_words_match_numpy_on_every_noise_seed_of_a_large_manifest():
    world = es.build_synthetic_world(3, es.WorldConfig(n_identities=48))
    refs = [s.image_ref for s in es.generate_synthetic_corpus(world, 30).samples]
    assert len(refs) == 48 * 7 * 30
    seeds = [int.from_bytes(hashlib.sha256(f"3:noise:{ref}".encode()).digest()[:8],
                            "little") for ref in refs]
    expected = np.array([numpy_state_words(s) for s in seeds])
    assert np.array_equal(seed_state_words(np.array(seeds, dtype=np.uint64)), expected)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (3, np.uint64),
                                            (2, np.uint64), (8, np.uint64), (4, np.int64)])
def test_fixed_seed_serves_only_four_uint64_words(n_words, dtype):
    words = seed_state_words(np.array([7], dtype=np.uint64))[0]
    fixed = es.encoders._fixed_seed_type()(words)
    assert isinstance(fixed, np.random.bit_generator.ISeedSequence)
    assert fixed.generate_state(4, np.uint64) is words
    assert np.random.PCG64(fixed).state == np.random.PCG64(7).state
    with pytest.raises(ContractError, match="4 uint64 state words"):
        fixed.generate_state(n_words, dtype)


def per_ref_stack(encode_one, refs) -> np.ndarray:
    return np.stack([encode_one(ref) for ref in refs])


def assert_same_bytes(a: np.ndarray, b: np.ndarray):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("noise", [0.05, 0.0])
def test_batched_visual_encode_equals_the_per_ref_calls(noise):
    world = es.build_synthetic_world(4, es.WorldConfig(noise_sigma=noise))
    suite = es.synthetic_suite(world)
    distinct = [world.image_ref(i, e, j) for i in world.identity_names
                for e in es.EMOTIONS for j in range(10)]
    # one block + 1 refs, three of them repeats, shuffled so that runs of
    # one (identity, emotion) are short and a repeat may sit in either block
    refs = distinct[:NOISE_BLOCK - 2] + [distinct[0], distinct[100], distinct[NOISE_BLOCK - 3]]
    refs = tuple(np.random.default_rng(0).permutation(refs).tolist())
    assert len(refs) == NOISE_BLOCK + 1 and len(set(refs)) == NOISE_BLOCK - 2
    assert_same_bytes(suite.visual_encode(refs), per_ref_stack(world.visual_embedding, refs))
    assert_same_bytes(world.visual_embeddings(refs[:5]),
                      per_ref_stack(world.visual_embedding, refs[:5]))


@pytest.mark.parametrize("noise", [0.05, 0.0])
def test_runs_of_one_pair_across_blocks_equal_the_per_ref_calls(noise):
    world = es.build_synthetic_world(4, es.WorldConfig(noise_sigma=noise))
    sad, fear = es.EmotionLabel.sad, es.EmotionLabel.fear

    def refs_of(identity, emotion, replicates):
        return [world.image_ref(identity, emotion, j) for j in replicates]

    # a run of one pair across the first block boundary, two pairs that
    # alternate ref by ref, a run across the second boundary, then single
    # refs of pairs seen before
    refs = (refs_of("id000", sad, range(NOISE_BLOCK + 5))
            + [ref for j in range(100)
               for ref in refs_of("id001", sad, [j]) + refs_of("id002", fear, [j])]
            + refs_of("id003", fear, range(80))
            + refs_of("id000", sad, [1000]) + refs_of("id003", fear, [1000]))
    assert len(refs) > 2 * NOISE_BLOCK
    keys = [world._parse_ref(ref) for ref in refs]
    for boundary in (NOISE_BLOCK, 2 * NOISE_BLOCK):
        assert keys[boundary - 1] == keys[boundary]
    assert_same_bytes(world.visual_embeddings(tuple(refs)),
                      per_ref_stack(world.visual_embedding, refs))


def test_batched_precomputed_encode_equals_the_per_id_calls(precomputed_suite):
    ids = ("s2", "s0", "s2", "s1")
    assert_same_bytes(precomputed_suite.visual_encode(ids), per_ref_stack(
        lambda i: precomputed_suite.visual_encode((i,))[0], ids))


def test_batched_visual_encode_of_no_refs_is_an_empty_stack(any_suite):
    empty = any_suite.visual_encode(())
    assert empty.shape == (0, any_suite.d_e) and empty.dtype == np.float64


@pytest.mark.parametrize("bad", NON_CANONICAL_REFS + ["img:id099:happy:0",
                                                      "img:id000:bored:0"])
@pytest.mark.parametrize("position", [0, 7, NOISE_BLOCK + 3, -1])
def test_batched_visual_encode_refuses_a_bad_ref_anywhere(default_world, default_suite,
                                                          bad, position):
    # the same error as the world's per-ref embedding: a KeyError, also for
    # an unknown emotion name
    with pytest.raises(KeyError) as scalar:
        default_world.visual_embedding(bad)
    refs = [default_world.image_ref("id001", es.EmotionLabel.sad, j)
            for j in range(NOISE_BLOCK + 10)]
    refs[position] = bad
    with pytest.raises(type(scalar.value)) as batched:
        default_suite.visual_encode(tuple(refs))
    assert type(batched.value) is type(scalar.value)
    assert str(batched.value) == str(scalar.value)


def test_batched_precomputed_encode_refuses_an_unknown_id(precomputed_suite):
    with pytest.raises(KeyError, match="unknown sample id 'nope'"):
        precomputed_suite.visual_encode(("s0", "nope", "s1"))


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy 1.x loads numpy.random with numpy itself, numpy 2.x on first use;
    # either way emosup adds none of it at import time
    code = ("import sys, numpy; before = set(sys.modules); import emosup.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m == 'numpy.random' or m.startswith('numpy.random.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(es.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


# ---------------------------------------------------------------------------
# feature files / precomputed suite
# ---------------------------------------------------------------------------

def test_feature_file_roundtrip(tmp_path, rng):
    vec = rng.standard_normal(17).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.f32"
    es.write_feature_file(path, vec)
    back = es.read_feature_file(path)
    assert np.array_equal(back, vec)  # float32-exact values survive bitwise
    raw = path.read_bytes()
    assert raw[:4] == b"PCMF" and len(raw) == 8 + 4 * 17


def test_a_feature_file_larger_than_one_read_roundtrips(tmp_path, rng):
    vec = rng.standard_normal(20_000).astype(np.float32)
    path = tmp_path / "big.f32"
    es.write_feature_file(path, vec)
    assert path.stat().st_size > es.encoders._READ_SIZE
    back = es.read_feature_file(path)
    assert back.dtype == np.float64
    assert back.astype(np.float32).tobytes() == vec.tobytes()


@pytest.mark.parametrize("make", ["directory", "missing"])
def test_a_feature_path_that_cannot_be_read_is_refused_by_name(tmp_path, make):
    path = tmp_path / "x.f32"
    if make == "directory":
        path.mkdir()
    with pytest.raises(OSError) as refused:
        es.read_feature_file(path)
    assert refused.value.filename == str(path)
    assert str(path) in str(refused.value)


# a feature file cut inside its header, and one cut inside an entry
TRUNCATED = {"header": (b"PCMF\x02", "truncated header, 5 bytes"),
             "entry": (b"PCMF\x02\x00\x00\x00" + bytes(7),
                       "payload of 7 bytes is not a whole number of float32 entries")}


@pytest.mark.parametrize("case", list(TRUNCATED))
def test_a_truncated_feature_file_is_refused_by_name(tmp_path, case):
    raw, message = TRUNCATED[case]
    path = tmp_path / "cut.f32"
    path.write_bytes(raw)
    with pytest.raises(ContractError, match=re.escape(f"{path}: {message}")):
        es.read_feature_file(path)


def write_precomputed(tmp_path, dim=12, n=3):
    rng = np.random.default_rng(5)
    samples = []
    for i in range(n):
        vec = rng.standard_normal(dim).astype(np.float32)
        es.write_feature_file(tmp_path / f"s{i}.f32", vec)
        samples.append({"id": f"s{i}", "identity": "idA", "emotion": "happy",
                        "feature_file": f"s{i}.f32"})
    text = {}
    for e in es.EMOTIONS:
        es.write_feature_file(tmp_path / f"t_{e.name}.f32",
                              rng.standard_normal(dim).astype(np.float32))
        text[e.name] = f"t_{e.name}.f32"
    manifest = {"dim": dim, "samples": samples, "text_embeddings": text}
    path = tmp_path / "features.json"
    path.write_text(json.dumps(manifest))
    return path


def test_precomputed_suite_dims_and_roundtrip(tmp_path):
    path = write_precomputed(tmp_path, dim=12)
    suite = es.load_precomputed_features(path)
    assert suite.d_e == 12
    served = suite.visual_encode(("s0",))[0]
    direct = es.read_feature_file(tmp_path / "s0.f32")
    assert np.array_equal(served, direct)


def test_precomputed_unknown_id_names_sample(tmp_path):
    suite = es.load_precomputed_features(write_precomputed(tmp_path))
    with pytest.raises(KeyError, match="nope"):
        suite.visual_encode(("nope",))


def test_a_sample_id_listed_twice_is_refused(tmp_path):
    path = write_precomputed(tmp_path)
    spec = json.loads(path.read_text())
    spec["samples"].append({**spec["samples"][1], "id": "s0"})
    path.write_text(json.dumps(spec))
    for load in (es.read_feature_manifest, es.load_precomputed_features):
        with pytest.raises(ContractError, match="sample id 's0' is listed twice"):
            load(path)


@pytest.mark.parametrize("edit", [
    lambda spec: spec["text_embeddings"].update(bored="t_happy.f32"),
    lambda spec: spec.pop("dim"),
    lambda spec: spec["samples"][-1].pop("feature_file"),
    lambda spec: spec["samples"].append(3)],
    ids=["unknown text emotion", "no dim", "a sample with no file",
         "a sample that is a number"])
def test_a_malformed_feature_manifest_is_refused_by_name_before_any_file_is_read(
        tmp_path, monkeypatch, edit):
    path = write_precomputed(tmp_path)
    spec = json.loads(path.read_text())
    edit(spec)
    path.write_text(json.dumps(spec))

    def read_feature_file(path):
        raise AssertionError(f"read {path} before the spec was parsed")

    monkeypatch.setattr("emosup.encoders.read_feature_file", read_feature_file)
    with pytest.raises(ContractError, match=f"^{re.escape(str(path))}: malformed"):
        es.read_feature_manifest(path)


def test_precomputed_dim_inconsistency_rejected(tmp_path):
    path = write_precomputed(tmp_path, dim=12)
    es.write_feature_file(tmp_path / "s0.f32", np.zeros(9, dtype=np.float32))
    with pytest.raises(ContractError):
        es.load_precomputed_features(path)


def test_precomputed_text_encoding_serves_table(tmp_path):
    path = write_precomputed(tmp_path)
    suite = es.load_precomputed_features(path)
    seq = suite.tokenize(es.prompt_for(es.EmotionLabel.angry))
    assert seq.shape == (1, suite.d_tok)
    enc = suite.text_encode(seq[None])[0]
    assert np.array_equal(enc, es.read_feature_file(tmp_path / "t_angry.f32"))
    seq[0] = 0.0  # the tokens are a copy: the suite's table does not change
    assert np.array_equal(suite.tokenize("angry"), enc[None])


# ---------------------------------------------------------------------------
# stacked text encoder, both backends
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def precomputed_suite(tmp_path_factory):
    return es.load_precomputed_features(
        write_precomputed(tmp_path_factory.mktemp("features"), dim=12))


@pytest.fixture(params=["synthetic", "precomputed"])
def any_suite(request):
    return request.getfixturevalue(
        "default_suite" if request.param == "synthetic" else "precomputed_suite")


@settings(max_examples=30)
@given(backend=st.sampled_from(["synthetic", "precomputed"]), seed=st.integers(0, 10_000),
       rows=st.integers(1, 5), guider_tokens=st.sampled_from([1, 2]),
       prompt_lengths=st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True))
def test_stacked_text_calls_equal_per_sequence_calls(default_suite, precomputed_suite,
                                                     backend, seed, rows, guider_tokens,
                                                     prompt_lengths):
    suite = default_suite if backend == "synthetic" else precomputed_suite
    rng = np.random.default_rng(seed)
    guider = rng.standard_normal((rows, guider_tokens, suite.d_tok))
    for prompt_length in prompt_lengths:  # one stack per prompt length
        prompt = np.broadcast_to(rng.standard_normal((prompt_length, suite.d_tok)),
                                 (rows, prompt_length, suite.d_tok))
        stack = np.concatenate([guider, prompt], axis=1)
        upstream = rng.standard_normal((rows, suite.d_e))
        encoded = suite.text_encode(stack)
        assert encoded.shape == (rows, suite.d_e)
        vjps = [suite.text_token_vjp(stack, i, upstream) for i in range(stack.shape[1])]
        for b in range(rows):
            one = stack[b:b + 1]  # sequence b as a one-row stack
            np.testing.assert_allclose(encoded[b], suite.text_encode(one)[0],
                                       rtol=1e-12, atol=1e-12)
            for i, vjp in enumerate(vjps):
                assert vjp.shape == (rows, suite.d_tok)
                np.testing.assert_allclose(
                    vjp[b], suite.text_token_vjp(one, i, upstream[b:b + 1])[0],
                    rtol=1e-12, atol=1e-12)


def test_a_token_sequence_is_refused_and_its_one_row_stack_encodes(any_suite, rng):
    seq = rng.standard_normal((3, any_suite.d_tok))
    upstream = rng.standard_normal(any_suite.d_e)
    with pytest.raises(ContractError, match=r"\(B, L, d_tok\) stack"):
        any_suite.text_encode(seq)
    for i in range(len(seq)):
        with pytest.raises(ContractError, match=r"\(B, L, d_tok\) stack"):
            any_suite.text_token_vjp(seq, i, upstream)
    stack = seq[None]
    assert any_suite.text_encode(stack).shape == (1, any_suite.d_e)
    assert np.array_equal(any_suite.text_encode([seq.tolist()]), any_suite.text_encode(stack))
    assert any_suite.text_token_vjp(stack, 0, upstream[None]).shape == (1, any_suite.d_tok)


def bad_stacks(d_tok):
    """Token input both text calls refuse: malformed stacks, and ``(L,
    d_tok)`` sequences, given as arrays or as lists of tokens, which are no
    stacks."""
    nan_stack = np.ones((2, 3, d_tok))
    nan_stack[1, 2, 0] = np.nan
    inf_stack = np.ones((2, 3, d_tok))
    inf_stack[0, 0, -1] = np.inf
    nan_sequence = np.ones((3, d_tok))
    nan_sequence[1, 0] = np.nan
    shape = r"non-empty \(B, L, d_tok\) stack"
    return {"wrong d_tok": (np.ones((2, 3, d_tok + 1)), "d_tok"),
            "sequence": (np.ones((3, d_tok)), shape),
            "wrong d_tok sequence": (np.ones((3, d_tok + 1)), shape),
            "1-D": (np.ones(d_tok), shape),
            "4-D": (np.ones((1, 2, 3, d_tok)), shape),
            "empty": (np.ones((0, 3, d_tok)), shape),
            "no tokens": ([], shape),
            "empty sequence": (np.ones((0, d_tok)), shape),
            "zero-width tokens": ([np.ones(0), np.ones(0)], shape),
            "ragged": ([np.ones(d_tok), np.ones(d_tok + 1)], "one shape"),
            "nan": (nan_stack, "non-finite"),
            "inf": (inf_stack, "non-finite"),
            "nan sequence": (nan_sequence, shape)}


def test_token_vjp_is_the_adjoint_of_text_encode(any_suite, rng):
    # the text encoder is linear, so <vjp(u, i), delta> is exactly the change
    # of <u, encode> when delta is added at token i of every sequence
    stack = rng.standard_normal((3, 4, any_suite.d_tok))
    upstream = rng.standard_normal((3, any_suite.d_e))
    delta = rng.standard_normal((3, any_suite.d_tok))
    encoded = any_suite.text_encode(stack)
    for i in range(stack.shape[1]):
        moved = stack.copy()
        moved[:, i] += delta
        change = np.sum(upstream * (any_suite.text_encode(moved) - encoded))
        assert abs(np.sum(any_suite.text_token_vjp(stack, i, upstream) * delta)
                   - change) < 1e-12


def test_visual_encode_refuses_a_raw_vector(any_suite):
    # a suite takes refs only, and no caller passes it a raw vector
    with pytest.raises(KeyError, match="unknown (image ref|sample id)"):
        any_suite.visual_encode((np.ones(any_suite.d_e),))


@pytest.mark.parametrize("refs", ["img:id000:happy:0", ["img:id000:happy:0"], np.ones(3)],
                         ids=["str", "list", "ndarray"])
def test_visual_encode_refuses_anything_but_a_tuple(any_suite, refs):
    # a str would otherwise be read one character at a time, and a list is
    # no hashable set member for the benchmark's distinct-input count
    with pytest.raises(ContractError, match=f"tuple of refs, got {type(refs).__name__}"):
        any_suite.visual_encode(refs)


def test_the_identity_backbone_refuses_a_raw_vector(default_suite):
    with pytest.raises(KeyError, match="unknown image ref"):
        default_suite.backbone_identity(np.ones(default_suite.d_e))


def test_a_precomputed_prompt_that_names_no_emotion_is_refused(precomputed_suite):
    with pytest.raises(ContractError, match="'a photo of a face' names no known emotion"):
        precomputed_suite.tokenize("a photo of a face")


@pytest.mark.parametrize("case", list(bad_stacks(1)))
def test_text_calls_reject_malformed_stacks(any_suite, case):
    stack, message = bad_stacks(any_suite.d_tok)[case]
    with pytest.raises(ContractError, match=message):
        any_suite.text_encode(stack)
    with pytest.raises(ContractError, match=message):
        any_suite.text_token_vjp(stack, 0, np.ones((2, any_suite.d_e)))


@pytest.mark.parametrize("shape", [(2, "d_e"), (4, "d_e"), ("d_e",), (3, "d_e+1")])
def test_token_vjp_rejects_an_upstream_that_does_not_match(any_suite, shape):
    dims = {"d_e": any_suite.d_e, "d_e+1": any_suite.d_e + 1}
    upstream = np.ones(tuple(dims.get(n, n) for n in shape))
    with pytest.raises(ContractError, match="upstream gradient"):
        any_suite.text_token_vjp(np.ones((3, 2, any_suite.d_tok)), 0, upstream)


def test_token_vjp_rejects_a_bad_index_or_non_finite_upstream(any_suite):
    stack = np.ones((3, 2, any_suite.d_tok))
    upstream = np.ones((3, any_suite.d_e))
    for index in (-1, 2):
        with pytest.raises(ContractError, match="token index"):
            any_suite.text_token_vjp(stack, index, upstream)
    upstream[1, 0] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        any_suite.text_token_vjp(stack, 0, upstream)
