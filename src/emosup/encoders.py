"""Frozen encoder abstraction plus two concrete backends.

An :class:`EncoderSuite` bundles the four frozen maps the rest of the
toolkit depends on: a visual encoder and a text encoder landing in one
shared embedding space, a tokenizer, and an identity backbone. The
synthetic backend generates a fully known linear world so every
downstream behaviour has a computable ground truth; the precomputed
backend serves externally extracted features from files.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import numbers
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .emotions import (EMOTION_BY_NAME, EMOTION_WORD_POSITION, EMOTIONS, EmotionLabel,
                       parse_emotion, prompt_for)
from .errors import ContractError, GenerationError, load_json_object

FEATURE_MAGIC = b"PCMF"
# bytes per os.read of a feature file; a default-dim file is 264 bytes
_READ_SIZE = 1 << 16
# refs per seed_state_words pass in SyntheticWorld.visual_embeddings, and per
# batched encode in gen-corpus: large enough that the pass's fixed cost is
# small per ref, small enough that the temporaries stay bounded
NOISE_BLOCK = 256


@dataclass(frozen=True)
class EncoderSuite:
    """Bundle of frozen encoder callables over a shared embedding space.

    ``visual_encode`` and ``text_encode`` both land in dimension ``d_e``;
    ``backbone_identity`` produces ``d_b``-dim identity features and
    ``tokenize`` turns a prompt into its tokens, an ``(L, d_tok)`` float64
    array of its own. All maps are deterministic and never change once the
    suite is built.

    The text encoder works on token stacks: ``text_encode`` maps a
    ``(B, L, d_tok)`` array of B sequences of L tokens to a ``(B, d_e)``
    stack, and ``text_token_vjp(stack, i, u)`` backpropagates a
    ``(B, d_e)`` upstream embedding gradient ``u`` onto token ``i`` of
    every sequence, giving ``(B, d_tok)`` (the encoders are frozen; only
    prompt tokens ever receive gradients). One prompt's ``(L, d_tok)``
    tokens encode as the one-sequence stack ``tokens[None]``. Both validate
    their token input once, and raise :class:`ContractError` for a wrong
    rank, no tokens, ragged tokens, a wrong ``d_tok``, non-finite tokens,
    or an upstream gradient that does not match.

    ``visual_encode`` takes a tuple of N image refs (or sample ids) and
    gives their ``(N, d_e)`` stack (an empty tuple gives ``(0, d_e)``); any
    other argument raises :class:`ContractError`.
    """

    visual_encode: Callable[[tuple], np.ndarray]
    backbone_identity: Callable[[object], np.ndarray]
    tokenize: Callable[[str], np.ndarray]
    text_encode: Callable[[np.ndarray], np.ndarray]
    text_token_vjp: Callable[[np.ndarray, int, np.ndarray], np.ndarray]
    d_e: int
    d_b: int
    d_tok: int


def position_weight(i, length: int):
    """Weight of token ``i`` in a ``length``-token sequence: 1/(1+d) with d
    the distance from the sequence end (an index array gives an array).

    Anchoring weights at the end makes prepending purely additive: every
    existing token keeps its weight and the new front token contributes
    its own weighted image, nothing else moves.
    """
    return 1.0 / (1.0 + (length - 1 - i))


def _token_stack(tokens, d_tok: int) -> np.ndarray:
    """Validate the token input of the text encoder, a ``(B, L, d_tok)``
    stack."""
    try:
        stack = np.asarray(tokens, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric nested lists
        raise ContractError(f"tokens must be numbers of one shape: {exc}") from None
    if stack.ndim != 3 or 0 in stack.shape:
        raise ContractError(f"tokens must be a non-empty (B, L, d_tok) stack, got "
                            f"shape {stack.shape}")
    if stack.shape[2] != d_tok:
        raise ContractError(f"token dim {stack.shape[2]} != d_tok {d_tok}")
    if not np.isfinite(stack).all():
        raise ContractError("tokens contain non-finite entries")
    return stack


@functools.lru_cache(maxsize=64)
def _position_weights(length: int) -> np.ndarray:
    weights = position_weight(np.arange(length), length)
    weights.flags.writeable = False
    return weights


def _positional_sum(stack: np.ndarray) -> np.ndarray:
    """``sum_i position_weight(i, L) * stack[:, i]`` for each sequence."""
    return np.einsum("l,bld->bd", _position_weights(stack.shape[1]), stack)


def _token_upstream(stack: np.ndarray, index: int, upstream, d_e: int
                    ) -> tuple[np.ndarray, float]:
    """Validate the upstream gradient of a token VJP against its B-sequence
    stack, a ``(B, d_e)`` array. Returns it with the position weight of
    token ``index``."""
    length = stack.shape[1]
    if not 0 <= index < length:
        raise ContractError(f"token index {index} outside a {length}-token sequence")
    u = np.asarray(upstream, dtype=np.float64)
    expected = (stack.shape[0], d_e)
    if u.shape != expected:
        raise ContractError(f"upstream gradient has shape {u.shape}, expected {expected}")
    if not np.isfinite(u).all():
        raise ContractError("upstream gradient contains non-finite entries")
    return u, position_weight(index, length)


def _hash_seed(*parts: object) -> bytes:
    """The first 8 bytes of the sha256 of ``parts`` joined by ':', read as a
    little-endian uint64 seed by ``_hash_generator``. The batched noise of
    ``SyntheticWorld.visual_embeddings`` hashes the same bytes as
    ``_hash_seed(seed, "noise", ref)``, from a prefix built once per call."""
    return hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()[:8]


def _hash_generator(*parts: object) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int.from_bytes(_hash_seed(*parts), "little")))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def seed_state_words(seeds) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    uint64 seed ``s``, as one ``(N, 4)`` uint64 array (what ``PCG64(s)``
    seeds itself with).

    numpy does the uint32 arithmetic one seed at a time; here each step runs
    over all N seeds in uint64 lanes, masked back to 32 bits (a product of
    two uint32 values is exact in 64 bits). A seed below 2**64 is at most
    two uint32 entropy words, and the pool of four hashes a missing word as
    0, so every seed fills the pool from (low word, high word, 0, 0). The
    hash constant steps the same way for every seed, so it stays a Python
    int. Its fixed cost (about 0.2 ms) pays off only for many seeds at
    once."""
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    mask, shift = np.uint64(_MASK32), np.uint64(16)

    def hasher(const: int, mult: int):
        def hashmix(value):
            nonlocal const
            value = value ^ np.uint64(const)
            const = const * mult & _MASK32
            value = value * np.uint64(const) & mask
            return value ^ value >> shift
        return hashmix

    def mix(x, y):
        value = (x * np.uint64(_MIX_MULT_L) - y * np.uint64(_MIX_MULT_R)) & mask
        return value ^ value >> shift

    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(seeds)
    pool = [hashmix(word) for word in (seeds & mask, seeds >> np.uint64(32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # generate_state(4, uint64): 8 uint32 words cycling over the pool, read
    # in little-endian pairs
    hashmix = hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % 4]) for i in range(8)]
    return np.stack([halves[2 * j] | halves[2 * j + 1] << np.uint64(32)
                     for j in range(4)], axis=1)


@functools.cache
def _fixed_seed_type() -> type:
    """An ``ISeedSequence`` that hands a bit generator four precomputed
    uint64 state words (``PCG64(FixedSeed(words))`` equals ``PCG64(s)`` for
    ``words = seed_state_words(s)[0]``) and refuses any other request.
    Defined on first use, so that importing emosup does not import
    ``numpy.random``."""

    class FixedSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ContractError(f"a fixed seed holds 4 uint64 state words; "
                                    f"{n_words} words of {np.dtype(dtype)} were asked for")
            return self.words

    return FixedSeed


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    if rows < cols:
        raise ContractError(f"cannot draw {cols} orthonormal columns in {rows} rows")
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    # fix the gauge so the draw is unique given the Gaussian sample
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class WorldConfig:
    """Generation parameters for a synthetic encoder world."""

    n_identities: int = 4
    d_latent: int = 16
    d_e: int = 64
    d_b: int = 32
    d_tok: int = 32
    noise_sigma: float = 0.05
    gap: float = 1.0          # norm of the constant visual-vs-text offset
    word_token_scale: float = 0.3

    def validate(self) -> None:
        """Refuse a setting of the wrong type (a bool is no number) with
        TypeError, and a value out of range with ContractError."""
        for f in fields(self):
            value, integral = getattr(self, f.name), type(f.default) is int
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integral else numbers.Real):
                raise TypeError(f"{f.name} must be {'an int' if integral else 'a number'}, "
                                f"got {value!r}")
        dims = dict(d_latent=self.d_latent, d_e=self.d_e, d_b=self.d_b, d_tok=self.d_tok)
        for name, d in dims.items():
            if d <= 0:
                raise ContractError(f"{name} must be positive, got {d}")
        if self.n_identities < 2:
            raise ContractError("need at least 2 identities")
        for name in ("noise_sigma", "gap", "word_token_scale"):
            if not np.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ContractError("noise_sigma must be >= 0")
        if self.gap < 0:
            raise ContractError("gap must be >= 0")
        if not (self.d_latent <= self.d_tok <= self.d_e and self.d_latent <= self.d_b):
            raise ContractError("dims must satisfy d_latent <= d_tok <= d_e and "
                                "d_latent <= d_b")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "WorldConfig":
        return WorldConfig(**d)


@dataclass
class SyntheticWorld:
    """A deterministic linear embedding world with known ground truth.

    The latent structure: identity latents ``z_i`` on the unit sphere and
    seven orthonormal emotion prototypes ``e_k``, both in latent space.
    The visual embedding of (identity i, emotion k, replicate j) is

        visual_map @ (z_i + e_k) + offset + noise(i, k, j)

    and the plain-prompt text embedding of emotion k is exactly
    ``text_map @ e_k`` (the emotion-word tokens are solved to make the
    linear positional text encoder land there). The identity backbone
    returns ``backbone_map @ z_i``.
    """

    seed: int
    config: WorldConfig
    emotion_prototypes: np.ndarray      # 7 x d_latent, orthonormal rows
    identity_latents: np.ndarray        # n_identities x d_latent, unit rows
    modality_offset: np.ndarray         # d_e
    visual_map: np.ndarray              # d_e x d_latent
    text_map: np.ndarray                # d_e x d_latent (= token_map @ latent_to_token)
    backbone_map: np.ndarray            # d_b x d_latent
    token_map: np.ndarray               # d_e x d_tok
    latent_to_token: np.ndarray         # d_tok x d_latent
    emotion_word_tokens: dict[str, np.ndarray] = field(default_factory=dict)
    # hashed draws of the other words, made once per world (read-only arrays)
    _word_tokens: dict[str, np.ndarray] = field(default_factory=dict, init=False,
                                                repr=False, compare=False)
    # identity name -> row of identity_latents, built once per world
    _identity_rows: dict[str, int] = field(default_factory=dict, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        self._identity_rows = {name: row for row, name in enumerate(self.identity_names)}

    @functools.cached_property
    def identity_names(self) -> list[str]:
        """Canonical identity names ``id000``, ``id001``, ... in row order,
        computed once per world."""
        return [f"id{i:03d}" for i in range(self.config.n_identities)]

    def identity_index(self, identity: str) -> int:
        """Row of ``identity`` in ``identity_latents``; one O(1) lookup.
        Raises ``KeyError`` for a name that is not canonical."""
        try:
            return self._identity_rows[identity]
        except KeyError:
            raise KeyError(f"unknown identity {identity!r}") from None

    def image_ref(self, identity: str, emotion: EmotionLabel, replicate: int) -> str:
        return f"img:{identity}:{EmotionLabel(emotion).name}:{replicate}"

    def clean_visual(self, identity: str, emotion: EmotionLabel) -> np.ndarray:
        """Noise-free visual embedding of (identity, emotion)."""
        z = self.identity_latents[self.identity_index(identity)]
        e = self.emotion_prototypes[int(emotion)]
        return self.visual_map @ (z + e) + self.modality_offset

    def text_prototype(self, emotion: EmotionLabel) -> np.ndarray:
        """Plain-prompt text embedding of an emotion (= text_map @ prototype)."""
        return self.text_map @ self.emotion_prototypes[int(emotion)]

    def word_token(self, word: str) -> np.ndarray:
        if word in self.emotion_word_tokens:
            return self.emotion_word_tokens[word]
        token = self._word_tokens.get(word)
        if token is None:
            rng = _hash_generator(self.seed, "word", word)
            t = rng.standard_normal(self.config.d_tok)
            token = self.config.word_token_scale * t / np.linalg.norm(t)
            token.flags.writeable = False
            self._word_tokens[word] = token
        return token

    def _noise(self, ref: str) -> np.ndarray:
        if self.config.noise_sigma == 0:
            return np.zeros(self.config.d_e)
        rng = _hash_generator(self.seed, "noise", ref)
        return self.config.noise_sigma * rng.standard_normal(self.config.d_e)

    def visual_embedding(self, ref: str) -> np.ndarray:
        identity, emotion = self._parse_ref(ref)
        return self.clean_visual(identity, emotion) + self._noise(ref)

    def visual_embeddings(self, refs) -> np.ndarray:
        """``np.stack([visual_embedding(r) for r in refs])``, byte for byte,
        as one ``(N, d_e)`` array; no refs give a ``(0, d_e)`` array.

        Every ref passes the same canonical check. ``clean_visual`` runs once
        per run of refs with one (identity, emotion), so once per distinct
        pair when refs come grouped, as both CLI callers pass them. Each ref's
        noise seed is the sha256 of a per-call prefix and the ref, the bytes
        ``_hash_seed(seed, "noise", ref)`` hashes, and the seeds of each
        block of ``NOISE_BLOCK`` refs go through one ``seed_state_words``
        pass instead of a ``SeedSequence`` each. Each row is written in place
        as ``sigma * z + clean``, the same two rounded operations as
        ``clean + sigma * z``."""
        sigma = self.config.noise_sigma
        out = np.empty((len(refs), self.config.d_e))
        prefix = f"{self.seed}:noise:".encode()
        last = clean = None
        for start in range(0, len(refs), NOISE_BLOCK):
            block = refs[start:start + NOISE_BLOCK]
            rows = out[start:start + len(block)]
            keys = [self._parse_ref(ref) for ref in block]
            if sigma == 0:
                rows.fill(0.0)
            else:
                seeds = np.frombuffer(b"".join(hashlib.sha256(prefix + ref.encode()).digest()[:8]
                                               for ref in block), dtype="<u8")
                fixed_seed = _fixed_seed_type()
                for row, words in zip(rows, seed_state_words(seeds)):
                    np.random.Generator(np.random.PCG64(fixed_seed(words))
                                        ).standard_normal(out=row)
                rows *= sigma
            # in place over each run's slice, keeping only the last pair's
            # clean row: a table of every distinct one, or a (block, d_e)
            # stack of them, raised the peak RSS of analyze-gap
            stop = 0
            for key, run in itertools.groupby(keys):
                begin, stop = stop, stop + sum(1 for _ in run)
                if key != last:
                    last, clean = key, self.clean_visual(*key)
                rows[begin:stop] += clean
        return out

    def _parse_ref(self, ref: str) -> tuple[str, EmotionLabel]:
        """Identity and emotion of an image ref. Only the canonical
        spelling ``image_ref`` gives, with a replicate >= 0, is accepted: the
        noise is hashed from the ref string, so any other spelling of one
        image would get an embedding of its own. A ref that is no string is
        refused the same way, and so is a replicate too long for ``int``
        (which ``image_ref`` could not spell either)."""
        parts = ref.split(":") if isinstance(ref, str) else ()
        if len(parts) == 4 and parts[0] == "img":
            emotion, replicate = EMOTION_BY_NAME.get(parts[2]), parts[3]
            try:
                if (emotion is not None and replicate.isdecimal()
                        and str(int(replicate)) == replicate):
                    return parts[1], emotion
            except ValueError:  # more digits than int() converts
                pass
        raise KeyError(f"unknown image ref {ref!r}")


def build_synthetic_world(seed: int, config: WorldConfig | None = None) -> SyntheticWorld:
    """Build a reproducible synthetic world; same seed gives identical worlds."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    config = config or WorldConfig()
    config.validate()
    rng = np.random.Generator(np.random.PCG64(seed))

    prototypes = _orthonormal_columns(rng, config.d_latent, len(EMOTIONS)).T
    identities = _unit_rows(rng, config.n_identities, config.d_latent)

    def draw_full_rank(rows: int, cols: int, name: str) -> np.ndarray:
        for _ in range(10):
            m = _orthonormal_columns(rng, rows, cols)
            if np.linalg.matrix_rank(m) == cols:
                return m
        raise GenerationError(f"{name} mixing map rank-deficient after 10 redraws")

    token_map = draw_full_rank(config.d_e, config.d_tok, "token")
    latent_to_token = draw_full_rank(config.d_tok, config.d_latent, "latent-to-token")
    backbone_map = draw_full_rank(config.d_b, config.d_latent, "backbone")
    text_map = token_map @ latent_to_token
    if np.linalg.matrix_rank(text_map) < config.d_latent:
        raise GenerationError("text mixing map rank-deficient")
    # The visual map must agree with the text map on the prototype span so a
    # matching emotion lands at the same place in both modalities (up to the
    # constant offset); off that span it varies freely (identity directions).
    visual_extra = draw_full_rank(config.d_e, config.d_latent, "visual")
    proto_complement = np.eye(config.d_latent) - prototypes.T @ prototypes
    visual_map = text_map + visual_extra @ proto_complement
    if np.linalg.matrix_rank(visual_map) < config.d_latent:
        raise GenerationError("visual mixing map rank-deficient")

    if config.gap > 0:
        g = rng.standard_normal(config.d_e)
        offset = config.gap * g / np.linalg.norm(g)
    else:
        offset = np.zeros(config.d_e)

    world = SyntheticWorld(seed=seed, config=config,
                           emotion_prototypes=prototypes,
                           identity_latents=identities,
                           modality_offset=offset,
                           visual_map=visual_map, text_map=text_map,
                           backbone_map=backbone_map, token_map=token_map,
                           latent_to_token=latent_to_token)

    # Solve each emotion-word token so that the positional text encoding of
    # the plain template prompt equals text_map @ prototype exactly.
    template_words = prompt_for(EMOTIONS[0]).split()
    n_words = len(template_words)
    shared = np.zeros(config.d_tok)
    for i, w in enumerate(template_words):
        if i == EMOTION_WORD_POSITION:
            continue
        shared += position_weight(i, n_words) * world.word_token(w)
    w_emotion = position_weight(EMOTION_WORD_POSITION, n_words)
    for k, emotion in enumerate(EMOTIONS):
        target = latent_to_token @ prototypes[k]
        world.emotion_word_tokens[emotion.name] = (target - shared) / w_emotion
    return world


def _linear_suite(visual: Callable, backbone_identity: Callable,
                  word_tokens: Callable, token_map: np.ndarray, d_b: int) -> EncoderSuite:
    """The EncoderSuite both backends are: ``visual_encode`` serves a tuple
    of refs through ``visual``; ``tokenize`` maps a prompt's words to
    its tokens through ``word_tokens``; and the text encoder is the
    position-weighted token sum mapped by the ``(d_e, d_tok)`` matrix
    ``token_map``."""
    d_e, d_tok = token_map.shape

    def visual_encode(refs: tuple) -> np.ndarray:
        if not isinstance(refs, tuple):
            raise ContractError(f"visual_encode takes a tuple of refs, got "
                                f"{type(refs).__name__}")
        return visual(refs)

    def tokenize(prompt: str) -> np.ndarray:
        words = prompt.split()
        if not words:
            raise ContractError("cannot tokenize an empty prompt")
        return word_tokens(words)

    def text_encode(tokens):
        return _positional_sum(_token_stack(tokens, d_tok)) @ token_map.T

    def text_token_vjp(tokens, index: int, upstream):
        u, weight = _token_upstream(_token_stack(tokens, d_tok), index, upstream, d_e)
        return weight * (u @ token_map)

    return EncoderSuite(visual_encode, backbone_identity, tokenize, text_encode,
                        text_token_vjp, d_e=d_e, d_b=d_b, d_tok=d_tok)


def synthetic_suite(world: SyntheticWorld) -> EncoderSuite:
    """Wrap a synthetic world as a frozen EncoderSuite: ``visual_encode``
    resolves image refs through the world's generative model."""

    def backbone_identity(ref):
        identity, _ = world._parse_ref(ref)
        return world.backbone_map @ world.identity_latents[world.identity_index(identity)]

    return _linear_suite(world.visual_embeddings, backbone_identity,
                         lambda words: np.array([world.word_token(w) for w in words]),
                         world.token_map, world.config.d_b)


# ---------------------------------------------------------------------------
# precomputed-feature files
# ---------------------------------------------------------------------------

def write_feature_file(path: str | Path, vector: np.ndarray) -> None:
    """Write one feature vector: 'PCMF' magic, little-endian uint32 dim,
    then the float32 entries."""
    v = np.asarray(vector, dtype="<f4")
    if v.ndim != 1 or v.size == 0:
        raise ContractError("feature must be a non-empty 1-D vector")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<I", v.shape[0]))
        f.write(v.tobytes())


def read_feature_file(path: str | Path) -> np.ndarray:
    """The float64 vector of a ``write_feature_file`` file. A file shorter
    than its 8-byte header, or whose payload is no whole number of float32
    entries or not the header's dim of them, raises ContractError. The file
    is read through its raw descriptor; an OSError names the path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    except OSError as exc:  # os.read's error names no file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    raw = b"".join(chunks)
    if raw[:4] != FEATURE_MAGIC:
        raise ContractError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise ContractError(f"{path}: truncated header, {len(raw)} bytes")
    (dim,) = struct.unpack_from("<I", raw, 4)
    if (len(raw) - 8) % 4:
        raise ContractError(f"{path}: payload of {len(raw) - 8} bytes is not a whole "
                            "number of float32 entries")
    data = np.frombuffer(raw, dtype="<f4", offset=8)
    if data.shape[0] != dim:
        raise ContractError(f"{path}: header says dim {dim}, file holds {data.shape[0]}")
    return data.astype(np.float64)


def read_feature_manifest(manifest_path: str | Path
                          ) -> tuple[int, list[tuple[str, np.ndarray]], dict[str, np.ndarray]]:
    """Read a precomputed-feature manifest and each file it names, once: its
    dim, its (sample id, feature) rows in file order, and its text embeddings
    by emotion name. Schema: ``{"dim": int, "samples": [{"id", "identity",
    "emotion", "feature_file"}], "text_embeddings": {emotion: path}}``, with
    file paths relative to the manifest. The whole spec is parsed, and a
    sample id listed twice refused, before any feature file is read."""
    base = os.path.dirname(os.fspath(manifest_path))

    def parse(spec):
        files = {}
        for e in spec["samples"]:
            if e["id"] in files:
                raise ContractError(f"sample id {e['id']!r} is listed twice")
            files[e["id"]] = os.path.join(base, e["feature_file"])
        texts = {parse_emotion(name).name: os.path.join(base, rel)
                 for name, rel in spec["text_embeddings"].items()}
        return int(spec["dim"]), files, texts

    dim, files, texts = load_json_object(manifest_path, parse)

    def read(path, what):
        vec = read_feature_file(path)
        if vec.shape[0] != dim:
            raise ContractError(f"{what} has dim {vec.shape[0]}, manifest says {dim}")
        return vec

    rows = [(i, read(path, f"sample {i!r}")) for i, path in files.items()]
    text_table = {name: read(path, f"text embedding {name!r}") for name, path in texts.items()}
    return dim, rows, text_table


def load_precomputed_features(manifest_path: str | Path) -> EncoderSuite:
    """A precomputed-feature manifest (``read_feature_manifest``) as an
    EncoderSuite: visual features are served by sample id, and text encoding
    serves the stored per-emotion embedding table (a prompt is reduced to
    its emotion word, whose one token is that embedding, and the token map
    is the identity). The schema carries no identity-backbone features,
    so ``backbone_identity`` raises."""
    dim, rows, text_table = read_feature_manifest(manifest_path)
    features = dict(rows)

    def feature(sample_id):
        try:
            return features[sample_id]
        except (KeyError, TypeError):  # TypeError: an unhashable non-id
            raise KeyError(f"unknown sample id {sample_id!r}") from None

    def backbone_identity(ref):
        raise ContractError("precomputed manifests carry no identity-backbone features")

    def word_tokens(words):
        for w in words:
            if w in text_table:
                return text_table[w][None].copy()
        raise ContractError(f"prompt {' '.join(words)!r} names no known emotion")

    return _linear_suite(
        lambda ids: np.array([feature(i) for i in ids]).reshape(len(ids), dim),
        backbone_identity, word_tokens, np.eye(dim), dim)
