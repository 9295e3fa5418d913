"""Identity/emotion-labelled sample records, synthetic corpus generation,
and contrastive pair sampling under negative pools."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .emotions import EMOTIONS, EmotionLabel, parse_emotion
from .encoders import SyntheticWorld, WorldConfig, build_synthetic_world
from .errors import ContractError, load_json_object, write_json

TRAIN, VAL = "train", "val"
VAL_FRACTION = 0.1


@dataclass(frozen=True)
class Sample:
    """One labelled feature record.

    ``image_ref`` is an opaque key the encoder suite resolves;
    ``neutral_ref`` is the id of a neutral sample of the same identity.
    """

    id: str
    identity: str
    emotion: EmotionLabel
    image_ref: str
    neutral_ref: str


@dataclass
class NegativePoolTable:
    """Per-emotion sets of admissible negative emotions."""

    pool: dict[EmotionLabel, frozenset[EmotionLabel]]

    def __post_init__(self):
        for emotion in EMOTIONS:
            if emotion not in self.pool:
                raise ContractError(f"missing pool for {emotion.name}")
            entries = frozenset(EmotionLabel(e) for e in self.pool[emotion])
            if not entries:
                raise ContractError(f"empty pool for {emotion.name}")
            if emotion in entries:
                raise ContractError(f"pool for {emotion.name} contains itself")
            self.pool[emotion] = entries

    @staticmethod
    def from_names(named: dict[str, list[str]]) -> "NegativePoolTable":
        return NegativePoolTable({parse_emotion(k): frozenset(parse_emotion(v) for v in vs)
                                  for k, vs in named.items()})

    def to_names(self) -> dict[str, list[str]]:
        return {e.name: sorted(x.name for x in self.pool[e]) for e in EMOTIONS}

    @staticmethod
    def all_others() -> "NegativePoolTable":
        """Unrestricted pools: every emotion admits all six others."""
        return NegativePoolTable({e: frozenset(x for x in EMOTIONS if x != e)
                                  for e in EMOTIONS})


@dataclass
class CorpusManifest:
    """All samples plus their train/val tags and the generating-world config.

    Indexed at construction (ids, each identity's neutrals, and each split's
    samples in manifest order), and the samplers' train-split index
    (``_train``) on first use, so a manifest whose samples or tags change
    must be built again."""

    samples: list[Sample]
    split: dict[str, str]
    world_config: dict | None = None
    world_seed: int | None = None

    def __post_init__(self):
        self._by_id = {s.id: s for s in self.samples}
        if len(self._by_id) != len(self.samples):
            raise ContractError("duplicate sample ids")
        self._neutrals: dict[str, list[Sample]] = {}
        self._splits: dict[str, list[Sample]] = {TRAIN: [], VAL: []}
        for s in self.samples:
            if s.emotion == EmotionLabel.neutral:
                self._neutrals.setdefault(s.identity, []).append(s)
            tag = self.split.get(s.id)  # validate() refuses a missing or bad tag
            if tag in self._splits:
                self._splits[tag].append(s)

    def by_id(self, sample_id: str) -> Sample:
        try:
            return self._by_id[sample_id]
        except KeyError:
            raise KeyError(f"unknown sample id {sample_id!r}") from None

    def identities(self) -> list[str]:
        seen = dict.fromkeys(s.identity for s in self.samples)
        return list(seen)

    def neutrals_of(self, identity: str) -> list[Sample]:
        """The identity's neutral samples in manifest order, as a fresh list;
        one O(1) lookup (an unknown identity has none)."""
        return list(self._neutrals.get(identity, ()))

    def in_split(self, split: str) -> list[Sample]:
        """The split's samples in manifest order, as a fresh list."""
        if split not in self._splits:
            raise ContractError(f"unknown split {split!r}")
        return list(self._splits[split])

    @cached_property
    def _train(self) -> "_TrainIndex":
        """The train split's positional index for the samplers, built on
        first use."""
        return _TrainIndex(self._splits[TRAIN])

    def validate(self) -> None:
        if set(self.split) != set(self._by_id):
            raise ContractError("split tags must cover exactly the sample ids")
        for tag in self.split.values():
            if tag not in (TRAIN, VAL):
                raise ContractError(f"bad split tag {tag!r}")
        for identity in self.identities():
            if not self.neutrals_of(identity):
                raise ContractError(f"identity {identity!r} has no neutral sample")
        for s in self.samples:
            ref = self.by_id(s.neutral_ref)
            if ref.emotion != EmotionLabel.neutral or ref.identity != s.identity:
                raise ContractError(f"sample {s.id!r} has an invalid neutral_ref")

    def rebuild_world(self) -> SyntheticWorld:
        if self.world_config is None or self.world_seed is None:
            raise ContractError("manifest carries no synthetic-world config")
        return build_synthetic_world(self.world_seed,
                                     WorldConfig.from_dict(self.world_config))

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "samples": [{"id": s.id, "identity": s.identity,
                         "emotion": s.emotion.name, "image_ref": s.image_ref,
                         "neutral_ref": s.neutral_ref, "split": self.split[s.id]}
                        for s in self.samples],
            "world": None if self.world_config is None
                     else {"seed": self.world_seed, "config": self.world_config},
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict())

    @staticmethod
    def from_json_dict(d: dict) -> "CorpusManifest":
        """The manifest a ``to_json_dict`` dict describes. A ``world`` block
        whose seed is no int >= 0 (a bool is none), or whose config is no
        valid ``WorldConfig``, is refused here, before any world is built."""
        samples = [Sample(e["id"], e["identity"], parse_emotion(e["emotion"]),
                          e["image_ref"], e["neutral_ref"]) for e in d["samples"]]
        split = {e["id"]: e["split"] for e in d["samples"]}
        world = d.get("world")
        if world is not None:
            seed = world["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
                raise ValueError(f"world seed must be an int >= 0, got {seed!r}")
            WorldConfig.from_dict(world["config"]).validate()
        manifest = CorpusManifest(samples, split,
                                  world_config=None if world is None else world["config"],
                                  world_seed=None if world is None else world["seed"])
        manifest.validate()
        return manifest

    @staticmethod
    def load(path: str | Path) -> "CorpusManifest":
        return load_json_object(path, CorpusManifest.from_json_dict)


def _split_rank(world_seed: int, sample_id: str) -> str:
    return hashlib.sha256(f"{world_seed}:split:{sample_id}".encode()).hexdigest()


def generate_synthetic_corpus(world: SyntheticWorld,
                              per_identity_per_emotion: int) -> CorpusManifest:
    """Materialize n_identities x 7 x per_identity_per_emotion samples.

    Every identity keeps neutral replicates; the 90/10 train/val split is
    deterministic, per-identity stratified hashing of sample ids. Val never
    takes an identity's last neutral, its last-ranked one: the next-ranked
    id goes instead, so every identity keeps a train neutral (this only
    happens at one sample per emotion).
    """
    if per_identity_per_emotion < 1:
        raise ContractError("per_identity_per_emotion must be >= 1")
    samples: list[Sample] = []
    split: dict[str, str] = {}
    for identity in world.identity_names:
        neutral_ref = f"{identity}_neutral_00"
        ids = []
        for emotion in EMOTIONS:
            for j in range(per_identity_per_emotion):
                sid = f"{identity}_{emotion.name}_{j:02d}"
                samples.append(Sample(sid, identity, emotion,
                                      world.image_ref(identity, emotion, j),
                                      neutral_ref))
                ids.append(sid)
        ids.sort(key=lambda sid: _split_rank(world.seed, sid))
        last_neutral = [sid for sid in ids if sid.startswith(f"{identity}_neutral_")][-1]
        val = set([sid for sid in ids if sid != last_neutral]
                  [:max(1, round(VAL_FRACTION * len(ids)))])
        for sid in ids:
            split[sid] = VAL if sid in val else TRAIN

    manifest = CorpusManifest(samples, split, world_config=world.config.to_dict(),
                              world_seed=world.seed)
    manifest.validate()
    return manifest


@dataclass
class ContrastiveBatch:
    """A contrastive batch as index arrays into ``samples``, the train split
    it was drawn from. Entry n takes the anchor ``samples[anchor[n]]``, whose
    own emotion is the positive prompt, the negative prompt of emotion code
    ``negative[n]`` and the neutral reference ``samples[reference[n]]``; the
    three arrays are ``(B,)`` integers."""

    samples: list[Sample]
    anchor: np.ndarray
    negative: np.ndarray
    reference: np.ndarray


@dataclass
class PairBatch:
    """Pair draws as ``(B,)`` integer index arrays into ``samples``, the train
    split they were drawn from: draw n is ``samples[source[n]]``,
    ``samples[target[n]]`` and ``samples[reference[n]]``."""

    samples: list[Sample]
    source: np.ndarray
    target: np.ndarray
    reference: np.ndarray


class _Replay:
    """``int(rng.integers(n))`` calls, replayed from bulk draws of 32-bit words.

    For a bound n in [1, 2**32] numpy draws no word when n is 1. Otherwise
    it maps one word w to ``(w * n) >> 32`` (Lemire's multiply-shift) and
    takes the next word while ``(w * n) % 2**32 < (2**32 - n) % n``. A word
    is one ``next_uint32`` of the bit generator, which is also what each
    entry of ``rng.integers(0, 2**32, size=k, dtype=np.uint32)`` takes.

    As a context manager it draws ``size`` words on entry and yields
    ``draw(n)``, which draws more words if the walk runs out. On exit, also
    after an error, it leaves ``rng`` in the state the scalar calls would
    have: if it used fewer words than it drew, it restores the entry state
    and redraws exactly the words it used.
    """

    def __init__(self, rng: np.random.Generator, size: int):
        self.rng, self.size = rng, size

    def _words(self) -> list[int]:
        return self.rng.integers(0, 2 ** 32, size=self.size, dtype=np.uint32).tolist()

    def __enter__(self):
        self.state = self.rng.bit_generator.state
        self.words, self.used = self._words(), 0
        return self.draw

    def draw(self, n: int) -> int:
        if n == 1:
            return 0
        while True:
            if self.used == len(self.words):
                self.words += self._words()
            m = self.words[self.used] * n
            self.used += 1
            low = m & 0xFFFFFFFF
            # the threshold is below n, so most words pass the first test
            if low >= n or low >= (2 ** 32 - n) % n:
                return m >> 32

    def __exit__(self, *exc) -> None:
        if self.used < len(self.words):
            self.rng.bit_generator.state = self.state
            self.rng.integers(0, 2 ** 32, size=self.used, dtype=np.uint32)


class _TrainIndex:
    """The train split by position, as the samplers read it: each position's
    emotion code, (identity, emotion) group and identity's train-neutral
    positions (the only references a training draw may use, so no val sample
    reaches training through a prompt), and each group's positions, all in
    manifest order. ``pool_tables`` adds the sampling tables of a pool
    table."""

    def __init__(self, train: list[Sample]):
        if not train:
            raise ContractError("train split is empty")
        self.samples = train
        self.emotion = [int(s.emotion) for s in train]
        groups: dict[tuple[str, EmotionLabel], int] = {}
        self.group = [groups.setdefault((s.identity, s.emotion), len(groups))
                      for s in train]
        self.members: list[list[int]] = [[] for _ in groups]
        for position, g in enumerate(self.group):
            self.members[g].append(position)
        self.groups = groups
        self.neutrals = [self.members[groups[(s.identity, EmotionLabel.neutral)]]
                         if (s.identity, EmotionLabel.neutral) in groups else []
                         for s in train]
        self._pools_key = None

    def pool_tables(self, pools: NegativePoolTable
                    ) -> tuple[list[list[int]], list[list[list[int]]]]:
        """Each emotion code's sorted negative codes, and each group's
        admissible targets: for each emotion of its pool that its identity
        has in the train split, in code order, that group's positions. Built
        again only when the pools' contents change."""
        key = tuple(pools.pool[e] for e in EMOTIONS)
        if key != self._pools_key:
            self.negatives = [[int(k) for k in sorted(pool)] for pool in key]
            self.targets = [[self.members[self.groups[(identity, k)]]
                             for k in sorted(key[emotion]) if (identity, k) in self.groups]
                            for identity, emotion in self.groups]
            self._pools_key = key
        return self.negatives, self.targets

    def neutrals_of(self, position: int) -> list[int]:
        neutrals = self.neutrals[position]
        if not neutrals:
            raise ContractError(f"identity {self.samples[position].identity!r} has no "
                                "train-split neutral sample")
        return neutrals


def sample_contrastive_batch(manifest: CorpusManifest, pools: NegativePoolTable,
                             batch_size: int,
                             rng: np.random.Generator) -> ContrastiveBatch:
    """Draw anchors uniformly from the train split, a negative prompt
    uniformly from the anchor emotion's pool, and a uniform train-split
    neutral reference of the anchor's identity: per entry, the three
    ``int(rng.integers(n))`` draws in that order, replayed from one bulk
    draw (``_Replay``)."""
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    index = manifest._train
    negatives, _ = index.pool_tables(pools)
    n_train = len(index.samples)
    anchors, codes, references = [], [], []
    with _Replay(rng, 3 * batch_size) as draw:
        for _ in range(batch_size):
            anchor = draw(n_train)
            options = negatives[index.emotion[anchor]]
            codes.append(options[draw(len(options))])
            neutrals = index.neutrals_of(anchor)
            references.append(neutrals[draw(len(neutrals))])
            anchors.append(anchor)
    return ContrastiveBatch(index.samples, *np.array([anchors, codes, references]))


def sample_pair_batch(manifest: CorpusManifest, pools: NegativePoolTable,
                      batch_size: int, rng: np.random.Generator) -> PairBatch:
    """Draw same-identity source/target pairs for difference objectives,
    each with a uniform train-split neutral reference of the identity.

    The target emotion is drawn uniformly from the source emotion's pool,
    restricted to emotions the identity actually has in the train split
    (same-emotion pairs never occur since pools exclude their own key).
    Per pair the draws are the source, the target emotion, the target and
    the reference, replayed as in ``sample_contrastive_batch``.
    """
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    index = manifest._train
    _, targets = index.pool_tables(pools)
    n_train = len(index.samples)
    sources, chosen, references = [], [], []
    with _Replay(rng, 4 * batch_size) as draw:
        for _ in range(batch_size):
            source = draw(n_train)
            options = targets[index.group[source]]
            if not options:
                sample = index.samples[source]
                raise ContractError(f"identity {sample.identity!r} has no admissible "
                                    f"target emotion for {sample.emotion.name}")
            members = options[draw(len(options))]
            chosen.append(members[draw(len(members))])
            neutrals = index.neutrals_of(source)
            references.append(neutrals[draw(len(neutrals))])
            sources.append(source)
    return PairBatch(index.samples, *np.array([sources, chosen, references]))
