"""Identity/emotion-labelled sample records, synthetic corpus generation,
and contrastive pair sampling under negative pools."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
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

    Indexed at construction (ids, each identity's neutrals, each split's
    samples in manifest order and by (identity, emotion)), so a manifest
    whose samples or tags change must be built again."""

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
        self._groups: dict[str, dict] = {TRAIN: {}, VAL: {}}  # by (identity, emotion)
        for s in self.samples:
            if s.emotion == EmotionLabel.neutral:
                self._neutrals.setdefault(s.identity, []).append(s)
            tag = self.split.get(s.id)  # validate() refuses a missing or bad tag
            if tag in self._splits:
                self._splits[tag].append(s)
                self._groups[tag].setdefault((s.identity, s.emotion), []).append(s)

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
        samples = [Sample(e["id"], e["identity"], parse_emotion(e["emotion"]),
                          e["image_ref"], e["neutral_ref"]) for e in d["samples"]]
        split = {e["id"]: e["split"] for e in d["samples"]}
        world = d.get("world")
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
    deterministic, per-identity stratified hashing of sample ids.
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
        n_val = max(1, round(VAL_FRACTION * len(ids)))
        for i, sid in enumerate(ids):
            split[sid] = VAL if i < n_val else TRAIN

    manifest = CorpusManifest(samples, split, world_config=world.config.to_dict(),
                              world_seed=world.seed)
    manifest.validate()
    return manifest


@dataclass(frozen=True)
class ContrastiveEntry:
    anchor: Sample
    positive_prompt: EmotionLabel
    negative_prompt: EmotionLabel
    reference: Sample


@dataclass
class ContrastiveBatch:
    entries: list[ContrastiveEntry]

    def validate(self, pools: NegativePoolTable) -> None:
        for e in self.entries:
            if e.positive_prompt != e.anchor.emotion:
                raise ContractError("positive prompt must match the anchor emotion")
            if e.negative_prompt not in pools.pool[e.anchor.emotion]:
                raise ContractError("negative prompt outside the anchor's pool")
            if e.reference.emotion != EmotionLabel.neutral:
                raise ContractError("reference must be neutral")
            if e.reference.identity != e.anchor.identity:
                raise ContractError("reference must share the anchor's identity")


def _uniform_choice(items: list, rng: np.random.Generator):
    return items[int(rng.integers(len(items)))]


def _train_groups(manifest: CorpusManifest
                  ) -> tuple[list[Sample], dict[tuple[str, EmotionLabel], list[Sample]]]:
    """The train split, and its samples grouped by (identity, emotion): the
    manifest's own index, not copies, so a batch costs O(batch_size)."""
    if not manifest._splits[TRAIN]:
        raise ContractError("train split is empty")
    return manifest._splits[TRAIN], manifest._groups[TRAIN]


def _train_neutrals(groups: dict[tuple[str, EmotionLabel], list[Sample]],
                    identity: str) -> list[Sample]:
    """The identity's train-split neutrals: the only references a training
    draw may use, so no val sample reaches training through a prompt."""
    neutrals = groups.get((identity, EmotionLabel.neutral))
    if not neutrals:
        raise ContractError(f"identity {identity!r} has no train-split neutral sample")
    return neutrals


def sample_contrastive_batch(manifest: CorpusManifest, pools: NegativePoolTable,
                             batch_size: int,
                             rng: np.random.Generator) -> ContrastiveBatch:
    """Draw anchors uniformly from the train split, a negative prompt
    uniformly from the anchor emotion's pool, and a uniform train-split
    neutral reference of the anchor's identity."""
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    train, groups = _train_groups(manifest)
    entries = []
    for _ in range(batch_size):
        anchor = _uniform_choice(train, rng)
        negatives = sorted(pools.pool[anchor.emotion])
        negative = _uniform_choice(negatives, rng)
        reference = _uniform_choice(_train_neutrals(groups, anchor.identity), rng)
        entries.append(ContrastiveEntry(anchor, anchor.emotion, negative, reference))
    return ContrastiveBatch(entries)


@dataclass(frozen=True)
class PairDraw:
    """A same-identity (source, target) pair plus a neutral reference."""

    source: Sample
    target: Sample
    reference: Sample


def sample_pair_batch(manifest: CorpusManifest, pools: NegativePoolTable,
                      batch_size: int, rng: np.random.Generator) -> list[PairDraw]:
    """Draw same-identity source/target pairs for difference objectives,
    each with a uniform train-split neutral reference of the identity.

    The target emotion is drawn uniformly from the source emotion's pool,
    restricted to emotions the identity actually has in the train split
    (same-emotion pairs never occur since pools exclude their own key).
    """
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    train, by_identity_emotion = _train_groups(manifest)
    draws = []
    for _ in range(batch_size):
        source = _uniform_choice(train, rng)
        candidates = sorted(e for e in pools.pool[source.emotion]
                            if (source.identity, e) in by_identity_emotion)
        if not candidates:
            raise ContractError(f"identity {source.identity!r} has no admissible "
                                f"target emotion for {source.emotion.name}")
        target_emotion = _uniform_choice(candidates, rng)
        target = _uniform_choice(by_identity_emotion[(source.identity, target_emotion)], rng)
        reference = _uniform_choice(_train_neutrals(by_identity_emotion,
                                                    source.identity), rng)
        draws.append(PairDraw(source, target, reference))
    return draws
