"""Difference alignment: paired embeddings, source-minus-target difference
vectors, and the regularization loss that matches the visual change to
the text change (``DifferencePair`` and ``difference_loss_with_grads``
live in ``numerics``, beside ``cosine_grads``; this module re-exports them).

Working on differences rather than absolute embeddings makes the loss
exactly invariant to any constant displacement between the visual and
text distributions, and cancels identity-specific content shared by the
source and target images.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CorpusManifest, Sample
from .emotions import EMOTIONS, EmotionLabel
from .encoders import EncoderSuite
from .errors import ContractError, write_csv
from .numerics import DifferencePair, as_vector, difference_loss_with_grads
from .prompts import AlignmentCheckpoint, _FrozenEmbeddings


@dataclass
class PairEmbeddings:
    """The four embeddings of a (source, target) visual-text pair."""

    visual_source: np.ndarray
    text_source: np.ndarray
    visual_target: np.ndarray
    text_target: np.ndarray
    source_emotion: EmotionLabel
    target_emotion: EmotionLabel

    def __post_init__(self):
        self.visual_source = as_vector(self.visual_source, name="visual_source")
        d = self.visual_source.shape[0]
        self.text_source = as_vector(self.text_source, dim=d, name="text_source")
        self.visual_target = as_vector(self.visual_target, dim=d, name="visual_target")
        self.text_target = as_vector(self.text_target, dim=d, name="text_target")


def embed_pair(ckpt: AlignmentCheckpoint, source: Sample, target_image,
               target_emotion: EmotionLabel, reference: Sample,
               suite: EncoderSuite, *,
               frozen: _FrozenEmbeddings | None = None) -> PairEmbeddings:
    """Embed source and target through the frozen checkpoint.

    ``target_image`` may be an image ref (what the export passes) or a raw
    ``d_e`` visual feature vector, validated and projected on every call and
    not kept. This is the one place a raw vector is accepted: a suite's
    ``visual_encode`` takes refs only. No gradient flows back through it:
    the demo reads its own precomputed tables. Both prompts are
    personalized with the source identity's neutral reference.

    The embeddings are read through ``frozen``, a ``_FrozenEmbeddings`` memo
    built on this checkpoint and suite (one built on others raises
    ``ContractError``); without one, a throwaway memo is made. A caller that
    embeds many pairs shares one memo, so each image and (reference,
    emotion) prompt is embedded once. Reuse is sound because the checkpoint
    is frozen and the encoders are deterministic.
    """
    ckpt.require_frozen()
    if frozen is None:
        frozen = _FrozenEmbeddings(ckpt, suite)
    elif frozen.ckpt is not ckpt or frozen.suite is not suite:
        raise ContractError("embedding memo was built for another checkpoint or suite")
    if reference.emotion != EmotionLabel.neutral:
        raise ContractError(f"reference {reference.id!r} must be neutral")
    if reference.identity != source.identity:
        raise ContractError("reference identity must match the source identity")
    target_emotion = EmotionLabel(target_emotion)
    return PairEmbeddings(frozen.visual(source.image_ref, source.emotion),
                          frozen.text(reference, source.emotion),
                          frozen.visual(target_image, target_emotion),
                          frozen.text(reference, target_emotion),
                          source.emotion, target_emotion)


def diff_vectors(pe: PairEmbeddings) -> DifferencePair:
    """Elementwise source-minus-target differences."""
    return DifferencePair(pe.visual_source - pe.visual_target,
                          pe.text_source - pe.text_target)


def export_difference_rows(ckpt: AlignmentCheckpoint, manifest: CorpusManifest,
                           suite: EncoderSuite,
                           include_mismatched: bool = False) -> list[dict]:
    """Difference vectors for every (sample, target emotion) combination.

    Each row holds the identity, the source and target emotions, the
    prompt emotion used for the text difference, and the flattened
    difference vectors. With ``include_mismatched`` the export adds rows
    whose text difference targets a different emotion than the image
    difference (useful for external 2-D projections; no loss is defined
    over them).

    One memo serves every row and fills inside the row loop, by the calls a
    row would make, so each image and (reference, emotion) prompt is
    embedded once per export, not once per row, with byte-identical rows
    (see ``embed_pair``). Each row still makes one ``embed_pair`` and one
    ``diff_vectors`` call.
    """
    ckpt.require_frozen()
    frozen = _FrozenEmbeddings(ckpt, suite)
    first_of: dict[tuple[str, EmotionLabel], Sample] = {}
    for s in sorted(manifest.samples, key=lambda s: s.id):
        first_of.setdefault((s.identity, s.emotion), s)

    rows = []
    for source in sorted(manifest.samples, key=lambda s: s.id):
        reference = manifest.by_id(source.neutral_ref)
        for target_emotion in EMOTIONS:
            if target_emotion == source.emotion:
                continue
            target = first_of.get((source.identity, target_emotion))
            if target is None:
                continue
            pe = embed_pair(ckpt, source, target.image_ref, target_emotion,
                            reference, suite, frozen=frozen)
            dp = diff_vectors(pe)
            prompt_emotions = [target_emotion]
            if include_mismatched:
                prompt_emotions += [e for e in EMOTIONS
                                    if e not in (target_emotion, source.emotion)]
            for prompt_emotion in prompt_emotions:
                if prompt_emotion == target_emotion:
                    text_diff = dp.text_diff
                else:
                    text_diff = pe.text_source - frozen.text(reference, prompt_emotion)
                rows.append({"identity": source.identity,
                             "source_emotion": source.emotion.name,
                             "target_emotion": target_emotion.name,
                             "prompt_emotion": prompt_emotion.name,
                             "visual_diff": dp.visual_diff.copy(),
                             "text_diff": text_diff.copy()})
    return rows


def write_difference_csv(rows: list[dict], path: str | Path) -> None:
    if not rows:
        raise ContractError("no difference rows to export")
    d = rows[0]["visual_diff"].shape[0]
    header = (["identity", "source_emotion", "target_emotion", "prompt_emotion"]
              + [f"i_diff_{j}" for j in range(d)] + [f"t_diff_{j}" for j in range(d)])
    write_csv(path, header, ([r["identity"], r["source_emotion"], r["target_emotion"],
                              r["prompt_emotion"], *r["visual_diff"].tolist(),
                              *r["text_diff"].tolist()] for r in rows))
