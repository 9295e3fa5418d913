"""Difference alignment: paired embeddings read from the frozen tables of
a ``DifferenceRegularizer`` (``prompts``), source-minus-target difference
vectors, their CSV export, and the regularization loss that matches the
visual change to the text change (``DifferencePair`` and
``difference_loss_with_grads`` live in ``numerics``, beside
``cosine_grads``; this module re-exports them).

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
from .prompts import AlignmentCheckpoint, DifferenceRegularizer


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


def embed_pair(reg: DifferenceRegularizer, source: Sample, target: Sample
               ) -> PairEmbeddings:
    """The four embeddings of a (source, target) pair of ``reg``'s manifest,
    read from its frozen tables: each image's ``projected_source`` row (its
    own emotion's projector), and the prompt rows of both emotions,
    personalized with the source's neutral reference.

    A sample that is not in ``reg``'s manifest and a target of another
    identity than the source are refused. No gradient flows back through
    the result: a host trains through ``reg.loss_and_grad``.
    """
    for sample in (source, target):
        i = reg.row.get(sample.id)
        if i is None or reg.samples[i] != sample:
            raise ContractError(f"sample {sample.id!r} is not in the regularizer's manifest")
    if target.identity != source.identity:
        raise ContractError(f"target {target.id!r} is not of the source's identity "
                            f"{source.identity!r}")
    s, t = reg.row[source.id], reg.row[target.id]
    prompts = reg.prompts[reg.reference[s]]
    return PairEmbeddings(reg.projected_source[s], prompts[int(source.emotion)],
                          reg.projected_source[t], prompts[int(target.emotion)],
                          source.emotion, target.emotion)


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
    difference vectors. The target is the first sample, by id, of the
    source's identity at the target emotion. With ``include_mismatched`` the
    export adds rows whose text difference targets a different emotion than
    the image difference (useful for external 2-D projections; no loss is
    defined over them).

    Every row is read from one ``DifferenceRegularizer`` over the manifest,
    built before the first row, so each image is encoded and projected and
    each (reference, emotion) prompt embedded once per export. Each row
    makes one ``embed_pair`` and one ``diff_vectors`` call, and every text
    difference, matched or mismatched, is the source's prompt minus the
    prompt row of its prompt emotion in ``reg.prompts``.
    """
    reg = DifferenceRegularizer(ckpt, suite, manifest)
    ordered = sorted(manifest.samples, key=lambda s: s.id)
    first_of: dict[tuple[str, EmotionLabel], Sample] = {}
    for s in ordered:
        first_of.setdefault((s.identity, s.emotion), s)

    rows = []
    for source in ordered:
        prompts = reg.prompts[reg.reference[reg.row[source.id]]]
        for target_emotion in EMOTIONS:
            if target_emotion == source.emotion:
                continue
            target = first_of.get((source.identity, target_emotion))
            if target is None:
                continue
            pe = embed_pair(reg, source, target)
            visual_diff = diff_vectors(pe).visual_diff
            prompt_emotions = [target_emotion]
            if include_mismatched:
                prompt_emotions += [e for e in EMOTIONS
                                    if e not in (target_emotion, source.emotion)]
            for prompt_emotion in prompt_emotions:
                rows.append({"identity": source.identity,
                             "source_emotion": source.emotion.name,
                             "target_emotion": target_emotion.name,
                             "prompt_emotion": prompt_emotion.name,
                             "visual_diff": visual_diff.copy(),
                             "text_diff": pe.text_source - prompts[int(prompt_emotion)]})
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
