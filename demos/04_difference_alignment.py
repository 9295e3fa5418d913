"""Difference alignment: why matching source-to-target changes beats
matching absolute embeddings when the two modalities sit apart.

Also reruns the ablation that pre-trains on the difference objective
itself; under a linear text encoder the identity token cancels in every
text difference, so the guider head gets no learning signal there and
the run levels off above the contrastive one."""

import numpy as np

import emosup as es
from emosup.differencing import (DifferencePair, PairEmbeddings, diff_vectors,
                                 difference_loss_with_grads)

rng = np.random.default_rng(0)


def pair_loss(pe: PairEmbeddings) -> float:
    """L2 of one pair: the loss takes (B, d) stacks, so the pair is one row."""
    dp = diff_vectors(pe)
    return difference_loss_with_grads(DifferencePair(dp.visual_diff[None],
                                                     dp.text_diff[None]))[0][0]


print("== constant cross-modal offsets cancel exactly ==")
pe = PairEmbeddings(rng.standard_normal(16), rng.standard_normal(16),
                    rng.standard_normal(16), rng.standard_normal(16),
                    es.EmotionLabel.happy, es.EmotionLabel.sad)
base = pair_loss(pe)
for scale in (0.1, 10.0, 1000.0):
    c = scale * rng.standard_normal(16)
    shifted = PairEmbeddings(pe.visual_source + c, pe.text_source,
                             pe.visual_target + c, pe.text_target,
                             pe.source_emotion, pe.target_emotion)
    moved = pair_loss(shifted)
    print(f"  offset norm ~{scale:>6}: |L2 change| = {abs(moved - base):.2e}")

print("\n== training on the difference objective instead ==")
world = es.build_synthetic_world(1)
suite = es.synthetic_suite(world)
manifest = es.generate_synthetic_corpus(world, 3)
pools = es.load_reference_pools()

_, contrastive_curve = es.pretrain_alignment(manifest, pools, suite,
                                             es.TrainConfig(seed=1))
_, difference_curve = es.pretrain_with_difference_objective(
    manifest, pools, suite, es.TrainConfig(seed=1))

print("epoch | contrastive | difference-objective")
for epoch, (a, b) in enumerate(zip(contrastive_curve.epoch_means(),
                                   difference_curve.epoch_means())):
    print(f"  {epoch:>3} | {a:11.4f} | {b:11.4f}")
print("\nthe difference-objective run stalls at a higher plateau: its text "
      "differences\ncarry no identity-token gradient, so only the projectors learn.")
