"""Pre-train the personalized prompt alignment: the guider head learns an
identity token, the per-emotion projectors learn emotion-centric visual
embeddings, and retrieval accuracy verifies the learned correlation."""

import numpy as np

import emosup as es

world = es.build_synthetic_world(1)
suite = es.synthetic_suite(world)
manifest = es.generate_synthetic_corpus(world, 3)
pools = es.load_reference_pools()

config = es.TrainConfig(seed=1)  # lr 0.1, divided by 10 at epochs 2, 4, 6
print("lr schedule:", [config.learning_rate_at(e) for e in range(config.epochs)])

ckpt, curve = es.pretrain_alignment(manifest, pools, suite, config)
print("\nepoch mean contrastive loss:")
for epoch, mean in enumerate(curve.epoch_means()):
    bar = "#" * int(mean * 60)
    print(f"  epoch {epoch}: {mean:7.4f} {bar}")

val_acc = es.retrieval_accuracy(ckpt, manifest, "val", suite)
train_acc = es.retrieval_accuracy(ckpt, manifest, "train", suite)
print(f"\nretrieval accuracy: val {val_acc:.3f}, train {train_acc:.3f}")

# identity conditioning: the same emotion prompt embeds differently for
# different reference identities
refs = {}
for s in manifest.samples:
    if s.emotion == es.EmotionLabel.neutral and s.identity not in refs:
        refs[s.identity] = s
idents = list(refs)[:3]
# one (3, L, d_tok) token stack, encoded in one call
prompts = np.stack([es.build_personalized_prompt(ckpt, refs[ident], es.EmotionLabel.happy,
                                                 suite) for ident in idents])
embs = dict(zip(idents, suite.text_encode(prompts)))
print("\npersonalized 'happy' embeddings differ across identities:")
for i in range(len(idents) - 1):
    delta = np.linalg.norm(embs[idents[i]] - embs[idents[i + 1]])
    print(f"  |T({idents[i]}) - T({idents[i + 1]})| = {delta:.4f}")

print(f"\ncheckpoint hash: {ckpt.content_hash()[:16]}... (frozen={ckpt.frozen})")
