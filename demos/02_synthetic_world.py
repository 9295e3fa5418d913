"""The deterministic synthetic encoder world: known latent structure, a
designed visual-vs-text offset, and a labelled corpus built on top."""

import numpy as np

import emosup as es

world = es.build_synthetic_world(1, es.WorldConfig(gap=2.0, noise_sigma=0.05))
suite = es.synthetic_suite(world)
cfg = world.config
print(f"world: {cfg.n_identities} identities, d_e={cfg.d_e}, d_b={cfg.d_b}, "
      f"d_tok={cfg.d_tok}, |offset|={np.linalg.norm(world.modality_offset):.2f}")

print("\nPlain prompt encodings land exactly on the text prototypes:")
for e in list(es.EMOTIONS)[:3]:
    enc = suite.text_encode(suite.tokenize(es.prompt_for(e))[None])[0]
    err = np.max(np.abs(enc - world.text_prototype(e)))
    print(f"  {e.name:<10} '{es.prompt_for(e)}'  |error| = {err:.2e}")

print("\nAt noise 0 and zero offset, visual minus text is purely the identity term:")
flat = es.build_synthetic_world(5, es.WorldConfig(noise_sigma=0.0, gap=0.0))
fsuite = es.synthetic_suite(flat)
# the encoders take stacks: a tuple of refs, and a (B, L, d_tok) token stack
visual = fsuite.visual_encode(tuple(flat.image_ref(ident, es.EmotionLabel.happy, 0)
                                    for ident in flat.identity_names[:2]))
t = fsuite.text_encode(fsuite.tokenize(es.prompt_for(es.EmotionLabel.happy))[None])[0]
for idx, v in enumerate(visual):
    ident = flat.identity_names[idx]
    a_z = flat.visual_map @ flat.identity_latents[idx]
    print(f"  {ident}: |(visual - text) - identity_term| = "
          f"{np.max(np.abs(v - t - a_z)):.2e}")

manifest = es.generate_synthetic_corpus(world, 3)
n_train = len(manifest.in_split("train"))
n_val = len(manifest.in_split("val"))
print(f"\ncorpus: {len(manifest.samples)} samples, split {n_train}/{n_val}")
sample = manifest.samples[8]
print(f"example sample: id={sample.id} emotion={sample.emotion.name} "
      f"neutral_ref={sample.neutral_ref}")

pools = es.load_reference_pools()
batch = es.sample_contrastive_batch(manifest, pools, 4, np.random.default_rng(0))
print("\none contrastive batch (anchor emotion / negative prompt / reference):")
for a, k, r in zip(batch.anchor, batch.negative, batch.reference):
    anchor = batch.samples[a]
    print(f"  {anchor.id:<22} +{anchor.emotion.name:<10}"
          f" -{es.EmotionLabel(k).name:<10} ref={batch.samples[r].id}")
