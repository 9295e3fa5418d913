"""Evaluation metrics and modality-gap analysis: closed-form Frechet
checks, the gap report against the bundled reference table, and
negative-pool derivation from a cross-modal similarity matrix."""

import numpy as np

import emosup as es
from emosup.metrics import FeatureSet, GaussianFit, frechet_distance, lse_d, csim

rng = np.random.default_rng(0)

print("== Frechet distance ==")
one_d = frechet_distance(GaussianFit(np.array([0.0]), np.array([[1.0]])),
                         GaussianFit(np.array([3.0]), np.array([[4.0]])))
print(f"N(0,1) vs N(3,4): {one_d:.6f} (closed form: 10)")
x = rng.standard_normal((300, 12))
print(f"set vs itself   : {es.fad(FeatureSet(x), FeatureSet(x.copy())):.2e}")

print("\n== sync distance and cosine fidelity ==")
audio = [rng.standard_normal(6) for _ in range(8)]
offset = np.zeros(6)
offset[0] = 1.0
print("unit offset at every frame ->", lse_d(audio, [a + offset for a in audio]))
print("identical pairs            ->", csim(audio, [a.copy() for a in audio]))

print("\n== modality gap on a designed-offset world ==")
world = es.build_synthetic_world(21, es.WorldConfig(gap=2.0, noise_sigma=0.05))
suite = es.synthetic_suite(world)
manifest = es.generate_synthetic_corpus(world, 4)
features = {e: suite.visual_encode(tuple(s.image_ref for s in manifest.samples
                                         if s.emotion == e))
            for e in es.EMOTIONS}
texts = {e: world.text_prototype(e) for e in es.EMOTIONS}
report = es.modality_gap_report(features, texts)
print(es.format_gap_report(report, es.load_reference_gap_table()))
print("(ref_gap: statistics measured with a real encoder on a real corpus)")

print("\n== negative pools by top-1 exclusion ==")
derived = es.derive_negative_pools(es.load_reference_matrix(), 1)
reference = es.load_reference_pools()
discrepant = es.pool_discrepancies(derived, reference)
for e in es.EMOTIONS:
    mark = "  (differs from published pool)" if e in discrepant else ""
    names = ", ".join(sorted(x.name for x in derived.pool[e]))
    print(f"  {e.name:<10} -> {{{names}}}{mark}")
