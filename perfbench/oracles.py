"""Reference computations the benchmark checks the program's outputs against.

Each oracle is written apart from the emosup code path it checks: it reads
the program's files with its own parsers and recomputes with plain numpy
(and scipy's general matrix square root for the Frechet term). The only
things taken from emosup are the frozen synthetic world's matrices and
word tokens, which are the ground truth both sides share.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

EMOTION_NAMES = ["neutral", "angry", "disgusted", "fear", "happy", "sad", "surprised"]
PROMPT = "a photo of a {} face"
PROMPT_WORDS = PROMPT.split()


def read_feature_dir(manifest_path: str | Path) -> dict[str, np.ndarray]:
    """Sample id -> vector, parsed from a features.json and its .f32 files
    ('PCMF', little-endian uint32 dim, little-endian float32 values)."""
    manifest_path = Path(manifest_path)
    spec = json.loads(manifest_path.read_text())
    out = {}
    for entry in spec["samples"]:
        raw = (manifest_path.parent / entry["feature_file"]).read_bytes()
        if raw[:4] != b"PCMF":
            raise ValueError(f"{entry['feature_file']}: bad magic")
        (dim,) = struct.unpack("<I", raw[4:8])
        vec = np.frombuffer(raw[8:], dtype="<f4").astype(np.float64)
        if vec.shape != (dim,):
            raise ValueError(f"{entry['feature_file']}: header dim {dim}, holds {vec.size}")
        out[entry["id"]] = vec
    return out


def mlp(layers: list[dict], x: np.ndarray) -> np.ndarray:
    """Forward pass over checkpoint.json layer dicts."""
    h = x
    for layer in layers:
        h = np.asarray(layer["weights"]) @ h + np.asarray(layer["bias"])
        if layer["activation"] == "relu":
            h = np.maximum(h, 0.0)
    return h


def position_weights(length: int) -> np.ndarray:
    """Token i of a length-L prompt weighs 1 / (1 + tokens after it)."""
    return 1.0 / (length - np.arange(length))


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def retrieval_accuracy(checkpoint: dict, manifest: dict, world, split: str = "val"
                       ) -> float:
    """7-way personalized-prompt retrieval, from checkpoint.json and manifest.json."""
    dims = checkpoint["dims"]
    d_tok, n_tok = dims["d_tok"], dims["token_count"]
    samples = {s["id"]: s for s in manifest["samples"]}
    words = {e: [world.word_token(w) for w in PROMPT.format(e).split()]
             for e in EMOTION_NAMES}
    hits = total = 0
    for s in manifest["samples"]:
        if s["split"] != split:
            continue
        reference = samples[s["neutral_ref"]]
        identity = world.identity_latents[world.identity_index(reference["identity"])]
        head = mlp(checkpoint["guider_head"], world.backbone_map @ identity)
        guider = [head[i * d_tok:(i + 1) * d_tok] for i in range(n_tok)]
        code = EMOTION_NAMES.index(s["emotion"])
        visual = world.visual_embedding(s["image_ref"])
        if checkpoint["projector_mode"] == "multi":
            projected = mlp(checkpoint["projectors"][code], visual)
        else:
            projected = mlp(checkpoint["projectors"][0],
                            np.concatenate([visual, np.eye(len(EMOTION_NAMES))[code]]))
        sims = []
        for e in EMOTION_NAMES:
            tokens = np.array(guider + words[e])
            text = world.token_map @ (position_weights(len(tokens)) @ tokens)
            sims.append(_cos(text, projected))
        hits += int(np.argmax(sims)) == code
        total += 1
    return hits / total


def text_difference(world, source: str, target: str) -> np.ndarray:
    """Text embedding of 'source' prompt minus 'target' prompt. Only the
    emotion word differs, so any prepended identity token cancels and the
    difference is the emotion-word difference at its positional weight."""
    after = len(PROMPT_WORDS) - 1 - PROMPT_WORDS.index("{}")
    weight = 1.0 / (1.0 + after)
    return world.token_map @ (weight * (world.word_token(source) - world.word_token(target)))


def gap_report(features: dict[str, np.ndarray], texts: dict[str, np.ndarray]) -> dict:
    """Per emotion: mean cosine over all distinct image pairs (brute force),
    mean image-to-text cosine, and their difference."""
    out = {}
    for e, vecs in features.items():
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        pairwise = unit @ unit.T
        upper = np.triu_indices(len(unit), k=1)
        s_image = float(pairwise[upper].mean())
        t = texts[e] / np.linalg.norm(texts[e])
        s_match = float((unit @ t).mean())
        out[e] = {"s_image": s_image, "s_match": s_match, "gap": s_image - s_match}
    return out


def frechet(mu1, cov1, mu2, cov2) -> float:
    """||mu1 - mu2||^2 + Tr(S1 + S2 - 2 sqrtm(S1 S2)) via scipy's sqrtm."""
    from scipy.linalg import sqrtm

    delta = np.asarray(mu1, dtype=float) - np.asarray(mu2, dtype=float)
    cross = sqrtm(np.asarray(cov1, dtype=float) @ np.asarray(cov2, dtype=float))
    return float(delta @ delta + np.trace(cov1) + np.trace(cov2)
                 - 2.0 * np.trace(np.real(cross)))


def fad(real: np.ndarray, gen: np.ndarray) -> float:
    return frechet(real.mean(axis=0), np.cov(real, rowvar=False),
                   gen.mean(axis=0), np.cov(gen, rowvar=False))


def paired_metrics(real: dict[str, np.ndarray], gen: dict[str, np.ndarray]
                   ) -> tuple[float, float]:
    """(lse_d, csim) over rows paired by sample id."""
    if set(real) != set(gen):
        raise ValueError("real and generated sets hold different ids")
    ids = sorted(real)
    dists = [float(np.linalg.norm(real[i] - gen[i])) for i in ids]
    cosines = [_cos(gen[i], real[i]) for i in ids]
    return float(np.mean(dists)), float(np.mean(cosines))


def top1_pools(matrix: dict) -> dict[str, list[str]]:
    """Negative pools from a {"rows": {image: {text: sim}}} matrix: each
    emotion drops its most similar other emotion (ties: lower code)."""
    pools = {}
    for e in EMOTION_NAMES:
        others = [(-matrix["rows"][e][o], j, o)
                  for j, o in enumerate(EMOTION_NAMES) if o != e]
        excluded = min(others)[2]
        pools[e] = sorted(o for _, _, o in others if o != excluded)
    return pools
