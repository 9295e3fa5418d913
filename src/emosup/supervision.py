"""Composite supervision: the total objective around an opaque base loss,
plus a desk-scale generator demo showing the supervisory effect of the
difference regularizer."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import TRAIN, VAL, CorpusManifest, Sample
from .emotions import EMOTIONS, EmotionLabel, one_hot
from .encoders import EncoderSuite, SyntheticWorld
from .errors import ContractError, NumericalError
from .numerics import (MlpParams, as_vector, cosine_with_flag, grads_zeros_like,
                       init_mlp, mlp_backward, mlp_forward, sgd_step)
from .prompts import (AlignmentCheckpoint, build_personalized_prompt,
                      personalized_text_embedding, project_visual)

# Baseline-specific default weights for the difference-regularizer term.
DEFAULT_LAMBDAS = {"ned": 0.4, "icface": 0.05, "sserd": 0.2, "toy": 0.4}

# Contract for pluggable base losses: (generated, target) -> (value, grad
# w.r.t. generated). Stands in for whatever objective the host generator
# already trains with.
BaseLossHook = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class LambdaConfig:
    """Weight of the difference-regularizer term in the total objective."""

    value: float
    baseline_tag: str = "toy"

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0:
            raise ContractError(f"lambda must be finite and >= 0, got {self.value}")


def lambda_for_baseline(tag: str) -> LambdaConfig:
    if tag not in DEFAULT_LAMBDAS:
        raise ContractError(f"unknown baseline tag {tag!r}; "
                            f"known: {sorted(DEFAULT_LAMBDAS)}")
    return LambdaConfig(DEFAULT_LAMBDAS[tag], tag)


def squared_error_loss(generated: np.ndarray, target: np.ndarray
                       ) -> tuple[float, np.ndarray]:
    """Mean squared error in embedding space; the default base-loss hook."""
    generated = as_vector(generated, name="generated")
    target = as_vector(target, dim=generated.shape[0], name="target")
    diff = generated - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.shape[0]


def total_loss(base: float, base_grad: np.ndarray, l2: float, l2_grad: np.ndarray,
               lam: LambdaConfig) -> tuple[float, np.ndarray]:
    """``base + lambda * l2`` with the matching gradient combination."""
    if not (np.isfinite(base) and np.isfinite(l2)):
        raise ContractError("loss terms must be finite")
    base_grad = as_vector(base_grad, name="base_grad")
    l2_grad = as_vector(l2_grad, dim=base_grad.shape[0], name="l2_grad")
    return base + lam.value * l2, base_grad + lam.value * l2_grad


@dataclass
class DemoConfig:
    """Hyperparameters of the generator demo.

    The defaults leave the generator well short of solving the task (it
    must implicitly separate the source emotion from identity, which a
    one-hidden-layer net at this budget cannot finish), so the quality of
    the supervision signal shows up directly in the emotion accuracy.
    """

    seed: int = 0
    steps: int = 1500
    batch_size: int = 16
    lr: float = 0.2
    hidden: tuple[int, ...] = (96,)

    def validate(self) -> None:
        if self.steps < 1 or self.batch_size < 1:
            raise ContractError("steps and batch_size must be >= 1")
        if self.lr <= 0:
            raise ContractError("lr must be positive")

    def to_dict(self) -> dict:
        return {"seed": self.seed, "steps": self.steps, "batch_size": self.batch_size,
                "lr": self.lr, "hidden": list(self.hidden)}

    @staticmethod
    def from_dict(d: dict) -> "DemoConfig":
        d = dict(d)
        if "hidden" in d:
            d["hidden"] = tuple(d["hidden"])
        return DemoConfig(**d)


@dataclass
class ToyGenerator:
    """MLP mapping (source visual embedding ++ target one-hot) to a
    generated visual embedding."""

    params: MlpParams
    d_e: int

    def generate(self, source_visual: np.ndarray, target: EmotionLabel):
        x = np.concatenate([source_visual, one_hot(target)])
        return mlp_forward(self.params, x)


def build_toy_generator(d_e: int, hidden: tuple[int, ...],
                        rng: np.random.Generator) -> ToyGenerator:
    dims = [d_e + len(EMOTIONS), *hidden, d_e]
    return ToyGenerator(init_mlp(dims, rng), d_e)


@dataclass(frozen=True)
class DemoRow:
    lam: float
    base_loss: float
    l2_loss: float
    emotion_accuracy: float
    seed: int

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "base_loss": self.base_loss,
                "l2_loss": self.l2_loss, "emotion_accuracy": self.emotion_accuracy,
                "seed": self.seed}


@dataclass
class DemoReport:
    """Paired result of an unsupervised (lambda 0) and supervised run."""

    baseline: DemoRow
    supervised: DemoRow
    config: dict = field(default_factory=dict)

    def rows(self) -> list[DemoRow]:
        return [self.baseline, self.supervised]

    def to_json_dict(self) -> dict:
        return {"baseline": self.baseline.to_dict(),
                "supervised": self.supervised.to_dict(), "config": self.config}

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


class _DemoContext:
    """Precomputed frozen-side quantities for one demo run.

    During generator training the checkpoint and encoders never change,
    so source visual embeddings, their projections, and all personalized
    prompt embeddings are constants; only the generated side moves.
    """

    def __init__(self, manifest: CorpusManifest, ckpt: AlignmentCheckpoint,
                 suite: EncoderSuite, world: SyntheticWorld):
        self.ckpt = ckpt
        self.suite = suite
        self.visual: dict[str, np.ndarray] = {}
        self.projected_source: dict[str, np.ndarray] = {}
        self.prompts: dict[tuple[str, EmotionLabel], np.ndarray] = {}
        self.clean_target: dict[tuple[str, EmotionLabel], np.ndarray] = {}
        for s in manifest.samples:
            self.visual[s.id] = suite.visual_encode(s.image_ref)
            self.projected_source[s.id] = project_visual(ckpt.bank, self.visual[s.id],
                                                         s.emotion)[0]
            reference = manifest.by_id(s.neutral_ref)
            for e in EMOTIONS:
                if (s.neutral_ref, e) not in self.prompts:
                    self.prompts[(s.neutral_ref, e)] = personalized_text_embedding(
                        build_personalized_prompt(ckpt, reference, e, suite), suite)
                if (s.identity, e) not in self.clean_target:
                    self.clean_target[(s.identity, e)] = world.clean_visual(s.identity, e)

    def text_diff(self, source: Sample, target_emotion: EmotionLabel) -> np.ndarray:
        return (self.prompts[(source.neutral_ref, source.emotion)]
                - self.prompts[(source.neutral_ref, target_emotion)])


def _l2_grad_on_generated(ctx: _DemoContext, source: Sample, generated: np.ndarray,
                          target_emotion: EmotionLabel,
                          with_grad: bool = True) -> tuple[float, np.ndarray]:
    """Difference loss of (source, generated) and its gradient w.r.t. the
    generated embedding, through the frozen target-emotion projector.

    Without ``with_grad`` only the loss is computed and the gradient is
    zeros: the backward pass through the frozen projector is skipped.
    """
    from .differencing import (DifferencePair, difference_loss,
                               difference_loss_with_grads)
    from .numerics import EPS_NORM

    ckpt = ctx.ckpt
    visual_gen, gen_cache, net = project_visual(ckpt.bank, generated, target_emotion)
    visual_diff = ctx.projected_source[source.id] - visual_gen
    text_diff = ctx.text_diff(source, target_emotion)
    degenerate = bool(np.linalg.norm(visual_diff) < EPS_NORM
                      or np.linalg.norm(text_diff) < EPS_NORM)
    dp = DifferencePair(visual_diff, text_diff, degenerate)
    if not with_grad:
        return difference_loss(dp), np.zeros_like(generated)
    loss, d_vis_diff, _ = difference_loss_with_grads(dp)
    # visual_diff = projected_source - visual_gen, so d/d visual_gen = -d_vis_diff
    upstream = -d_vis_diff
    input_grad = mlp_backward(net, gen_cache, upstream).input_grad
    if ckpt.bank.mode != "multi":
        input_grad = input_grad[:ckpt.d_e]  # drop the one-hot block
    return loss, input_grad


def _demo_pairs(samples: list[Sample], rng: np.random.Generator, batch_size: int
                ) -> list[tuple[Sample, EmotionLabel]]:
    pairs = []
    for _ in range(batch_size):
        source = samples[int(rng.integers(len(samples)))]
        others = [e for e in EMOTIONS if e != source.emotion]
        pairs.append((source, others[int(rng.integers(len(others)))]))
    return pairs


def _train_generator(manifest: CorpusManifest, ctx: _DemoContext, lam_value: float,
                     config: DemoConfig, base_loss: BaseLossHook,
                     difference_path: bool = True) -> tuple[ToyGenerator, float, float]:
    """Train a toy generator; returns it with tail-mean base and l2 losses."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    gen = build_toy_generator(ctx.suite.d_e, config.hidden, rng)
    train = manifest.in_split(TRAIN)
    if not train:
        raise ContractError("train split is empty")
    base_hist, l2_hist = [], []
    for step in range(config.steps):
        grads = grads_zeros_like(gen.params)
        base_sum = l2_sum = 0.0
        pairs = _demo_pairs(train, rng, config.batch_size)
        for source, target_emotion in pairs:
            truth = ctx.clean_target[(source.identity, target_emotion)]
            out, cache = gen.generate(ctx.visual[source.id], target_emotion)
            base_val, base_grad = base_loss(out, truth)
            if difference_path:
                # lambda 0 still reports the L2 value, but total_loss would
                # multiply its gradient by 0
                l2_val, l2_grad = _l2_grad_on_generated(ctx, source, out, target_emotion,
                                                        with_grad=lam_value != 0)
            else:
                l2_val, l2_grad = 0.0, np.zeros_like(out)
            _, upstream = total_loss(base_val, base_grad, l2_val, l2_grad,
                                     LambdaConfig(lam_value))
            grads.add_(mlp_backward(gen.params, cache, upstream / len(pairs)))
            base_sum += base_val
            l2_sum += l2_val
        if not np.isfinite(base_sum):
            raise NumericalError(f"non-finite demo loss at step {step}")
        gen.params = sgd_step(gen.params, grads, config.lr)
        base_hist.append(base_sum / len(pairs))
        l2_hist.append(l2_sum / len(pairs))
    tail = max(1, config.steps // 10)
    return gen, float(np.mean(base_hist[-tail:])), float(np.mean(l2_hist[-tail:]))


def _eval_emotion_accuracy(gen: ToyGenerator, manifest: CorpusManifest,
                           ctx: _DemoContext) -> float:
    """Retrieval-style emotion accuracy of generated embeddings on the val
    split: each (val sample, target emotion) output is classified by the
    jointly best-matching (prompt, projector) candidate pair. Scoring
    every candidate with its own projector keeps the target label out of
    the scoring path."""
    val = sorted(manifest.in_split(VAL), key=lambda s: s.id)
    if not val:
        raise ContractError("val split is empty")
    hits = total = 0
    for source in val:
        prompts = [ctx.prompts[(source.neutral_ref, k)] for k in EMOTIONS]
        for target_emotion in EMOTIONS:
            if target_emotion == source.emotion:
                continue
            out, _ = gen.generate(ctx.visual[source.id], target_emotion)
            sims = [cosine_with_flag(prompts[int(k)],
                                     project_visual(ctx.ckpt.bank, out, k)[0])[0]
                    for k in EMOTIONS]
            hits += int(np.argmax(sims)) == int(target_emotion)
            total += 1
    return hits / total


def _run_demo_once(manifest: CorpusManifest, ctx: _DemoContext, lam_value: float,
                   config: DemoConfig, base_loss: BaseLossHook,
                   difference_path: bool = True) -> DemoRow:
    gen, base_val, l2_val = _train_generator(manifest, ctx, lam_value, config,
                                             base_loss, difference_path)
    accuracy = _eval_emotion_accuracy(gen, manifest, ctx)
    return DemoRow(lam_value, base_val, l2_val, accuracy, config.seed)


def supervise_demo(manifest: CorpusManifest, ckpt: AlignmentCheckpoint,
                   lam: LambdaConfig, suite: EncoderSuite, config: DemoConfig,
                   world: SyntheticWorld | None = None,
                   base_loss: BaseLossHook = squared_error_loss) -> DemoReport:
    """Train the toy generator with and without the difference regularizer
    under identical seeds and report both emotion accuracies.

    The checkpoint stays frozen throughout: it only supplies gradients to
    the generator, never receives any.
    """
    ckpt.require_frozen()
    config.validate()
    world = world if world is not None else manifest.rebuild_world()
    ctx = _DemoContext(manifest, ckpt, suite, world)
    baseline = _run_demo_once(manifest, ctx, 0.0, config, base_loss)
    supervised = _run_demo_once(manifest, ctx, lam.value, config, base_loss)
    return DemoReport(baseline, supervised,
                      config={**config.to_dict(), "baseline_tag": lam.baseline_tag})


def sweep_lambda(manifest: CorpusManifest, ckpt: AlignmentCheckpoint,
                 grid: list[float], suite: EncoderSuite, config: DemoConfig,
                 world: SyntheticWorld | None = None,
                 base_loss: BaseLossHook = squared_error_loss) -> list[DemoRow]:
    """One demo run per grid value, all with the same seed, so rows for a
    given lambda are identical across grids."""
    if not grid:
        raise ContractError("lambda grid must be non-empty")
    for lam in grid:
        LambdaConfig(float(lam))  # validates >= 0 and finite
    ckpt.require_frozen()
    config.validate()
    world = world if world is not None else manifest.rebuild_world()
    ctx = _DemoContext(manifest, ckpt, suite, world)
    return [_run_demo_once(manifest, ctx, float(lam), config, base_loss)
            for lam in grid]


def write_demo_csv(rows: list[DemoRow], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["lambda", "base_loss", "l2_loss", "emotion_accuracy", "seed"])
        for row in rows:
            writer.writerow([repr(row.lam), repr(row.base_loss), repr(row.l2_loss),
                             repr(row.emotion_accuracy), row.seed])
