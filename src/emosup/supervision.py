"""Composite supervision: the total objective around an opaque base loss,
and a desk-scale generator demo showing the supervisory effect of the
difference regularizer (``prompts.DifferenceRegularizer``), the plug-in
the demo's generator trains against."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import TRAIN, VAL, CorpusManifest
from .emotions import EMOTIONS
from .encoders import EncoderSuite, SyntheticWorld
from .errors import ContractError, NumericalError, write_csv
from .numerics import (MlpParams, as_same_rows, init_mlp, mlp_backward, mlp_forward,
                       sgd_step)
from .prompts import AlignmentCheckpoint, DifferenceRegularizer, project_visual

# Baseline-specific default weights for the difference-regularizer term.
DEFAULT_LAMBDAS = {"ned": 0.4, "icface": 0.05, "sserd": 0.2, "toy": 0.4}

# Contract for pluggable base losses: (generated, target) -> (values, grad
# w.r.t. generated). Both inputs are (N, d_e) stacks, one row per batch
# entry; the hook returns the N per-row values and the (N, d_e) gradient.
# The demo passes the N = R * B rows of all R lambda runs in one call, so
# row n's value and gradient must depend only on row n.
# Stands in for whatever objective the host generator already trains with.
BaseLossHook = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class LambdaConfig:
    """Weight of the difference-regularizer term in the total objective."""

    value: float
    baseline_tag: str = "toy"

    def __post_init__(self):
        if self.baseline_tag not in DEFAULT_LAMBDAS:
            raise ContractError(f"unknown baseline tag {self.baseline_tag!r}; "
                                f"known: {sorted(DEFAULT_LAMBDAS)}")
        if not np.isfinite(self.value) or self.value < 0:
            raise ContractError(f"lambda must be finite and >= 0, got {self.value}")


def lambda_for_baseline(tag: str) -> LambdaConfig:
    """The published weight for host model ``tag``; ``LambdaConfig``
    refuses an unknown tag."""
    return LambdaConfig(DEFAULT_LAMBDAS.get(tag, 0.0), tag)


def squared_error_loss(generated: np.ndarray, target: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared error in embedding space of two ``(B, d_e)`` stacks, the
    default base-loss hook: the B row values and the ``(B, d_e)`` gradient.
    """
    generated, target = as_same_rows(generated, target, ("generated", "target"))
    diff = generated - target
    return np.mean(diff * diff, axis=1), 2.0 * diff / diff.shape[1]


def total_loss(base, base_grad: np.ndarray, l2, l2_grad: np.ndarray,
               lam: LambdaConfig) -> tuple[np.ndarray, np.ndarray]:
    """``base + lambda * l2`` with the matching gradient combination: B base
    and l2 values with ``(B, d_e)`` gradients give B totals and their
    ``(B, d_e)`` gradient.
    """
    base, l2 = np.asarray(base, dtype=np.float64), np.asarray(l2, dtype=np.float64)
    if not (np.isfinite(base).all() and np.isfinite(l2).all()):
        raise ContractError("loss terms must be finite")
    base_grad, l2_grad = as_same_rows(base_grad, l2_grad, ("base_grad", "l2_grad"))
    if not base.shape == l2.shape == base_grad.shape[:1]:
        raise ContractError(f"loss values of shapes {base.shape} and {l2.shape} do "
                            f"not match gradients of shape {base_grad.shape}")
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
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.steps < 1 or self.batch_size < 1:
            raise ContractError("steps and batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ContractError(f"lr must be finite and positive, got {self.lr}")
        for width in self.hidden:
            if width < 1:
                raise ContractError(f"hidden widths must be >= 1, got {width}")

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden": list(self.hidden)}


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


def _clean_targets(manifest: CorpusManifest, world: SyntheticWorld):
    """The demo's ground truth: ``truth(rows, targets)`` gives the world's
    clean visual embedding of each row's identity at its target emotion,
    read from one ``(identities, 7, d_e)`` table."""
    identities = list(dict.fromkeys(s.identity for s in manifest.samples))
    identity_row = {identity: i for i, identity in enumerate(identities)}
    identity = np.array([identity_row[s.identity] for s in manifest.samples])
    table = np.stack([[world.clean_visual(name, e) for e in EMOTIONS]
                      for name in identities])
    return lambda rows, targets: table[identity[rows], targets]


# the target emotion codes a source of each emotion may be paired with, in
# draw order: row e lists every emotion but e
_OTHER_EMOTIONS = np.array([[int(o) for o in EMOTIONS if o != e] for e in EMOTIONS])


def _demo_pairs(emotions: np.ndarray, rng: np.random.Generator, batch_size: int,
                steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``batch_size`` (source, target) pairs for each of ``steps``
    steps: returns the ``(steps, batch_size)`` positions of the sources in
    ``emotions`` (the source emotion codes) and their target emotion codes,
    one source draw then one target draw per pair, step after step.

    All draws are one array-bounded call, which consumes the stream as
    the scalar calls ``integers(len(emotions))``, ``integers(6)``, ... do.
    """
    bounds = np.tile([len(emotions), _OTHER_EMOTIONS.shape[1]], batch_size * steps)
    picks = rng.integers(0, bounds).reshape(steps, batch_size, 2)
    return picks[..., 0], _OTHER_EMOTIONS[emotions[picks[..., 0]], picks[..., 1]]


def _generate(params: MlpParams, visual: np.ndarray, targets):
    """The toy generator: ``params``, an MLP from (source visual embedding ++
    target one-hot) to a generated visual embedding, on a ``(B, d_e)`` stack
    of source embeddings with a sequence of B target emotions; returns
    ``mlp_forward``'s output and cache (with a leading run axis if
    ``params`` has one)."""
    codes = np.eye(len(EMOTIONS))[np.asarray(targets, dtype=int)]
    return mlp_forward(params, np.concatenate([visual, codes], axis=-1))


def _train_generators(manifest: CorpusManifest, reg: DifferenceRegularizer, truth,
                      lams: list[float], config: DemoConfig, base_loss: BaseLossHook
                      ) -> tuple[MlpParams, list[float], list[float]]:
    """Train one toy generator per lambda as one stacked run; returns the
    trained generators' parameters, a run axis of one network per lambda,
    and each run's tail-mean base and l2 losses.

    Every run starts from the same initial parameters, one ``init_mlp``
    draw, and sees the same batches, drawn once before the loop. The R
    runs' parameters are one ``(R, size)`` block, so each step makes one
    generator forward and backward over all runs, one ``base_loss`` call on
    their R * B rows and one ``loss_and_grad`` on the rows of the runs that
    need L2, then one ``total_loss`` and one ``sgd_step`` per run. Each of
    these passes is row- or run-independent, so a run's result does not
    depend on the other lambdas in ``lams``. A lambda 0 run needs no L2
    gradient (``total_loss`` would multiply it by 0), so it joins the L2
    pass only on the last ``tail`` steps, the ones its reported mean reads,
    and takes a zero L2 gradient there.
    """
    runs = [LambdaConfig(lam) for lam in lams]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    dims = [reg.ckpt.d_e + len(EMOTIONS), *config.hidden, reg.ckpt.d_e]
    params = MlpParams(dims, np.tile(init_mlp(dims, rng).vector, (len(runs), 1)))
    train = manifest.in_split(TRAIN)
    if not train:
        raise ContractError("train split is empty")
    train_rows = np.array([reg.row[s.id] for s in train])
    picks, targets = _demo_pairs(reg.emotion[train_rows], rng, config.batch_size,
                                 config.steps)
    weighted = np.array([lam.value != 0 for lam in runs])
    n_runs, batch, d_e = len(runs), config.batch_size, reg.ckpt.d_e
    tail = max(1, config.steps // 10)
    base_hist, l2_hist = [[] for _ in runs], [[] for _ in runs]
    for step in range(config.steps):
        rows = train_rows[picks[step]]
        visual, clean = reg.visual[rows], truth(rows, targets[step])
        out, cache = _generate(params, visual, targets[step])  # (n_runs, batch, d_e)
        base_vals, base_grad = base_loss(out.reshape(-1, d_e),
                                         np.concatenate([clean] * n_runs))
        base_vals, base_grad = base_vals.reshape(n_runs, batch), base_grad.reshape(out.shape)
        l2_vals, l2_grad = np.zeros((n_runs, batch)), np.zeros_like(out)
        scored = weighted | (step >= config.steps - tail)
        if scored.any():
            n = int(scored.sum())
            vals, grad = reg.loss_and_grad(np.concatenate([rows] * n),
                                           out[scored].reshape(-1, d_e),
                                           np.concatenate([targets[step]] * n),
                                           with_grad=bool(weighted.any()))
            l2_vals[scored] = vals.reshape(n, batch)
            l2_grad[weighted] = grad.reshape(n, batch, d_e)[weighted[scored]]
        upstream = np.empty_like(out)
        for r, lam in enumerate(runs):
            _, upstream[r] = total_loss(base_vals[r], base_grad[r], l2_vals[r], l2_grad[r],
                                        lam)
            base_hist[r].append(float(np.sum(base_vals[r])) / batch)
            if not np.isfinite(base_hist[r][-1]):
                raise NumericalError(f"non-finite demo loss at step {step}")
            if scored[r]:
                l2_hist[r].append(float(np.sum(l2_vals[r])) / batch)
        grad = mlp_backward(params, cache, upstream / batch)
        # one update per run, not one over the block: perfbench's supervise
        # rate counts sgd_step calls (ROADMAP, Measurements)
        for r in range(n_runs):
            sgd_step(params.vector[r], grad[r], config.lr)
    # l2_hist holds only the steps L2 was computed on, which include the tail
    return (params, [float(np.mean(h[-tail:])) for h in base_hist],
            [float(np.mean(h[-tail:])) for h in l2_hist])


def _eval_emotion_accuracy(params: MlpParams, manifest: CorpusManifest,
                           reg: DifferenceRegularizer) -> list[float]:
    """Retrieval-style emotion accuracy of generated embeddings on the val
    split, one per network of the generator ``params``' run axis (one for
    a generator without one): each (val sample, target emotion) output is
    classified by the jointly best-matching (prompt, projector) candidate
    pair, prompt k against the output through projector k
    (``nearest_prompt``). Scoring
    every candidate with its own projector keeps the target label out of
    the scoring path. All R runs' outputs come from one generator forward;
    each run's block then goes through all seven projectors in one
    ``project_visual`` pass, each row bit-equal to its 1-D projection, and
    one ``nearest_prompt`` scores it. No forward cache is kept, so the
    memory held at once is about one run's projection, whatever R is."""
    val = sorted(manifest.in_split(VAL), key=lambda s: s.id)
    if not val:
        raise ContractError("val split is empty")
    val_rows = np.array([reg.row[s.id] for s in val])
    rows = np.repeat(val_rows, _OTHER_EMOTIONS.shape[1])
    targets = _OTHER_EMOTIONS[reg.emotion[val_rows]].ravel()
    out = _generate(params, reg.visual[rows], targets)[0]
    k = len(EMOTIONS)
    codes = np.tile(np.arange(k), len(rows))  # output n through projector c is row k * n + c
    accuracies = []
    for block in out.reshape(-1, len(rows), reg.ckpt.d_e):  # one block per run
        projected = project_visual(reg.ckpt, np.repeat(block, k, axis=0), codes)[0]
        accuracies.append(float(np.mean(
            reg.nearest_prompt(rows, projected.reshape(len(rows), k, -1)) == targets)))
    return accuracies


def supervise_demo(manifest: CorpusManifest, ckpt: AlignmentCheckpoint,
                   lam: LambdaConfig, suite: EncoderSuite, config: DemoConfig,
                   world: SyntheticWorld | None = None,
                   base_loss: BaseLossHook = squared_error_loss) -> DemoReport:
    """Train the toy generator with and without the difference regularizer
    under identical seeds and report both emotion accuracies: the rows of
    ``sweep_lambda`` over the grid ``[0, lam.value]``.

    The checkpoint stays frozen throughout: it only supplies gradients to
    the generator, never receives any.
    """
    baseline, supervised = sweep_lambda(manifest, ckpt, [0.0, lam.value], suite, config,
                                        world, base_loss)
    return DemoReport(baseline, supervised,
                      config={**config.to_dict(), "baseline_tag": lam.baseline_tag})


def lambda_grid(grid) -> list[float]:
    """``grid`` as floats, each a valid ``LambdaConfig`` value; an empty
    grid is refused."""
    if len(grid) == 0:
        raise ContractError("lambda grid must be non-empty")
    return [LambdaConfig(float(lam)).value for lam in grid]


def sweep_lambda(manifest: CorpusManifest, ckpt: AlignmentCheckpoint,
                 grid: list[float], suite: EncoderSuite, config: DemoConfig,
                 world: SyntheticWorld | None = None,
                 base_loss: BaseLossHook = squared_error_loss) -> list[DemoRow]:
    """One demo row per grid value, all with the same seed and batches.

    The grid trains in one step loop: each step's batch is drawn once and
    every lambda's generator makes its own passes over it. A run's
    arithmetic does not depend on the rest of the grid, so the row for a
    given lambda is identical across grids and equals ``supervise_demo``'s.
    """
    lams = lambda_grid(grid)
    config.validate()
    world = world if world is not None else manifest.rebuild_world()
    reg = DifferenceRegularizer(ckpt, suite, manifest)
    params, base_vals, l2_vals = _train_generators(manifest, reg,
                                                   _clean_targets(manifest, world), lams,
                                                   config, base_loss)
    return [DemoRow(*row, config.seed) for row in zip(
        lams, base_vals, l2_vals, _eval_emotion_accuracy(params, manifest, reg))]


def write_demo_csv(rows: list[DemoRow], path: str | Path) -> None:
    write_csv(path, ["lambda", "base_loss", "l2_loss", "emotion_accuracy", "seed"],
              [(r.lam, r.base_loss, r.l2_loss, r.emotion_accuracy, r.seed) for r in rows])
