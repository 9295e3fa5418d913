"""Personalized prompt alignment: an identity-conditioned prompt token,
per-emotion visual projectors, the contrastive objective tying them to
frozen encoder embeddings, the pre-training loop, and the frozen side of a
trained checkpoint (``DifferenceRegularizer``), the one table that the
difference regularizer, retrieval and the difference export read.

The trainable pieces are deliberately small: a guider head that turns
frozen identity-backbone features into prompt tokens, and a bank of
projector MLPs that refine frozen visual-encoder outputs into
emotion-centric embeddings. Everything else stays frozen.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (TRAIN, ContrastiveBatch, CorpusManifest, NegativePoolTable,
                     PairBatch, Sample, sample_contrastive_batch, sample_pair_batch)
from .emotions import EMOTIONS, EmotionLabel, prompt_for
from .encoders import EncoderSuite
from .errors import (ContractError, NumericalError, load_json_object, stream_json,
                     write_csv, write_json)
from .numerics import (DenseLayer, DifferencePair, MlpParams, as_matrix,
                       chain_size, contrastive_loss_with_grads, cosine_with_flag,
                       difference_loss_with_grads, init_mlp, layers_backward,
                       layers_forward, mlp_backward, mlp_forward, sgd_step)

MULTI = "multi"
SINGLE_CONDITIONAL = "single_conditional"


def projector_dims(d_e: int, mode: str) -> list[int]:
    """Hidden sizes follow the [d_e, d_e/2, d_e] shape ratio."""
    d_in = d_e + len(EMOTIONS) if mode == SINGLE_CONDITIONAL else d_e
    return [d_in, d_e, max(1, d_e // 2), d_e, d_e]


def guider_head_dims(d_b: int, d_tok: int, token_count: int) -> list[int]:
    return [d_b, d_b, token_count * d_tok]


def _network_dims(d_e: int, d_b: int, d_tok: int, token_count: int,
                  mode: str) -> list[list[int]]:
    """The layer chain of each network of a checkpoint, in vector order: the
    guider head, then the bank's projectors, one per emotion in ``multi``
    mode and one shared network in ``single_conditional``."""
    if mode not in (MULTI, SINGLE_CONDITIONAL):
        raise ContractError(f"unknown projector mode {mode!r}")
    count = len(EMOTIONS) if mode == MULTI else 1
    return [guider_head_dims(d_b, d_tok, token_count)] + [projector_dims(d_e, mode)] * count


@dataclass(eq=False)
class AlignmentCheckpoint:
    """Trained guider head + projector bank with training metadata.

    All parameters live in one float64 ``vector``, the guider head's and
    then the projectors', one network after another. The networks are views
    of it that the constructor builds from the dims: ``guider_head``, and
    ``bank``, the P projectors (7 in ``multi`` mode, 1 in
    ``single_conditional``) as one ``MlpParams`` with a run axis, ``(P, out,
    in)`` weights and ``(P, out)`` biases. So one in-place update of the
    vector trains them all. The constructor takes ``vector`` as it is,
    without a copy, and refuses a view of another array, whose owner would
    stay writable after ``freeze``. So ``dataclasses.replace`` gives a
    checkpoint that shares its original's vector (pass
    ``vector=ckpt.vector.copy()`` for one of its own) and leaves the
    original as it was. ``==`` is identity. Once frozen
    the vector and every view of it are write-protected: the step functions
    still compute gradients on it, but ``sgd_step`` refuses it with
    ``ContractError``.
    """

    d_e: int
    d_b: int
    d_tok: int
    token_count: int
    mode: str
    vector: np.ndarray = field(repr=False)
    metadata: dict = field(default_factory=dict)
    guider_head: MlpParams = field(init=False, repr=False)
    bank: MlpParams = field(init=False, repr=False)
    frozen_bank: list[DenseLayer] | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        chains = _network_dims(self.d_e, self.d_b, self.d_tok, self.token_count, self.mode)
        n, size = chain_size(chains[0]), sum(map(chain_size, chains))
        if not (isinstance(self.vector, np.ndarray) and self.vector.dtype == np.float64
                and self.vector.shape == (size,)):
            raise ContractError(f"a checkpoint of these dims holds a float64 vector of "
                                f"{size} parameters, got {np.asarray(self.vector).dtype} "
                                f"of shape {np.shape(self.vector)}")
        if self.vector.base is not None:
            raise ContractError("a checkpoint's vector must own its memory, not view "
                                "another array; pass a copy")
        self.guider_head = MlpParams(chains[0], self.vector[:n])
        count = len(chains) - 1  # the bank's networks
        self.bank = MlpParams(chains[1], self.vector[n:].reshape(count, -1))

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of ``vector``, a vector in this checkpoint's layout (such
        as a gradient), one per ``all_params()`` entry: the guider head's
        block, and the bank's as a ``(P, size)`` block."""
        n = self.guider_head.vector.size
        return [vector[:n], vector[n:].reshape(self.bank.vector.shape)]

    def freeze(self) -> "AlignmentCheckpoint":
        params = self.all_params()
        if any(p.vector.base is not self.vector for p in params):
            raise ContractError("a network was swapped in after construction; "
                                "build a new checkpoint instead")
        self.vector.flags.writeable = False
        for p in params:
            p.freeze()
        # the bank's layers with a singleton row axis, (P, 1, out, in) and
        # (P, 1, out) read-only views, built once for project_visual
        self.frozen_bank = [DenseLayer(l.weights[:, None], l.bias[:, None], l.activation)
                            for l in self.bank.layers]
        return self

    @property
    def frozen(self) -> bool:
        return self.frozen_bank is not None

    def require_frozen(self) -> None:
        if not self.frozen:
            raise ContractError("checkpoint must be frozen for inference use")

    def require_suite(self, suite: EncoderSuite) -> None:
        """Refuse, naming the field and both values, a suite whose ``d_e``,
        ``d_b`` or ``d_tok`` differs from this checkpoint's."""
        for dim in ("d_e", "d_b", "d_tok"):
            if getattr(self, dim) != getattr(suite, dim):
                raise ContractError(f"checkpoint {dim} is {getattr(self, dim)} but the "
                                    f"encoder suite has {dim} {getattr(suite, dim)}")

    def all_params(self) -> list[MlpParams]:
        return [self.guider_head, self.bank]

    def _layout(self, values) -> dict:
        """The checkpoint file's object, each layer's weights and bias given
        as ``values`` of its array; the bank is written one network at a
        time."""
        def dump(layers, r=...):
            return [{"weights": values(l.weights[r]), "bias": values(l.bias[r]),
                     "activation": l.activation} for l in layers]

        return {"format_version": 1,
                "dims": {"d_e": self.d_e, "d_b": self.d_b, "d_tok": self.d_tok,
                         "token_count": self.token_count},
                "projector_mode": self.mode,
                "guider_head": dump(self.guider_head.layers),
                "projectors": [dump(self.bank.layers, r)
                               for r in range(len(self.bank.vector))],
                "metadata": self.metadata}

    def to_json_dict(self) -> dict:
        """The checkpoint file's object with every array as nested lists."""
        return self._layout(np.ndarray.tolist)

    @staticmethod
    def from_json_dict(d: dict) -> "AlignmentCheckpoint":
        """Inverse of ``to_json_dict``, frozen; a layer's weights and bias may
        also be float64 arrays already (``load``'s parse). Each network's
        layers are checked against, then written into, their views of the one
        vector; the vector is then checked for non-finite entries once."""
        if d.get("format_version") != 1:
            raise ContractError(f"unsupported checkpoint format {d.get('format_version')!r}")
        dims, mode = d["dims"], d["projector_mode"]
        chains = _network_dims(dims["d_e"], dims["d_b"], dims["d_tok"], dims["token_count"],
                               mode)
        if len(d["projectors"]) != len(chains) - 1:
            raise ContractError("multi mode needs one projector per emotion" if mode == MULTI
                                else "single_conditional mode holds exactly one network")
        ckpt = AlignmentCheckpoint(dims["d_e"], dims["d_b"], dims["d_tok"],
                                   dims["token_count"], mode,
                                   np.empty(sum(map(chain_size, chains))),
                                   metadata=dict(d["metadata"]))
        networks = [("guider head", d["guider_head"], ckpt.guider_head)] + [
            (f"projector {i}", p, MlpParams(chains[1], ckpt.bank.vector[i]))
            for i, p in enumerate(d["projectors"])]
        for name, layers, net in networks:
            arrays = [(np.asarray(l["weights"], dtype=np.float64),
                       np.asarray(l["bias"], dtype=np.float64), l["activation"])
                      for l in layers]
            got = [(w.shape, b.shape, act) for w, b, act in arrays]
            want = [(l.weights.shape, l.bias.shape, l.activation) for l in net.layers]
            if got != want:
                raise ContractError(_network_refusal(name, got, want, dims))
            for (w, b, _), layer in zip(arrays, net.layers):
                layer.weights[...], layer.bias[...] = w, b
        if not np.isfinite(ckpt.vector).all():
            raise ContractError("checkpoint parameters contain non-finite entries")
        return ckpt.freeze()

    def content_hash(self) -> str:
        """The sha256 of the file ``save`` writes."""
        digest = hashlib.sha256()
        stream_json(lambda text: digest.update(text.encode()), self._layout(np.asarray))
        return digest.hexdigest()

    def save(self, path: str | Path) -> None:
        """Write ``canonical_json(self.to_json_dict())``, streamed from the
        layer arrays one row at a time."""
        write_json(path, self._layout(np.asarray))

    @staticmethod
    def load(path: str | Path) -> "AlignmentCheckpoint":
        """The checkpoint ``save`` wrote to ``path``, frozen. Each layer's lists
        become arrays as the parser closes that layer (``_layer_arrays``)."""
        ckpt = load_json_object(path, AlignmentCheckpoint.from_json_dict, _layer_arrays)
        if _holds_array(ckpt.metadata):
            # a layer-shaped object inside the metadata: read it back as written
            ckpt.metadata = load_json_object(path, lambda d: d["metadata"])
        return ckpt


_LAYER_KEYS = {"activation", "bias", "weights"}


def _layer_arrays(obj: dict) -> dict:
    """json's ``object_hook`` for a checkpoint: an object whose keys are a
    layer's gets its weights and bias as float64 arrays, so the parse never
    holds more than one layer's Python floats. Lists that are no float array
    stay as they are, for ``from_json_dict`` to refuse."""
    if obj.keys() == _LAYER_KEYS:
        try:
            obj["weights"], obj["bias"] = (np.array(obj["weights"], dtype=np.float64),
                                           np.array(obj["bias"], dtype=np.float64))
        except (OverflowError, TypeError, ValueError):
            pass
    return obj


def _holds_array(value) -> bool:
    if isinstance(value, dict):
        return any(_holds_array(v) for v in value.values())
    if isinstance(value, list):
        return any(_holds_array(v) for v in value)
    return isinstance(value, np.ndarray)


def _network_refusal(name: str, got: list, want: list, dims: dict) -> str:
    """Why a checkpoint file's network, whose layers have the ``(weights
    shape, bias shape, activation)`` of ``got``, is not the chain ``want``
    that the file's dims give: both chains' widths and activations, or,
    where those agree or the file's layers are no chain of matrices, both
    lists of layer shapes."""
    def chain(layers):
        return ([layers[0][0][-1]] + [w[0] for w, _, _ in layers],
                [act for _, _, act in layers])

    if got and all(len(w) == 2 for w, _, _ in got) and chain(got) != chain(want):
        (widths, activations), (want_widths, want_activations) = chain(got), chain(want)
        return (f"checkpoint {name} maps {widths[0]} -> {widths[-1]}, through widths "
                f"{widths} with activations {activations}, but its dims {dims} need "
                f"{want_widths[0]} -> {want_widths[-1]}, through widths {want_widths} "
                f"with activations {want_activations}")
    return (f"checkpoint {name} has layers of (weights, bias) shapes "
            f"{[(w, b) for w, b, _ in got]}, but its dims {dims} need "
            f"{[(w, b) for w, b, _ in want]}")


def build_personalized_prompt(ckpt: AlignmentCheckpoint, reference: Sample,
                              emotion: EmotionLabel, suite: EncoderSuite) -> np.ndarray:
    """Prepend the identity token(s), the guider head's output on the frozen
    backbone's identity features, to the tokenized emotion prompt: one
    ``(token_count + L, d_tok)`` sequence.

    The reference must be neutral: an emotional reference would leak its
    own expression into the identity token.
    """
    if reference.emotion != EmotionLabel.neutral:
        raise ContractError(f"reference {reference.id!r} is {reference.emotion.name}, "
                            "not neutral")
    head_out, _ = mlp_forward(ckpt.guider_head,
                              suite.backbone_identity(reference.image_ref))
    return np.concatenate([head_out.reshape(ckpt.token_count, ckpt.d_tok),
                           suite.tokenize(prompt_for(emotion))])


def _with_codes(mode: str, x, codes):
    """``x``, a ``(B, d_e)`` row stack, as projector input: in
    single_conditional mode each row gets the one-hot code of its entry of
    ``codes`` appended."""
    if mode == SINGLE_CONDITIONAL:
        x = np.concatenate([x, np.eye(len(EMOTIONS))[codes]], axis=-1)
    return x


def _group_rows(ckpt: AlignmentCheckpoint, x: np.ndarray, codes: np.ndarray
                ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Group the rows of the ``(B, d_e)`` stack ``x``, as ``_with_codes``
    inputs, by the checkpoint's projector of their emotion codes into a
    zero-padded ``(P, m, in)`` stack, m the largest group. Returns the stack
    and the index that reads the rows back in order (``stack[index]``)."""
    x = _with_codes(ckpt.mode, x, codes)
    group = codes if ckpt.mode == MULTI else np.zeros_like(codes)
    counts = np.bincount(group, minlength=len(ckpt.bank.vector))
    # each row's slot within its group: its rank in a stable sort by group
    order = np.argsort(group, kind="stable")
    slot = np.empty_like(group)
    slot[order] = np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)
    stack = np.zeros((len(counts), counts.max(), x.shape[1]))
    stack[group, slot] = x
    return stack, (group, slot)


def project_visual(ckpt: AlignmentCheckpoint, x: np.ndarray, codes: np.ndarray):
    """Project row n of the ``(B, d_e)`` stack ``x`` through the frozen
    projector of emotion code ``codes[n]``: one pass of the ``_group_rows``
    stack with a singleton row axis, ``(P, m, 1, in)``, against the frozen
    checkpoint's ``frozen_bank``, so each row makes the ``(1, in) @ (in,
    out)`` products of a 1-D ``mlp_forward``. Returns the projections and
    ``input_grad(upstream)``, the gradient of each row's ``dot(projection,
    upstream row)`` w.r.t. its ``d_e`` input row, the package's one input
    gradient. Each row equals its 1-D ``mlp_forward`` and its one-row
    ``layers_backward`` input gradient bit for bit, whatever rows stand
    beside it."""
    ckpt.require_frozen()
    layers = ckpt.frozen_bank
    stack, index = _group_rows(ckpt, x, codes)
    out, inputs, preacts = layers_forward(layers, stack[:, :, None])

    def input_grad(upstream: np.ndarray) -> np.ndarray:
        u = np.zeros_like(out)
        u[index] = upstream[:, None]
        return layers_backward(layers, inputs, preacts, u)[index][:, 0, :x.shape[1]]

    return out[index][:, 0], input_grad


def _index_array(x, bound: int, name: str) -> np.ndarray:
    """``x`` as a non-empty 1-D integer array whose entries lie in [0, bound)."""
    a = np.asarray(x)
    if a.ndim != 1 or a.size == 0 or a.dtype.kind not in "iu":
        raise ContractError(f"{name} must be a non-empty 1-D integer array, "
                            f"got {a.dtype} of shape {a.shape}")
    if a.min() < 0 or a.max() >= bound:
        raise ContractError(f"{name} must lie in [0, {bound}), got values from "
                            f"{a.min()} to {a.max()}")
    return a


class DifferenceRegularizer:
    """The frozen side of a checkpoint over one manifest, and the difference
    regularizer ``L2`` it defines, as a plug-in for any generator of visual
    embeddings.

    A host turns source samples of ``manifest`` and target emotions into
    generated ``d_e`` embeddings; ``loss_and_grad`` scores them by
    ``L2 = 1 - cosine(P_src(source) - P_tgt(generated), T_src - T_tgt)``,
    with P the frozen projectors and T the personalized prompt embeddings
    of the source's neutral reference. The host adds the result, times
    lambda, to its own loss (``total_loss``).

    The constructor refuses an unfrozen checkpoint and a suite of other
    dims (``require_suite``), then builds the frozen side once, in manifest
    order (sample ``s`` is row ``row[s.id]`` of ``samples``), as
    write-protected tables: the sources' ``visual`` embeddings ``(N, d_e)``,
    one ``visual_encode`` of all the refs, and their ``emotion`` codes; their
    ``projected_source`` through their own projectors, one ``project_visual``
    over the whole stack; and ``prompts``, the ``(R, 7, d_e)`` prompt
    embeddings of the R ``references`` (``reference`` holds each row's), one
    ``text_encode(build_personalized_prompt(...)[None])`` per (reference,
    emotion). Every entry is its per-sample computation bit for bit, so
    ``retrieval_accuracy`` and ``export_difference_rows`` read the same
    tables the demo trains against. ``nearest_prompt`` is the 7-way prompt
    read that retrieval and the demo's judge share.
    """

    def __init__(self, ckpt: AlignmentCheckpoint, suite: EncoderSuite,
                 manifest: CorpusManifest):
        ckpt.require_frozen()
        ckpt.require_suite(suite)
        self.ckpt = ckpt
        self.samples = samples = manifest.samples
        self.row = {s.id: i for i, s in enumerate(samples)}
        self.references = list(dict.fromkeys(s.neutral_ref for s in samples))
        reference_row = {ref: i for i, ref in enumerate(self.references)}
        self.emotion = np.array([int(s.emotion) for s in samples])
        self.reference = np.array([reference_row[s.neutral_ref] for s in samples])
        self.visual = suite.visual_encode(tuple(s.image_ref for s in samples))
        self.projected_source, _ = project_visual(ckpt, self.visual, self.emotion)
        # one encode per prompt: a batched encode differs in the last bits
        self.prompts = np.array([[suite.text_encode(build_personalized_prompt(
            ckpt, manifest.by_id(ref), e, suite)[None])[0] for e in EMOTIONS]
            for ref in self.references])
        for array in (self.emotion, self.reference, self.visual, self.projected_source,
                      self.prompts):
            array.flags.writeable = False

    def loss_and_grad(self, rows, generated, targets, with_grad: bool = True
                      ) -> tuple[np.ndarray, np.ndarray]:
        """The difference losses of a ``(B, d_e)`` stack of generated
        embeddings, row n made from source row ``rows[n]`` for target
        emotion code ``targets[n]``, and their ``(B, d_e)`` gradient w.r.t.
        the stack: one ``project_visual`` pass through the frozen
        projectors of the targets, forward and input-only backward. A row's
        loss and gradient do not depend on the other rows of the batch; a
        zero-norm difference gets loss 1 and a zero gradient.

        Without ``with_grad`` only the losses are computed and the gradient
        is zeros: the backward pass through the frozen projectors is skipped.
        Rows outside the manifest, target codes outside [0, 7) and a
        ``generated`` that is not a finite ``(B, d_e)`` stack are refused.
        """
        rows = _index_array(rows, len(self.emotion), "rows")
        targets = _index_array(targets, len(EMOTIONS), "target codes")
        if targets.shape != rows.shape:
            raise ContractError(f"{len(targets)} target codes for {len(rows)} rows")
        generated = as_matrix(generated, (len(rows), self.ckpt.d_e), "generated")
        visual_gen, input_grad = project_visual(self.ckpt, generated, targets)
        reference = self.reference[rows]
        losses, d_vis_diff, _ = difference_loss_with_grads(DifferencePair(
            self.projected_source[rows] - visual_gen,
            self.prompts[reference, self.emotion[rows]] - self.prompts[reference, targets]))
        if not with_grad:
            return losses, np.zeros_like(generated)
        # visual_diff = projected_source - visual_gen, so d/d visual_gen is -d_vis_diff
        return losses, input_grad(-d_vis_diff)

    def nearest_prompt(self, rows, projected) -> np.ndarray:
        """The 7-way personalized-prompt read: for each manifest row
        ``rows[n]``, the emotion code k whose prompt of that row's reference
        has the largest cosine with ``projected[n]``, a ``(B, d_e)`` stack
        scored against all seven prompts, or with ``projected[n, k]``, a
        ``(B, 7, d_e)`` stack whose entry k is scored against prompt k.

        One ``cosine_with_flag`` per candidate, so a zero-norm candidate
        scores 0, and a tie goes to the first code (``np.argmax``). Rows
        outside the manifest and a ``projected`` of another shape are
        refused."""
        rows = _index_array(rows, len(self.emotion), "rows")
        shape = (len(rows), len(EMOTIONS), self.ckpt.d_e)
        projected = np.asarray(projected)
        if projected.shape not in (shape[::2], shape):
            raise ContractError(f"projected must be of shape {shape[::2]} or {shape}, "
                                f"got {projected.shape}")
        # a (B, d_e) row is each of its seven candidates
        projected = np.broadcast_to(projected.reshape(len(rows), -1, shape[2]), shape)
        return np.array([np.argmax([cosine_with_flag(p, v)[0] for p, v in zip(ps, vs)])
                         for ps, vs in zip(self.prompts[self.reference[rows]], projected)])


@dataclass
class TrainConfig:
    """Pre-training hyperparameters.

    The schedule starts at ``lr`` and divides by ``decay_factor`` at the
    start of each epoch in ``decay_epochs`` (epochs are 0-indexed, so the
    default divides at epochs 2, 4 and 6 of a 10-epoch run).
    """

    seed: int = 1
    epochs: int = 10
    batch_size: int = 32
    steps_per_epoch: int = 40
    lr: float = 0.1
    decay_epochs: tuple[int, ...] = (2, 4, 6)
    decay_factor: float = 10.0
    momentum: float = 0.0
    projector_mode: str = MULTI
    guider_token_count: int = 1

    def validate(self) -> None:
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1 or self.batch_size < 1 or self.steps_per_epoch < 1:
            raise ContractError("epochs, batch_size and steps_per_epoch must be >= 1")
        for name in ("lr", "decay_factor"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ContractError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.momentum < 1:
            raise ContractError("momentum must lie in [0, 1)")
        if self.projector_mode not in (MULTI, SINGLE_CONDITIONAL):
            raise ContractError(f"unknown projector mode {self.projector_mode!r}")
        if self.guider_token_count < 1:
            raise ContractError("guider_token_count must be >= 1")

    def learning_rate_at(self, epoch: int) -> float:
        drops = sum(1 for d in self.decay_epochs if epoch >= d)
        return self.lr / self.decay_factor ** drops

    def to_dict(self) -> dict:
        return {**asdict(self), "decay_epochs": list(self.decay_epochs)}


@dataclass
class LossCurve:
    """Per-step loss records: (epoch, step, loss, lr)."""

    records: list[tuple[int, int, float, float]]

    def epoch_means(self) -> list[float]:
        sums: dict[int, list[float]] = {}
        for epoch, _, loss, _ in self.records:
            sums.setdefault(epoch, []).append(loss)
        return [float(np.mean(sums[e])) for e in sorted(sums)]

    def save_csv(self, path: str | Path) -> None:
        write_csv(path, ["epoch", "step", "loss", "lr"], self.records)


def _fresh_checkpoint(suite: EncoderSuite, config: TrainConfig,
                      rng: np.random.Generator) -> AlignmentCheckpoint:
    """Each network's ``init_mlp`` draw, in vector order, from one stream."""
    dims = (suite.d_e, suite.d_b, suite.d_tok, config.guider_token_count,
            config.projector_mode)
    return AlignmentCheckpoint(*dims, np.concatenate(
        [init_mlp(chain, rng).vector for chain in _network_dims(*dims)]))


@dataclass
class _FrozenTable:
    """Frozen-encoder outputs a training step reads, by position in the
    train split that the batches index (``ContrastiveBatch``, ``PairBatch``):
    the ``(n, d_e)`` visual embeddings, the ``(n,)`` emotion codes, and the
    ``(n, d_b)`` identity-backbone features of the train neutrals, the only
    references a batch holds (other rows are NaN, which the guider head
    refuses). ``prompt_tokens`` holds the tokens of each emotion's plain
    prompt as a ``(7, L0, d_tok)`` array indexed by emotion code. The
    encoders never change, so a training run computes these once instead of
    once per entry."""

    visual: np.ndarray
    emotion: np.ndarray
    identity: np.ndarray
    prompt_tokens: np.ndarray


def _frozen_table(train: list[Sample], suite: EncoderSuite) -> _FrozenTable:
    prompts = [suite.tokenize(prompt_for(e)) for e in EMOTIONS]
    if len({len(tokens) for tokens in prompts}) != 1:
        raise ContractError("batched training needs emotion prompts of one token "
                            f"length, got lengths {[len(t) for t in prompts]}")
    visual = suite.visual_encode(tuple(s.image_ref for s in train))
    identity = np.full((len(train), suite.d_b), np.nan)
    for position, s in enumerate(train):
        if s.emotion == EmotionLabel.neutral:
            identity[position] = suite.backbone_identity(s.image_ref)
    return _FrozenTable(visual, np.array([int(s.emotion) for s in train]), identity,
                        np.array(prompts))


def _check_batch(step: str, batch: ContrastiveBatch | PairBatch,
                 table: _FrozenTable) -> None:
    """Refuse an empty batch, and one drawn from a train split of another
    length than the table's."""
    if not len(batch.reference):
        raise ContractError(f"{step} needs a batch of at least one entry")
    if len(batch.samples) != len(table.emotion):
        raise ContractError(f"{step}: the batch indexes a train split of "
                            f"{len(batch.samples)} samples, the table holds "
                            f"{len(table.emotion)}")


def _personalized_rows(ckpt: AlignmentCheckpoint, identity: np.ndarray,
                       table: _FrozenTable, suite: EncoderSuite):
    """One guider-head forward pass over the ``(B, d_b)`` identity features
    of a batch's references.

    Returns two functions. ``embed(codes)`` stacks each reference's guider
    tokens in front of the tokens of the prompt of the matching emotion code
    and encodes the stack in one ``text_encode`` call: a ``(B, d_e)``
    embedding stack plus the ``(B, L, d_tok)`` token stack. ``backward(terms)``
    takes ``(stack, upstream)`` pairs of such token stacks and ``(B, d_e)``
    embedding gradients, chains them through the guider tokens (one
    ``text_token_vjp`` call per token per term), and returns the head's
    parameter gradient from one backward pass on their sum (the head's
    backward is linear in its upstream gradient).
    """
    head_out, head_cache = mlp_forward(ckpt.guider_head, identity)
    count = ckpt.token_count
    guider = head_out.reshape(len(identity), count, ckpt.d_tok)

    def embed(codes: np.ndarray):
        stack = np.concatenate([guider, table.prompt_tokens[codes]], axis=1)
        return suite.text_encode(stack), stack

    def backward(terms) -> np.ndarray:
        upstream = np.zeros_like(guider)
        for stack, embedding_grads in terms:
            for i in range(count):
                upstream[:, i] += suite.text_token_vjp(stack, i, embedding_grads)
        return mlp_backward(ckpt.guider_head, head_cache, upstream.reshape(head_out.shape))

    return embed, backward


def _project_rows(ckpt: AlignmentCheckpoint, visual: np.ndarray, codes: np.ndarray):
    """One stacked pass through the whole projector bank: the ``(B, d_e)``
    visual embeddings, each to the projector of its emotion code, are
    grouped by projector into a zero-padded ``(P, m, in)`` stack
    (``_group_rows``), and ``layers_forward`` makes one ``np.matmul`` per
    layer over the bank's ``(P, out, in)`` layers.

    Returns the ``(B, d_e)`` projections and ``backward(upstream, grad)``,
    which writes every projector's weight and bias gradients into the
    bank's block of ``grad``, a vector in the layout of ``ckpt.vector`` (a
    step makes one bank pass, so it writes rather than adds). A padded slot
    gets zero upstream gradient, so it adds exactly 0, and a projector with
    no rows gets zeros.
    """
    stack, index = _group_rows(ckpt, visual, codes)
    bank = ckpt.bank
    out, inputs, preacts = layers_forward(bank.layers, stack)

    def backward(upstream: np.ndarray, grad: np.ndarray) -> None:
        u = np.zeros_like(out)
        u[index] = upstream
        # the gradient w.r.t. the bank's input is not needed
        layers_backward(bank.layers, inputs, preacts, u, bank.views(ckpt.split(grad)[1]),
                        input_grad=False)

    return out[index], backward


def _step_grads(ckpt: AlignmentCheckpoint, batch: ContrastiveBatch | PairBatch,
                suite: EncoderSuite, table: _FrozenTable, rows: np.ndarray,
                codes: np.ndarray, prompt_codes: tuple[np.ndarray, np.ndarray], loss,
                out: np.ndarray | None) -> tuple[float, np.ndarray]:
    """The one body of both pre-training steps: the mean loss over the batch's
    n entries plus its gradient for head and bank, one vector in the layout
    of ``ckpt.vector``, written into ``out`` when given (a C-contiguous
    float64 vector of that shape, which a training run reuses every step)
    and into a new vector otherwise.

    One guider-head pass over the entries' references embeds two prompt
    stacks, ``t_1`` and ``t_2``, of the emotion codes ``prompt_codes``
    (``_personalized_rows``); one bank pass projects the train positions
    ``rows`` of ``table.visual``, row m through the projector of ``codes[m]``,
    into ``i_vis`` (``_project_rows``). ``loss(t_1, t_2, i_vis)`` returns the
    n losses and their gradients w.r.t. ``t_1``, ``t_2`` and ``i_vis``; the
    ``1/n`` mean scale is applied here, once. The caller runs
    ``_check_batch`` before it gathers ``codes``.
    """
    scale = 1.0 / len(batch.reference)
    # the head block is assigned and the bank pass writes the rest, so
    # whatever ``out`` held before is overwritten
    if out is None:
        grad = np.empty_like(ckpt.vector)
    elif (out.shape == ckpt.vector.shape and out.dtype == np.float64
          and out.flags.c_contiguous and out.flags.writeable):
        grad = out
    else:
        raise ContractError(f"out must be a writable C-contiguous float64 vector of "
                            f"shape {ckpt.vector.shape}")
    embed, head_backward = _personalized_rows(ckpt, table.identity[batch.reference],
                                              table, suite)
    (t_1, stack_1), (t_2, stack_2) = map(embed, prompt_codes)
    i_vis, projector_backward = _project_rows(ckpt, table.visual[rows], codes)

    losses, d_1, d_2, d_vis = loss(t_1, t_2, i_vis)
    grad[:ckpt.guider_head.vector.size] = head_backward([(stack_1, scale * d_1),
                                                         (stack_2, scale * d_2)])
    projector_backward(scale * d_vis, grad)
    return float(np.sum(losses)) * scale, grad


def contrastive_step_grads(ckpt: AlignmentCheckpoint, batch: ContrastiveBatch,
                           suite: EncoderSuite, table: _FrozenTable,
                           out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean contrastive loss over a batch plus its gradient for head and
    bank, one vector in the layout of ``ckpt.vector`` (``out``, when given):
    ``_step_grads`` with the positive and negative prompts and each anchor
    through its own emotion's projector.

    ``table`` holds the frozen-encoder outputs of the train split the batch
    indexes (``_frozen_table``). An empty batch is refused.
    """
    _check_batch("contrastive_step_grads", batch, table)
    codes = table.emotion[batch.anchor]
    return _step_grads(ckpt, batch, suite, table, batch.anchor, codes,
                       (codes, batch.negative), contrastive_loss_with_grads, out)


def difference_step_grads(ckpt: AlignmentCheckpoint, batch: PairBatch,
                          suite: EncoderSuite, table: _FrozenTable,
                          out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean difference-alignment loss over sampled pairs plus its gradient,
    laid out, with a ``table`` and ``out`` as in ``contrastive_step_grads``:
    ``_step_grads`` with the source and target prompts, and the sources
    (the first n projected rows) and targets (the last n) each through its
    own emotion's projector.

    Used by the ablation that pre-trains with the difference objective
    instead of the contrastive one. Note the identity token cancels in
    the text difference, so under a linear text encoder the guider head
    receives exactly zero gradient here. A degenerate pair (a zero-norm
    difference) counts as loss 1 and contributes no gradient. An empty
    batch is refused.
    """
    _check_batch("difference_step_grads", batch, table)
    n = len(batch.source)
    rows = np.concatenate([batch.source, batch.target])
    codes = table.emotion[rows]

    def loss(t_s, t_t, i_vis):
        losses, d_idiff, d_tdiff = difference_loss_with_grads(
            DifferencePair(i_vis[:n] - i_vis[n:], t_s - t_t))
        # scaling commutes exactly with negation and concatenation
        return losses, d_tdiff, -d_tdiff, np.concatenate([d_idiff, -d_idiff])

    return _step_grads(ckpt, batch, suite, table, rows, codes, (codes[:n], codes[n:]), loss,
                       out)


def _run_training(manifest: CorpusManifest, pools: NegativePoolTable,
                  suite: EncoderSuite, config: TrainConfig,
                  objective: str) -> tuple[AlignmentCheckpoint, LossCurve]:
    config.validate()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    ckpt = _fresh_checkpoint(suite, config, rng)
    # one step buffer per run: each step writes its gradient into it, and
    # sgd_step scales it in place into the applied step
    buffer = np.empty_like(ckpt.vector)
    velocity = np.zeros_like(ckpt.vector) if config.momentum else None
    # the samplers draw anchors, pairs and neutral references from train
    # only, as positions in it
    table = _frozen_table(manifest.in_split(TRAIN), suite)
    records = []
    for epoch in range(config.epochs):
        lr = config.learning_rate_at(epoch)
        for step in range(config.steps_per_epoch):
            if objective == "contrastive":
                batch = sample_contrastive_batch(manifest, pools, config.batch_size, rng)
                loss, grad = contrastive_step_grads(ckpt, batch, suite, table, out=buffer)
            else:
                batch = sample_pair_batch(manifest, pools, config.batch_size, rng)
                loss, grad = difference_step_grads(ckpt, batch, suite, table, out=buffer)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss at epoch {epoch} step {step}")
            if velocity is not None:
                velocity *= config.momentum
                velocity += grad
                # sgd_step overwrites its gradient, and the velocity carries on
                np.copyto(grad, velocity)
            sgd_step(ckpt.vector, grad, lr)
            records.append((epoch, step, float(loss), lr))
    curve = LossCurve(records)
    ckpt.metadata = {"seed": config.seed, "epochs": config.epochs,
                     "objective": objective, "config": config.to_dict(),
                     "epoch_mean_loss": curve.epoch_means(),
                     "final_loss": curve.epoch_means()[-1]}
    return ckpt.freeze(), curve


def pretrain_alignment(manifest: CorpusManifest, pools: NegativePoolTable,
                       suite: EncoderSuite,
                       config: TrainConfig) -> tuple[AlignmentCheckpoint, LossCurve]:
    """SGD pre-training of guider head + projectors on the contrastive loss."""
    return _run_training(manifest, pools, suite, config, "contrastive")


def pretrain_with_difference_objective(manifest: CorpusManifest,
                                       pools: NegativePoolTable, suite: EncoderSuite,
                                       config: TrainConfig
                                       ) -> tuple[AlignmentCheckpoint, LossCurve]:
    """Ablation: the same loop trained on the difference-alignment loss."""
    return _run_training(manifest, pools, suite, config, "difference")


def retrieval_accuracy(ckpt: AlignmentCheckpoint, manifest: CorpusManifest,
                       split: str, suite: EncoderSuite) -> float:
    """Fraction of samples whose emotion wins the 7-way personalized-prompt
    retrieval against their projected visual embedding.

    Every row is read from one ``DifferenceRegularizer`` over the manifest:
    a sample's ``projected_source`` row is scored against the seven prompt
    rows of its reference (``nearest_prompt``)."""
    samples = manifest.in_split(split)
    if not samples:
        raise ContractError(f"split {split!r} is empty")
    reg = DifferenceRegularizer(ckpt, suite, manifest)
    rows = np.array([reg.row[s.id] for s in samples])
    return float(np.mean(reg.nearest_prompt(rows, reg.projected_source[rows])
                         == reg.emotion[rows]))
