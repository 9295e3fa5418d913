"""Dense linear algebra primitives: cosine similarity, the contrastive
(``L1``) and difference (``L2``) losses with their gradients, small MLPs
with analytic gradients, SGD updates, and the PSD square-root trace term
used by Frechet-style distances.

Everything here operates on float64 numpy arrays and, apart from
``sgd_step``, which updates its parameters in place and overwrites its
gradient with the applied step, is a pure function of its inputs.
Vectors are 1-D arrays, matrices 2-D row-major arrays. ``cosine_grads``
and the losses take row-stacked ``(B, d)`` batches only: one pair is a
one-row stack, ``x[None]``, and its results are row 0. The MLP passes take a ``(B, d)``
batch or one 1-D input, which comes back 1-D. An MLP's parameters are
views of one flat vector, so its gradient (``mlp_backward``, summed over
the rows) is one array in the same layout and an SGD step is one in-place
update of that vector; a ``(R, size)`` block of R such vectors is a run
axis of R networks, which the MLP passes run at once.
``layers_forward`` and ``layers_backward`` are the one dense-layer pass:
the MLP passes and the projector bank's stacked passes run it. Only
``layers_backward`` gives the gradient w.r.t. the input rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError

EPS_NORM = 1e-12

RELU = "relu"
IDENTITY = "identity"


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return ``x`` as a finite float64 1-D array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ContractError(f"{name} must be a non-empty 1-D array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ContractError(f"{name} contains non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ContractError(f"{name} has dim {v.shape[0]}, expected {dim}")
    return v


def as_matrix(x, shape: tuple[int, int] | None = None, name: str = "matrix") -> np.ndarray:
    """Validate and return ``x`` as a finite float64 2-D array."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ContractError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ContractError(f"{name} contains non-finite entries")
    if shape is not None and m.shape != shape:
        raise ContractError(f"{name} has shape {m.shape}, expected {shape}")
    return m


def cosine_with_flag(a, b) -> tuple[float, bool]:
    """Cosine similarity with a degeneracy flag.

    Returns ``(sim, degenerate)``. If either vector has norm below
    ``EPS_NORM`` the similarity is 0 and the flag is set; this keeps
    training loops total instead of emitting NaN.
    """
    a = as_vector(a, name="a")
    b = as_vector(b, dim=a.shape[0], name="b")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < EPS_NORM or nb < EPS_NORM:
        return 0.0, True
    return float(np.dot(a, b) / (na * nb)), False


def _as_rows(x, dim: int | None, name: str) -> np.ndarray:
    """Validate a 1-D vector or a row-stack; always returns a 2-D view."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return as_vector(x, dim=dim, name=name)[None, :]
    m = as_matrix(x, name=name)
    if dim is not None and m.shape[1] != dim:
        raise ContractError(f"{name} has dim {m.shape[1]}, expected {dim}")
    return m


def as_same_rows(a, b, names: tuple[str, str] = ("a", "b")
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``a`` and ``b`` as finite ``(B, d)`` row stacks of one shape."""
    a = as_matrix(a, name=names[0])
    return a, as_matrix(b, shape=a.shape, name=names[1])


def cosine_grads(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of each row's cosine(a[n], b[n]) w.r.t. the ``(B, d)``
    stacks a and b, plus the B row cosines and the B-row degeneracy mask:
    returns ``(da, db, cos, degenerate)``.

    Degenerate rows (as in ``cosine_with_flag``) give cosine 0 and zero
    gradients.
    """
    a2, b2 = as_same_rows(a, b)
    na = np.linalg.norm(a2, axis=1, keepdims=True)
    nb = np.linalg.norm(b2, axis=1, keepdims=True)
    degenerate = ~((na >= EPS_NORM) & (nb >= EPS_NORM))[:, 0]
    # degenerate rows are computed with unit norms and a zero cosine, then zeroed
    bad = np.flatnonzero(degenerate)
    if bad.size:
        na[bad] = nb[bad] = 1.0
    nab = na * nb
    c = np.einsum("ij,ij->i", a2, b2)[:, None] / nab
    if bad.size:
        c[bad] = 0.0
    da = b2 / nab - c * a2 / (na * na)
    db = a2 / nab - c * b2 / (nb * nb)
    if bad.size:
        da[bad] = db[bad] = 0.0
    return da, db, c[:, 0], degenerate


@dataclass
class DifferencePair:
    """``(B, d)`` stacks of B pairs' source-minus-target differences on both
    modalities."""

    visual_diff: np.ndarray
    text_diff: np.ndarray


def difference_loss_with_grads(dp: DifferencePair
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The B row losses ``L2 = 1 - cosine(visual_diff, text_diff)``, each in
    [0, 2], plus their row-stacked gradients w.r.t. both difference stacks.

    A degenerate pair, one in ``cosine_grads``' mask of (near-)zero-norm
    differences, has cosine 0 and zero cosine gradients, so it gets the
    midpoint loss 1 and zero gradients instead of NaN.
    """
    d_vis, d_txt, sim, _ = cosine_grads(dp.visual_diff, dp.text_diff)
    return 1.0 - sim, -d_vis, -d_txt


def contrastive_loss_with_grads(t_pos, t_neg, i_vis
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The B row losses ``L1 = (1 - cosine(t_pos, i_vis)) + cosine(t_neg,
    i_vis)`` of three ``(B, d)`` stacks, each in [-1, 3], plus their
    row-stacked gradients w.r.t. ``t_pos``, ``t_neg`` and ``i_vis``.

    A zero-norm row makes each cosine it enters 0, with zero gradients, as
    in ``cosine_grads``.
    """
    d_tpos, d_ivis_pos, sim_pos, _ = cosine_grads(t_pos, i_vis)
    d_tneg, d_ivis_neg, sim_neg, _ = cosine_grads(t_neg, i_vis)
    return (1.0 - sim_pos) + sim_neg, -d_tpos, d_tneg, d_ivis_neg - d_ivis_pos


@dataclass
class DenseLayer:
    """One affine layer: ``act(weights @ x + bias)``, weights shaped out x in
    (or a ``(..., out, in)`` stack of them, for ``layers_forward``).

    A plain record; an ``MlpParams``' layers view its vector.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str = RELU

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-2]


class MlpParams:
    """The chain of dense layers ``dims[0] -> ... -> dims[-1]``, relu hidden
    layers and an identity last layer, held in one float64 ``vector``.

    The layout is layer by layer, the weights (row-major) then the bias;
    each layer's ``weights`` and ``bias`` are views into ``vector``, which
    is taken as given, without a copy, so one in-place update of the vector
    updates every layer. A vector of ``chain_size(dims)`` entries holds one
    network; a ``(R, size)`` block holds a run axis of R networks, with
    ``(R, out, in)`` and ``(R, out)`` layers, that ``mlp_forward`` runs at
    once, ``mlp_backward`` gives one ``(R, size)`` gradient block for, and
    ``sgd_step`` updates one ``vector[r]`` at a time.
    """

    def __init__(self, dims: list[int], vector: np.ndarray):
        shapes, size = _chain_shapes(dims), chain_size(dims)
        if vector.shape[-1:] != (size,):
            raise ContractError(f"the chain {dims} holds {size} parameters, got a vector "
                                f"of shape {vector.shape}")
        self.layers = [DenseLayer(w, b, RELU if i < len(shapes) - 1 else IDENTITY)
                       for i, (w, b) in enumerate(_chain_views(shapes, vector))]
        self.vector = vector

    def views(self, vector: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(weights, bias)`` views of ``vector``, a vector in this chain's
        layout (such as a gradient), one pair per layer; a ``(P, size)`` block
        of P such vectors gives ``(P, out, in)`` and ``(P, out)`` views."""
        return _chain_views([l.weights.shape[-2:] for l in self.layers], vector)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def freeze(self) -> None:
        """Write-protect the vector and every layer view of it (a view made
        before its base was write-protected stays writable)."""
        for array in [self.vector] + [a for l in self.layers for a in (l.weights, l.bias)]:
            array.flags.writeable = False


def _chain_shapes(dims: list[int]) -> list[tuple[int, int]]:
    """The ``(out, in)`` weight shape of each layer of the chain ``dims``."""
    if len(dims) < 2:
        raise ContractError("need at least input and output dims")
    for dim in dims:
        if dim < 1:
            raise ContractError(f"layer dims must be >= 1, got {dim}")
    return list(zip(dims[1:], dims[:-1]))


def chain_size(dims: list[int]) -> int:
    """Parameters of the chain ``dims``: each layer's weights and bias."""
    return sum(rows * cols + rows for rows, cols in _chain_shapes(dims))


def _chain_views(shapes, vector: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(weights, bias)`` views of ``vector``'s last axis, laid out layer by
    layer as ``(out, in)`` ``shapes`` give: the weights row-major, then the
    bias."""
    out, offset = [], 0
    for rows, cols in shapes:
        end = offset + rows * cols
        out.append((vector[..., offset:end].reshape(*vector.shape[:-1], rows, cols),
                    vector[..., end:end + rows]))
        offset = end + rows
    return out


def init_mlp(dims: list[int], rng: np.random.Generator) -> MlpParams:
    """He-style fan-in uniform init of ``MlpParams(dims, ...)``, layer by
    layer, with zero biases."""
    p = MlpParams(dims, np.zeros(chain_size(dims)))
    for layer in p.layers:
        limit = np.sqrt(6.0 / layer.in_dim)
        layer.weights[...] = rng.uniform(-limit, limit, size=layer.weights.shape)
    return p


@dataclass
class MlpCache:
    """Forward-pass intermediates that ``mlp_backward`` needs for the
    parameter gradient, stored as row stacks; ``stacked`` records whether
    the input was ``(B, d)``, and so the upstream gradient's shape."""

    params: MlpParams
    inputs: list[np.ndarray]          # input to each layer, (B, in) or (R, B, in)
    preactivations: list[np.ndarray]  # z = x W^T + b per layer, (B, out) or (R, B, out)
    stacked: bool


def layers_forward(layers: list[DenseLayer], h: np.ndarray):
    """Unchecked forward pass of a chain of dense layers over an ``(..., m,
    in)`` stack of rows, one ``np.matmul`` per layer; ``(..., out, in)``
    weights and ``(..., out)`` biases broadcast over the leading axes.
    Returns the output and each layer's input and preactivation."""
    inputs, preacts = [], []
    for layer in layers:
        inputs.append(h)
        z = np.matmul(h, layer.weights.swapaxes(-1, -2))
        z += layer.bias[..., None, :]
        preacts.append(z)
        h = z if layer.activation == IDENTITY else np.maximum(z, 0.0)
    return h, inputs, preacts


def layers_backward(layers: list[DenseLayer], inputs: list, preacts: list, u: np.ndarray,
                    grads: list | None = None, input_grad: bool = True):
    """Unchecked backward pass of ``layers_forward`` for the upstream gradient
    ``u`` of its output. Given ``grads``, ``(weights, bias)`` arrays shaped
    as the layers', each layer's gradients, summed over the rows, are
    written into them. Returns the gradient w.r.t. the input rows, or None
    without ``input_grad``."""
    for i in reversed(range(len(layers))):
        layer = layers[i]
        dz = u if layer.activation == IDENTITY else u * (preacts[i] > 0.0)
        if grads is not None:
            np.matmul(dz.swapaxes(-1, -2), inputs[i], out=grads[i][0])
            dz.sum(axis=-2, out=grads[i][1])
        u = np.matmul(dz, layer.weights) if i or input_grad else None
    return u


def mlp_forward(p: MlpParams, x) -> tuple[np.ndarray, MlpCache]:
    """Forward pass returning the output and a cache for ``mlp_backward``.

    ``x`` is one input vector or a ``(B, in)`` stack of them; the output
    has the same layout. With a run axis of R networks (an ``MlpParams``
    over a ``(R, size)`` block) every network takes the same ``x``, and the
    output has a leading R axis.
    """
    stacked = np.ndim(x) == 2
    h, inputs, preacts = layers_forward(p.layers, _as_rows(x, p.in_dim, "mlp input"))
    return (h if stacked else h[..., 0, :]), MlpCache(p, inputs, preacts, stacked)


def mlp_backward(p: MlpParams, cache: MlpCache, upstream_grad) -> np.ndarray:
    """Analytic gradient of ``dot(output, upstream_grad)`` w.r.t. all
    weights and biases: one array shaped as ``p.vector``, in its layout
    (``p.views(grad)`` gives the per-layer weight and bias gradients).

    The cache must come from a forward call on the same parameter object.
    After a stacked forward pass ``upstream_grad`` holds one row per input
    row, and the gradient is summed over the rows. With a run axis
    ``upstream_grad`` has the output's leading R axis, and the gradient is
    a ``(R, size)`` block of each network's own.
    """
    if cache.params is not p:
        raise ContractError("stale cache: produced by a different parameter set")
    u = np.asarray(upstream_grad, dtype=np.float64)
    out = cache.preactivations[-1].shape  # the forward output's rows: (..., B, out)
    if u.shape != (out if cache.stacked else out[:-2] + out[-1:]):
        raise ContractError(f"upstream grad shape {u.shape} does not match the forward "
                            f"batch")
    if not np.isfinite(u).all():
        raise ContractError("upstream grad contains non-finite entries")
    grad = np.empty(p.vector.shape)
    layers_backward(p.layers, cache.inputs, cache.preactivations,
                    u if cache.stacked else u[..., None, :], p.views(grad), input_grad=False)
    return grad


def sgd_step(theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """Plain SGD update ``theta -= lr * grad``, in place, on a parameter
    vector (``MlpParams.vector`` or a checkpoint's) and a gradient in its
    layout.

    The update allocates nothing: ``grad *= lr; theta -= grad``, the same
    two roundings as ``theta -= lr * grad``. So ``grad`` is overwritten
    with the applied step ``lr * grad``; a caller that needs the gradient
    afterwards passes a copy. lr must be finite and may be 0, in which case
    the parameters stay unchanged.

    A refused step writes neither array. ``ContractError`` refuses a bad
    lr, a ``theta`` or ``grad`` that is not a writable float64 array (a
    frozen vector is write-protected) and a gradient of another shape;
    ``NumericalError`` a gradient with a non-finite entry.
    """
    if not (np.isfinite(lr) and lr >= 0):
        raise ContractError(f"lr must be finite and >= 0, got {lr}")
    for name, array in (("parameters", theta), ("gradient", grad)):
        if not (isinstance(array, np.ndarray) and array.dtype == np.float64
                and array.flags.writeable):
            raise ContractError(f"the {name} must be a writable float64 array")
    if grad.shape != theta.shape:
        raise ContractError(f"gradient shape {grad.shape} does not match the "
                            f"parameters' {theta.shape}")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient, aborting SGD step")
    grad *= lr
    theta -= grad


def _clamped_sqrt_eigvals(m: np.ndarray, context: str) -> np.ndarray:
    vals = np.linalg.eigvalsh(m)
    neg_mass = float(-vals[vals < 0].sum())
    trace = float(np.trace(m))
    if trace > 0 and neg_mass > 1e-6 * trace:
        warnings.warn(f"{context}: clamped negative eigenvalue mass {neg_mass:.3g} "
                      f"exceeds 1e-6 of trace {trace:.3g}", stacklevel=3)
    return np.sqrt(np.clip(vals, 0.0, None))


def psd_sqrt_trace(a, b) -> float:
    """``Tr((a^{1/2} b a^{1/2})^{1/2})`` for symmetric PSD a, b.

    Computed through symmetric eigendecompositions with negative eigenvalues
    clamped to zero; mathematically equal to ``Tr((a b)^{1/2})`` but avoids
    the non-symmetric matrix square root.
    """
    a = as_matrix(a, name="a")
    b = as_matrix(b, shape=a.shape, name="b")
    if a.shape[0] != a.shape[1]:
        raise ContractError(f"a must be square, got {a.shape}")
    for name, m in (("a", a), ("b", b)):
        if np.max(np.abs(m - m.T)) > 1e-8:
            raise ContractError(f"{name} is not symmetric within 1e-8")
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    sqrt_vals = np.sqrt(np.clip(vals, 0.0, None))
    a_half = (vecs * sqrt_vals) @ vecs.T
    inner = a_half @ ((b + b.T) / 2.0) @ a_half
    inner = (inner + inner.T) / 2.0
    return float(_clamped_sqrt_eigvals(inner, "psd_sqrt_trace").sum())
