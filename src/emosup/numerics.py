"""Dense linear algebra primitives: cosine similarity, small MLPs with
analytic gradients, SGD updates, and the PSD square-root trace term used
by Frechet-style distances.

Everything here is a pure function of its inputs and operates on float64
numpy arrays. Vectors are 1-D arrays, matrices 2-D row-major arrays. The
MLP passes and ``cosine_grads`` also take a row-stacked ``(B, d)`` batch;
a 1-D input is the B = 1 case and comes back 1-D.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateVectorWarning, NumericalError

EPS_NORM = 1e-12

RELU = "relu"
IDENTITY = "identity"
_ACTIVATIONS = (RELU, IDENTITY)


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


def cosine_similarity(a, b) -> float:
    """Cosine similarity in [-1, 1]; degenerate inputs yield 0 plus a warning."""
    sim, degenerate = cosine_with_flag(a, b)
    if degenerate:
        warnings.warn("zero-norm vector in cosine similarity, returning 0",
                      DegenerateVectorWarning, stacklevel=2)
    return sim


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
    """Validate ``a`` and ``b`` as finite vectors, or ``(B, d)`` row stacks,
    of one shape; returns both 2-D (a 1-D input as one row)."""
    a2 = _as_rows(a, None, names[0])
    b2 = _as_rows(b, a2.shape[1], names[1])
    if np.shape(a) != np.shape(b):
        raise ContractError(f"{names[0]} has shape {np.shape(a)}, "
                            f"{names[1]} has {np.shape(b)}")
    return a2, b2


def cosine_grads(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray | float,
                                 np.ndarray | bool]:
    """Gradients of cosine(a, b) w.r.t. a and b, plus the cosine and its
    degeneracy flag: returns ``(da, db, cos, degenerate)``.

    Degenerate inputs (as in ``cosine_with_flag``) give cosine 0 and zero
    gradients. Row-stacked ``(B, d)`` inputs give each row's gradients,
    the B row cosines and the B-row degeneracy mask; 1-D inputs give a
    float cosine and a bool flag.
    """
    a2, b2 = as_same_rows(a, b)
    na = np.linalg.norm(a2, axis=1, keepdims=True)
    nb = np.linalg.norm(b2, axis=1, keepdims=True)
    keep = (na >= EPS_NORM) & (nb >= EPS_NORM)
    na, nb = np.where(keep, na, 1.0), np.where(keep, nb, 1.0)
    c = np.where(keep, np.einsum("ij,ij->i", a2, b2)[:, None] / (na * nb), 0.0)
    da = np.where(keep, b2 / (na * nb) - c * a2 / (na * na), 0.0)
    db = np.where(keep, a2 / (na * nb) - c * b2 / (nb * nb), 0.0)
    cos, degenerate = c[:, 0], ~keep[:, 0]
    if np.ndim(a) == 1:
        return da[0], db[0], float(cos[0]), bool(degenerate[0])
    return da, db, cos, degenerate


@dataclass
class DenseLayer:
    """One affine layer: ``act(weights @ x + bias)``, weights shaped out x in."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = RELU

    def __post_init__(self):
        self.weights = as_matrix(self.weights, name="weights")
        self.bias = as_vector(self.bias, name="bias")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise ContractError(
                f"bias dim {self.bias.shape[0]} != weight rows {self.weights.shape[0]}")
        if self.activation not in _ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class MlpParams:
    """Chain of dense layers; the final layer must have identity activation."""

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ContractError("MLP needs at least one layer")
        for i in range(len(self.layers) - 1):
            if self.layers[i].out_dim != self.layers[i + 1].in_dim:
                raise ContractError(
                    f"layer {i} outputs {self.layers[i].out_dim} but layer {i + 1} "
                    f"expects {self.layers[i + 1].in_dim}")
        if self.layers[-1].activation != IDENTITY:
            raise ContractError("last layer activation must be identity")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "MlpParams":
        return MlpParams([DenseLayer(l.weights.copy(), l.bias.copy(), l.activation)
                          for l in self.layers])

    def set_writeable(self, flag: bool) -> None:
        for l in self.layers:
            l.weights.flags.writeable = flag
            l.bias.flags.writeable = flag

    def n_params(self) -> int:
        return sum(l.weights.size + l.bias.size for l in self.layers)


def init_mlp(dims: list[int], rng: np.random.Generator,
             hidden_activation: str = RELU) -> MlpParams:
    """He-style fan-in uniform init for the layer chain ``dims[0] -> ... -> dims[-1]``.

    Hidden layers use ``hidden_activation``; the output layer is linear.
    """
    if len(dims) < 2:
        raise ContractError("need at least input and output dims")
    layers = []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(dims[i + 1], dims[i]))
        b = np.zeros(dims[i + 1])
        act = hidden_activation if i < len(dims) - 2 else IDENTITY
        layers.append(DenseLayer(w, b, act))
    return MlpParams(layers)


def identity_mlp(dim: int, depth: int = 1, activation: str = IDENTITY) -> MlpParams:
    """Square identity-weight MLP (passthrough for identity activation, or for
    nonnegative inputs under relu hidden layers)."""
    layers = []
    for i in range(depth):
        act = activation if i < depth - 1 else IDENTITY
        layers.append(DenseLayer(np.eye(dim), np.zeros(dim), act))
    return MlpParams(layers)


@dataclass
class MlpCache:
    """Forward-pass intermediates needed by the backward pass, stored as
    row stacks; ``stacked`` records whether the input was ``(B, d)``."""

    params: MlpParams
    inputs: list[np.ndarray]          # input to each layer, (B, in)
    preactivations: list[np.ndarray]  # z = x W^T + b per layer, (B, out)
    stacked: bool


@dataclass
class MlpGrads:
    """Per-layer (dW, db) plus the gradient w.r.t. the network input.

    After a row-stacked backward pass ``input_grad`` holds one row per
    input row; the parameter gradients are summed over the rows.
    """

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    input_grad: np.ndarray

    def scale(self, factor: float) -> "MlpGrads":
        return MlpGrads([w * factor for w in self.weight_grads],
                        [b * factor for b in self.bias_grads],
                        self.input_grad * factor)

    def add_(self, other: "MlpGrads") -> None:
        for mine, theirs in zip(self.weight_grads, other.weight_grads):
            mine += theirs
        for mine, theirs in zip(self.bias_grads, other.bias_grads):
            mine += theirs
        input_grad = other.input_grad
        if input_grad.ndim == 2:  # row-stacked: add the total over the rows
            input_grad = input_grad.sum(axis=0)
        self.input_grad += input_grad


def grads_zeros_like(p: MlpParams) -> MlpGrads:
    return MlpGrads([np.zeros_like(l.weights) for l in p.layers],
                    [np.zeros_like(l.bias) for l in p.layers],
                    np.zeros(p.in_dim))


def _apply_activation(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == RELU:
        return np.maximum(z, 0.0)
    return z


def mlp_forward(p: MlpParams, x) -> tuple[np.ndarray, MlpCache]:
    """Forward pass returning the output and a cache for ``mlp_backward``.

    ``x`` is one input vector or a ``(B, in)`` stack of them; the output
    has the same layout.
    """
    stacked = np.ndim(x) == 2
    h = _as_rows(x, p.in_dim, "mlp input")
    inputs, preacts = [], []
    for layer in p.layers:
        inputs.append(h)
        z = h @ layer.weights.T + layer.bias
        preacts.append(z)
        h = _apply_activation(z, layer.activation)
    return (h if stacked else h[0]), MlpCache(p, inputs, preacts, stacked)


def mlp_backward(p: MlpParams, cache: MlpCache, upstream_grad) -> MlpGrads:
    """Analytic gradients of ``dot(output, upstream_grad)`` w.r.t. all
    weights, biases, and the input.

    The cache must come from a forward call on the same parameter object.
    After a stacked forward pass ``upstream_grad`` holds one row per input
    row; the weight and bias gradients are then sums over the rows and the
    input gradient keeps one row per input.
    """
    if cache.params is not p:
        raise ContractError("stale cache: produced by a different parameter set")
    u = _as_rows(upstream_grad, p.out_dim, "upstream grad")
    if cache.stacked != (np.ndim(upstream_grad) == 2) \
            or u.shape[0] != cache.inputs[0].shape[0]:
        raise ContractError(f"upstream grad shape {np.shape(upstream_grad)} does not "
                            f"match the forward batch")
    weight_grads: list[np.ndarray] = [None] * len(p.layers)
    bias_grads: list[np.ndarray] = [None] * len(p.layers)
    for i in range(len(p.layers) - 1, -1, -1):
        layer = p.layers[i]
        dz = u if layer.activation == IDENTITY else u * (cache.preactivations[i] > 0.0)
        weight_grads[i] = dz.T @ cache.inputs[i]
        bias_grads[i] = dz.sum(axis=0)
        u = dz @ layer.weights
    return MlpGrads(weight_grads, bias_grads, u if cache.stacked else u[0])


def sgd_step(p: MlpParams, grads: MlpGrads, lr: float) -> MlpParams:
    """Plain SGD update ``param <- param - lr * grad`` on a fresh copy.

    lr may be 0, in which case the parameters come back unchanged.
    """
    if lr < 0:
        raise ContractError(f"learning rate must be >= 0, got {lr}")
    for g in grads.weight_grads + grads.bias_grads:
        if not np.isfinite(g).all():
            raise NumericalError("non-finite gradient, aborting SGD step")
    layers = []
    for layer, dw, db in zip(p.layers, grads.weight_grads, grads.bias_grads):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise ContractError("gradient shape does not match parameters")
        layers.append(DenseLayer(layer.weights - lr * dw, layer.bias - lr * db,
                                 layer.activation))
    return MlpParams(layers)


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
