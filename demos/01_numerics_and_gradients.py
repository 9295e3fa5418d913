"""Tour of the numeric core: cosine similarity, hand-rolled MLPs whose
analytic gradients are checked against finite differences, and the PSD
square-root trace behind the Frechet metric."""

import numpy as np

from emosup.numerics import (cosine_with_flag, init_mlp, mlp_backward,
                             mlp_forward, psd_sqrt_trace, sgd_step)

rng = np.random.default_rng(0)

print("== cosine similarity: (cosine, degenerate) ==")
print("parallel      :", cosine_with_flag([1, 0], [2, 0]))
print("orthogonal    :", cosine_with_flag([1, 0], [0, 1]))
print("[1,2] vs [2,1]:", cosine_with_flag([1, 2], [2, 1]))
print("zero vector   :", cosine_with_flag([0, 0], [1, 2]))

print("\n== MLP with analytic gradients ==")
net = init_mlp([6, 8, 4], rng)
x = rng.standard_normal(6)
u = rng.standard_normal(4)
out, cache = mlp_forward(net, x)
grad = mlp_backward(net, cache, u)
weight_grad, _ = net.views(grad)[0]  # layer 0's share of the gradient vector

# spot-check one weight against central finite differences: the one with
# the largest gradient, so it feeds a hidden unit the relu keeps active
h = 1e-5
layer = net.layers[0]
idx = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(weight_grad)),
                                               layer.weights.shape))
orig = layer.weights[idx]
layer.weights[idx] = orig + h
up = float(mlp_forward(net, x)[0] @ u)
layer.weights[idx] = orig - h
down = float(mlp_forward(net, x)[0] @ u)
layer.weights[idx] = orig
fd = (up - down) / (2 * h)
print(f"analytic dL/dW{list(idx)} = {weight_grad[idx]:+.8f}")
print(f"finite-difference   = {fd:+.8f}")

# the layers are views of one parameter vector: SGD updates it in place
sgd_step(net.vector, grad, lr=0.1)
print(f"W{list(idx)} before/after one SGD step: {orig:+.8f} -> {layer.weights[idx]:+.8f}")

print("\n== PSD square-root trace ==")
m = rng.standard_normal((5, 5))
a = m @ m.T / 5
print("Tr((a^1/2 a a^1/2)^1/2) =", psd_sqrt_trace(a, a))
print("Tr(a)                   =", float(np.trace(a)), "(should match)")
