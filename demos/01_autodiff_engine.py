# Reverse-mode autodiff on the bundled tensor engine.
#
# Every model in this package runs on the same small set of primitives:
# dense tensors, a tape that records executed ops in order, and a
# backward sweep that replays the tape in reverse. This script walks
# through the moving parts.

import numpy as np

import adafuse as af

# -- tensors and gradients --------------------------------------------

x = af.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
y = af.tsum(x * x)              # y = sum of squares
af.backward(y)
print("x:\n", x.data)
print("d(sum x^2)/dx = 2x:\n", x.grad)

# The tape recorded the two ops (mul, sum) in execution order:
print("tape length after forward:", len(af.active_tape()))
af.active_tape().clear()

# -- a tiny computation graph with fan-out ----------------------------

w = af.Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
loss = af.tsum(w * w) + af.tsum(w * 3.0)   # w feeds two consumers
af.backward(loss)
print("\nfan-out gradient 2w + 3:", w.grad)
af.active_tape().clear()

# -- the usual neural-net primitives ----------------------------------

rng = np.random.default_rng(0)
tokens = af.Tensor(rng.normal(size=(4, 8)))      # 4 tokens, 8 channels
gamma = af.Tensor(np.ones(8))
beta = af.Tensor(np.zeros(8))
normed = af.layer_norm(tokens, gamma, beta)
print("\nlayer_norm per-token mean ~ 0:", np.abs(normed.data.mean(axis=-1)).max())

probs = af.softmax(af.Tensor(np.array([1000.0, 0.0, -5.0])))
print("softmax with a huge logit stays finite:", probs.data)

print("gelu(0) =", af.gelu(af.Tensor(np.array([0.0]))).data[0])

# Stochastic ops take an explicit generator (None in eval), so runs are
# reproducible:
drop_rng = np.random.default_rng(7)
kept = af.dropout(af.Tensor(np.ones(10)), 0.5, rng=drop_rng)
print("dropout(1s, p=0.5):", kept.data)

# -- verifying gradients against central differences -------------------

v = af.Tensor(rng.normal(size=(5, 5)), requires_grad=True)
err = af.grad_check_params(lambda: af.tsum(af.gelu(v)), [v])
print("\ngelu gradient vs finite differences, max rel err:", err)

gamma.requires_grad = beta.requires_grad = True
err = af.grad_check_params(
    lambda: af.tsum(af.layer_norm(tokens, gamma, beta)
                    * af.layer_norm(tokens, gamma, beta)),
    [gamma, beta])
print("layer_norm affine params, max rel err:", err)
