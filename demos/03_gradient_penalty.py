"""The critic's gradient penalty and its exact parameter gradient.

The WGAN-GP critic loss carries P = (||grad_x D(x_bar)||_2 - 1)^2, the gradient
penalty at an interpolate between a real and a fake window.  Training needs
dP/d(parameters), the gradient of a gradient.  ``critic_gradients`` gets it
from one input-gradient backward pass plus one tangent forward pass (the
R-op), with no autodiff tape.  This demo checks that against central finite
differences on a toy leaky-relu critic.

Run: python3 demos/03_gradient_penalty.py
"""

import numpy as np

from ganfolio.gan import critic_gradients
from ganfolio.networks import LayerSpec, MlpNetwork, init_parameters

# --- D(x) = sum(x): grad_x D is all ones, so P = (sqrt(d) - 1)^2 ---------------
d = 6
sum_critic = MlpNetwork("critic", [LayerSpec("affine", in_dim=d, out_dim=1)])
sum_critic.set_parameters([np.ones((1, d)), np.zeros(1)])
rng = np.random.default_rng(0)
real, fake = rng.standard_normal(d), rng.standard_normal(d)
_, penalty, _ = critic_gradients(sum_critic, real, fake, 0.3, 10.0, masks=[])
print(f"penalty for D = sum: {penalty:.6f} "
      f"(analytic (sqrt(6) - 1)^2 = {(np.sqrt(6) - 1) ** 2:.6f})")

# --- a small leaky-relu critic ----------------------------------------------
critic = init_parameters(MlpNetwork("critic", [
    LayerSpec("affine", in_dim=10, out_dim=16), LayerSpec("leaky_relu", param=0.2),
    LayerSpec("affine", in_dim=16, out_dim=16), LayerSpec("leaky_relu", param=0.2),
    LayerSpec("affine", in_dim=16, out_dim=1)]), rng)
real, fake, eps = rng.standard_normal(10), rng.standard_normal(10), 0.3


def penalty_at(params):
    critic.set_parameters(params)
    return critic_gradients(critic, real, fake, eps, 1.0, masks=[])[1]


# the loss is W + lambda1 * P, so the gradients at lambda1 = 1 and 0 differ by dP;
# parameters and gradients are views into the critic's buffers, so keep copies
params = [p.copy() for p in critic.parameters()]
with_penalty = [g.copy() for g in critic_gradients(critic, real, fake, eps, 1.0, masks=[])[2]]
without = critic_gradients(critic, real, fake, eps, 0.0, masks=[])[2]
exact = [a - b for a, b in zip(with_penalty, without)]

step, worst = 1e-6, 0.0
for i, p in enumerate(params):
    for index in np.ndindex(p.shape):
        shifted = [q.copy() for q in params]
        shifted[i][index] = p[index] + step
        up = penalty_at(shifted)
        shifted[i][index] = p[index] - step
        down = penalty_at(shifted)
        worst = max(worst, abs((up - down) / (2 * step) - exact[i][index]))
critic.set_parameters(params)
scale = max(np.abs(g).max() for g in exact)
print(f"{sum(p.size for p in params)} parameters; max |dP/dtheta - central difference| "
      f"= {worst:.2e} (largest |dP/dtheta| {scale:.2e})")
assert worst < 1e-6 * max(1.0, scale)
