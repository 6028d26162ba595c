"""Independent brute-force oracles used by the test suite only.

These deliberately avoid the library's solver internals: Sharpe values are
re-derived from first principles and optima are located by exhaustive grid
enumeration (with a provably safe coarse-to-fine refinement for N=4, where a
full 0.001-step grid would need ~1.7e8 points; the Sharpe ratio is
pseudo-concave on the positive-excess region, so refining around the coarse
optimum cannot miss the global one for positive-definite covariances).

The network reference lives here too: a forward pass and the three training
losses written on the autodiff tape of ``ganfolio.autodiff``.  It shares no
forward code with the library's numpy kernels, which the tests check against
it, and the tape itself is checked against finite differences.
"""

import itertools

import numpy as np

from ganfolio import autodiff as ad
from ganfolio.autodiff import Tensor
from ganfolio.errors import ValidationError
from ganfolio.networks import AdamWorkers, adam_step, build_network
from ganfolio.normalization import (NormStats, denormalize, fit_standard, make_hybrid_stats,
                                   normalize)


def oracle_sharpe(weights, mean_returns, covariance, r_f=0.0):
    w = np.asarray(weights, dtype=np.float64)
    ret = float(w @ mean_returns)
    var = float(w @ covariance @ w)
    return (ret - r_f) / np.sqrt(max(var, 1e-16))


def simplex_grid(n, steps):
    """All weight vectors with entries k/steps summing to 1 (exhaustive)."""
    if n == 2:
        i = np.arange(steps + 1)
        return np.column_stack([i, steps - i]) / steps
    if n == 3:
        counts = steps + 1 - np.arange(steps + 1)
        i = np.repeat(np.arange(steps + 1), counts)
        j = np.concatenate([np.arange(c) for c in counts])
        return np.column_stack([i, j, steps - i - j]) / steps
    points = [np.array(c) for c in itertools.product(range(steps + 1), repeat=n - 1)
              if sum(c) <= steps]
    head = np.asarray(points)
    return np.column_stack([head, steps - head.sum(axis=1)]) / steps


def _grid_best(mean_returns, covariance, r_f, points):
    rets = points @ mean_returns
    variances = np.einsum("ij,jk,ik->i", points, covariance, points)
    sharpes = (rets - r_f) / np.sqrt(np.maximum(variances, 1e-16))
    k = int(np.argmax(sharpes))
    return float(sharpes[k]), points[k]


def grid_max_sharpe(mean_returns, covariance, r_f=0.0, step=0.001):
    """Best Sharpe on the simplex found by grid search at the given step.

    N <= 3 enumerates the full grid.  N = 4 runs a 0.02-step full grid and
    then an exhaustive 0.001-step grid restricted to a +/-0.03 box around the
    coarse optimum (intersected with the simplex).
    """
    mu = np.asarray(mean_returns, dtype=np.float64)
    cov = np.asarray(covariance, dtype=np.float64)
    n = mu.size
    steps = int(round(1.0 / step))
    if n <= 3:
        return _grid_best(mu, cov, r_f, simplex_grid(n, steps))
    coarse_sr, coarse_v = _grid_best(mu, cov, r_f, simplex_grid(n, 50))
    lo = np.maximum(coarse_v - 0.03, 0.0)
    hi = np.minimum(coarse_v + 0.03, 1.0)
    axes = [np.arange(int(np.ceil(lo[i] * steps)), int(np.floor(hi[i] * steps)) + 1)
            for i in range(n - 1)]
    grids = np.meshgrid(*axes, indexing="ij")
    head = np.column_stack([g.ravel() for g in grids])
    last = steps - head.sum(axis=1)
    keep = (last >= np.ceil(lo[-1] * steps)) & (last <= np.floor(hi[-1] * steps)) & (last >= 0)
    if keep.any():
        points = np.column_stack([head[keep], last[keep]]) / steps
        fine_sr, fine_v = _grid_best(mu, cov, r_f, points)
        if fine_sr > coarse_sr:
            return fine_sr, fine_v
    return coarse_sr, coarse_v


def random_psd_instance(rng, n, positive_excess=True, r_f=0.0):
    """Random mean vector and positive-definite covariance.

    With ``positive_excess`` (the default) at least one mean exceeds ``r_f``
    so the max-Sharpe problem is well posed; all-below-r_f inputs trigger the
    solver's documented min-variance fallback instead of Sharpe maximization
    and are tested separately.
    """
    a = rng.standard_normal((n, n)) * 0.1
    cov = a @ a.T + np.diag(rng.random(n) * 0.01 + 0.002)
    mu = rng.standard_normal(n) * 0.05
    while positive_excess and not np.any(mu > r_f):
        mu = rng.standard_normal(n) * 0.05
    return mu, cov


def exact_long_only(mean_returns, covariance):
    """Exact long-only allocation at r_f = 0 by enumerating all 2^N - 1 supports.

    On the relative interior of a support P the optimum of
    ``min y'Sy/2 - c'y, y >= 0`` solves ``S_PP y_P = c_P``, where c is the mean
    when some mean is positive (max Sharpe) and the ones vector otherwise
    (min variance).  Every support with a positive solution is a feasible
    point whose objective is ``-c_P'y_P/2``; the lowest one is the optimum.
    Returns the weights ``y/sum(y)``.
    """
    mu = np.asarray(mean_returns, dtype=np.float64)
    cov = np.asarray(covariance, dtype=np.float64)
    n = mu.size
    c = mu if (mu > 0).any() else np.ones(n)
    best_value, best_w = np.inf, None
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            s = list(support)
            y = np.linalg.solve(cov[np.ix_(s, s)], c[s])
            if not (y > 0).all():
                continue
            value = -0.5 * float(c[s] @ y)
            if value < best_value:
                best_value, best_w = value, np.zeros(n)
                best_w[s] = y / y.sum()
    return best_w


def per_day_value_series(schedule, frame):
    """Reference value series: one pass over the days, rebalancing where a day has weights."""
    prices = frame.prices
    first = schedule.rebalance_indices[0]
    by_day = dict(zip(schedule.rebalance_indices, schedule.weights))
    values = np.empty(frame.day_count - first + 1)
    values[0] = 1.0
    base_value, base_prices, weights = 1.0, prices[:, first - 1], by_day[first]
    for t in range(first + 1, frame.day_count + 1):
        value = base_value * float(weights @ (prices[:, t - 1] / base_prices))
        values[t - first] = value
        if t in by_day:
            base_value, base_prices, weights = value, prices[:, t - 1], by_day[t]
    return values


def tape_forward(net, x, mode="infer", rng=None, params=None, dropout_masks=None):
    """Run the layer stack of ``net`` on the tape.

    ``params`` may supply the affine parameters as gradient-tracked tensors
    (ordered as ``MlpNetwork.parameters``); otherwise the network's own
    arrays are used as constants.  In train mode dropout masks come from
    ``dropout_masks`` when given, else are sampled from ``rng``; in infer
    mode dropout is the identity.
    """
    if mode not in ("train", "infer"):
        raise ValidationError(f"mode must be 'train' or 'infer', got {mode!r}")
    out = ad.as_tensor(x)
    if out.shape[-1] != net.input_width:
        raise ValidationError(
            f"{net.role}: input width {out.shape[-1]} != expected {net.input_width}")
    if params is not None and len(params) != 2 * len(net.weights):
        raise ValidationError(f"{net.role}: wrong number of parameter tensors")

    affine_i = 0
    dropout_i = 0
    for spec in net.layers:
        if spec.kind == "affine":
            if params is None:
                w, b = Tensor(net.weights[affine_i]), Tensor(net.biases[affine_i])
            else:
                w, b = params[2 * affine_i], params[2 * affine_i + 1]
            out = ad.affine(out, w, b)
            affine_i += 1
        elif spec.kind == "leaky_relu":
            out = ad.leaky_relu(out, spec.param)
        elif spec.kind == "tanh":
            out = ad.tanh(out)
        elif spec.kind == "scale":
            out = ad.scalar_multiply(out, spec.param)
        elif spec.kind == "dropout":
            if mode == "infer":
                continue
            if dropout_masks is not None:
                mask = dropout_masks[dropout_i]
            elif rng is not None:
                mask = (rng.random(out.shape) >= spec.param).astype(np.float64)
            else:
                raise ValidationError("train-mode forward needs rng or dropout_masks")
            out = ad.dropout(out, spec.param, mask)
            dropout_i += 1
    return out


def gradient_penalty(discriminator, real, fake, eps, *, params=None, mode="train", rng=None,
                     dropout_masks=None):
    """(||grad_x D(x_bar)||_2 - 1)^2 at x_bar = eps*real + (1-eps)*fake.

    The norm is taken over the flattened window; the result stays
    differentiable with respect to the discriminator parameters (double
    backprop through the inner gradient).
    """
    real = np.asarray(real, dtype=np.float64)
    fake = np.asarray(fake, dtype=np.float64)
    if real.shape != fake.shape:
        raise ValidationError(f"real {real.shape} vs fake {fake.shape}")
    interpolate = Tensor((eps * real + (1.0 - eps) * fake).ravel(), requires_grad=True)
    score = ad.sum_(tape_forward(discriminator, interpolate, mode=mode, rng=rng,
                                 params=params, dropout_masks=dropout_masks))
    (grad_x,) = ad.gradient(score, [interpolate], create_graph=True)
    return ad.square(ad.add_scalar(ad.l2_norm(grad_x), -1.0))


def generator_loss(bundle, norm_window, z, *, params=None, mode="train", rngs=None, masks=None):
    """Loss minimized by the generator side: -D(fake) [+ lambda2 * AP].

    ``norm_window`` must already be normalized under the bundle's regime.
    Returns (loss, autoencoding-penalty term or None).  Discriminator
    parameters enter as constants.
    """
    params = params or {}
    rngs = rngs or {}
    masks = masks or {}
    n, f = bundle.n_assets, bundle.config.f
    hist_flat = Tensor(norm_window.historical.ravel())
    code = tape_forward(bundle.conditioner, hist_flat, mode=mode, rng=rngs.get("conditioner"),
                        params=params.get("conditioner"), dropout_masks=masks.get("conditioner"))
    fake_future = tape_forward(bundle.simulator, ad.concatenate([Tensor(z), code]),
                               mode=mode, rng=rngs.get("simulator"),
                               params=params.get("simulator"),
                               dropout_masks=masks.get("simulator"))
    fake_window = ad.reshape(
        ad.concatenate([Tensor(norm_window.historical), ad.reshape(fake_future, (n, f))], axis=1),
        (n * bundle.config.w,))
    score = ad.sum_(tape_forward(bundle.discriminator, fake_window, mode=mode,
                                 rng=rngs.get("discriminator"),
                                 dropout_masks=masks.get("discriminator")))
    loss = ad.scalar_multiply(score, -1.0)
    ap_term = None
    if bundle.config.is_acgan:
        reconstruction = tape_forward(bundle.decoder, code, mode=mode, rng=rngs.get("decoder"),
                                      params=params.get("decoder"),
                                      dropout_masks=masks.get("decoder"))
        ap_term = ad.mse(reconstruction, hist_flat)
        loss = ad.add(loss, ad.scalar_multiply(ap_term, bundle.config.lambda2))
    return loss, ap_term


def critic_loss(bundle, norm_window, fake_window, eps, *, params=None, mode="train", rng=None,
                masks=None):
    """Loss minimized by the critic: D(fake) - D(real) + lambda1 * penalty."""
    masks = masks or {}
    real = norm_window.full
    if fake_window.shape != real.shape:
        raise ValidationError(f"fake window {fake_window.shape} vs real {real.shape}")
    d_real = ad.sum_(tape_forward(bundle.discriminator, real.ravel(), mode=mode, rng=rng,
                                  params=params, dropout_masks=masks.get("real")))
    d_fake = ad.sum_(tape_forward(bundle.discriminator, fake_window.ravel(), mode=mode, rng=rng,
                                  params=params, dropout_masks=masks.get("fake")))
    penalty = gradient_penalty(bundle.discriminator, real, fake_window, eps,
                               params=params, mode=mode, rng=rng,
                               dropout_masks=masks.get("interpolate"))
    return ad.add(ad.subtract(d_fake, d_real),
                  ad.scalar_multiply(penalty, bundle.config.lambda1))


def per_draw_paths(bundle, prices, n_draws, seed):
    """Reference simulation: one conditioner and one simulator forward per draw and block.

    Every regime: the center is the historical mean (standard), the
    proposer's surrogate mean (hybrid) or the mean of the block's whole
    window, its own f days included (eavesdrop).  Every forward, the
    proposer's too, runs on the tape.  Draw j reads its latent vectors one
    block at a time from its own stream, keyed like the library's
    ``(seed, "draw", j)`` stream.
    """
    config = bundle.config
    h, f, m = config.h, config.f, config.m
    n, k = prices.shape
    paths = np.empty((n_draws, n, k))
    for j in range(n_draws):
        rng = np.random.default_rng([seed, 6, 0, j])
        path = prices.copy()
        for start in range(h + 1, k + 1, f):
            historical = prices[:, start - 1 - h:start - 1]
            stats = fit_standard(historical)
            if config.resolved_regime == "hybrid":
                # the proposer reads the standard-normalized history and the raw means
                proposer_input = np.concatenate([normalize(historical, stats).ravel(),
                                                 stats.center])
                stats = make_hybrid_stats(
                    stats.scale, tape_forward(bundle.proposer, proposer_input).values)
            elif config.resolved_regime == "eavesdrop":
                window = prices[:, start - 1 - h:start - 1 + f]
                stats = NormStats(center=window.mean(axis=1), scale=stats.scale)
            z = rng.standard_normal(m)
            code = tape_forward(bundle.conditioner, normalize(historical, stats).ravel()).values
            block = tape_forward(bundle.simulator, np.concatenate([z, code])).values
            path[:, start - 1:start - 1 + f] = denormalize(block.reshape(n, f), stats)
        paths[j] = path
    return paths


def mean_proposer(n, h, f, m):
    """A proposer network that returns its raw-mean input bit for bit.

    In each of the three affine layers, unit i's weight row is one at the
    unit carrying mean i (input n*h + i in the first layer, unit i after it)
    and zero elsewhere, and every bias is zero.  A positive mean passes
    leaky-relu unchanged and adding zero products is exact, so a hybrid
    bundle with this proposer centres each window on its historical mean,
    as the standard regime does.
    """
    proposer = build_network("proposer", n, h, f, m)
    units = np.arange(n)
    for k, weight in enumerate(proposer.weights):
        weight[units, units + (n * h if k == 0 else 0)] = 1.0
    return proposer


def tape_training_steps(bundle, norm_window, z, rngs, optim):
    """Reference generator and critic updates on the autodiff tape.

    One window: the generator side ascends the critic's score through
    ``generator_loss``; the critic then descends ``critic_loss`` (double
    backprop for the penalty) on a fake window regenerated with the updated
    generator.  Dropout masks are drawn by the train-mode forwards from
    ``rngs`` in the order the tape visits them.  Returns (generator loss,
    critic loss).
    """
    def update(name, net, grads):
        for view, g in zip(net.gradients(), grads):
            view[...] = g.values
        with AdamWorkers() as workers:
            adam_step(net.flat, net.grad, optim[name], workers)

    nets = {"conditioner": bundle.conditioner, "simulator": bundle.simulator}
    if bundle.decoder is not None:
        nets["decoder"] = bundle.decoder
    params = {name: [Tensor(p, requires_grad=True) for p in net.parameters()]
              for name, net in nets.items()}
    gen_loss, _ = generator_loss(bundle, norm_window, z, params=params, mode="train", rngs=rngs)
    grads = ad.gradient(gen_loss, [t for name in params for t in params[name]])
    cursor = 0
    for name, net in nets.items():
        update(name, net, grads[cursor:cursor + len(params[name])])
        cursor += len(params[name])

    with ad.no_grad():
        code = tape_forward(bundle.conditioner, norm_window.historical.ravel(), mode="train",
                            rng=rngs["conditioner"])
        future = tape_forward(bundle.simulator, ad.concatenate([Tensor(z), code]), mode="train",
                              rng=rngs["simulator"])
    fake = np.concatenate([norm_window.historical,
                           future.values.reshape(bundle.n_assets, bundle.config.f)], axis=1)
    eps = float(rngs["eps"].random())
    d_params = [Tensor(p, requires_grad=True) for p in bundle.discriminator.parameters()]
    loss = critic_loss(bundle, norm_window, fake, eps, params=d_params, mode="train",
                       rng=rngs["discriminator"])
    update("discriminator", bundle.discriminator, ad.gradient(loss, d_params))
    return gen_loss.item(), loss.item()
