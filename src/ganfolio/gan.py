"""Adversarial scenario models: training loop and path synthesis.

Four model kinds share one loop:

* ``cgan``         - conditioner + simulator vs. critic, standard regime;
* ``acgan``        - adds a decoder and the autoencoding penalty;
* ``hybrid_cgan``  - adds a proposer network whose surrogate mean replaces
  the historical mean in the normalization (trained first, then frozen);
* ``hybrid_acgan`` - both extras.

Each training step visits one window: normalize, sample a latent vector,
update the generator side (ascend the critic's score on the fake window,
minus the autoencoding penalty when present), regenerate the fake with the
updated generator, then update the critic (Wasserstein difference with a
gradient penalty on an interpolate between the real and fake windows).
Per-epoch window order is a fresh seeded permutation without replacement.

All randomness is drawn from independent streams keyed by (seed, purpose,
component), so runs are reproducible bit-for-bit and model variants that
differ only by an extra component consume identical randomness for the
shared components.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import NumericFault, ValidationError
from .marketdata import (PriceFrame, WindowSample, extract_window,
                         inference_index_set, training_index_set)
from .networks import (AdamState, AdamWorkers, MlpNetwork, adam_step, backward,
                       build_network, forward, init_parameters, load_networks,
                       parameter_gradients, sample_dropout_masks, save_networks,
                       tangent_forward, train_forward)
from .normalization import (NormStats, denormalize, fit_eavesdrop, fit_standard,
                            make_hybrid_stats, normalize)

MODEL_KINDS = ("cgan", "acgan", "hybrid_cgan", "hybrid_acgan")

# rng stream tags: (seed, purpose, component) -> independent generator
_PURPOSE = {"init": 1, "dropout": 2, "shuffle": 3, "z": 4, "eps": 5, "draw": 6,
            "proposer_shuffle": 7}
_COMPONENT = {"conditioner": 1, "decoder": 2, "simulator": 3, "discriminator": 4,
              "proposer": 5, "": 0}


def _rng(seed: int, purpose: str, component: str = "", extra: int | None = None):
    key = [int(seed), _PURPOSE[purpose], _COMPONENT[component]]
    if extra is not None:
        key.append(int(extra))
    return np.random.default_rng(key)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run (defaults match the protocol)."""

    model_kind: str = "cgan"
    h: int = 40
    f: int = 20
    m: int = 100
    epochs: int = 1000
    lambda1: float = 10.0
    lambda2: float = 3.0
    lr: float = 2e-5
    beta1: float = 0.5
    beta2: float = 0.999
    seed: int = 0
    regime: str = "auto"  # auto | standard | eavesdrop | hybrid
    allow_forward_bias: bool = False

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValidationError(f"unknown model kind {self.model_kind!r}; expected {MODEL_KINDS}")
        if min(self.h, self.f, self.m) < 1:
            raise ValidationError(f"h, f, m must be positive, got {self.h}, {self.f}, {self.m}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        # nan and infinities fall outside every range
        for key, low, high in (("lambda1", 0.0, np.inf), ("lambda2", 0.0, np.inf),
                               ("beta1", 0.0, 1.0), ("beta2", 0.0, 1.0)):
            value = getattr(self, key)
            if not low <= value < high:
                raise ValidationError(f"{key} must be in [{low}, {high}), got {value}")
        if not 0.0 < self.lr < np.inf:
            raise ValidationError(f"lr must be positive and finite, got {self.lr}")
        if self.regime not in ("auto", "standard", "eavesdrop", "hybrid"):
            raise ValidationError(f"unknown regime {self.regime!r}")
        if self.is_hybrid:
            if self.regime not in ("auto", "hybrid"):
                raise ValidationError(f"{self.model_kind} requires the hybrid regime")
        else:
            if self.regime == "hybrid":
                raise ValidationError(f"{self.model_kind} cannot use the hybrid regime")
            if self.regime == "eavesdrop" and not self.allow_forward_bias:
                raise ValidationError(
                    "eavesdrop regime uses future data; set allow_forward_bias=True "
                    "(CLI: --allow-forward-bias) to run it as a diagnostic")

    @property
    def w(self) -> int:
        return self.h + self.f

    @property
    def is_hybrid(self) -> bool:
        return self.model_kind in ("hybrid_cgan", "hybrid_acgan")

    @property
    def is_acgan(self) -> bool:
        return self.model_kind in ("acgan", "hybrid_acgan")

    @property
    def resolved_regime(self) -> str:
        if self.regime != "auto":
            return self.regime
        return "hybrid" if self.is_hybrid else "standard"


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    critic_loss: float
    generator_loss: float
    ap_loss: float  # nan when the model has no autoencoding penalty
    proposer_mse: float  # nan when the model has no proposer


@dataclass
class ModelBundle:
    """Trained parameter sets for one model variant."""

    config: TrainConfig
    tickers: tuple[str, ...]
    conditioner: MlpNetwork
    simulator: MlpNetwork
    discriminator: MlpNetwork
    decoder: MlpNetwork | None = None
    proposer: MlpNetwork | None = None
    training_log: list[EpochLog] = field(default_factory=list)
    proposer_mse: float = float("nan")
    trained: bool = False

    def __post_init__(self):
        if self.config.is_acgan and self.decoder is None:
            raise ValidationError(f"{self.config.model_kind} bundle needs a decoder")
        if not self.config.is_acgan and self.decoder is not None:
            raise ValidationError(f"{self.config.model_kind} bundle cannot carry a decoder")
        if self.config.is_hybrid and self.proposer is None:
            raise ValidationError(f"{self.config.model_kind} bundle needs a proposer")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    def networks(self) -> dict[str, MlpNetwork]:
        """Every network the bundle carries, keyed by name."""
        nets = {"conditioner": self.conditioner, "simulator": self.simulator,
                "discriminator": self.discriminator, "decoder": self.decoder,
                "proposer": self.proposer}
        return {name: net for name, net in nets.items() if net is not None}


def build_bundle(config: TrainConfig, tickers, proposer: MlpNetwork | None = None) -> ModelBundle:
    """Fresh bundle with seeded parameter initialization (not yet trained).

    A hybrid kind needs its trained ``proposer``.
    """
    tickers = tuple(tickers)
    n = len(tickers)
    cond_role = "encoder" if config.is_acgan else "conditioner"
    sim_role = "hybrid_simulator" if config.is_hybrid else "simulator"
    nets = {"conditioner": build_network(cond_role, n, config.h, config.f, config.m),
            "simulator": build_network(sim_role, n, config.h, config.f, config.m),
            "discriminator": build_network("discriminator", n, config.h, config.f, config.m)}
    if config.is_acgan:
        nets["decoder"] = build_network("decoder", n, config.h, config.f, config.m)
    for name, net in nets.items():
        init_parameters(net, _rng(config.seed, "init", name))
    return ModelBundle(config=config, tickers=tickers, proposer=proposer, **nets)


# ---------------------------------------------------------------------------
# proposer
# ---------------------------------------------------------------------------

def _proposer_input(historical: np.ndarray, base: NormStats, mu: np.ndarray) -> np.ndarray:
    """History normalized by its standard ``base`` stats, flattened, plus the raw mean."""
    normalized = normalize(historical, base)
    return np.concatenate([normalized.ravel(), np.asarray(mu, dtype=np.float64)])


def propose_mean(proposer: MlpNetwork, historical, mu) -> np.ndarray:
    """Deterministic surrogate per-asset window means (inference mode)."""
    historical = np.asarray(historical, dtype=np.float64)
    return forward(proposer, _proposer_input(historical, fit_standard(historical), mu))


def train_proposer(train_frame: PriceFrame, config: TrainConfig) -> tuple[MlpNetwork, float]:
    """Fit the surrogate-mean network by MSE against whole-window means.

    Inputs are (standard-normalized history, raw historical means); targets
    are the raw per-asset means over the full window.  The final 10% of
    window starts are held out; after every epoch the held-out MSE is
    evaluated and the parameters from the best epoch are the ones returned
    (training on these small windows oscillates late, so last-epoch weights
    are not reliably the best).  Returns (network, its held-out MSE).
    """
    if not config.is_hybrid:
        raise ValidationError(f"proposer training applies to hybrid kinds, not {config.model_kind}")
    starts = training_index_set(train_frame.day_count, config.w)
    samples = []
    for start in starts:
        window = extract_window(train_frame, int(start), config.h, config.f)
        base = fit_standard(window.historical)
        samples.append((_proposer_input(window.historical, base, base.center),
                        window.full.mean(axis=1)))
    n_val = max(1, round(0.1 * len(samples))) if len(samples) > 1 else 0
    train_samples = samples[:len(samples) - n_val]
    val_samples = samples[len(samples) - n_val:] or train_samples

    proposer = build_network("proposer", train_frame.n_assets, config.h, config.f, config.m)
    init_parameters(proposer, _rng(config.seed, "init", "proposer"))
    state = AdamState.for_parameters(proposer.parameters(), lr=config.lr,
                                     beta1=config.beta1, beta2=config.beta2)
    shuffle_rng = _rng(config.seed, "proposer_shuffle")
    dropout_rng = _rng(config.seed, "dropout", "proposer")

    def validation_mse():
        with np.errstate(over="ignore"):
            return _require_finite(float(np.mean([np.mean((forward(proposer, x) - target) ** 2)
                                                  for x, target in val_samples])),
                                   "proposer held-out MSE")

    best_mse = np.inf
    best_params = None
    with AdamWorkers() as workers:
        for epoch in range(1, config.epochs + 1):
            for idx in shuffle_rng.permutation(len(train_samples)):
                x, target = train_samples[idx]
                masks = sample_dropout_masks(proposer, dropout_rng, 1)
                try:
                    mse_gradients(proposer, x, target, masks)
                    adam_step(proposer.flat, proposer.grad, state, workers, proposer.role)
                except NumericFault as fault:
                    raise NumericFault(f"proposer training diverged at epoch {epoch}, window "
                                       f"start {starts[idx]}: {fault}") from fault
            epoch_mse = validation_mse()
            if epoch_mse < best_mse:
                best_mse, best_params = epoch_mse, proposer.flat.copy()
    proposer.flat[...] = best_params
    return proposer, best_mse


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------
#
# The steps run the hand-written kernels of networks.py.  Each *_gradients
# function computes one loss and its parameter gradients in closed form.

def _require_finite(value: float, what: str) -> float:
    if not np.isfinite(value):
        raise NumericFault(f"{what} is not finite ({value})")
    return value


def _fake_window(bundle: ModelBundle, norm_window: WindowSample, z: np.ndarray, masks):
    """Train-mode fake full window, its code, and the conditioner and simulator caches."""
    code, cond_cache = train_forward(bundle.conditioner, norm_window.historical.reshape(1, -1),
                                     masks.get("conditioner", []))
    latent = np.concatenate([np.reshape(z, (1, -1)), code], axis=1)
    future, sim_cache = train_forward(bundle.simulator, latent, masks.get("simulator", []))
    fake = np.concatenate([norm_window.historical,
                           future.reshape(bundle.n_assets, bundle.config.f)], axis=1)
    return fake, code, cond_cache, sim_cache


def generator_gradients(bundle: ModelBundle, norm_window: WindowSample, z: np.ndarray,
                        masks: dict[str, list[np.ndarray]], written=lambda name: None):
    """The generator side's loss -D(fake) [+ lambda2 * AP] and its parameter gradients.

    ``norm_window`` must already be normalized under the bundle's regime, and
    the critic's parameters are constants.  ``masks`` maps network names to
    their (1, width) dropout masks.  Returns (loss, AP term or nan, {network
    name: gradients in parameters() order}); the gradients are each network's
    :meth:`~ganfolio.networks.MlpNetwork.gradients`, which the next call overwrites.
    ``written(name)`` is called as soon as a network's gradients are complete,
    after which the pass reads neither them nor that network's parameters.
    """
    config, n = bundle.config, bundle.n_assets
    fake, code, cond_cache, sim_cache = _fake_window(bundle, norm_window, z, masks)
    score, disc_cache = train_forward(bundle.discriminator, fake.reshape(1, -1),
                                      masks.get("discriminator", []))
    loss = float(score.sum()) * -1.0
    ap = float("nan")
    if config.is_acgan:
        reconstruction, dec_cache = train_forward(bundle.decoder, code, masks.get("decoder", []))
        diff = reconstruction - norm_window.historical.reshape(1, -1)
        with np.errstate(over="ignore"):
            ap = float(np.sum(diff * diff)) * (1.0 / diff.size)
        loss = loss + ap * config.lambda2
    _require_finite(loss, "generator loss")

    _, grad_fake = backward(bundle.discriminator, disc_cache, np.full((1, 1), -1.0),
                            need_input=True)
    grad_future = grad_fake.reshape(n, config.w)[:, config.h:].reshape(1, -1)
    sim_deltas, grad_latent = backward(bundle.simulator, sim_cache, grad_future, need_input=True)
    grads = {"simulator": parameter_gradients(sim_deltas, sim_cache.inputs,
                                              bundle.simulator.gradients())}
    written("simulator")
    grad_code = grad_latent[:, config.m:]
    if config.is_acgan:
        # d(lambda2 * mean(diff^2)) / d reconstruction, in the reference engine's operation order
        seed = ((config.lambda2 * (1.0 / diff.size)) * diff) * 2.0
        dec_deltas, grad_code_dec = backward(bundle.decoder, dec_cache, seed, need_input=True)
        grads["decoder"] = parameter_gradients(dec_deltas, dec_cache.inputs,
                                               bundle.decoder.gradients())
        written("decoder")
        grad_code = grad_code + grad_code_dec
    cond_deltas, _ = backward(bundle.conditioner, cond_cache, grad_code)
    grads["conditioner"] = parameter_gradients(cond_deltas, cond_cache.inputs,
                                               bundle.conditioner.gradients())
    written("conditioner")
    return loss, ap, grads


def critic_gradients(discriminator: MlpNetwork, real: np.ndarray, fake: np.ndarray, eps: float,
                     lambda1: float, masks: list[np.ndarray]):
    """The critic's loss D(fake) - D(real) + lambda1 * P and its parameter gradients.

    P = (||grad_x D(x_bar)||_2 - 1)^2 is the gradient penalty at the
    interpolate x_bar = eps*real + (1-eps)*fake, with the norm taken over the
    flattened window.  The real, fake and interpolate rows go through the
    critic as one 3-row matrix; ``masks`` holds one (3, width) mask per
    dropout layer, rows in that order.  The penalty's parameter gradient is
    the R-op of the critic along u = dP/d(grad_x D) at the interpolate (see
    :func:`~ganfolio.networks.tangent_forward`), so each affine layer's
    weight gradient is the one gemm [-d_real, d_fake, lambda1 * d_interp]^T
    [x_real; x_fake; t_interp].  Returns (loss, penalty, gradients); the
    gradients are the critic's :meth:`~ganfolio.networks.MlpNetwork.gradients`,
    which the next call overwrites.
    """
    real = np.asarray(real, dtype=np.float64).ravel()
    fake = np.asarray(fake, dtype=np.float64).ravel()
    if real.shape != fake.shape:
        raise ValidationError(f"real {real.shape} vs fake {fake.shape}")
    rows = np.stack([real, fake, eps * real + (1.0 - eps) * fake])
    scores, cache = train_forward(discriminator, rows, masks)
    deltas, grad_x = backward(discriminator, cache, np.ones((3, 1)), need_input=True)
    grad_interp = grad_x[2]
    with np.errstate(all="ignore"):
        norm = np.sqrt(np.sum(grad_interp * grad_interp))
        penalty = (norm - 1.0) * (norm - 1.0)
        loss = (float(scores[1, 0]) - float(scores[0, 0])) + penalty * lambda1
        _require_finite(loss, "critic loss")
        direction = (2.0 * (norm - 1.0) / norm) * grad_interp
    tangents = tangent_forward(discriminator, cache, 2, direction)
    coefficients = np.array([[-1.0], [1.0], [lambda1]])
    grads = discriminator.gradients()
    for k, (delta, inputs, tangent) in enumerate(zip(deltas, cache.inputs, tangents)):
        scaled = coefficients * delta
        np.matmul(scaled.T, np.concatenate([inputs[:2], tangent]), out=grads[2 * k])
        np.add(scaled[0], scaled[1], out=grads[2 * k + 1])  # the penalty has no bias gradient
    return loss, float(penalty), grads


def mse_gradients(net: MlpNetwork, x: np.ndarray, target: np.ndarray,
                  masks: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """The proposer's loss mean((net(x) - target)^2) and its parameter
    gradients (``net.gradients()``), for one sample with (1, width) masks."""
    out, cache = train_forward(net, np.reshape(x, (1, -1)), masks)
    diff = out - np.reshape(target, (1, -1))
    with np.errstate(over="ignore"):
        loss = _require_finite(float(np.sum(diff * diff)) * (1.0 / diff.size), f"{net.role} MSE")
    deltas, _ = backward(net, cache, ((1.0 / diff.size) * diff) * 2.0)
    return loss, parameter_gradients(deltas, cache.inputs, net.gradients())


def _queue(net: MlpNetwork, state: AdamState, workers: AdamWorkers) -> None:
    """Queue one Adam step of ``net`` along the gradients its kernels last wrote."""
    workers.submit(net.flat, net.grad, state, net.role)


def generator_step(bundle: ModelBundle, norm_window: WindowSample, z: np.ndarray, rngs,
                   optim: dict[str, AdamState], workers: AdamWorkers) -> tuple[float, float]:
    """One Adam update of the generator side on one window and latent vector.

    Only conditioner/simulator (and decoder for autoencoding kinds)
    parameters change.  Each network's update is queued on ``workers`` as
    soon as its gradients are complete, so it runs while the remaining
    backward passes do; the step returns without waiting for them.  Returns
    (generator loss, AP term or nan).
    """
    masks = {name: sample_dropout_masks(net, rngs.get(name), 1)
             for name, net in _trainable_nets(bundle).items()}
    loss, ap, _ = generator_gradients(
        bundle, norm_window, z, masks,
        lambda name: _queue(getattr(bundle, name), optim[name], workers))
    return loss, ap


def critic_step(bundle: ModelBundle, norm_window: WindowSample, z: np.ndarray, rngs,
                optim: dict[str, AdamState], workers: AdamWorkers) -> float:
    """One Adam update of the critic on one window and latent vector.

    The fake window is regenerated forward-only with the current generator
    (the step after the generator update, matching the training loop order),
    so the updates queued on ``workers`` are waited for first; only
    discriminator parameters change.  The critic's update is queued and not
    waited for.  Returns the critic loss value.
    """
    workers.wait()
    fake_window = _fake_window(bundle, norm_window, z, {
        name: sample_dropout_masks(getattr(bundle, name), rngs.get(name), 1)
        for name in ("conditioner", "simulator")})[0]
    eps = float(rngs["eps"].random())
    # one (3, width) draw equals the real, fake and interpolate draws in turn,
    # because the critic has a single dropout layer
    masks = sample_dropout_masks(bundle.discriminator, rngs.get("discriminator"), 3)
    loss, _, _ = critic_gradients(bundle.discriminator, norm_window.full, fake_window, eps,
                                  bundle.config.lambda1, masks)
    _queue(bundle.discriminator, optim["discriminator"], workers)
    return loss


# ---------------------------------------------------------------------------
# normalization per regime
# ---------------------------------------------------------------------------

def window_stats(bundle: ModelBundle, window: WindowSample) -> NormStats:
    """Per-asset stats for one raw window under the bundle's regime."""
    regime = bundle.config.resolved_regime
    if regime == "standard":
        return fit_standard(window.historical)
    if regime == "eavesdrop":
        return fit_eavesdrop(window.full, bundle.config.h)
    base = fit_standard(window.historical)
    proposed = forward(bundle.proposer, _proposer_input(window.historical, base, base.center))
    return make_hybrid_stats(base.scale, proposed)


def _normalized_window(window: WindowSample, stats: NormStats, h: int) -> WindowSample:
    full = normalize(window.full, stats)
    return WindowSample(full=full, historical=full[:, :h])


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def train(train_frame: PriceFrame, config: TrainConfig) -> ModelBundle:
    """Train one model variant on the training frame.

    Hybrid kinds first fit the proposer, which stays frozen during
    adversarial training.  Each epoch visits every window start exactly once
    in a fresh seeded random order; per window the generator updates once,
    then the critic once, with the same latent vector.  Raises NumericFault
    on numeric divergence, naming the epoch, the window start, the network
    role and the layer.
    """
    if train_frame.day_count < config.w:
        raise ValidationError(
            f"training frame has {train_frame.day_count} days, need at least w={config.w}")
    proposer, proposer_mse = None, float("nan")
    if config.is_hybrid:
        proposer, proposer_mse = train_proposer(train_frame, config)
    bundle = build_bundle(config, train_frame.tickers, proposer=proposer)
    bundle.proposer_mse = proposer_mse

    nets = _trainable_nets(bundle)
    optim = {name: AdamState.for_parameters(net.parameters(), lr=config.lr,
                                            beta1=config.beta1, beta2=config.beta2)
             for name, net in nets.items()}
    rngs = {
        "conditioner": _rng(config.seed, "dropout", "conditioner"),
        "simulator": _rng(config.seed, "dropout", "simulator"),
        "discriminator": _rng(config.seed, "dropout", "discriminator"),
        "decoder": _rng(config.seed, "dropout", "decoder"),
        "eps": _rng(config.seed, "eps"),
    }
    z_rng = _rng(config.seed, "z")
    shuffle_rng = _rng(config.seed, "shuffle")

    starts = training_index_set(train_frame.day_count, config.w)
    with AdamWorkers() as workers:
        for epoch in range(1, config.epochs + 1):
            order = shuffle_rng.permutation(starts.size)
            gen_losses, ap_losses, critic_losses = [], [], []
            for k in order:
                start = int(starts[k])
                window = extract_window(train_frame, start, config.h, config.f)
                norm_window = _normalized_window(window, window_stats(bundle, window), config.h)
                z = z_rng.standard_normal(config.m)
                try:
                    gen_loss, ap_loss = generator_step(bundle, norm_window, z, rngs, optim,
                                                       workers)
                    critic_losses.append(critic_step(bundle, norm_window, z, rngs, optim,
                                                     workers))
                    workers.wait()
                except NumericFault as fault:
                    raise NumericFault(f"training diverged at epoch {epoch}, window start "
                                       f"{start}: {fault}") from fault
                gen_losses.append(gen_loss)
                if not np.isnan(ap_loss):
                    ap_losses.append(ap_loss)
            bundle.training_log.append(EpochLog(
                epoch=epoch,
                critic_loss=float(np.mean(critic_losses)),
                generator_loss=float(np.mean(gen_losses)),
                ap_loss=float(np.mean(ap_losses)) if ap_losses else float("nan"),
                proposer_mse=bundle.proposer_mse,
            ))
    bundle.trained = True
    return bundle


def _trainable_nets(bundle: ModelBundle) -> dict[str, MlpNetwork]:
    """The networks adversarial training updates: all but the frozen proposer."""
    return {name: net for name, net in bundle.networks().items() if name != "proposer"}


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

# the most simulator rows per forward, so that its 1024-wide activations stay
# about 1 MB whatever the number of draws and blocks
SIMULATOR_CHUNK_ROWS = 128


def simulate_paths(bundle: ModelBundle, test_frame: PriceFrame, n_draws: int,
                   seed: int = 0) -> np.ndarray:
    """Synthesize ``n_draws`` full test-period paths, shape (n_draws, N, K).

    The first h columns of every draw are the observed prices; each
    subsequent f-day block is generated conditioned on the *observed* h days
    before it (never on previously generated values) and de-normalized back
    to price space.  The block's window is the observed w = h + f days that
    end with it, and :func:`window_stats` normalizes it exactly as training
    does; only the eavesdrop diagnostic reads the window's future days.  Draw
    j takes its latent vectors, one row per block, from its own stream keyed
    by (seed, j), so a draw's noise does not depend on ``n_draws``.  Blocks
    do not depend on each other, so all of them are generated at once (see
    :func:`_generate`).  A NumericFault names the first faulting block's
    first test day and its date.
    """
    if not bundle.trained:
        raise ValidationError("bundle is not trained; run train() or load a trained archive")
    if tuple(test_frame.tickers) != tuple(bundle.tickers):
        raise ValidationError(
            f"test frame tickers {test_frame.tickers} do not match bundle {bundle.tickers}")
    if n_draws < 1:
        raise ValidationError(f"n_draws must be >= 1, got {n_draws}")
    h, f = bundle.config.h, bundle.config.f
    starts = inference_index_set(test_frame.day_count, h, f).tolist()
    windows = [extract_window(test_frame, start - h, h, f) for start in starts]
    # z[b, j] is draw j's latent vector for block b
    z = np.stack([_rng(seed, "draw", extra=j).standard_normal((len(starts), bundle.config.m))
                  for j in range(n_draws)], axis=1)
    with AdamWorkers() as workers:
        try:
            stats, blocks = _generate(bundle, windows, z, workers)
        except NumericFault:
            # rerun one block at a time to name the first that faults
            for b, start in enumerate(starts):
                try:
                    _generate(bundle, windows[b:b + 1], z[b:b + 1], workers)
                except NumericFault as fault:
                    raise NumericFault(f"simulating the block from test day {start} "
                                       f"({test_frame.dates[start - 1]}): {fault}") from fault
            raise
    paths = np.repeat(test_frame.prices[None], n_draws, axis=0)
    for start, block_stats, block in zip(starts, stats, blocks):
        paths[:, :, start - 1:start - 1 + f] = denormalize(block, block_stats)
    return paths


def _generate(bundle: ModelBundle, windows: list[WindowSample], z: np.ndarray,
              workers: AdamWorkers):
    """Each block's stats and normalized draws, shape (blocks, draws, N, f).

    ``z`` holds the (blocks, draws, m) latent vectors.  The proposer (hybrid
    regime) runs once per block inside :func:`window_stats`, the conditioner
    once on the stack of normalized histories, and the simulator on the
    (block, draw) rows in balanced chunks of at most SIMULATOR_CHUNK_ROWS,
    spread over ``workers``' pool.
    """
    stats = [window_stats(bundle, window) for window in windows]
    codes = forward(bundle.conditioner, np.stack(
        [normalize(window.historical, s).ravel() for window, s in zip(windows, stats)]))
    n_blocks, n_draws = z.shape[:2]
    latent = np.concatenate(
        [z, np.broadcast_to(codes[:, None], (n_blocks, n_draws, codes.shape[1]))],
        axis=2).reshape(n_blocks * n_draws, -1)
    chunks = np.array_split(latent, -(-latent.shape[0] // SIMULATOR_CHUNK_ROWS))
    rows = np.concatenate(workers.map(lambda chunk: forward(bundle.simulator, chunk), chunks))
    return stats, rows.reshape(n_blocks, n_draws, bundle.n_assets, -1)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_bundle(path, bundle: ModelBundle) -> None:
    """Write the bundle to a deterministic binary archive."""
    meta = {"kind": "model-bundle", "config": asdict(bundle.config),
            "tickers": list(bundle.tickers), "trained": bundle.trained,
            "proposer_mse": None if np.isnan(bundle.proposer_mse) else bundle.proposer_mse}
    save_networks(path, bundle.networks(), meta)


# keys that archives from before their removal persist, with the only value
# the training loop still implements
_RETIRED_CONFIG_KEYS = {"batch_windows": 1, "critic_steps_per_gen": 1, "adam_epsilon": 1e-8,
                        "output_scale": None, "proposer_mode": "network"}


def _current_config_keys(config: dict) -> dict:
    config = dict(config)
    for key, supported in _RETIRED_CONFIG_KEYS.items():
        if key in config and config.pop(key) != supported:
            raise ValidationError(f"bundle was trained with {key} other than "
                                  f"{supported!r}, which this version no longer supports")
    return config


def load_bundle(path) -> ModelBundle:
    """Inverse of :func:`save_bundle` (exact parameter round trip)."""
    components, meta = load_networks(path)
    try:
        if meta.get("kind") != "model-bundle":
            raise ValidationError("archive does not contain a model bundle")
        config = TrainConfig(**_current_config_keys(meta["config"]))
        mse = meta.get("proposer_mse")
        return ModelBundle(config=config, tickers=tuple(meta["tickers"]), **components,
                           proposer_mse=float("nan") if mse is None else float(mse),
                           trained=bool(meta.get("trained", False)))
    except ValidationError as err:  # from a check here or from TrainConfig and ModelBundle
        raise ValidationError(f"{path}: {err}") from None
    except (ValueError, TypeError, KeyError, AttributeError) as err:
        raise ValidationError(f"{path}: damaged bundle metadata ({err!r})") from None
