"""Three degradation/restoration processes over latent point clouds.

* Gaussian denoising: linear variance schedule, closed-form forward
  marginal, learned noise prediction, posterior-mean sampling.
* Heat dissipation: spectral blur (DCT attenuation) as degradation, a
  learned per-step deblurring residual as restoration, seeded from blurred
  training embeddings rather than pure noise.
* Flow matching: conditional straight-line interpolant, velocity-field
  regression, generation by RK4 integration from a standard normal.

Every flow (``DdpmModel``, ``HeatModel``, ``FlowField``) offers the same
small interface, and the harness sees nothing else:

* ``named_params()``: the trainable tensors;
* ``loss(x, rng)``: a taped loss on one standardized training cloud, or
  None for a cloud the flow cannot learn from;
* ``can_sample(rows)`` and ``sample(rows, rng)``: one standardized cloud
  with ``rows`` rows;
* ``meta()``: the kind tag and every schedule constant, which ``build``
  takes back.

Every sampler takes an explicit numpy Generator, so runs are reproducible
bit for bit from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .diffcore import tensor as T
from .diffcore.ode import ode_integrate
from .diffcore.tensor import EmptyInput, ShapeMismatch, Tensor, dct_matrix
from .gnn import EgnnNet, FlowFieldNet, GcnStack


class StepOutOfRange(ValueError):
    pass


class UnknownFlow(ValueError):
    pass


def _constants(sched) -> dict:
    """A schedule's constructor arguments, by name."""
    return {f.name: getattr(sched, f.name) for f in fields(sched) if f.init}


# ---------------------------------------------------------------------------
# Gaussian denoising diffusion


@dataclass
class DdpmSchedule:
    """Linear beta schedule with its derived quantities.

    ``beta[t-1]`` is the noise variance at step t (1-based); ``alpha_bar``
    is the running product of (1 - beta); the posterior variance at t = 1
    is 0 by the alpha_bar[0] := 1 convention.
    """

    steps: int = 50
    beta_start: float = 0.0001
    beta_end: float = 0.02
    beta: np.ndarray = field(init=False)
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    sigma2: np.ndarray = field(init=False)

    def __post_init__(self):
        self.beta = np.linspace(self.beta_start, self.beta_end, self.steps)
        self.alpha = 1.0 - self.beta
        self.alpha_bar = np.cumprod(self.alpha)
        prev = np.concatenate([[1.0], self.alpha_bar[:-1]])
        self.sigma2 = self.beta * (1.0 - prev) / (1.0 - self.alpha_bar)

    def check_step(self, t: int) -> None:
        if not (1 <= t <= self.steps):
            raise StepOutOfRange(f"step {t} outside [1, {self.steps}]")


def ddpm_degrade(sched: DdpmSchedule, x0: np.ndarray, t: int,
                 eps: np.ndarray) -> np.ndarray:
    """Closed-form forward marginal: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    sched.check_step(t)
    ab = sched.alpha_bar[t - 1]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def ddpm_posterior_step(sched: DdpmSchedule, x_t: np.ndarray, z_t: np.ndarray,
                        t: int, noise: np.ndarray | None) -> np.ndarray:
    """One reverse step: posterior mean from predicted noise, plus scaled
    Gaussian noise except at the final step."""
    sched.check_step(t)
    beta = sched.beta[t - 1]
    alpha = sched.alpha[t - 1]
    ab = sched.alpha_bar[t - 1]
    mu = np.sqrt(1.0 / alpha) * (x_t - beta * z_t / np.sqrt(1.0 - ab))
    if t == 1 or noise is None:
        return mu
    return mu + np.sqrt(sched.sigma2[t - 1]) * noise


class GnnRestorer:
    """7-layer graph-convolution noise predictor over the complete graph.

    Input per node is the degraded row concatenated with the normalized
    timestep; the network output matches that width and the predicted noise
    is the difference's latent-width slice (the time slot is discarded).
    """

    kind = "ddpm_gnn"
    min_points = 1

    def __init__(self, width: int, rng: np.random.Generator, hidden: int = 64,
                 name: str = "ddpm_gnn"):
        self.width = width
        self.net = GcnStack([width + 1] + [hidden] * 6 + [width + 1], rng,
                            name=name, conv="graph")

    def predict_noise(self, x_t: Tensor, t: int, total: int) -> Tensor:
        n = x_t.data.shape[0]
        h_t = np.full((n, 1), t / total)
        s_t = T.concat([x_t, T.tensor(h_t)], axis=1)
        d_t = self.net(s_t)
        return T.narrow(T.sub(d_t, s_t), 1, 0, self.width)

    def named_params(self):
        return self.net.named_params()


class EgnnRestorer:
    """Distance-driven noise predictor; output co-rotates with the cloud.

    It sees a cloud only through pairwise distances, so it needs 2 points.
    """

    kind = "ddpm_egnn"
    min_points = 2

    def __init__(self, width: int, rng: np.random.Generator, hidden: int = 64,
                 layers: int = 4, name: str = "ddpm_egnn"):
        self.width = width
        self.net = EgnnNet(width, rng, hidden=hidden, layers=layers, name=name)

    def predict_noise(self, x_t: Tensor, t: int, total: int) -> Tensor:
        return self.net(x_t, t / total)

    def named_params(self):
        return self.net.named_params()


@dataclass
class DdpmModel:
    restorer: GnnRestorer | EgnnRestorer
    sched: DdpmSchedule

    @property
    def width(self) -> int:
        return self.restorer.width

    def named_params(self):
        return self.restorer.named_params()

    def loss(self, x: np.ndarray, rng: np.random.Generator) -> Tensor | None:
        return ddpm_loss(self, x, rng)

    def can_sample(self, rows: int) -> bool:
        return True

    def sample(self, rows: int, rng: np.random.Generator) -> np.ndarray:
        return ddpm_generate(self, rows, rng)

    def meta(self) -> dict:
        return {"flow": self.restorer.kind, **_constants(self.sched)}


def ddpm_loss(model: DdpmModel, x0: np.ndarray,
              rng: np.random.Generator) -> Tensor | None:
    """MSE between predicted and actual noise at a uniformly random step.

    None, with no draw from ``rng``, for a cloud with fewer points than the
    restorer can see.
    """
    if x0.shape[0] < model.restorer.min_points:
        return None
    sched = model.sched
    t = int(rng.integers(1, sched.steps + 1))
    eps = rng.standard_normal(x0.shape)
    x_t = ddpm_degrade(sched, x0, t, eps)
    z_pred = model.restorer.predict_noise(T.tensor(x_t), t, sched.steps)
    return T.mse(z_pred, T.tensor(eps))


def ddpm_generate(model: DdpmModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Start from a standard normal cloud and walk the posterior chain down."""
    sched = model.sched
    x = rng.standard_normal((n, model.width))
    for t in range(sched.steps, 0, -1):
        z = model.restorer.predict_noise(T.tensor(x), t, sched.steps).data
        noise = rng.standard_normal(x.shape) if t > 1 else None
        x = ddpm_posterior_step(sched, x, z, t, noise)
    return x


# ---------------------------------------------------------------------------
# heat dissipation


@dataclass
class HeatSchedule:
    """Blur levels and stochasticity constants for the heat process."""

    steps: int = 50
    sigma_min: float = 0.5
    sigma_max: float = 20.0
    train_noise_std: float = 0.01
    eta: float = 0.01
    sigmas: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sigmas = np.geomspace(self.sigma_min, self.sigma_max, self.steps)

    def sigma(self, t: int) -> float:
        """Blur std at step t; t = 0 means unblurred."""
        if not (0 <= t <= self.steps):
            raise StepOutOfRange(f"step {t} outside [0, {self.steps}]")
        return 0.0 if t == 0 else float(self.sigmas[t - 1])


def heat_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Attenuate DCT coefficients by exp(-freqs^2 sigma^2 / 2).

    freqs = pi/L * [0..L-1]; the zero frequency is untouched, so the vector
    mean is preserved for every sigma.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise EmptyInput("heat_blur expects a non-empty 1-D vector")
    length = x.size
    freqs = np.pi / length * np.arange(length)
    basis = dct_matrix(length)
    return basis.T @ ((basis @ x) * np.exp(-(freqs ** 2) * (sigma ** 2) / 2.0))


class HeatModel:
    """Deblurring residual network over the complete graph.

    The predictor is time-free: the same network is applied at every level
    of blur, both in training and in the iterative generation loop.
    Sampling starts from a seed cloud, drawn from the standardized training
    clouds it is built with, so it can only sample their row counts.
    """

    def __init__(self, width: int, sched: HeatSchedule, rng: np.random.Generator,
                 clouds=(), hidden: int = 64, name: str = "heat"):
        self.width = width
        self.sched = sched
        self.net = GcnStack([width, hidden, hidden, width], rng, name=name,
                            conv="graph")
        self.seeds: dict[int, list[np.ndarray]] = {}
        for c in clouds:
            self.seeds.setdefault(c.shape[0], []).append(c)

    def delta(self, x: Tensor) -> Tensor:
        return self.net(x)

    def named_params(self):
        return self.net.named_params()

    def loss(self, x: np.ndarray, rng: np.random.Generator) -> Tensor:
        return heat_loss(self, x, rng)

    def can_sample(self, rows: int) -> bool:
        return rows in self.seeds

    def sample(self, rows: int, rng: np.random.Generator) -> np.ndarray:
        pool = self.seeds[rows]
        return heat_generate(self, pool[int(rng.integers(len(pool)))], rng)

    def meta(self) -> dict:
        return {"flow": "heat", **_constants(self.sched)}


def heat_loss(model: HeatModel, x0: np.ndarray, rng: np.random.Generator) -> Tensor:
    """Restoration MSE toward the one-step-less-blurred cloud.

    Like :func:`heat_generate`, the process runs on the exponentiated
    standardized cloud.
    """
    sched = model.sched
    n, w = x0.shape
    flat = np.exp(x0).ravel()
    t = int(rng.integers(1, sched.steps + 1))
    noisy = heat_blur(flat, sched.sigma(t)) + rng.normal(0.0, sched.train_noise_std, flat.size)
    target = heat_blur(flat, sched.sigma(t - 1))
    noisy_t = T.tensor(noisy.reshape(n, w))
    restored = T.add(noisy_t, model.delta(noisy_t))
    return T.mse(restored, T.tensor(target.reshape(n, w)))


def heat_generate(model: HeatModel, seed_cloud: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Exponentiate the seed embedding, blur it to the deepest level, then
    iteratively deblur with eta-scaled noise; the log undoes the transform."""
    sched = model.sched
    n, w = seed_cloud.shape
    u = heat_blur(np.exp(seed_cloud.ravel()), sched.sigma(sched.steps))
    for _ in range(sched.steps):
        u_t = T.tensor(u.reshape(n, w))
        u_mean = u + model.delta(u_t).data.ravel()
        u = u_mean + sched.eta * rng.standard_normal(u.shape)
    # deblurred values should be positive; floor guards the inverse transform
    return np.log(np.maximum(u, 1e-12)).reshape(n, w)


# ---------------------------------------------------------------------------
# flow matching


def fm_interpolate(x0: np.ndarray, x1: np.ndarray, t: float,
                   sigma_min: float) -> np.ndarray:
    """Conditional flow position: (1 - (1 - sigma_min) t) x0 + t x1."""
    if x0.shape != x1.shape:
        raise ShapeMismatch(f"{x0.shape} vs {x1.shape}")
    return (1.0 - (1.0 - sigma_min) * t) * x0 + t * x1


def fm_target_velocity(x0: np.ndarray, x1: np.ndarray,
                       sigma_min: float) -> np.ndarray:
    """Conditional velocity: x1 - (1 - sigma_min) x0."""
    if x0.shape != x1.shape:
        raise ShapeMismatch(f"{x0.shape} vs {x1.shape}")
    return x1 - (1.0 - sigma_min) * x0


@dataclass
class FlowField:
    net: FlowFieldNet
    sigma_min: float = 1e-4
    ode_steps: int = 100

    @property
    def width(self) -> int:
        return self.net.width

    def named_params(self):
        return self.net.named_params()

    def loss(self, x: np.ndarray, rng: np.random.Generator) -> Tensor:
        return fm_loss(self, x, rng)

    def can_sample(self, rows: int) -> bool:
        return True

    def sample(self, rows: int, rng: np.random.Generator) -> np.ndarray:
        return fm_generate(self, rows, rng)

    def meta(self) -> dict:
        return {"flow": "flow_matching", "sigma_min": self.sigma_min,
                "ode_steps": self.ode_steps}


def fm_loss(field: FlowField, x1: np.ndarray, rng: np.random.Generator) -> Tensor:
    """Squared deviation between predicted and conditional velocity at a
    uniformly random time, with a fresh standard-normal source sample."""
    x0 = rng.standard_normal(x1.shape)
    t = float(rng.uniform())
    psi = fm_interpolate(x0, x1, t, field.sigma_min)
    target = fm_target_velocity(x0, x1, field.sigma_min)
    v = field.net(T.tensor(psi), t)
    return T.mse(v, T.tensor(target))


def fm_generate(field: FlowField, n: int, rng: np.random.Generator) -> np.ndarray:
    """Integrate the learned velocity field from noise at t=0 to t=1."""
    x0 = rng.standard_normal((n, field.width))
    return ode_integrate(field.net.velocity, x0, 0.0, 1.0, field.ode_steps)


# ---------------------------------------------------------------------------
# construction


def build(kind: str, width: int, rng: np.random.Generator, clouds=(),
          **constants) -> DdpmModel | HeatModel | FlowField:
    """A freshly initialised flow of ``kind`` over ``width``-column clouds.

    ``constants`` are schedule constants as ``meta()`` names them; the ones
    left out keep their defaults, and an unknown one raises TypeError.
    ``clouds`` iterates over the standardized training clouds, the seed
    prior of the heat flow; the other flows never read it.
    """
    if kind == "ddpm_gnn":
        return DdpmModel(GnnRestorer(width, rng), DdpmSchedule(**constants))
    if kind == "ddpm_egnn":
        return DdpmModel(EgnnRestorer(width, rng), DdpmSchedule(**constants))
    if kind == "heat":
        return HeatModel(width, HeatSchedule(**constants), rng, clouds)
    if kind == "flow_matching":
        return FlowField(FlowFieldNet(width, rng), **constants)
    raise UnknownFlow(f"no flow of kind {kind!r}")
