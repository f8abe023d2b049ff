"""Three degradation/restoration processes over latent point clouds.

* Gaussian denoising: linear variance schedule, closed-form forward
  marginal, learned noise prediction, sampling by the generalized-DDIM
  reverse step at eta = 1 on a stride through the trained steps
  (``DDPM_SAMPLE_STEPS``, 10 restorer calls for 50 trained steps). At
  stride 1 that step is the ancestral posterior step.
* Heat dissipation: spectral blur (DCT attenuation) as degradation, a
  learned per-step deblurring residual as restoration, seeded from blurred
  training embeddings rather than pure noise. The blur range 0.5 to 20 is
  covered in 5 geometric levels (``HeatSchedule.steps``), 5 net calls per
  sample; the time-free net is trained on adjacent levels, so training
  shares the count. A level sweep set it: at 50 levels nearly every sample
  had an entry on the log floor of ``heat_generate``.
* Flow matching: conditional straight-line interpolant, velocity-field
  regression, generation by RK4 integration from a standard normal. In
  training, the noise rows are paired with the data rows by an optimal
  assignment (:func:`pair_noise`), which shortens the paths the net learns
  and straightens the field. The velocity net's time features are
  band-limited (``gnn.TIME_MAX_FREQ``, 8 rad per unit time), so the field
  is smooth in t. Both keep the budget small: 10 RK4 steps (40 field
  evaluations, ``FlowField.ode_steps``) decode the molecules a 1600-step
  solve decodes, as the ``FlowField`` docstring sets out.

Every flow (``DdpmModel``, ``HeatModel``, ``FlowField``) offers the same
small interface, and the harness sees nothing else:

* ``named_params()``, from ``gnn.Module``: the trainable tensors;
* ``loss(x, rng)``: a taped loss on one standardized training cloud, or
  None for a cloud the flow cannot learn from;
* ``sample(rows, rng)``: one standardized cloud with ``rows`` rows, for a
  row count of the training clouds;
* ``meta()``: the kind tag and every schedule constant, which ``build``
  takes back.

Every sampler takes an explicit numpy Generator, so runs are reproducible
bit for bit from a seed. Each runs its loop inside ``T.frozen_params()``,
so its network's stack plan, with the complete-graph layers' weights
folded, is made once per row count rather than once per step.
``harness.generate_molecules`` runs every sample of a call in one outer
block, so the plans are made once per row count for the whole call; a
sampler called alone makes them once per cloud. The samples are the same bits as without a block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .diffcore import tensor as T
from .diffcore.ode import ode_integrate
from .diffcore.tensor import EmptyInput, ShapeMismatch, Tensor, dct_matrix
from .gnn import TIME_MAX_FREQ, EgnnNet, FlowFieldNet, GcnStack, Module


class StepOutOfRange(ValueError):
    pass


class FixedConstant(ValueError):
    """A constant ``meta()`` records that has one value only, given another."""


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
    is the running product of (1 - beta). Sampling reads only
    ``alpha_bar``, through :func:`ddim_coefficients`, at the steps of
    :func:`ddim_grid`; training reads every step.

    The defaults do not reach the prior that sampling starts from. They end
    at ``alpha_bar[-1]`` = 0.603, so a training input at t = 50 still keeps
    78% of its signal amplitude (sqrt 0.603) under 63% noise, while
    ``ddpm_generate`` starts its first stride at t = 50 from pure N(0, I),
    so the restorer's first call sees an input unlike any it was trained
    on. Whether that costs sample quality is open; changing a default would
    change every DDPM output.
    """

    steps: int = 50
    beta_start: float = 0.0001
    beta_end: float = 0.02
    beta: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        self.beta = np.linspace(self.beta_start, self.beta_end, self.steps)
        self.alpha_bar = np.cumprod(1.0 - self.beta)

    def check_step(self, t: int) -> None:
        if not (1 <= t <= self.steps):
            raise StepOutOfRange(f"step {t} outside [1, {self.steps}]")


def ddpm_degrade(sched: DdpmSchedule, x0: np.ndarray, t: int,
                 eps: np.ndarray) -> np.ndarray:
    """Closed-form forward marginal: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    sched.check_step(t)
    ab = sched.alpha_bar[t - 1]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


# restorer calls per sampled cloud, on a stride through the trained steps
DDPM_SAMPLE_STEPS = 10


def ddim_grid(total: int, steps: int) -> np.ndarray:
    """The steps a sampler visits, ``total`` down to 0 in ``min(steps,
    total)`` strides as even as integers allow: 50, 45, ..., 5, 0 for 10
    of 50. Step 0 is the clean cloud."""
    if steps < 1:
        raise StepOutOfRange(f"a sampler takes at least one step, not {steps}")
    k = min(steps, total)
    return total - (np.arange(k + 1) * total) // k


def ddim_coefficients(sched: DdpmSchedule, t: np.ndarray,
                      s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights of the generalized-DDIM reverse step from t to s < t at
    eta = 1 (Song et al. arXiv:2010.02502), elementwise over the pairs.

    The step predicts the clean cloud x0 = (x_t - sqrt(1 - abar_t) eps) /
    sqrt(abar_t) and moves to x_s = sqrt(abar_s) x0 + sqrt(1 - abar_s -
    sigma^2) eps + sigma z, with sigma^2 = (1 - abar_s) (1 - r) / (1 -
    abar_t) and r = abar_t / abar_s. So x_s = keep x_t + mix eps + sigma z,
    with keep = 1 / sqrt(r) and mix = -(1 - r) / sqrt(r (1 - abar_t)).

    At s = t - 1, r is alpha_t and sigma^2 is the posterior variance
    beta_t (1 - abar_s) / (1 - abar_t): the step is the ancestral posterior
    step. With abar_0 := 1, sigma is 0 on the step to s = 0.
    """
    t, s = np.asarray(t), np.asarray(s)
    if np.any((s < 0) | (s >= t) | (t > sched.steps)):
        raise StepOutOfRange(f"steps {t} to {s} outside 0 <= s < t <= {sched.steps}")
    abar = np.concatenate([[1.0], sched.alpha_bar])
    ab_t, ab_s = abar[t], abar[s]
    r = ab_t / ab_s
    keep = 1.0 / np.sqrt(r)
    mix = -(1.0 - r) / np.sqrt(r * (1.0 - ab_t))
    sigma = np.sqrt((1.0 - ab_s) * (1.0 - r) / (1.0 - ab_t))
    return keep, mix, sigma


class GnnRestorer(Module):
    """7-layer graph-convolution noise predictor over the complete graph.

    Input per node is the degraded row concatenated with the normalized
    timestep; the network output matches that width and the predicted noise
    is its latent-width slice minus the degraded row (the time slot is
    discarded). Slicing before the difference gives the bits of the
    difference's slice and subtracts only the latent columns.
    """

    kind = "ddpm_gnn"
    min_points = 1

    def __init__(self, width: int, rng: np.random.Generator):
        self.width = width
        self.net = GcnStack([width + 1] + [64] * 6 + [width + 1], rng,
                            name="ddpm_gnn", conv="graph")

    def predict_noise(self, x_t: Tensor, t: int, total: int) -> Tensor:
        d_t = self.net(T.concat_row(x_t, np.array([t / total])))
        return T.sub(T.narrow(d_t, -1, 0, self.width), x_t)


class EgnnRestorer(Module):
    """Distance-driven noise predictor; output co-rotates with the cloud.

    It sees a cloud only through pairwise distances, so it needs 2 points.
    """

    kind = "ddpm_egnn"
    min_points = 2

    def __init__(self, width: int, rng: np.random.Generator):
        self.width = width
        self.net = EgnnNet(rng, name="ddpm_egnn")

    def predict_noise(self, x_t: Tensor, t: int, total: int) -> Tensor:
        return self.net(x_t, t / total)


@dataclass
class DdpmModel(Module):
    restorer: GnnRestorer | EgnnRestorer
    sched: DdpmSchedule

    @property
    def width(self) -> int:
        return self.restorer.width

    def loss(self, x: np.ndarray, rng: np.random.Generator) -> Tensor | None:
        return ddpm_loss(self, x, rng)

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


def ddpm_generate(model: DdpmModel, n: int, rng: np.random.Generator,
                  steps: int = DDPM_SAMPLE_STEPS) -> np.ndarray:
    """Start from a standard normal cloud at the last trained step and walk
    down the ``ddim_grid`` with the eta = 1 reverse step: one restorer call
    per step. Every Gaussian draw is taken up front, in the order a
    step-by-step loop takes them: the start cloud, then one per step
    except the last, which adds no noise."""
    sched = model.sched
    grid = ddim_grid(sched.steps, steps)
    keep, mix, sigma = ddim_coefficients(sched, grid[:-1], grid[1:])
    draws = rng.standard_normal((len(grid) - 1, n, model.width))
    x = draws[0]
    with T.frozen_params():
        for i, t in enumerate(grid[:-1]):
            eps = model.restorer.predict_noise(T.tensor(x), int(t), sched.steps).data
            x = keep[i] * x + mix[i] * eps
            if i + 1 < len(draws):
                x = x + sigma[i] * draws[i + 1]
    return x


# ---------------------------------------------------------------------------
# heat dissipation


@dataclass
class HeatSchedule:
    """Blur levels and stochasticity constants for the heat process.

    ``sigmas`` runs geometrically from ``sigma_min`` to ``sigma_max`` in
    ``steps`` levels. The net learns one level's deblurring step and
    sampling takes every level, so ``steps`` is both the training grid and
    the sampling budget, and a checkpoint keeps the count it was trained
    with. The default of 5 comes from a sweep over 50, 25, 10, 5 and 3
    levels (``heat_1d``, 16 training seeds, two generator seeds of 300
    molecules each). Against 50 levels, 5 levels read a lower
    ``latent_mmd`` at 16 of 16 seeds and a higher median validity and
    uniqueness, and put an entry on the log floor of :func:`heat_generate`
    in 10% of clouds, not 94%. Novelty falls from its 100% ceiling to a
    median 88%, inside the 50-level seed range, as more of the molecules
    are valid. At 3 levels uniqueness is lower than at 5 at 10 of 16 seeds.
    """

    steps: int = 5
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


class HeatModel(Module):
    """Deblurring residual network over the complete graph.

    The predictor is time-free: the same network is applied at every level
    of blur, both in training and in the iterative generation loop.
    Sampling starts from a seed cloud, drawn from the standardized training
    clouds it is built with, so it samples only their row counts; the
    harness draws every atom count from the same training molecules.
    """

    def __init__(self, width: int, sched: HeatSchedule, rng: np.random.Generator,
                 clouds=()):
        self.width = width
        self.sched = sched
        self.net = GcnStack([width, 64, 64, width], rng, name="heat", conv="graph")
        self.seeds: dict[int, list[np.ndarray]] = {}
        for c in clouds:
            self.seeds.setdefault(c.shape[0], []).append(c)

    def delta(self, x: Tensor) -> Tensor:
        return self.net(x)

    def loss(self, x: np.ndarray, rng: np.random.Generator) -> Tensor:
        return heat_loss(self, x, rng)

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
    iteratively deblur with eta-scaled noise; the log undoes the transform.
    The noise of every step is one draw, the same numbers that a draw per
    step takes.

    A deblurred entry at or below 1e-12, which the exponentiated process
    should never reach, comes out as exactly log(1e-12) (about -27.6)
    rather than NaN. The floor hides that the net has left the positive
    range: in the level sweep of :class:`HeatSchedule` it fired in 94% of
    clouds at 50 levels (4531 of 4800) and in 10% at 5 levels (477 of 4800,
    204 of them from one training seed). Such an entry lies about 28
    standard deviations below the mean of the standardized training clouds.
    """
    sched = model.sched
    n, w = seed_cloud.shape
    u = heat_blur(np.exp(seed_cloud.ravel()), sched.sigma(sched.steps))
    noise = rng.standard_normal((sched.steps, n * w))
    with T.frozen_params():
        for z in noise:
            u_t = T.tensor(u.reshape(n, w))
            u_mean = u + model.delta(u_t).data.ravel()
            u = u_mean + sched.eta * z
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


def optimal_assignment(cost: np.ndarray) -> np.ndarray:
    """The column assigned to each row of a square cost matrix, at the least
    total cost: ``cost[i, out[i]]`` summed over i is minimal.

    The Hungarian method in the O(n^3) Jonker-Volgenant form. Column
    reduction first gives each column to its cheapest row while that row is
    free. Every row left over then takes a free column along a shortest
    augmenting path over the reduced costs, Dijkstra-style as Crouse (2016)
    writes it. Plain Python floats, since the clouds it pairs have at most a
    few dozen rows. Ties go by the fixed scan order, so the result is
    deterministic.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ShapeMismatch(f"assignment needs a square cost matrix, not {cost.shape}")
    a = cost.tolist()
    # potentials with a[i][j] - u[i] - v[j] >= 0, and == 0 on assigned pairs
    u, v = [0.0] * n, cost.min(axis=0).tolist()
    col_of, row_of = [-1] * n, [-1] * n
    for j, i in enumerate(cost.argmin(axis=0).tolist()):
        if col_of[i] < 0:
            col_of[i], row_of[j] = j, i
    inf = float("inf")
    via = [0] * n  # the row a shortest path reaches column j from
    for start in range(n):
        if col_of[start] >= 0:
            continue
        dist = [inf] * n
        todo, rows, cols = list(range(n)), [], []
        i, low, sink = start, 0.0, -1
        while sink < 0:
            rows.append(i)
            row, base = a[i], low - u[i]
            best, k_best = inf, -1
            for k, j in enumerate(todo):
                d = base + row[j] - v[j]
                if d < dist[j]:
                    dist[j], via[j] = d, i
                if dist[j] < best or (dist[j] == best and row_of[j] < 0):
                    best, k_best = dist[j], k
            low, j = best, todo[k_best]
            todo[k_best] = todo[-1]
            todo.pop()
            cols.append(j)
            if row_of[j] < 0:
                sink = j
            else:
                i = row_of[j]
        u[start] += low
        for i in rows[1:]:
            u[i] += low - dist[col_of[i]]
        for j in cols:
            v[j] -= low - dist[j]
        # each row on the path takes the column it was reached through
        j = sink
        while True:
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return np.array(col_of, dtype=np.intp)


def pair_noise(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """The rows of the noise cloud ``x0`` reordered so that row i pairs with
    data row i of ``x1`` at the least total squared distance.

    A cloud is a set of rows, so any row order of the noise is as likely as
    the drawn one; pairing picks the order whose straight paths are the
    shortest (equivariant flow matching, Klein et al. arXiv:2306.15030).
    Clouds of different row counts give a cost matrix that is not square.
    """
    cost = ((x1[:, None, :] - x0[None, :, :]) ** 2).sum(axis=2)
    return x0[optimal_assignment(cost)]


@dataclass
class FlowField(Module):
    """A velocity net, the interpolant's ``sigma_min`` and the RK4 budget.

    ``ode_steps`` goes with the net's time bandwidth (``TIME_MAX_FREQ``,
    recorded as ``time_max_freq`` in ``meta()``) and with the noise pairing
    of :func:`fm_loss`. RK4's endpoint error falls steadily with the step
    count only once a step is short against the period of the fastest time
    feature, as it is at 8 rad per unit time; a wider band needs more
    steps. Paired training noise straightens the field, so fewer steps
    reach the same molecules.

    The budget is the fewest steps at which at least 99% of 200 sampled
    molecules equal (same atoms, same typed bonds) their decode from a
    1600-step solve, at training seeds 0 and 3 (``flow_matching``, z=2, 20
    epochs, subset 400 of ``synthetic_dataset(1000, seed=0)``). Share of
    molecules equal to the 1600-step decode, seed 0 / seed 3:

    ===========  ============  =============  =============  =============
    RK4 steps    25            15             10             8
    ===========  ============  =============  =============  =============
    unpaired     0.980/0.995   0.970/0.965    0.940/0.975    0.940/0.930
    paired       1.000/1.000   0.995/1.000    0.990/0.995    0.965/0.980
    ===========  ============  =============  =============  =============

    At 9 steps the paired net reads 0.990/0.985. A checkpoint keeps the
    ``ode_steps`` it was written with, so a net trained before the pairing
    still samples its 25 steps.
    """

    net: FlowFieldNet
    sigma_min: float = 1e-4
    ode_steps: int = 10

    @property
    def width(self) -> int:
        return self.net.width

    def loss(self, x: np.ndarray, rng: np.random.Generator) -> Tensor:
        return fm_loss(self, x, rng)

    def sample(self, rows: int, rng: np.random.Generator) -> np.ndarray:
        return fm_generate(self, rows, rng)

    def meta(self) -> dict:
        return {"flow": "flow_matching", "sigma_min": self.sigma_min,
                "ode_steps": self.ode_steps,
                "time_max_freq": TIME_MAX_FREQ}


def fm_loss(field: FlowField, x1: np.ndarray, rng: np.random.Generator) -> Tensor:
    """Squared deviation between predicted and conditional velocity at a
    uniformly random time, with a fresh standard-normal source sample whose
    rows are paired with the data rows by :func:`pair_noise`.

    The draws are those of unpaired training (the noise, then the time);
    the pairing draws nothing and adds no tape node. Paired targets vary
    less between draws, so the loss the net can reach is lower: the last
    epoch of the budget setting of :class:`FlowField` reads about 0.66
    paired, 1.36 unpaired."""
    x0 = rng.standard_normal(x1.shape)
    t = float(rng.uniform())
    x0 = pair_noise(x0, x1)
    psi = fm_interpolate(x0, x1, t, field.sigma_min)
    target = fm_target_velocity(x0, x1, field.sigma_min)
    v = field.net(T.tensor(psi), t)
    return T.mse(v, T.tensor(target))


def fm_generate(field: FlowField, n: int, rng: np.random.Generator) -> np.ndarray:
    """Integrate the learned velocity field from noise at t=0 to t=1."""
    x0 = rng.standard_normal((n, field.width))
    with T.frozen_params():
        return ode_integrate(field.net.velocity, x0, 0.0, 1.0, field.ode_steps)


# ---------------------------------------------------------------------------
# construction


def build(kind: str, width: int, rng: np.random.Generator, clouds=(),
          **constants) -> DdpmModel | HeatModel | FlowField:
    """A freshly initialised flow of ``kind`` over ``width``-column clouds.

    ``constants`` are schedule constants as ``meta()`` names them; the ones
    left out keep their defaults, and an unknown one raises TypeError.
    Flow matching records ``time_max_freq`` but has no other value for it;
    any other raises :class:`FixedConstant`.
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
        # recorded so that a net trained with other time features is refused
        freq = constants.pop("time_max_freq", TIME_MAX_FREQ)
        if freq != TIME_MAX_FREQ:
            raise FixedConstant(f"time_max_freq={freq}: the velocity net's time"
                                f" features stop at {TIME_MAX_FREQ}")
        return FlowField(FlowFieldNet(width, rng), **constants)
    raise UnknownFlow(f"no flow of kind {kind!r}")
