"""Flows: closed-form schedule and interpolant checks, the shared interface."""

import itertools

import numpy as np
import pytest

from moldiff import flows
from moldiff.diffcore import tensor as T
from moldiff.diffcore.ode import ode_integrate
from moldiff.diffcore.tensor import ShapeMismatch
from moldiff.flows import (
    DdpmSchedule,
    HeatSchedule,
    StepOutOfRange,
    UnknownFlow,
    ddim_coefficients,
    ddim_grid,
    ddpm_degrade,
    ddpm_generate,
    ddpm_loss,
    fm_interpolate,
    fm_target_velocity,
    heat_blur,
)
from moldiff.gnn import FlowFieldNet

from conftest import ancestral_generate, assert_close


class TestDdpm:
    def test_degrade_without_noise_scales_x0(self, rng):
        sched = DdpmSchedule()
        x0 = rng.standard_normal((5, 3))
        for t in (1, 17, sched.steps):
            out = ddpm_degrade(sched, x0, t, np.zeros_like(x0))
            assert np.allclose(out, np.sqrt(sched.alpha_bar[t - 1]) * x0, rtol=0, atol=1e-15)

    def test_first_step_adds_no_noise(self, rng):
        sched = DdpmSchedule()
        keep, mix, sigma = ddim_coefficients(sched, 1, 0)
        assert sigma == 0.0
        x, z = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        beta, ab = sched.beta[0], sched.alpha_bar[0]
        mean = (x - beta * z / np.sqrt(1.0 - ab)) / np.sqrt(1.0 - beta)
        assert np.allclose(keep * x + mix * z, mean, rtol=0, atol=1e-12)

    def test_unit_stride_is_the_posterior_step(self):
        """At s = t - 1 the weights are the ancestral step's: the posterior
        mean's and the posterior variance."""
        sched = DdpmSchedule()
        t = np.arange(sched.steps, 0, -1)
        keep, mix, sigma = ddim_coefficients(sched, t, t - 1)
        beta, ab = sched.beta[t - 1], sched.alpha_bar[t - 1]
        prev = np.concatenate([[1.0], sched.alpha_bar])[t - 1]
        assert_close(keep, 1.0 / np.sqrt(1.0 - beta))
        assert_close(mix, -beta / np.sqrt((1.0 - beta) * (1.0 - ab)))
        assert_close(sigma ** 2, beta * (1.0 - prev) / (1.0 - ab))

    @pytest.mark.parametrize("t", [0, 51])
    def test_step_out_of_range(self, t, rng):
        sched = DdpmSchedule(steps=50)
        x = rng.standard_normal((3, 2))
        with pytest.raises(StepOutOfRange):
            ddpm_degrade(sched, x, t, x)
        with pytest.raises(StepOutOfRange):
            ddim_coefficients(sched, t, 0)

    @pytest.mark.parametrize("t, s", [(5, 5), (5, 7), (5, -1)])
    def test_step_must_go_down(self, t, s):
        with pytest.raises(StepOutOfRange):
            ddim_coefficients(DdpmSchedule(), t, s)

    @pytest.mark.parametrize("total, steps, grid", [
        (50, 10, [50, 45, 40, 35, 30, 25, 20, 15, 10, 5, 0]),
        (50, 1, [50, 0]),
        (7, 3, [7, 5, 3, 0]),
        (7, 10, [7, 6, 5, 4, 3, 2, 1, 0]),
    ])
    def test_grid(self, total, steps, grid):
        assert ddim_grid(total, steps).tolist() == grid
        with pytest.raises(StepOutOfRange):
            ddim_grid(total, 0)

    @pytest.mark.parametrize("total, steps", [(50, None), (50, 1), (50, 25), (50, 50),
                                              (7, None), (7, 7)])
    def test_one_restorer_call_per_step(self, total, steps, monkeypatch):
        """The restorer runs min(budget, trained steps) times, at the grid's
        steps; a schedule shorter than the budget samples every step."""
        model = flows.build("ddpm_gnn", 2, np.random.default_rng(0), steps=total)
        seen = []
        predict = flows.GnnRestorer.predict_noise

        def counting(restorer, x_t, t, total_):
            seen.append(t)
            return predict(restorer, x_t, t, total_)

        monkeypatch.setattr(flows.GnnRestorer, "predict_noise", counting)
        budget = flows.DDPM_SAMPLE_STEPS if steps is None else steps
        kw = {} if steps is None else {"steps": steps}
        out = ddpm_generate(model, 5, np.random.default_rng(1), **kw)
        assert np.all(np.isfinite(out))
        assert len(seen) == min(budget, total)
        assert seen == ddim_grid(total, budget)[:-1].tolist()

    @pytest.mark.parametrize("steps", [1, 2, 10])
    def test_draws_only_for_the_start_and_non_final_steps(self, steps):
        """A sample takes one (n, w) draw for its start cloud and one for
        each step but the last, so a seed reproduces its samples."""
        model = flows.build("ddpm_gnn", 3, np.random.default_rng(0))
        used = np.random.default_rng(4)
        first = ddpm_generate(model, 6, used, steps=steps)
        ref = np.random.default_rng(4)
        ref.standard_normal((steps, 6, 3))
        assert used.integers(1 << 30) == ref.integers(1 << 30)
        assert np.array_equal(ddpm_generate(model, 6, np.random.default_rng(4), steps=steps),
                              first)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_fifty_steps_are_the_ancestral_chain(self, n):
        model = flows.build("ddpm_gnn", 2, np.random.default_rng(n))
        got = ddpm_generate(model, n, np.random.default_rng(7), steps=50)
        assert_close(got, ancestral_generate(model, n, np.random.default_rng(7)))

    def test_egnn_loss_skips_a_single_point(self, rng):
        model = flows.build("ddpm_egnn", 4, rng)
        draws = np.random.default_rng(5)
        assert ddpm_loss(model, np.zeros((1, 4)), draws) is None
        assert draws.integers(1 << 30) == np.random.default_rng(5).integers(1 << 30)


class TestHeat:
    def test_blur_at_sigma_zero_is_identity(self, rng):
        x = rng.standard_normal(11)
        assert np.allclose(heat_blur(x, 0.0), x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 3.0, 20.0])
    def test_blur_keeps_the_mean(self, sigma, rng):
        x = rng.standard_normal(9) + 2.0
        assert heat_blur(x, sigma).mean() == pytest.approx(x.mean(), abs=1e-12)

    def test_sigma_out_of_range(self):
        with pytest.raises(StepOutOfRange):
            HeatSchedule(steps=10).sigma(11)

    def test_default_levels_span_the_blur_range(self):
        sched = HeatSchedule()
        assert sched.steps == 5
        assert sched.sigmas.shape == (sched.steps,)
        assert sched.sigmas[0] == pytest.approx(sched.sigma_min, rel=1e-12)
        assert sched.sigmas[-1] == pytest.approx(sched.sigma_max, rel=1e-12)
        assert np.all(np.diff(sched.sigmas) > 0)

    @pytest.mark.parametrize("steps", [None, 3, 50])
    def test_one_delta_call_per_level(self, steps, rng, monkeypatch):
        clouds = [rng.standard_normal((4, 1))]
        constants = {} if steps is None else {"steps": steps}
        model = flows.build("heat", 1, rng, clouds, **constants)
        calls = []
        original = flows.HeatModel.delta
        monkeypatch.setattr(flows.HeatModel, "delta",
                            lambda self, x: calls.append(1) or original(self, x))
        for _ in range(2):
            model.sample(4, rng)
        assert len(calls) == 2 * model.sched.steps

    def test_values_below_zero_land_on_the_floor(self, rng):
        clouds = [rng.standard_normal((4, 1))]
        model = flows.build("heat", 1, rng, clouds, steps=3)
        # a net that sends row 0 to -1 and leaves the others alone
        model.delta = lambda x: T.tensor(np.where(np.arange(4)[:, None] == 0,
                                                  -1.0 - x.data, 0.0))
        got = flows.heat_generate(model, clouds[0], np.random.default_rng(3))
        assert got[0, 0] == np.log(1e-12)
        assert np.all(np.isfinite(got))
        assert np.all(got[1:] > np.log(1e-12))

    def test_noise_in_one_draw_is_a_draw_per_step(self, rng):
        clouds = [rng.standard_normal((4, 1))]
        model = flows.build("heat", 1, rng, clouds, steps=6)
        got = flows.heat_generate(model, clouds[0], np.random.default_rng(3))
        draws = np.random.default_rng(3)
        u = heat_blur(np.exp(clouds[0].ravel()), model.sched.sigma(6))
        for _ in range(6):
            u = u + model.delta(T.tensor(u.reshape(4, 1))).data.ravel()
            u = u + model.sched.eta * draws.standard_normal(u.shape)
        assert np.array_equal(got, np.log(np.maximum(u, 1e-12)).reshape(4, 1))

    def test_samples_only_seed_row_counts(self, rng):
        clouds = [rng.standard_normal((3, 1)), rng.standard_normal((5, 1))]
        model = flows.build("heat", 1, rng, clouds, steps=3)
        assert model.sample(5, rng).shape == (5, 1)


def brute_force_cost(cost: np.ndarray) -> float:
    n = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    return cost[np.arange(n), perms].sum(axis=1).min()


class TestAssignment:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_least_total_cost(self, n, rng):
        """Against every permutation, on Gaussian costs, on small integer
        costs (many exact ties) and on the squared distances of clouds whose
        data rows repeat, as two atoms of one WL colour encode to one row."""
        costs = [rng.standard_normal((n, n)) for _ in range(20)]
        costs += [rng.integers(0, 3, (n, n)).astype(float) for _ in range(20)]
        for _ in range(10):
            x1 = rng.standard_normal((n, 3))
            x1[n // 2:] = x1[0]
            costs.append(((x1[:, None] - rng.standard_normal((1, n, 3))) ** 2).sum(axis=2))
        for cost in costs:
            got = flows.optimal_assignment(cost)
            assert sorted(got.tolist()) == list(range(n))
            assert cost[np.arange(n), got].sum() == pytest.approx(brute_force_cost(cost),
                                                                  rel=1e-12, abs=1e-12)

    def test_deterministic(self, rng):
        cost = rng.integers(0, 2, (7, 7)).astype(float)
        first = flows.optimal_assignment(cost)
        for _ in range(3):
            assert np.array_equal(flows.optimal_assignment(cost.copy()), first)

    def test_pairing_permutes_the_noise_rows(self, rng):
        """The paired noise is the drawn rows in the order of least total
        squared distance to the data rows."""
        x0, x1 = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        paired = flows.pair_noise(x0, x1)
        assert sorted(map(tuple, paired)) == sorted(map(tuple, x0))
        best = min(((x0[list(p)] - x1) ** 2).sum() for p in itertools.permutations(range(6)))
        assert ((paired - x1) ** 2).sum() == pytest.approx(best, rel=1e-12)

    def test_shapes_are_checked(self, rng):
        with pytest.raises(ShapeMismatch):
            flows.optimal_assignment(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            flows.pair_noise(np.zeros((3, 2)), np.zeros((4, 2)))


class TestFlowMatching:
    def test_interpolant_endpoints(self, rng):
        x0, x1 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        s = 0.05
        assert np.array_equal(fm_interpolate(x0, x1, 0.0, s), x0)
        assert np.allclose(fm_interpolate(x0, x1, 1.0, s), s * x0 + x1, rtol=0, atol=1e-15)

    def test_time_derivative_is_target_velocity(self, rng):
        x0, x1 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        s, t, h = 1e-4, 0.37, 1e-6
        fd = (fm_interpolate(x0, x1, t + h, s) - fm_interpolate(x0, x1, t - h, s)) / (2 * h)
        assert np.allclose(fd, fm_target_velocity(x0, x1, s), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("rows", [1, 4, 9])
    def test_loss_draws_as_unpaired_training(self, rows, rng):
        """The pairing draws nothing: the stream moves as one noise draw and
        one time draw move it, and the loss is that of the paired noise."""
        field = flows.build("flow_matching", 2, rng)
        x1 = rng.standard_normal((rows, 2))
        got = flows.fm_loss(field, x1, np.random.default_rng(5))
        draws = np.random.default_rng(5)
        x0, t = draws.standard_normal(x1.shape), float(draws.uniform())
        x0 = flows.pair_noise(x0, x1)
        want = T.mse(field.net(T.tensor(fm_interpolate(x0, x1, t, field.sigma_min)), t),
                     T.tensor(fm_target_velocity(x0, x1, field.sigma_min)))
        assert np.isfinite(got.data) and got.data == want.data
        after = np.random.default_rng(5)
        after.standard_normal(x1.shape)
        after.uniform()
        assert draws.bit_generator.state == after.bit_generator.state

    @pytest.mark.parametrize("steps", [None, 3, 25])
    def test_four_velocity_calls_per_step(self, steps, rng, monkeypatch):
        constants = {} if steps is None else {"ode_steps": steps}
        field = flows.build("flow_matching", 2, rng, **constants)
        assert field.ode_steps == (10 if steps is None else steps)
        calls = []
        original = FlowFieldNet.velocity
        monkeypatch.setattr(FlowFieldNet, "velocity",
                            lambda self, t, x: calls.append(t) or original(self, t, x))
        assert np.all(np.isfinite(field.sample(5, rng)))
        assert len(calls) == 4 * field.ode_steps
        assert calls[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_budget_resolves_the_field(self, seed):
        """RK4's endpoint error on an untrained velocity net falls at every
        step count up to 100 and is below 1e-4 at the default budget of 10
        steps (6.2e-5 at seed 0, 7.4e-5 at seed 1). With time features up
        to 1000 rad it does neither: half-steps near a whole number of the
        top feature's periods alias it."""
        field = flows.build("flow_matching", 4, np.random.default_rng(seed))
        x0 = np.random.default_rng(seed + 100).standard_normal((9, 4))

        def solve(steps):
            return ode_integrate(field.net.velocity, x0, 0.0, 1.0, steps)

        ref = solve(800)
        err = {k: np.max(np.abs(solve(k) - ref)) / np.max(np.abs(ref))
               for k in (10, 20, 25, 40, 50, 100)}
        errs = list(err.values())
        assert all(a > b for a, b in zip(errs, errs[1:])), err
        assert err[field.ode_steps] < 1e-4


class TestBuild:
    CONSTANTS = {
        "ddpm_gnn": {"steps": 7, "beta_start": 0.001, "beta_end": 0.05},
        "ddpm_egnn": {"steps": 9, "beta_start": 0.0002, "beta_end": 0.03},
        "heat": {"steps": 5, "sigma_min": 0.25, "sigma_max": 8.0,
                 "train_noise_std": 0.02, "eta": 0.005},
        "flow_matching": {"sigma_min": 0.001, "ode_steps": 12, "time_max_freq": 8.0},
    }

    @pytest.mark.parametrize("kind", sorted(CONSTANTS))
    def test_meta_round_trip(self, kind, rng):
        meta = flows.build(kind, 2, rng, **self.CONSTANTS[kind]).meta()
        assert meta == {"flow": kind, **self.CONSTANTS[kind]}
        constants = {k: v for k, v in meta.items() if k != "flow"}
        assert flows.build(kind, 2, rng, **constants).meta() == meta

    @pytest.mark.parametrize("kind", sorted(CONSTANTS))
    def test_defaults_fill_left_out_constants(self, kind, rng):
        meta = flows.build(kind, 2, rng).meta()
        assert meta.keys() == {"flow", *self.CONSTANTS[kind]}

    def test_unknown_kind_and_constant(self, rng):
        with pytest.raises(UnknownFlow):
            flows.build("score_sde", 2, rng)
        with pytest.raises(TypeError):
            flows.build("heat", 1, rng, kl_mean=20.0)
        with pytest.raises(flows.FixedConstant, match="time_max_freq"):
            flows.build("flow_matching", 2, rng, time_max_freq=1000.0)
