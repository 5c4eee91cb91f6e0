import numpy as np
import pytest

from sclab.dynamics import HamiltonianSpec
from sclab.errors import (DegenerateDirection, TargetOffCurve, TrajectoryEscape,
                          WedgeDegenerate)
from sclab.geometry import ChartSpace, PhasePoint, PotentialField, make_potential
from sclab.steering import (execute_plan, full_rank_steer, geodesic_burst,
                            gradient_curve_steer, impulse_steer)


def spec_1d(V="harmonic", W="linear", **wkw):
    space = ChartSpace(dimension=1)
    return HamiltonianSpec(space=space, V=make_potential(V, 1),
                           W=make_potential(W, 1, **wkw))


def loglog_slope(eps, errs):
    eps, errs = np.asarray(eps), np.asarray(errs)
    keep = errs > 0
    return np.polyfit(np.log(eps[keep]), np.log(errs[keep]), 1)[0]


class TestImpulse:
    def test_zero_strength_returns_start(self):
        spec = spec_1d()
        lam0 = PhasePoint(np.array([0.3]), np.array([-0.2]))
        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            plan = execute_plan(spec, lam0, impulse_steer(spec, lam0, 0.0, eps))
            assert np.array_equal(plan.predicted_endpoint.x, lam0.x)
            assert np.array_equal(plan.predicted_endpoint.p, lam0.p)
            errs.append(plan.achieved_error)
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-3

    def test_linear_w_momentum_shift(self):
        # predicted endpoint (x0, p0 + 1); realized within 0.01 at eps=1e-3
        spec = spec_1d()
        lam0 = PhasePoint(np.array([0.4]), np.array([0.7]))
        plan = impulse_steer(spec, lam0, 1.0, 1e-3)
        assert np.allclose(plan.predicted_endpoint.p, [1.7])
        plan = execute_plan(spec, lam0, plan)
        assert plan.achieved_error < 0.01

    def test_quadratic_w_shift_scales_with_dw(self):
        # W = x²/2 at x0=2 has dW = 2 dx, so k=1 shifts momentum by +2
        spec = spec_1d(W="harmonic")
        lam0 = PhasePoint(np.array([2.0]), np.array([0.0]))
        plan = impulse_steer(spec, lam0, 1.0, 1e-4)
        assert np.allclose(plan.predicted_endpoint.p, [2.0])
        plan = execute_plan(spec, lam0, plan)
        assert plan.achieved_error < 0.01

    def test_convergence_order(self):
        spec = spec_1d()
        lam0 = PhasePoint(np.array([0.0]), np.array([0.0]))
        sweep = [1e-1, 1e-2, 1e-3, 1e-4]
        errs = [execute_plan(spec, lam0, impulse_steer(spec, lam0, 1.0, e)).achieved_error
                for e in sweep]
        assert loglog_slope(sweep, errs) >= 0.9

    def test_duration_bound(self):
        spec = spec_1d()
        lam0 = PhasePoint(np.array([0.0]), np.array([0.0]))
        for eps in (0.1, 1e-3):
            assert impulse_steer(spec, lam0, 2.0, eps).total_duration <= 2 * eps + 1e-15


class TestBurst:
    def test_zero_strength_projection(self):
        spec = spec_1d()
        lam0 = PhasePoint(np.array([0.5]), np.array([0.3]))
        plan = execute_plan(spec, lam0, geodesic_burst(spec, lam0, 0.0, 1e-3))
        assert abs(plan.realized_endpoint.x[0] - 0.5) < 1e-2

    def test_target_is_free_flight_point(self):
        # the limit target is x0 + k·dW(x0), at the boosted momentum k·dW(x0)/ε
        spec = spec_1d(W="harmonic")
        lam0 = PhasePoint(np.array([0.5]), np.array([0.3]))
        plan = geodesic_burst(spec, lam0, 2.0, 1e-2)
        assert np.array_equal(plan.predicted_endpoint.x, [1.5])
        assert np.array_equal(plan.predicted_endpoint.p, [1.0 / 1e-2])

    def test_flat_plane_unit_step(self):
        space = ChartSpace(dimension=2)
        spec = HamiltonianSpec(space=space, V=make_potential("zero", 2),
                               W=make_potential("linear", 2, slope=[1.0, 0.0]))
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        errs = []
        for eps in (1e-2, 1e-3):
            plan = execute_plan(spec, lam0, geodesic_burst(spec, lam0, 1.0, eps))
            errs.append(np.linalg.norm(plan.realized_endpoint.x - np.array([1.0, 0.0])))
        assert errs[-1] < 1e-2
        assert errs[-1] < errs[0]

    def test_linear_w_reaches_geodesic_point(self):
        # V = x²/2, W = x, k = 2: projection converges to x = 2
        spec = spec_1d()
        lam0 = PhasePoint(np.array([0.0]), np.array([0.0]))
        sweep = [1e-1, 1e-2, 1e-3, 1e-4]
        errs = [abs(execute_plan(spec, lam0, geodesic_burst(spec, lam0, 2.0, e))
                    .realized_endpoint.x[0] - 2.0) for e in sweep]
        assert errs[-1] < 1e-2
        assert loglog_slope(sweep, errs) >= 0.9

    def test_potential_dependence_vanishes(self):
        # endpoint difference between V = x²/2 and V = 0 decays with eps
        lam0 = PhasePoint(np.array([0.0]), np.array([0.0]))
        spec_v = spec_1d()
        spec_0 = spec_1d(V="zero")
        sweep = [1e-1, 1e-2, 1e-3]
        diffs = []
        for e in sweep:
            xv = execute_plan(spec_v, lam0, geodesic_burst(spec_v, lam0, 2.0, e))
            x0 = execute_plan(spec_0, lam0, geodesic_burst(spec_0, lam0, 2.0, e))
            diffs.append(abs(xv.realized_endpoint.x[0] - x0.realized_endpoint.x[0]))
        assert diffs[-1] < diffs[0]
        assert loglog_slope(sweep, diffs) >= 0.9

    def test_degenerate_direction(self):
        spec = spec_1d(W="harmonic")  # dW(0) = 0
        with pytest.raises(DegenerateDirection):
            geodesic_burst(spec, PhasePoint(np.array([0.0]), np.array([0.0])), 1.0, 1e-2)

    def test_duration_bound(self):
        spec = spec_1d()
        lam0 = PhasePoint(np.array([0.0]), np.array([0.0]))
        for eps in (0.1, 1e-2):
            assert geodesic_burst(spec, lam0, 1.0, eps).total_duration <= 2 * eps + 1e-15


class TestGradientCurve:
    def test_linear_w_far_target(self):
        spec = spec_1d(V="zero")
        lam0 = PhasePoint(np.array([0.0]), np.array([0.0]))
        plan = gradient_curve_steer(spec, lam0, [5.0], tol=1e-2, eps=1e-3)
        assert abs(plan.realized_endpoint.x[0] - 5.0) < 1e-2

    def test_quadratic_w_forward_flow(self):
        # gradient flow of W = x²/2 through 1 covers (0, ∞): 3 is reachable
        spec = spec_1d(V="zero", W="harmonic")
        lam0 = PhasePoint(np.array([1.0]), np.array([0.0]))
        plan = gradient_curve_steer(spec, lam0, [3.0], tol=5e-2, eps=1e-2)
        assert abs(plan.realized_endpoint.x[0] - 3.0) < 5e-2

    def test_off_curve_target(self):
        spec = spec_1d(V="zero", W="harmonic")
        lam0 = PhasePoint(np.array([1.0]), np.array([0.0]))
        with pytest.raises(TargetOffCurve):
            gradient_curve_steer(spec, lam0, [-1.0], tol=1e-2, eps=1e-2)

    def test_non_finite_flow_escapes(self):
        # W′ = √(1 − x): the flow from 0 reaches x = 1 at t = 2, where RK4
        # steps past it into NaN, which must stop the march there rather
        # than run on to a TargetOffCurve
        root = PotentialField(value=lambda x: -(2.0 / 3.0) * (1.0 - x[..., 0]) ** 1.5,
                              gradient=lambda x: np.sqrt(1.0 - x))
        spec = HamiltonianSpec(space=ChartSpace(dimension=1),
                               V=make_potential("zero", 1), W=root)
        lam0 = PhasePoint(np.array([0.0]), np.array([0.0]))
        with np.errstate(invalid="ignore"), pytest.raises(TrajectoryEscape) as escape:
            gradient_curve_steer(spec, lam0, [5.0], tol=1e-2, eps=1e-2)
        assert float(str(escape.value).rpartition("t=")[2]) == pytest.approx(2.0, abs=1e-2)

    def test_degenerate_start(self):
        spec = spec_1d(V="zero", W="harmonic")
        with pytest.raises(DegenerateDirection):
            gradient_curve_steer(spec, PhasePoint(np.array([0.0]), np.array([0.0])),
                                 [1.0], tol=1e-2, eps=1e-2)


class TestFullRank:
    def plane_spec(self):
        space = ChartSpace(dimension=2)
        return HamiltonianSpec(
            space=space, V=make_potential("zero", 2),
            W=[make_potential("linear", 2, slope=[1.0, 0.0]),
               make_potential("linear", 2, slope=[0.0, 1.0])])

    def test_flat_plane_random_target(self):
        spec = self.plane_spec()
        rng = np.random.default_rng(11)
        lam0 = PhasePoint(rng.normal(size=2), rng.normal(size=2))
        lam1 = PhasePoint(rng.normal(size=2), rng.normal(size=2))
        plan = full_rank_steer(spec, lam0, lam1, eps=1e-3)
        assert plan.achieved_error < 1e-2
        assert plan.total_duration < 0.01

    def test_error_decreases_with_eps(self):
        spec = self.plane_spec()
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        lam1 = PhasePoint(np.array([1.0, -0.5]), np.array([0.3, 0.8]))
        errs = [full_rank_steer(spec, lam0, lam1, eps=e).achieved_error
                for e in (1e-1, 1e-2, 1e-3)]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-2

    def test_control_row_bursts_along_the_sum(self):
        # a row k on n controls bursts along k·dW = Σ k_a dW_a, and the kick
        # carries the row itself
        spec = self.plane_spec()
        lam0 = PhasePoint(np.array([0.2, -0.1]), np.zeros(2))
        plan = geodesic_burst(spec, lam0, [0.5, -2.0], 1e-2)
        assert np.array_equal(plan.predicted_endpoint.x, [0.7, -2.1])
        assert plan.segments[0][0].values.tolist() == [pytest.approx([-5e5, 2e6])]
        with pytest.raises(ValueError):
            impulse_steer(spec, lam0, 1.0, 1e-2)  # one value for two controls

    def test_momentum_only_target(self):
        # x1 = x0 makes the burst row zero: no kick, then the final impulse
        spec = self.plane_spec()
        lam0 = PhasePoint(np.array([0.3, 0.4]), np.zeros(2))
        lam1 = PhasePoint(lam0.x, np.array([1.0, -1.0]))
        plan = full_rank_steer(spec, lam0, lam1, eps=1e-2)
        assert plan.achieved_error < 1e-2

    def test_repeated_potential_degenerate(self):
        space = ChartSpace(dimension=2)
        w = make_potential("linear", 2, slope=[1.0, 0.0])
        spec = HamiltonianSpec(space=space, V=make_potential("zero", 2), W=[w, w])
        with pytest.raises(WedgeDegenerate):
            full_rank_steer(spec, PhasePoint(np.zeros(2), np.zeros(2)),
                            PhasePoint(np.ones(2), np.zeros(2)), eps=1e-2)

    def test_one_dimensional_target(self):
        spec = spec_1d(V="zero")
        lam0 = PhasePoint(np.array([0.0]), np.array([0.0]))
        lam1 = PhasePoint(np.array([2.0]), np.array([3.0]))
        plan = full_rank_steer(spec, lam0, lam1, eps=1e-3)
        assert plan.achieved_error < 1e-2
