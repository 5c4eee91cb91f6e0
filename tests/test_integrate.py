import weakref

import numpy as np
import pytest

from oracles import fd_jacobian
from sclab.errors import StepTooCoarse, TrajectoryEscape
from sclab.integrate import bisect_event, halving_checked, rk4_step, rk4_trajectory


def five_row_rhs(t, z):
    """A column-wise nonlinear field on a (5, ...) state, polynomial only so
    each column's arithmetic is the same whether it runs alone or batched."""
    x, p, s, dx, dp = z
    return np.stack([p, -x - 0.1 * x ** 3 + t, 0.5 * p * p - 0.5 * x * x,
                     dp, -(1.0 + 0.3 * x * x) * dx])


class TestTrajectory:
    def test_batched_state_keeps_shape_and_matches_columns(self):
        rng = np.random.default_rng(3)
        z0 = rng.normal(size=(5, 7))
        times, states = rk4_trajectory(five_row_rhs, z0, 0.2, 1.1, 0.05)
        assert states.shape == (times.size, 5, 7)
        assert np.array_equal(states[0], z0)
        for j in range(z0.shape[1]):
            t_j, col = rk4_trajectory(five_row_rhs, z0[:, j], 0.2, 1.1, 0.05)
            assert np.array_equal(t_j, times)
            assert np.array_equal(col, states[:, :, j])

    def test_grid_covers_interval(self):
        times, states = rk4_trajectory(lambda t, z: -z, np.ones(2), 0.5, 1.25, 0.1)
        assert times.size == 9 and times[0] == 0.5
        assert times[-1] == pytest.approx(1.25, abs=1e-15)
        assert states[-1] == pytest.approx(np.exp(-0.75) * np.ones(2), abs=1e-6)

    def test_guard_covers_every_component(self):
        # the position stays at 0; only the momentum grows past the guard
        def rhs(t, z):
            return np.array([0.0, 1e14])

        with pytest.raises(TrajectoryEscape):
            rk4_trajectory(rhs, np.zeros(2), 0.0, 1.0, 0.1)

    def test_non_finite_state_escapes(self):
        with pytest.raises(TrajectoryEscape):
            rk4_trajectory(lambda t, z: np.full_like(z, np.nan), np.zeros(3), 0.0, 1.0, 0.5)


class TestRk4Step:
    def test_step_column_matches_row_by_row_steps(self):
        # an autonomous row-wise field, as in the exit-time stack: each row
        # steps with its own h and gets, bitwise, its own scalar step
        def rhs(_t, z):
            x, p = z[..., :1], z[..., 1:]
            return np.concatenate([p, -x - 0.1 * x ** 3], axis=-1)

        rng = np.random.default_rng(5)
        Z = rng.normal(size=(6, 2))
        h = rng.uniform(1e-3, 1e-1, size=(6, 1))
        batched = rk4_step(rhs, 0.0, Z, h)
        assert batched.shape == Z.shape
        for z, h_row, out in zip(Z, h[:, 0], batched):
            assert np.array_equal(rk4_step(rhs, 0.0, z, float(h_row)), out)


class TestBisectEvent:
    def test_brackets_at_once_match_each_alone(self):
        # cubic roots on brackets of mixed widths and signs; one with a root
        # at its left end, one whose midpoint is an exact root, one narrower
        # than tol
        roots = np.array([0.3, 1.0, -2.0, 0.75, 5.0])
        lo = np.array([0.0, 1.0, -3.0, 0.5, 5.0 - 1e-11])
        hi = np.array([1.0, 2.5, -1.7, 1.0, 5.0 + 1e-11])
        probes = []

        def f(t):
            probes.append(1)
            return (t - roots) ** 3

        together = bisect_event(f, lo, hi)
        calls = len(probes)
        for j in range(roots.size):
            probes.clear()
            alone = bisect_event(lambda t: (t - roots[j]) ** 3, lo[j], hi[j])
            assert isinstance(alone, float)
            assert together[j] == alone
        assert together[1] == 1.0 and together[3] == 0.75
        # one call of f per step of the slowest bracket, plus the two ends
        assert calls == 2 + int(np.ceil(np.log2(1.3 / 1e-10)))

    def test_no_sign_change_in_any_bracket_raises(self):
        with pytest.raises(ValueError):
            bisect_event(lambda t: t - np.array([0.5, 3.0]), np.zeros(2), np.ones(2))


class TestHalvingChecked:
    def test_returns_the_fine_run(self):
        def run(h):
            return rk4_trajectory(lambda t, z: -z, np.ones(1), 0.0, 1.0, h)

        times, states = halving_checked(run, 1e-2)
        assert times.size == 201
        assert np.array_equal(states, run(5e-3)[1])

    def test_coarse_step_raises(self):
        def run(h):
            return rk4_trajectory(lambda t, z: -4.0 * z, np.ones(1), 0.0, 2.0, h)

        with pytest.raises(StepTooCoarse):
            halving_checked(run, 0.25)

    def test_same_grid_raises(self):
        # a step past the whole interval gives one step at step and at
        # step/2: the two runs are one run, and their agreement shows nothing
        def run(h):
            return rk4_trajectory(lambda t, z: -z, np.ones(1), 0.0, 1.0, h)

        with pytest.raises(StepTooCoarse, match="same time grid"):
            halving_checked(run, 10.0)

    def test_coarse_trajectory_freed_before_the_fine_run(self):
        # only the coarse endpoint is compared, so the coarse states are
        # dead by the time run(step/2) starts
        coarse = []

        def run(h):
            if coarse:
                assert coarse[0]() is None
            times, states = rk4_trajectory(lambda t, z: -z, np.ones(3), 0.0, 1.0, h)
            coarse.append(weakref.ref(states))
            return times, states

        halving_checked(run, 1e-2)
        assert len(coarse) == 2


class TestFdJacobian:
    def test_scalar_function_gives_gradient(self):
        x = np.array([0.3, -1.2, 2.0])
        grad = fd_jacobian(lambda y: float(np.sum(y ** 3)), x)
        assert grad == pytest.approx(3 * x ** 2, rel=1e-8)

    def test_batch_rows_match_single_points(self):
        # a (m, d) batch is perturbed row by row at once, as for one point
        def f(y):
            return y[..., 0] ** 3 - 2.0 * y[..., 0] * y[..., 1]

        X = np.random.default_rng(1).normal(size=(6, 2))
        batched = fd_jacobian(f, X)
        assert batched.shape == (6, 2)
        for i in range(6):
            assert np.array_equal(batched[i], fd_jacobian(f, X[i]))
