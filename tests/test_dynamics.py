import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import controlled_field, flow_jacobian, hamiltonian
from sclab.dynamics import (ControlSignal, HamiltonianSpec, controlled_rhs, evolve,
                            sample_controls)
from sclab.errors import StepTooCoarse, TrajectoryEscape
from sclab.geometry import ChartSpace, PhasePoint, make_potential, pullback
from sclab.integrate import ESCAPE_GUARD, check_escape, hermite_state, rk4_step
from sclab.config import parse_config
from sclab.harness import _exit_time_spec


def harmonic_linear_spec():
    space = ChartSpace(dimension=1)
    return HamiltonianSpec(space=space,
                           V=make_potential("harmonic", 1, k=1.0),
                           W=make_potential("linear", 1, slope=1.0))


def free_spec(dim=1):
    space = ChartSpace(dimension=dim)
    return HamiltonianSpec(space=space, V=make_potential("zero", dim),
                           W=make_potential("zero", dim))


class TestHamiltonian:
    def test_rest_state(self):
        spec = harmonic_linear_spec()
        lam = PhasePoint(np.array([0.0]), np.array([0.0]))
        assert hamiltonian(spec, lam, 5.0) == pytest.approx(0.0)

    def test_unit_energy(self):
        spec = harmonic_linear_spec()
        lam = PhasePoint(np.array([1.0]), np.array([1.0]))
        # ½p² + x²/2 = ½ + ½
        assert hamiltonian(spec, lam, 0.0) == pytest.approx(1.0)

    def test_with_control(self):
        spec = harmonic_linear_spec()
        lam = PhasePoint(np.array([1.0]), np.array([0.0]))
        # ½·0 + ½ + 2·1
        assert hamiltonian(spec, lam, 2.0) == pytest.approx(2.5)


class TestEvolve:
    def test_harmonic_half_period(self):
        spec = harmonic_linear_spec()
        u = ControlSignal.constant(0.0, np.pi)
        traj = evolve(spec, PhasePoint(np.array([1.0]), np.array([0.0])), u, 1e-3)
        end = traj.endpoint
        assert abs(end.x[0] + 1.0) < 1e-6
        assert abs(end.p[0]) < 1e-6

    def test_free_particle_exact(self):
        spec = free_spec()
        u = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([3.0, -7.0]))
        traj = evolve(spec, PhasePoint(np.array([0.5]), np.array([2.0])), u, 1e-2)
        assert traj.endpoint.x[0] == pytest.approx(0.5 + 2.0 * 1.0, abs=1e-10)

    def test_constant_force_closed_form(self):
        # V=0, W=x, u≡−1 on [0,1]: ṗ=+1 ⇒ p=t, x=t²/2
        space = ChartSpace(dimension=1)
        spec = HamiltonianSpec(space=space, V=make_potential("zero", 1),
                               W=make_potential("linear", 1, slope=1.0))
        u = ControlSignal.constant(-1.0, 1.0)
        traj = evolve(spec, PhasePoint(np.array([0.0]), np.array([0.0])), u, 1e-3)
        assert traj.endpoint.x[0] == pytest.approx(0.5, abs=1e-9)
        assert traj.endpoint.p[0] == pytest.approx(1.0, abs=1e-9)

    def test_energy_conserved_per_subinterval(self):
        spec = harmonic_linear_spec()
        u = ControlSignal(np.array([0.0, 0.7, 1.5]), np.array([2.0, -1.0]))
        lam0 = PhasePoint(np.array([0.4]), np.array([-0.3]))
        traj = evolve(spec, lam0, u, 1e-3)
        for a, b, uval in zip(u.breakpoints[:-1], u.breakpoints[1:], u.values):
            idx = np.where((traj.times >= a - 1e-12) & (traj.times <= b + 1e-12))[0]
            energies = [hamiltonian(spec, traj.state(i), uval) for i in idx]
            e0 = energies[0]
            drift = max(abs(e - e0) for e in energies)
            assert drift <= 1e-7 * max(1.0, abs(e0))

    def test_composition(self):
        spec = harmonic_linear_spec()
        lam0 = PhasePoint(np.array([0.2]), np.array([1.0]))
        u_full = ControlSignal.constant(1.5, 1.0)
        full = evolve(spec, lam0, u_full, 1e-3).endpoint
        half1 = evolve(spec, lam0, ControlSignal.constant(1.5, 0.5), 1e-3).endpoint
        half2 = evolve(spec, half1, ControlSignal.constant(1.5, 0.5), 1e-3).endpoint
        assert np.max(np.abs(half2.as_state() - full.as_state())) < 1e-7

    def test_escape_guard(self):
        # strong repulsive quadratic control blows up in finite time
        space = ChartSpace(dimension=1)
        spec = HamiltonianSpec(space=space, V=make_potential("zero", 1),
                               W=make_potential("harmonic", 1, k=1.0))
        u = ControlSignal.constant(-80.0, 8.0)
        with pytest.raises(TrajectoryEscape):
            evolve(spec, PhasePoint(np.array([1.0]), np.array([0.0])), u, 1e-3)

    def test_coarse_step_rejected(self):
        spec = harmonic_linear_spec()
        u = ControlSignal(np.array([0.0, 0.7, 2.0]), np.array([1.0, -3.0]))
        with pytest.raises(StepTooCoarse):
            evolve(spec, PhasePoint(np.array([1.0]), np.array([0.0])), u, 0.5)

class TestFlowJacobian:
    """The flow map's derivative, by central differences of evolve endpoints."""

    def test_harmonic_rotation(self):
        spec = harmonic_linear_spec()
        T = 0.8
        J = flow_jacobian(spec, PhasePoint(np.array([0.0]), np.array([0.0])),
                          ControlSignal.constant(0.0, T))
        expect = np.array([[np.cos(T), np.sin(T)], [-np.sin(T), np.cos(T)]])
        assert np.max(np.abs(J - expect)) < 1e-6

    def test_free_particle_shear(self):
        spec = free_spec()
        T = 1.7
        J = flow_jacobian(spec, PhasePoint(np.array([0.2]), np.array([-0.4])),
                          ControlSignal.constant(0.0, T), step=1e-2)
        assert np.max(np.abs(J - np.array([[1.0, T], [0.0, 1.0]]))) < 1e-8

    def test_symplectic_determinant_sweep(self):
        rng = np.random.default_rng(7)
        spec = harmonic_linear_spec()
        for _ in range(5):
            lam0 = PhasePoint(rng.normal(size=1), rng.normal(size=1))
            u = sample_controls(rng, 1, duration=float(rng.uniform(0.3, 1.2)),
                                amplitude=2.0, max_breakpoints=4)[0]
            J = flow_jacobian(spec, lam0, u)
            assert abs(np.linalg.det(J) - 1.0) < 1e-6


class TestControlSignal:
    def test_value_and_integral(self):
        u = ControlSignal(np.array([0.0, 1.0, 3.0]), np.array([2.0, -1.0]))
        assert u.value_at(0.5) == 2.0
        assert u.value_at(1.0) == -1.0
        assert u.value_at(3.0) == -1.0
        # ∫₀ᵗu in closed form: 2t on [0, 1], then 2 − (t − 1)
        assert u.integral(2.0) == 2.0 - 1.0
        assert u.integral(3.0) == 0.0
        assert list(u.integral(np.array([0.0, 0.5, 4.0]))) == [0.0, 1.0, 0.0]

    def test_window_keeps_segments_a_midpoint_would_skip(self):
        # the middle segment is one ulp long, so its midpoint rounds onto
        # the next breakpoint; the window reads each piece at its start
        u = ControlSignal(np.array([0.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51, 2.0]),
                          np.array([1.0, 2.0, 3.0]))
        w = u.window(0.0, 2.0)
        assert np.array_equal(w.breakpoints, u.breakpoints)
        assert list(w.values) == [1.0, 2.0, 3.0]
        w = u.window(0.5, 2.0)
        assert list(w.breakpoints) == [0.0, 0.5 + 2.0 ** -52, 0.5 + 2.0 ** -51, 1.5]
        assert list(w.values) == [1.0, 2.0, 3.0]

    def test_invalid_breakpoints(self):
        with pytest.raises(ValueError):
            ControlSignal(np.array([0.0, 0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            ControlSignal(np.array([0.5, 1.0]), np.array([1.0]))

    def test_sampler_determinism(self):
        a = sample_controls(3, 5, duration=1.0, amplitude=2.0)
        b = sample_controls(3, 5, duration=1.0, amplitude=2.0)
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.breakpoints, ub.breakpoints)
            assert np.array_equal(ua.values, ub.values)

    def test_sampler_bounds(self):
        for u in sample_controls(0, 20, duration=2.0, amplitude=5.0,
                                 scheme="lhs", include_extremes=True):
            assert u.duration == pytest.approx(2.0)
            assert np.max(np.abs(u.values)) <= 5.0 + 1e-12


finite = st.floats(-10.0, 10.0)


class TestHermiteState:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite, min_size=4, max_size=4), finite, st.floats(1e-3, 2.0),
           st.floats(0.0, 1.0))
    def test_reproduces_cubics(self, coeffs, t0, h, s):
        c0, c1, c2, c3 = coeffs

        def z(t):
            return c0 + c1 * t + c2 * t ** 2 + c3 * t ** 3

        def dz(t):
            return c1 + 2 * c2 * t + 3 * c3 * t ** 2

        t1 = t0 + h
        got = hermite_state(z(t0), z(t1), dz(t0), dz(t1), h, s)
        scale = 1.0 + sum(abs(c) for c in coeffs) * (1.0 + abs(t0) + h) ** 3
        assert got == pytest.approx(z(t0 + s * h), abs=1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite, min_size=4, max_size=4), st.floats(1e-3, 2.0))
    def test_endpoints_exact(self, vals, h):
        z0, z1, f0, f1 = (np.array([v, -v]) for v in vals)
        assert np.array_equal(hermite_state(z0, z1, f0, f1, h, 0.0), z0)
        assert np.array_equal(hermite_state(z0, z1, f0, f1, h, 1.0), z1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite, min_size=4, max_size=4), st.floats(1e-3, 2.0),
           st.floats(0.0, 1.0))
    # (1 - s) ** 2 of this scalar s, by C pow, is not (1 - s) * (1 - s)
    @example([1.0, 0.0, 0.0, 0.0], 1.0, 0.18271225766227794)
    def test_scalar_fraction_gives_the_bits_of_an_array(self, vals, h, s):
        z0, z1, f0, f1 = vals
        one = hermite_state(z0, z1, f0, f1, h, np.float64(s))
        batch = hermite_state(z0, z1, f0, f1, h, np.array([s]))
        assert np.array_equal(np.atleast_1d(one), batch)


def plain_fields(dim):
    """A few vectorized registry potentials on a dim-axis chart, with shared
    and (on a plane) per-axis coefficients, among them the ones whose
    gradient folds: cosine with freq 1 and phase 0, harmonic with center 0."""
    return [
        make_potential("harmonic", dim, k=[1.0, 2.5][:dim], center=0.3),
        make_potential("harmonic", dim, k=2.0, center=0.0),
        make_potential("harmonic", dim, k=[1.5, -3.0][:dim], center=[0.0, 0.0][:dim]),
        make_potential("linear", dim, slope=[1.0, -0.5][:dim], offset=0.2),
        make_potential("cosine", dim, amplitude=[0.0, 1.0][-dim:], freq=1.7, phase=0.4),
        make_potential("cosine", dim, amplitude=1.3, freq=1.0, phase=0.0),
        make_potential("cosine", dim, amplitude=[-0.8, 1.1][:dim], freq=[1.0, 2.0][:dim],
                       phase=[0.0, -0.6][:dim]),
        make_potential("gaussian", dim, amplitude=2.0, center=-0.2, width=0.7),
    ]


def registry_fields(dim):
    """The plain fields of a dim-axis chart, and 1-D ones pulled back onto
    any of its axes, whose control term reaches one force column."""
    return st.one_of(st.sampled_from(plain_fields(dim)),
                     st.builds(pullback, st.sampled_from(plain_fields(1)),
                               st.integers(0, dim - 1)))


@st.composite
def flat_stacks(draw):
    """A flat spec with 1-2 controls, and a control table (some columns
    all zero) with a state stack of 1-8 rows."""
    dim = draw(st.sampled_from([1, 2]))
    fields = registry_fields(dim)
    W = draw(st.lists(fields, min_size=1, max_size=2))
    spec = HamiltonianSpec(space=ChartSpace(dimension=dim), V=draw(fields), W=W)
    m = draw(st.integers(1, 8))
    U = np.reshape(draw(st.lists(finite, min_size=m * len(W), max_size=m * len(W))),
                   (m, len(W)))
    U[:, draw(st.lists(st.booleans(), min_size=len(W), max_size=len(W)))] = 0.0
    Z = np.reshape(draw(st.lists(finite, min_size=2 * m * dim, max_size=2 * m * dim)),
                   (m, 2 * dim))
    return spec, U, Z


class TestControlledRhs:
    def two_control_spec(self):
        # W₁ = x, W₂ = 5x: a value row (1, 1) pushes with force −6
        return HamiltonianSpec(space=ChartSpace(dimension=1), V=make_potential("zero", 1),
                               W=[make_potential("linear", 1, slope=1.0),
                                  make_potential("linear", 1, slope=5.0)])

    def test_value_row_of_wrong_length_rejected(self):
        spec = self.two_control_spec()
        lam = PhasePoint(np.array([1.0]), np.array([0.0]))
        assert controlled_rhs(spec, [1.0, 1.0])(0.0, lam.as_state())[1] == -6.0
        assert hamiltonian(spec, lam, [1.0, 1.0]) == 6.0
        for u in (2.0, [1.0, 1.0, 7.0], [[1.0, 1.0, 7.0]]):
            with pytest.raises(ValueError):
                controlled_rhs(spec, u)
            with pytest.raises(ValueError):
                hamiltonian(spec, lam, u)
        with pytest.raises(ValueError):
            hamiltonian(spec, lam, [[1.0, 1.0]])

    def test_one_control_scalar_gives_single_state_field(self):
        out = controlled_rhs(harmonic_linear_spec(), 1.0)(0.0, np.array([0.3, -0.2]))
        assert out.shape == (2,)
        assert np.array_equal(out, [-0.2, -(0.3 + 1.0)])

    @settings(max_examples=80, deadline=None)
    @given(flat_stacks())
    def test_stack_rows_equal_single_states(self, case):
        spec, U, Z = case
        stacked = controlled_rhs(spec, U)(0.0, Z)
        assert stacked.shape == Z.shape
        for j in range(Z.shape[0]):
            assert np.array_equal(stacked[j], controlled_rhs(spec, U[j])(0.0, Z[j]))


def same_bits(a, b) -> bool:
    """Equal bit for bit, up to the sign of an exact zero (x + 0.0 maps −0
    to +0 and leaves every other float as it is)."""
    a, b = np.asarray(a) + 0.0, np.asarray(b) + 0.0
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestFieldOracle:
    """The in-place field against −(∇V + Σ u_a∇W_a) formed the plain way."""

    @settings(max_examples=80, deadline=None)
    @given(flat_stacks(), st.sampled_from(["C", "F"]))
    def test_stack_and_single_states(self, case, order):
        spec, U, Z = case
        Z = np.asarray(Z, order=order)
        assert same_bits(controlled_rhs(spec, U)(0.0, Z), controlled_field(spec, U, Z))
        for j in range(len(Z)):
            assert same_bits(controlled_rhs(spec, U[j])(0.0, Z[j]),
                             controlled_field(spec, U[j], Z[j]))

    @pytest.mark.parametrize("w_on_base", [False, True], ids=["false", "true"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_exit_time_spec(self, w_on_base, order):
        # the exit demo's grad_V fills one array; W is its pullback on y, or
        # W = x on the base
        spec = _exit_time_spec(parse_config("experiment = exit-time\n"))
        if w_on_base:
            spec = dataclasses.replace(spec, W=make_potential("linear", 2, slope=[1.0, 0.0]))
        rng = np.random.default_rng(7)
        U = rng.uniform(-50.0, 50.0, (9, 1))
        U[4] = 0.0
        Z = np.asarray(rng.normal(size=(9, 4)), order=order)
        assert same_bits(controlled_rhs(spec, U)(0.0, Z), controlled_field(spec, U, Z))
        assert same_bits(controlled_rhs(spec, U[0])(0.0, Z[0]),
                         controlled_field(spec, U[0], Z[0]))


class TestStackLayout:
    """A stack steps to the same bits whatever its memory order."""

    @settings(max_examples=80, deadline=None)
    @given(flat_stacks(), st.data())
    def test_step_independent_of_memory_order(self, case, data):
        spec, U, Z = case
        h = np.reshape(data.draw(st.lists(st.floats(1e-4, 0.5), min_size=len(Z),
                                          max_size=len(Z))), (-1, 1))
        rhs = controlled_rhs(spec, U)
        Z_c, Z_f = np.ascontiguousarray(Z), np.asfortranarray(Z)
        assert rhs(0.0, Z_f).flags.f_contiguous
        assert rhs(0.0, Z_c).flags.c_contiguous
        step_c, step_f = rk4_step(rhs, 0.0, Z_c, h), rk4_step(rhs, 0.0, Z_f, h)
        assert step_f.flags.f_contiguous
        assert np.array_equal(step_c, step_f)
        for j in range(len(Z)):
            alone = rk4_step(controlled_rhs(spec, U[j]), 0.0, Z[j], float(h[j, 0]))
            assert np.array_equal(step_c[j], alone)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0001 * ESCAPE_GUARD,
                                     -1.0001 * ESCAPE_GUARD])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_escape_seen_in_any_row(self, bad, order):
        Z = np.asarray(np.random.default_rng(0).normal(size=(5, 4)), order=order)
        Z[3, 2] = ESCAPE_GUARD
        check_escape(Z, np.zeros((5, 1)))  # the guard itself is inside
        Z[1, 3] = bad
        with pytest.raises(TrajectoryEscape):
            check_escape(Z, np.zeros((5, 1)))
