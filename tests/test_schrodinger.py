import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plane_wave, region_probability
from sclab.dynamics import ControlSignal
from sclab.errors import GridMismatch, GridTooCoarse
from sclab.geometry import BoxRegion, make_potential
from sclab.schrodinger import (SpatialGrid, WaveGrid, WaveStack, gaussian_packet,
                               l2_distance, split_step_evolve, top_mode_mass)
from sclab.spectral import hermite_polynomial_values


def torus(n=256, L=2 * np.pi, start=None):
    start = -L / 2 if start is None else start
    return SpatialGrid(((start, L, n),))


class TestSplitStep:
    def test_plane_wave_phase_exact(self):
        grid = torus()
        psi0 = plane_wave(grid, mode=3)
        T = 0.7
        psi = split_step_evolve(psi0, None, None, ControlSignal.constant(0.0, T), T,
                                dt=1e-2)
        k = 2 * np.pi * 3 / (2 * np.pi)
        expected = psi0.values * np.exp(-0.5j * k ** 2 * T)
        assert np.max(np.abs(psi.values - expected)) < 1e-10

    def test_unitarity_many_steps(self):
        grid = torus(128)
        psi0 = gaussian_packet(grid, 0.0, 0.35, momentum=2.0)
        u = ControlSignal.constant(1.3, 1.0)
        psi = split_step_evolve(psi0, make_potential("cosine", 1),
                                make_potential("cosine", 1, freq=2.0), u, 1.0,
                                dt=1e-4)
        assert abs(psi.norm() - psi0.norm()) < 1e-10

    def test_second_order_in_dt(self):
        grid = torus(128)
        psi0 = gaussian_packet(grid, 0.0, 0.35)
        V = make_potential("cosine", 1)
        u = ControlSignal.constant(0.0, 0.5)
        ref = split_step_evolve(psi0, V, None, u, 0.5, dt=1e-4 / 4)
        errs = [l2_distance(split_step_evolve(psi0, V, None, u, 0.5, dt=dt), ref)
                for dt in (4e-3, 2e-3, 1e-3)]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.3 < r1 < 4.7
        assert 3.3 < r2 < 4.7

    def test_constant_w_is_global_phase(self):
        grid = torus(128)
        psi0 = gaussian_packet(grid, 0.3, 0.3)
        V = make_potential("cosine", 1)
        W = make_potential("linear", 1, slope=0.0, offset=1.0)  # W ≡ 1
        u = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([2.5, -1.0]))
        with_w = split_step_evolve(psi0, V, W, u, 1.0, dt=1e-3)
        without = split_step_evolve(psi0, V, None, u, 1.0, dt=1e-3)
        phase = np.exp(-1j * (2.5 * 0.4 - 1.0 * 0.6))  # e^{-i∫u}, W ≡ 1
        assert np.max(np.abs(with_w.values - phase * without.values)) < 1e-10

    def test_harmonic_revival_against_hermite_oracle(self):
        # V = x²/2 on a wide box: eigenvalues n + ½, full revival at T = 2π
        # (global phase −1); the oracle expands ψ0 in oscillator eigenstates.
        grid = SpatialGrid(((-8.0, 16.0, 512),))
        psi0 = gaussian_packet(grid, 1.0, 1.0 / np.sqrt(2.0))
        V = make_potential("harmonic", 1, k=1.0)
        T = 2 * np.pi
        psi = split_step_evolve(psi0, V, None, ControlSignal.constant(0.0, T), T,
                                dt=2e-3)
        assert l2_distance(psi, WaveGrid(grid, -psi0.values)) < 1e-3

        x = grid.points(0)
        phi = hermite_polynomial_values(48, x) * np.exp(-0.5 * x * x)
        dx = grid.cell_volume
        coeff = phi @ psi0.values * dx
        t_mid = 1.1
        oracle_vals = (coeff * np.exp(-1j * (np.arange(48) + 0.5) * t_mid)) @ phi
        mid = split_step_evolve(psi0, V, None, ControlSignal.constant(0.0, T), t_mid,
                                dt=2e-3)
        assert l2_distance(mid, WaveGrid(grid, oracle_vals)) < 1e-3

    def test_grid_too_coarse_guard(self):
        grid = torus(32)
        vals = np.exp(1j * 15 * grid.points(0))  # mode within the top decile
        psi0 = WaveGrid(grid, vals / np.sqrt(2 * np.pi))
        with pytest.raises(GridTooCoarse):
            split_step_evolve(psi0, None, None, ControlSignal.constant(0.0, 0.1), 0.1,
                              dt=1e-2)


HORIZON = 0.06


@st.composite
def controls(draw):
    """A piecewise-constant scalar control on [0, HORIZON]."""
    cuts = draw(st.lists(st.floats(1e-3, HORIZON - 1e-3), max_size=4, unique=True))
    bp = np.concatenate([[0.0], np.sort(cuts), [HORIZON]])
    if np.min(np.diff(bp)) < 1e-4:
        bp = np.array([0.0, HORIZON])
    vals = draw(st.lists(st.floats(-30.0, 30.0), min_size=bp.size - 1,
                         max_size=bp.size - 1))
    return ControlSignal(bp, np.array(vals))


@st.composite
def stack_case(draw):
    """Grid, potentials, members, controls and a window [t0, t1] ⊂ [0, HORIZON]."""
    dim = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 4))
    if dim == 1:
        grid = torus(64)
        V, W = make_potential("cosine", 1), make_potential("cosine", 1, freq=2.0)
    else:
        grid = SpatialGrid(((-np.pi, 2 * np.pi, 24), (-np.pi, 2 * np.pi, 24)))
        V = make_potential("cosine", 2, amplitude=[1.0, 0.5])
        W = make_potential("cosine", 2, amplitude=[0.0, 1.0])
    members = [gaussian_packet(grid, draw(st.lists(st.floats(-0.5, 0.5), min_size=dim,
                                                   max_size=dim)),
                               0.5, momentum=draw(st.lists(st.floats(-2.0, 2.0),
                                                           min_size=dim, max_size=dim)))
               for _ in range(m)]
    laws = [draw(controls()) for _ in range(m)]
    t0, t1 = sorted(draw(st.lists(st.floats(0.0, HORIZON), min_size=2, max_size=2)))
    if t1 - t0 < 1e-4:
        t0, t1 = 0.0, HORIZON
    dt = draw(st.sampled_from([1e-3, 2.7e-3, 6e-3]))
    return grid, V, W, members, laws, t0, t1, dt


class TestBatchedEvolution:
    @settings(max_examples=40)
    @given(stack_case())
    def test_rows_match_single_state_windows(self, case):
        # each row equals the m = 1 evolution of that member under its own
        # control cut to the window, with breakpoints inside and outside it
        grid, V, W, members, laws, t0, t1, dt = case
        stack = WaveStack(grid, [p.values for p in members])
        split_step_evolve(stack, V, W, laws, t1, dt, t0=t0)
        for j, (psi0, u) in enumerate(zip(members, laws)):
            seg = u.window(t0, t1)
            single = split_step_evolve(psi0, V, W, seg, seg.duration, dt=dt)
            assert np.max(np.abs(stack.values[j] - single.values)) < 1e-13
            assert abs(stack.member(j).norm() - psi0.norm()) < 1e-12

    def test_members_with_different_step_counts(self):
        grid = torus(64)
        V, W = make_potential("cosine", 1), make_potential("cosine", 1, freq=2.0)
        psi0 = gaussian_packet(grid, 0.1, 0.4)
        laws = [ControlSignal.constant(3.0, 0.1),
                ControlSignal(np.array([0.0, 0.0137, 0.0311, 0.1]),
                              np.array([-5.0, 8.0, 1.0]))]
        stack = WaveStack(grid, [psi0.values, psi0.values])
        split_step_evolve(stack, V, W, laws, 0.1, 1e-2)
        for j, u in enumerate(laws):
            single = split_step_evolve(psi0, V, W, u, 0.1, dt=1e-2)
            # every row takes the operations of its own m = 1 run, and the
            # FFT treats rows independently, so the rows agree bit for bit;
            # a finished member must not take the stack's FFT round trip
            assert np.array_equal(stack.values[j], single.values)

    def test_broadcast_view_evolves_like_its_copy(self):
        # a zero-stride view of one state is taken in row by row, like its
        # np.repeat copy, and its rows evolve bit for bit as the copy's do
        grid = torus(64)
        V, W = make_potential("cosine", 1), make_potential("cosine", 1, freq=2.0)
        psi0 = gaussian_packet(grid, 0.1, 0.4).values
        laws = [ControlSignal.constant(u, 0.1) for u in (3.0, -1.0, 0.5)]
        view = WaveStack(grid, np.broadcast_to(psi0, (3, psi0.size)))
        copy = WaveStack(grid, np.repeat(psi0[None], 3, axis=0))
        for stack in (view, copy):
            split_step_evolve(stack, V, W, laws, 0.1, 1e-2)
        assert np.array_equal(view.values, copy.values)

    @settings(max_examples=40)
    @given(stack_case(), st.data())
    def test_one_call_through_stops_matches_window_calls(self, case, data):
        # one call that stops at each time equals one call per window, bit
        # for bit, at every stop; stops may fall on a member's breakpoint
        grid, V, W, members, laws, t0, t1, dt = case
        inside = sorted({float(b) for u in laws for b in u.breakpoints if t0 < b < t1})
        picked = data.draw(st.lists(st.sampled_from(inside), unique=True)) if inside else []
        drawn = data.draw(st.lists(st.floats(t0, t1), max_size=4))
        stops = sorted({t1, *picked, *(t for t in drawn if t0 < t < t1)})
        if any(b - a < 1e-6 for a, b in zip([t0] + stops, stops)):
            stops = [t1]
        values = [p.values for p in members]
        seen = []
        split_step_evolve(WaveStack(grid, values), V, W, laws, stops, dt, t0=t0,
                          on_stop=lambda k, s: seen.append((k, s.values.copy())))
        windows = WaveStack(grid, values)
        assert [k for k, _ in seen] == list(range(len(stops)))
        for (k, state), a, b in zip(seen, [t0] + stops, stops):
            split_step_evolve(windows, V, W, laws, b, dt, t0=a, check_input=k == 0)
            assert np.array_equal(state, windows.values)

    def test_stop_on_a_breakpoint_with_unequal_step_counts(self):
        grid = torus(64)
        V, W = make_potential("cosine", 1), make_potential("cosine", 1, freq=2.0)
        psi0 = gaussian_packet(grid, 0.1, 0.4)
        laws = [ControlSignal.constant(3.0, 0.1),
                ControlSignal(np.array([0.0, 0.0137, 0.0311, 0.1]),
                              np.array([-5.0, 8.0, 1.0]))]
        stops = [0.0137, 0.06, 0.1]  # the first is the second law's breakpoint
        seen = []
        split_step_evolve(WaveStack(grid, [psi0.values] * 2), V, W, laws, stops, 7e-3,
                          on_stop=lambda k, s: seen.append(s.values.copy()))
        windows = WaveStack(grid, [psi0.values] * 2)
        for state, a, b in zip(seen, [0.0] + stops, stops):
            split_step_evolve(windows, V, W, laws, b, 7e-3, t0=a, check_input=a == 0.0)
            assert np.array_equal(state, windows.values)
        # on [0.0137, 0.06] the members take 7 and 8 steps, so the first waits
        with pytest.raises(ValueError):  # stop times must increase
            split_step_evolve(windows, V, W, laws, [0.05, 0.05], 7e-3)

    # W = x kicks the momentum by −∫u.  With u = ±2000 and h = 1e-3 every
    # half step multiplies by e^{∓ix}, an exact shift by one mode on the
    # torus, so 0.008 of it moves a packet between k = 0 and |k| = 16, the
    # top decile of a 32-point grid (|k| ≥ 14.4), without spectral leakage.

    def test_one_unresolved_input_member_raises(self):
        grid = torus(32)
        W = make_potential("linear", 1, slope=1.0)
        fine = gaussian_packet(grid, 0.0, 0.4).values
        fast = gaussian_packet(grid, 0.0, 0.4, momentum=16.0).values
        rest = ControlSignal.constant(0.0, 0.008)
        brake = ControlSignal.constant(2000.0, 0.008)
        braked = WaveStack(grid, [fast])
        split_step_evolve(braked, None, W, [brake], 0.008, 1e-3, check_input=False)
        assert top_mode_mass(braked.member(0)) < 1e-12  # only the input is unresolved
        stack = WaveStack(grid, [fine, fast, fine])
        with pytest.raises(GridTooCoarse):
            split_step_evolve(stack, None, W, [rest, brake, rest], 0.008, 1e-3)

    def test_one_member_losing_resolution_raises(self):
        grid = torus(32)
        W = make_potential("linear", 1, slope=1.0)
        psi0 = gaussian_packet(grid, 0.0, 0.4).values
        there_and_back = ControlSignal(np.array([0.0, 0.008, 0.016]),
                                       np.array([2000.0, -2000.0]))
        rest = ControlSignal.constant(0.0, 0.016)
        stack = WaveStack(grid, [psi0, psi0])
        with pytest.raises(GridTooCoarse):  # at the inner breakpoint only
            split_step_evolve(stack, None, W, [rest, there_and_back], 0.016, 1e-3)
        # window by window: the state at the breakpoint is unresolved, the
        # end state is not, so the call above raised at the inner check
        alone = WaveStack(grid, [psi0])
        with pytest.raises(GridTooCoarse):
            split_step_evolve(alone, None, W, [there_and_back], 0.008, 1e-3)
        split_step_evolve(alone, None, W, [there_and_back], 0.016, 1e-3,
                          t0=0.008, check_input=False)
        assert top_mode_mass(alone.member(0)) < 1e-12

    def test_stack_shape_and_control_count_checked(self):
        grid = torus(32)
        with pytest.raises(ValueError):
            WaveStack(grid, np.zeros((2, 16)))
        stack = WaveStack(grid, [gaussian_packet(grid, 0.0, 0.5).values])
        with pytest.raises(ValueError):
            split_step_evolve(stack, None, None,
                              [ControlSignal.constant(0.0, 0.1)] * 2, 0.1, 1e-2)


class TestMeasures:
    def test_region_probability_whole_domain(self):
        grid = torus(128)
        psi = gaussian_packet(grid, 0.0, 0.3)
        whole = BoxRegion(((-10.0, 10.0),))
        assert region_probability(psi, whole) == pytest.approx(1.0, abs=1e-10)

    def test_region_probability_disjoint_support(self):
        grid = torus(256)
        vals = np.where(grid.points(0) < 0, 1.0 + 0j, 0.0)
        psi = WaveGrid(grid, vals).normalized()
        right = BoxRegion(((0.0, np.pi),))
        assert region_probability(psi, right) == pytest.approx(0.0, abs=1e-10)

    def test_region_probability_symmetric_split(self):
        # center the bump mid-cell so the half-domain cut falls between nodes
        grid = torus(512)
        dx = grid.cell_volume
        psi = gaussian_packet(grid, dx / 2, 0.25)
        left = BoxRegion(((-np.pi, dx / 4),))
        assert region_probability(psi, left) == pytest.approx(0.5, abs=1e-6)

    def test_l2_distance_trivia(self):
        grid = torus(64)
        psi = gaussian_packet(grid, 0.0, 0.4)
        assert l2_distance(psi, psi) == 0.0
        zero = WaveGrid(grid, np.zeros(64, dtype=complex))
        assert l2_distance(psi, zero) == pytest.approx(1.0, abs=1e-12)

    def test_l2_distance_orthogonal(self):
        grid = torus(64)
        psi, phi = plane_wave(grid, 1), plane_wave(grid, 2)
        assert l2_distance(psi, phi) == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            l2_distance(gaussian_packet(torus(64), 0.0, 0.3),
                        gaussian_packet(torus(128), 0.0, 0.3))

    def test_2d_product_grid(self):
        grid = SpatialGrid(((-np.pi, 2 * np.pi, 64), (-np.pi, 2 * np.pi, 64)))
        dx = 2 * np.pi / 64
        psi = gaussian_packet(grid, [dx / 2, 0.0], [0.4, 0.4])
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        u = ControlSignal.constant(1.0, 0.2)
        # V and W depend on y only, so the x-marginal stays symmetric
        out = split_step_evolve(psi, make_potential("cosine", 2, amplitude=[0.0, 1.0]),
                                make_potential("cosine", 2, amplitude=[0.0, 1.0]),
                                u, 0.2, dt=1e-3)
        assert abs(out.norm() - 1.0) < 1e-10
        left = BoxRegion(((-np.pi, dx / 4), None))
        assert region_probability(out, left) == pytest.approx(0.5, abs=1e-6)


class TestDiagnostics:
    def test_top_mode_mass_smooth_state(self):
        psi = gaussian_packet(torus(256), 0.0, 0.3)
        assert top_mode_mass(psi) < 1e-10

