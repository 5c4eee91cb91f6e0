import csv
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conjugate_times_per_seed, knot_system_condition
import sclab.wkb
from sclab.config import parse_config
from sclab.errors import (CausticReached, MaskViolation, StepTooCoarse,
                          TrajectoryEscape)
from sclab.geometry import BoxRegion, PotentialField, make_potential
from sclab.harness import CSV_BLOCK, _write_csv, run_experiment
from sclab.integrate import hermite_state
from sclab.obstruction import _cumulative_upper
from sclab.schrodinger import SpatialGrid
from sclab.wkb import (CutoffFunction, _not_a_knot_slopes,
                       first_conjugate_time, not_a_knot_spline,
                       shoot_characteristics, wkb_field, wkb_residual)


def quad_phase(sign=1.0):
    """S0 = ±x²/2, the free-flow fan with closed form x(t) = x0(1 ± t)."""
    return make_potential("harmonic", 1, k=sign)


def seeds_on(lo=-1.0, hi=1.0, n=400):
    return np.linspace(lo, hi, n)


class TestShootCharacteristics:
    def test_expanding_quadratic_phase(self):
        fan = shoot_characteristics(quad_phase(+1.0), None, seeds_on(), 0.5, 1e-3)
        k = fan.time_index(0.5)
        assert np.max(np.abs(fan.x[k] - fan.seeds * 1.5)) < 1e-9
        assert np.max(np.abs(fan.J[k] - 1.5)) < 1e-9
        # action along the characteristic: S = x0²/2 + t·x0²/2
        assert np.max(np.abs(fan.S[k] - 0.75 * fan.seeds ** 2)) < 1e-9

    def test_static_fan(self):
        zero = make_potential("zero", 1)
        fan = shoot_characteristics(zero, None, seeds_on(), 0.4, 1e-3)
        assert np.max(np.abs(fan.x - fan.seeds[None, :])) < 1e-12
        assert np.max(np.abs(fan.J - 1.0)) < 1e-12
        assert np.max(np.abs(fan.S)) < 1e-12

    def test_contracting_phase_heads_to_caustic(self):
        fan = shoot_characteristics(quad_phase(-1.0), None, seeds_on(), 0.8, 1e-3)
        k = fan.time_index(0.8)
        assert np.max(np.abs(fan.x[k] - fan.seeds * 0.2)) < 1e-9
        assert np.max(np.abs(fan.J[k] - 0.2)) < 1e-9

    def test_jacobian_identity(self):
        # exp(∫ΔS dτ) must reproduce the variational J while |J| > 0.05
        V = make_potential("cosine", 1, amplitude=0.3)
        fan = shoot_characteristics(quad_phase(+1.0), V, seeds_on(n=200), 0.6, 5e-4)
        lapS = fan.laplacian_S()
        dt = fan.times[1] - fan.times[0]
        integral = np.zeros_like(lapS)
        integral[1:] = 0.5 * dt * np.cumsum(lapS[1:] + lapS[:-1], axis=0)
        usable = np.abs(fan.J) > 0.05
        rel = np.abs(np.exp(integral) - fan.J) / np.abs(fan.J)
        assert np.max(rel[usable]) < 1e-4

    def test_csv_matches_csv_writer(self, tmp_path):
        # csv.writer, which the harness's join rows replaced, is the
        # reference: floats, ints, strs with spaces and an empty cell, on
        # one row more than a block (a dropped or repeated boundary row
        # fails) and on an empty table
        cfg = parse_config(f"experiment = wkb\nseed = 4\nout = {tmp_path}\n")
        n = CSV_BLOCK + 1
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        x[:3] = -0.0, np.inf, np.nan
        label = ["a b", ""] * (n // 2) + ["c  d"]
        for rows in (n, 0):
            _write_csv(cfg, "table.csv", {"x": x[:rows], "k": np.arange(rows) - 7,
                                          "label": label[:rows]}, note="step=0.5")
            buf = io.StringIO()
            buf.write(f"# config_hash={cfg.content_hash()} seed=4\n# step=0.5\n")
            writer = csv.writer(buf)
            writer.writerow(["x", "k", "label"])
            writer.writerows(zip(x[:rows].tolist(), range(-7, rows - 7), label[:rows]))
            assert (tmp_path / "table.csv").read_bytes() == buf.getvalue().encode()

    def test_fan_csv_matches_csv_writer(self, tmp_path, monkeypatch):
        # fan.csv, t-major, each time and seed formatted once and repeated
        fans = []
        shoot = sclab.wkb.shoot_characteristics
        monkeypatch.setattr(sclab.wkb, "shoot_characteristics",
                            lambda *args, **kwargs: fans.append(shoot(*args, **kwargs))
                            or fans[-1])
        cfg = parse_config("experiment = wkb\nwkb.n_seeds = 16\nwkb.horizon = 0.05\n"
                           f"wkb.step = 1e-2\nwkb.snapshot_t = 0.0\nout = {tmp_path}\n")
        assert run_experiment(cfg) == 0
        (fan,) = fans
        buf = io.StringIO()
        buf.write(f"# config_hash={cfg.content_hash()} seed=0\n")
        writer = csv.writer(buf)
        writer.writerow(["t", "seed", "x", "p", "S", "J"])
        for k, t in enumerate(fan.times):
            for j, s in enumerate(fan.seeds):
                writer.writerow([repr(float(v)) for v in (t, s, fan.x[k, j], fan.p[k, j],
                                                          fan.S[k, j], fan.J[k, j])])
        assert (tmp_path / "fan.csv").read_bytes() == buf.getvalue().encode()

    def test_coarse_step_rejected(self):
        V = make_potential("harmonic", 1, k=4.0)
        with pytest.raises(StepTooCoarse):
            shoot_characteristics(quad_phase(+1.0), V, seeds_on(n=40), 1.0, 0.25)

    def test_potential_without_hessian_refused(self):
        # V″ is the potential's analytic second derivative; there is no
        # finite-difference fallback
        cosine = make_potential("cosine", 1)
        V = PotentialField(value=cosine.value, gradient=cosine.gradient, name="no-hessian")
        with pytest.raises(ValueError, match="no-hessian"):
            shoot_characteristics(quad_phase(+1.0), V, seeds_on(n=40), 0.1, 1e-2)

    def test_guard_covers_action(self):
        # x and p stay put while S = 1e14·t crosses the overflow guard; a guard
        # on the position alone let this fan through
        V = make_potential("linear", 1, slope=0.0, offset=-1e14)
        with pytest.raises(TrajectoryEscape):
            shoot_characteristics(make_potential("zero", 1), V, seeds_on(n=40), 0.1, 1e-2)


class TestConjugateTime:
    def test_contracting_phase_focuses_at_one(self):
        fan = shoot_characteristics(quad_phase(-1.0), None, seeds_on(), 1.5, 1e-3)
        tc = first_conjugate_time(fan)
        assert np.max(np.abs(tc - 1.0)) < 1e-6

    def test_expanding_phase_never_focuses(self):
        fan = shoot_characteristics(quad_phase(+1.0), None, seeds_on(), 1.5, 1e-3)
        assert np.all(first_conjugate_time(fan) == fan.horizon)

    def test_flat_phase_never_focuses(self):
        fan = shoot_characteristics(make_potential("zero", 1), None, seeds_on(), 1.0, 1e-3)
        assert np.all(first_conjugate_time(fan) == fan.horizon)

    def test_compact_seed_floor_positive(self):
        fan = shoot_characteristics(quad_phase(-1.0), make_potential("cosine", 1),
                                    seeds_on(n=120), 2.0, 1e-3)
        assert float(np.min(first_conjugate_time(fan))) > 0.0

    def test_matches_each_seed_located_alone(self):
        # one bisection over every bracket gives each seed's bits alone
        fan = shoot_characteristics(quad_phase(-1.0), make_potential("cosine", 1),
                                    seeds_on(), 2.0, 1e-3)
        tc = first_conjugate_time(fan)
        assert np.count_nonzero(tc < fan.horizon) > 100
        assert np.array_equal(tc, conjugate_times_per_seed(fan))
        # J exactly zero at a knot: that knot is the seed's first zero
        J = fan.J.copy()
        J[300, :5] = 0.0
        knotted = dataclasses.replace(fan, J=J)
        tc = first_conjugate_time(knotted)
        assert np.array_equal(tc[:5], np.full(5, fan.times[300]))
        assert np.array_equal(tc, conjugate_times_per_seed(knotted))

    def test_matches_brentq_on_the_hermite_root(self):
        # scipy's brentq on the same bracketing step's Hermite interpolant is
        # the reference; a test-only dependency
        from scipy.optimize import brentq
        fan = shoot_characteristics(quad_phase(-1.0), make_potential("cosine", 1),
                                    seeds_on(n=120), 2.0, 1e-3)
        tc = first_conjugate_time(fan)
        focused = 0
        for j in range(fan.seeds.size):
            J, dJ = fan.J[:, j], fan.delta_p[:, j]
            k = np.flatnonzero(J[:-1] * J[1:] <= 0)
            if k.size == 0:
                assert tc[j] == fan.horizon
                continue
            k = int(k[0])
            t0, h = fan.times[k], fan.times[k + 1] - fan.times[k]
            ref = brentq(lambda t: hermite_state(J[k], J[k + 1], dJ[k], dJ[k + 1], h,
                                                 (t - t0) / h),
                         t0, t0 + h, xtol=1e-10)
            assert abs(tc[j] - ref) <= 2e-10
            focused += 1
        assert focused > 20  # 54 of the 120 seeds focus before the horizon


class TestNotAKnotSpline:
    @given(n=st.integers(8, 2000), columns=st.integers(1, 6),
           log_ratio=st.floats(4.0, 8.0), noise=st.sampled_from([0.0, 1e-6, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_matches_scipy_cubic_spline(self, n, columns, log_ratio, noise, seed):
        # scipy's CubicSpline (not-a-knot by default) is the test-only
        # reference.  Both solvers' errors grow with the knot system's
        # condition number κ (up to 2.3e6 for gap ratios up to e⁸), so the
        # bound is 1e-12 for κ ≤ 1e-12/ε ≈ 4500 and κ·ε above; over 6,400
        # seeded draws of this generator the error stayed below 0.33·κ·ε
        from scipy.interpolate import CubicSpline
        rng = np.random.default_rng(seed)
        log_gaps = rng.uniform(0.0, log_ratio, n - 1)
        log_gaps[rng.choice(n - 1, 2, replace=False)] = (0.0, log_ratio)
        x = rng.normal() + np.concatenate([[0.0], np.cumsum(np.exp(log_gaps))]) \
            * 10.0 ** rng.uniform(-3, 1)
        phase = (x - x[0]) / (x[-1] - x[0])
        y = np.stack([np.sin(2 * np.pi * (c + 1) * phase + c) for c in range(columns)], 1) \
            + noise * rng.normal(size=(n, columns))
        ref = CubicSpline(x, y)
        tol = max(1e-12, knot_system_condition(x) * np.finfo(float).eps)
        slopes = _not_a_knot_slopes(x, y)
        want = ref(x, 1)
        assert np.max(np.abs(slopes - want)) <= tol * np.max(np.abs(want))
        at = np.concatenate([x, rng.uniform(x[0], x[-1], 500)])
        want = ref(at)
        assert np.max(np.abs(not_a_knot_spline(x, y, at) - want)) <= tol * np.max(np.abs(want))


    @given(systems=st.integers(1, 5), n=st.integers(4, 300), columns=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40)
    def test_batched_systems_match_each_alone(self, systems, n, columns, seed):
        # a stack of knot systems, each with its own knots, is solved and
        # evaluated with every system's own bits
        rng = np.random.default_rng(seed)
        x = np.cumsum(np.exp(rng.uniform(0.0, 4.0, (systems, n))), axis=-1) \
            * 10.0 ** rng.uniform(-3, 1, (systems, 1))
        y = rng.normal(size=(systems, n, columns))
        at = np.sort(rng.uniform(x[:, :1], x[:, -1:], (systems, 50)), axis=-1)
        slopes = _not_a_knot_slopes(x, y)
        values = not_a_knot_spline(x, y, at)
        assert slopes.shape == y.shape and values.shape == (systems, 50, columns)
        for b in range(systems):
            assert np.array_equal(slopes[b], _not_a_knot_slopes(x[b], y[b]))
            assert np.array_equal(values[b], not_a_knot_spline(x[b], y[b], at[b]))


def demo_grid(n=512):
    return SpatialGrid(((-np.pi, 2 * np.pi, n),))


class TestWKBField:
    def test_initial_time_reproduces_data(self):
        fan = shoot_characteristics(quad_phase(+1.0), None, seeds_on(), 0.3, 1e-3)
        a0 = make_potential("gaussian", 1, amplitude=1.0, width=0.25)
        field = wkb_field(fan, a0, demo_grid(), 0.0)
        gx = field.grid.points(0)
        inside = field.valid_mask
        assert np.max(np.abs(field.a[inside] - a0.value(gx[inside, None]))) < 1e-6
        assert np.max(np.abs(field.S[inside] - 0.5 * gx[inside] ** 2)) < 1e-6

    def test_amplitude_decay_closed_form(self):
        # a(t) = a0/√(1+t) for the expanding quadratic phase
        fan = shoot_characteristics(quad_phase(+1.0), None, seeds_on(), 0.5, 1e-3)
        ones = PotentialField(value=lambda x: np.ones(np.shape(x)[:-1]),
                              gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        field = wkb_field(fan, ones, demo_grid(), 0.5)
        inside = field.valid_mask
        assert np.max(np.abs(field.a[inside] - 1.0 / np.sqrt(1.5))) < 1e-9

    def test_mass_conservation(self):
        fan = shoot_characteristics(quad_phase(+1.0), None, seeds_on(n=800), 0.4, 1e-3)
        a0 = make_potential("gaussian", 1, amplitude=1.0, width=0.2)
        field = wkb_field(fan, a0, demo_grid(1024), 0.4)
        gx = field.grid.points(0)
        m = field.valid_mask
        mass_t = np.trapezoid(field.a[m] ** 2, gx[m])
        a0_seed = a0.value(fan.seeds[:, None])
        mass_0 = np.trapezoid(a0_seed ** 2, fan.seeds)
        assert abs(mass_t - mass_0) < 1e-4

    def test_caustic_guard_raises(self):
        fan = shoot_characteristics(quad_phase(-1.0), None, seeds_on(), 0.99, 1e-3)
        a0 = make_potential("gaussian", 1, width=0.3)
        with pytest.raises(CausticReached):
            wkb_field(fan, a0, demo_grid(), 0.99)

    def test_array_of_times_matches_each_time_alone(self):
        # a focusing fan under V = cos x: every array of the block field and
        # its residual is, row by row, the field assembled at that time alone
        fan = shoot_characteristics(quad_phase(-1.0), make_potential("cosine", 1),
                                    seeds_on(), 0.5, 1e-3)
        a0 = make_potential("gaussian", 1, width=0.3)
        chi = CutoffFunction(BoxRegion(((-0.4, 0.4),)))
        times = fan.times[::37]
        block = wkb_field(fan, a0, demo_grid(), times)
        residuals = wkb_residual(block, chi)
        assert np.array_equal(block.t, times)
        for j, t in enumerate(times):
            alone = wkb_field(fan, a0, demo_grid(), float(t))
            for name in ("S", "a", "dS", "da", "lap_a", "J", "valid_mask"):
                assert np.array_equal(getattr(block, name)[j], getattr(alone, name)), name
            assert np.array_equal(block.psi_tilde()[j], alone.psi_tilde())
            assert np.array_equal(residuals[j], wkb_residual(alone, chi))

    @pytest.mark.parametrize("start", [0.18, 0.2, 0.946, 0.948, 0.95])
    def test_array_of_times_raises_where_a_time_alone_does(self, start):
        # S0 = −x²/2 carries the seeds on [−1, 1] to [−(1 − t), 1 − t]: the
        # cutoff on [−0.8, 0.8] leaves the valid region near t = 0.2 and the
        # amplitude guard trips at t = 0.95.  A block of times raises what
        # its first failing time raises alone, and nothing if none fails:
        # CausticReached from the field, then MaskViolation from the residual
        fan = shoot_characteristics(quad_phase(-1.0), None, seeds_on(), 0.99, 1e-3)
        a0 = make_potential("gaussian", 1, width=0.2)
        chi = CutoffFunction(BoxRegion(((-0.8, 0.8),)))
        times = fan.times[(fan.times >= start - 1e-12)][:8]

        def outcome(call, *args):
            try:
                call(*args)
            except (CausticReached, MaskViolation) as exc:
                return type(exc), str(exc)
            return None

        def first(outcomes):
            return next((o for o in outcomes if o is not None), None)

        field_alone = first(outcome(wkb_field, fan, a0, demo_grid(), float(t)) for t in times)
        assert outcome(wkb_field, fan, a0, demo_grid(), times) == field_alone
        if field_alone is None:
            block = wkb_field(fan, a0, demo_grid(), times)
            residual_alone = first(
                outcome(wkb_residual, wkb_field(fan, a0, demo_grid(), float(t)), chi)
                for t in times)
            assert outcome(wkb_residual, block, chi) == residual_alone
            assert (residual_alone is None) == (start < 0.2)
        else:
            assert field_alone[0] is CausticReached and start >= 0.948


class TestCutoff:
    def test_support_and_bounds(self):
        chi = CutoffFunction(BoxRegion(((-0.5, 0.5),)))
        x = np.linspace(-1.0, 1.0, 801)[:, None]
        v = chi._values(x)[0]
        assert np.all(v >= 0) and np.all(v <= 1)
        assert np.all(v[np.abs(x[:, 0]) >= 0.5] == 0)
        assert v[400] == pytest.approx(1.0)  # center

    def test_derivatives_match_finite_differences(self):
        chi = CutoffFunction(BoxRegion(((-0.6, 0.8),)))
        x = np.linspace(-0.55, 0.75, 301)[:, None]
        h = 1e-6
        v, grad, lap = chi._values(x)
        v_plus, v_minus = chi._values(x + h)[0], chi._values(x - h)[0]
        fd1 = (v_plus - v_minus) / (2 * h)
        fd2 = (v_plus - 2 * v + v_minus) / h ** 2
        assert np.max(np.abs(grad - fd1)) < 1e-5
        assert np.max(np.abs(lap - fd2)) < 2e-3

    @pytest.mark.parametrize("bounds", [((-0.5, 0.5), (-0.4, 0.4)), (None,)])
    def test_box_needs_one_bounded_axis(self, bounds):
        with pytest.raises(ValueError, match="one-dimensional"):
            CutoffFunction(BoxRegion(bounds))


class TestResidual:
    def test_linear_amplitude_no_bulk_term(self):
        # a linear in x on supp χ ⇒ Δa = 0: only cutoff-derivative terms remain
        fan = shoot_characteristics(make_potential("zero", 1), None,
                                    seeds_on(-2.0, 2.0, 600), 0.1, 1e-3)
        a0 = make_potential("linear", 1, slope=0.3, offset=1.0)
        field = wkb_field(fan, a0, demo_grid(), 0.0)
        assert np.max(np.abs(field.lap_a[field.valid_mask])) < 1e-6
        chi = CutoffFunction(BoxRegion(((-1.0, 1.0),)))
        r = wkb_residual(field, chi)
        mesh = field.grid.mesh()
        bulk = chi._values(mesh)[0] * 0.5 * field.lap_a
        assert np.max(np.abs(bulk)) < 1e-6
        assert np.max(np.abs(r)) > 0  # χ-derivative terms are alive

    def test_gaussian_bump_matches_fd_laplacian(self):
        # S ≡ 0 makes the three terms one Laplacian: r = ½Δ(χ·a0)
        fan = shoot_characteristics(make_potential("zero", 1), None,
                                    seeds_on(-2.0, 2.0, 3200), 0.1, 1e-3)
        a0 = make_potential("gaussian", 1, amplitude=1.0, width=0.2)
        grid = demo_grid(1024)
        field = wkb_field(fan, a0, grid, 0.0)
        # off-center, so the peaks of ∇χ·∇a0 and a0·Δχ/2 reach 0.44 and 0.19
        # of the bulk term's χ·Δa0/2
        chi = CutoffFunction(BoxRegion(((-0.6, 0.8),)))
        r = wkb_residual(field, chi)
        gx = grid.points(0)
        # independent oracle: 4th-order 5-point Laplacian of the callbacks' product
        h = 3e-4
        stack = [chi._values((gx + s * h)[:, None])[0] * a0.value((gx + s * h)[:, None])
                 for s in (-2, -1, 0, 1, 2)]
        fd_lap = (-stack[0] + 16 * stack[1] - 30 * stack[2]
                  + 16 * stack[3] - stack[4]) / (12 * h ** 2)
        assert np.max(np.abs(r - 0.5 * fd_lap)) < 1e-6

    def test_hbar_scaling_of_bulk_term(self):
        # with S ≡ 0 every term of r is real and the field's ħ enters only
        # through the prefactor: r = ħ²·½Δ(χ·a)
        a0 = make_potential("gaussian", 1, width=0.3)
        chi = CutoffFunction(BoxRegion(((-1.5, 1.5),)))
        r = {}
        for hbar in (1.0, 0.5):
            fan = shoot_characteristics(make_potential("zero", 1), None,
                                        seeds_on(-2.0, 2.0, 800), 0.1, 1e-3, hbar=hbar)
            field = wkb_field(fan, a0, demo_grid(), 0.0)
            r[hbar] = wkb_residual(field, chi)
        assert np.max(np.abs(r[1.0])) > 1.0
        assert np.max(np.abs(r[0.5] - 0.25 * r[1.0])) < 1e-12

    def test_mask_violation(self):
        fan = shoot_characteristics(make_potential("zero", 1), None,
                                    seeds_on(-0.5, 0.5, 200), 0.1, 1e-3)
        a0 = make_potential("gaussian", 1, width=0.2)
        field = wkb_field(fan, a0, demo_grid(), 0.1)
        chi = CutoffFunction(BoxRegion(((-2.0, 2.0),)))  # wider than the fan
        with pytest.raises(MaskViolation):
            wkb_residual(field, chi)

    def test_tabulated_cutoff_still_checked_at_later_times(self, monkeypatch):
        # S0 = −x²/2 carries the seeds on [−1, 1] to [−(1 − t), 1 − t]: a
        # cutoff on [−0.8, 0.8] is covered at t = 0 and leaves the valid
        # region by t = 0.3, after its table was made at t = 0
        profiles = []
        bump = sclab.wkb._bump
        monkeypatch.setattr(sclab.wkb, "_bump",
                            lambda s: profiles.append(s.shape) or bump(s))
        fan = shoot_characteristics(quad_phase(-1.0), None, seeds_on(), 0.3, 1e-3)
        a0 = make_potential("gaussian", 1, width=0.2)
        chi = CutoffFunction(BoxRegion(((-0.8, 0.8),)))
        grid = demo_grid()
        wkb_residual(wkb_field(fan, a0, grid, 0.0), chi)
        wkb_residual(wkb_field(fan, a0, grid, 0.1), chi)
        with pytest.raises(MaskViolation):
            wkb_residual(wkb_field(fan, a0, grid, 0.3), chi)
        assert len(profiles) == 1  # one table, made at the first call
        assert chi.on_grid(grid) is chi.on_grid(SpatialGrid(grid.axes))


def duhamel_delta(norms, dt):
    """δ = ∫‖r‖ over a uniformly sampled residual-norm series, as the
    localization experiment takes it: each interval's larger end norm."""
    norms = np.asarray(norms, dtype=float)
    return _cumulative_upper(norms, dt * np.arange(norms.size))[-1]


class TestDuhamelDelta:
    def test_zero_series(self):
        assert duhamel_delta(np.zeros(11), 0.03) == 0.0

    def test_constant_series(self):
        n = 31
        assert duhamel_delta(np.ones(n), 0.3 / (n - 1)) == pytest.approx(0.3)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        series = rng.uniform(0.0, 1.0, 25)
        assert duhamel_delta(2 * series, 0.01) == pytest.approx(
            2 * duhamel_delta(series, 0.01))


class TestSchrodingerOperatorCheck:
    def test_ansatz_satisfies_pde_up_to_half_lap_a(self):
        # (i∂_t + Δ/2 − V)(a e^{iS}) = (Δa/2)e^{iS}: finite differences in t
        # and x on the assembled fields, V = 0, expanding quadratic phase
        fan = shoot_characteristics(quad_phase(+1.0), None,
                                    seeds_on(-2.0, 2.0, 1600), 0.2, 1e-3)
        a0 = make_potential("gaussian", 1, width=0.3)
        grid = demo_grid(2048)
        dt = float(fan.times[1] - fan.times[0])
        k = fan.time_index(0.1)
        fields = [wkb_field(fan, a0, grid, float(fan.times[k + s])) for s in (-1, 0, 1)]
        psi = [f.psi_tilde() for f in fields]
        gx = grid.points(0)
        h = gx[1] - gx[0]
        window = np.abs(gx) < 1.0
        dpsi_dt = (psi[2] - psi[0]) / (2 * dt)
        lap_psi = np.zeros_like(psi[1])
        lap_psi[1:-1] = (psi[1][2:] - 2 * psi[1][1:-1] + psi[1][:-2]) / h ** 2
        lhs = 1j * dpsi_dt + 0.5 * lap_psi
        rhs = 0.5 * fields[1].lap_a * np.exp(1j * fields[1].S)
        err = np.max(np.abs(lhs[window] - rhs[window]))
        # discretization floor: O(h²·scales) + O(dt²); generous envelope
        assert err < 5e-3


class TestHarnessJacobianIdentity:
    def test_focusing_fan_checks_only_up_to_the_conjugate_time(self, tmp_path):
        # S0 = -x²/2 focuses every seed at t = 1 inside the horizon; past it
        # exp∫ΔS and J part ways, and exp overflowed on the way
        cfg = parse_config("experiment = wkb\nwkb.s0.name = harmonic\n"
                           "wkb.s0.k = -1.0\nwkb.horizon = 1.5\nwkb.n_seeds = 64\n"
                           f"out = {tmp_path}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["conjugate_floor"] == pytest.approx(1.0, abs=1e-6)
        assert summary["jacobian_identity_max_rel_error"] < 1e-4
