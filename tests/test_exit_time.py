import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import control_integral
import sclab.exit_time as exit_mod
from sclab.config import parse_config
from sclab.dynamics import ControlSignal, HamiltonianSpec, control_pieces, sample_controls
from sclab.errors import HypothesisViolated, StepTooCoarse
from sclab.exit_time import (EXIT_TIME_TOL, check_w_constancy, exit_lower_bound,
                             sampled_exit_time)
from sclab.geometry import (BoxRegion, ChartSpace, PhasePoint, PotentialField, make_potential,
                            pullback)
from sclab.harness import _exit_time_spec, run_experiment
from sclab.integrate import _nsteps


def product_spec(c=1.0):
    """Flat plane split into (x) × (y): V = (c/2)x² + cos y, W = cos y."""
    space = ChartSpace(dimension=2)
    V = PotentialField(
        value=lambda xy: 0.5 * c * np.asarray(xy)[..., 0] ** 2
        + np.cos(np.asarray(xy)[..., 1]),
        gradient=lambda xy: np.stack(
            [c * np.asarray(xy)[..., 0], -np.sin(np.asarray(xy)[..., 1])], axis=-1),
        c_bound=c,  # |∂_x V| = c|x| ≤ c on Ω = (−1, 1)
        name="product-demo",
    )
    W = make_potential("cosine", 2, amplitude=[0.0, 1.0], freq=[1.0, 1.0])
    return HamiltonianSpec(space=space, V=V, W=W)


def omega_unit():
    return BoxRegion(((-1.0, 1.0), None))


@st.composite
def constant_force_cases(draw):
    """A base of n₁ ∈ {1, 2} axes (plus a fibre axis y) with a box Ω, a start
    x₀ strictly inside it, any p₀, and a force bound c ≥ 0."""
    n1 = draw(st.sampled_from([1, 2]))
    bounds, x0 = [], []
    for _ in range(n1):
        lo, width = draw(st.floats(-2.0, 1.0)), draw(st.floats(0.05, 2.0))
        bounds.append((lo, lo + width))
        x0.append(lo + width * draw(st.floats(0.01, 0.99)))
    p0 = draw(st.lists(st.floats(-3.0, 3.0), min_size=n1, max_size=n1))
    c = draw(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)))
    return n1, bounds, np.array(x0), np.array(p0), c


def constant_bound_spec(n1, c):
    """V = cos y on the fibre axis, with the force bound c declared as given;
    W = cos y."""
    space = ChartSpace(dimension=n1 + 1)
    V = PotentialField(
        value=lambda x: np.cos(np.asarray(x)[..., -1]),
        gradient=lambda x: np.concatenate(
            [np.zeros(np.shape(x)[:-1] + (n1,)), -np.sin(np.asarray(x)[..., -1:])], axis=-1),
        c_bound=c, name="fibre-demo")
    W = make_potential("cosine", n1 + 1, amplitude=[0.0] * n1 + [1.0])
    return HamiltonianSpec(space=space, V=V, W=W)


def mp_first_exit(bounds, x0, p0, c):
    """Least first root over axes and walls of p·t + c·t²/2 = d, d the
    distance to the wall and p the momentum toward it, with 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(c)
        best = mpmath.inf
        for (lo, hi), x, p in zip(bounds, x0, p0):
            for v, d in ((mpmath.mpf(p), mpmath.mpf(hi) - mpmath.mpf(x)),
                         (-mpmath.mpf(p), mpmath.mpf(x) - mpmath.mpf(lo))):
                if a > 0:
                    best = min(best, (-v + mpmath.sqrt(v * v + 2 * a * d)) / a)
                elif v > 0:
                    best = min(best, d / v)
        return best


@st.composite
def harmonic_family_cases(draw):
    """The CLI's exit family at a force constant c ∈ [0.05, 10] on a box
    Ω = (lo, lo + width), a start x₀ inside it and any p₀ ∈ [−3, 3]."""
    c = draw(st.floats(0.05, 10.0))
    lo, width = draw(st.floats(-4.0, 0.5)), draw(st.floats(0.1, 5.0))
    x0 = lo + width * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return c, lo, lo + width, x0, draw(st.floats(-3.0, 3.0))


def mp_harmonic_exit(c, lo, hi, x0, p0):
    """First t > 0 at which x₀cos(√c·t) + (p₀/√c)·sin(√c·t) = R·cos(√c·t − φ)
    reaches lo or hi (inf if it never does), with 50 digits."""
    with mpmath.workdps(50):
        w = mpmath.sqrt(mpmath.mpf(c))
        x0, v0 = mpmath.mpf(x0), mpmath.mpf(p0) / w
        R, phi = mpmath.sqrt(x0 * x0 + v0 * v0), mpmath.atan2(v0, x0)
        best = mpmath.inf
        for wall in (mpmath.mpf(lo), mpmath.mpf(hi)):
            if abs(wall) > R or R == 0:  # out of reach, or at rest at x = 0
                continue
            alpha = mpmath.acos(wall / R)
            # every solution of cos θ = wall/R is ±α + 2πk; θ = √c·t − φ > −φ
            for s in (alpha, -alpha):
                theta = s + 2 * mpmath.pi * (mpmath.floor((-phi - s) / (2 * mpmath.pi)) + 1)
                best = min(best, (theta + phi) / w)
        return best


class TestExitLowerBound:
    @settings(max_examples=40, deadline=None)
    @given(constant_force_cases())
    def test_closed_form_bound(self, case):
        # the bound is the first root of the comparison, rounded down
        n1, bounds, x0, p0, c = case
        horizon = 2.0
        omega = BoxRegion(tuple(bounds) + (None,))
        lam0 = PhasePoint(np.append(x0, 0.3), np.append(p0, 0.0))
        bound = exit_lower_bound(constant_bound_spec(n1, c), omega, lam0, horizon=horizon)
        assert type(bound) is float
        root = min(mp_first_exit(bounds, x0, p0, c), horizon)
        assert bound <= root
        assert bound >= root * (1 - 1e-13)

    @settings(max_examples=100, deadline=None)
    @given(harmonic_family_cases())
    # x₀ and p₀ so small that p₀² and 2c·(x₀ − lo) underflow: the root
    # computed from them was twice the true one
    @example(case=(0.25, 0.0, 1.0, 5e-324, -4.590019102437506e-308))
    def test_bound_below_the_true_exit_of_the_cli_family(self, case):
        # V = ½c·x² + cos y, W on y: x obeys ẍ = −c·x under every control,
        # so its exit is exact, and the bound from c_bound = sup |c·x| over
        # Ω must not pass it
        c, lo, hi, x0, p0 = case
        spec = _exit_time_spec(parse_config(
            f"experiment = exit-time\nexit.force_bound = {c!r}\n"
            f"exit.omega = {lo!r},{hi!r}\n"))
        lam0 = PhasePoint(np.array([x0, 0.3]), np.array([p0, 0.0]))
        bound = exit_lower_bound(spec, BoxRegion(((lo, hi), None)), lam0, horizon=5.0)
        assert 0.0 <= bound <= mp_harmonic_exit(c, lo, hi, x0, p0)

    def test_closed_form_rejects_a_negative_force_bound(self):
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="sup of"):
            exit_lower_bound(constant_bound_spec(1, -2.0), omega_unit(), lam0)

    @pytest.mark.parametrize("c", [lambda x: 1.0, None, float("inf"), float("nan")],
                             ids=["callable", "absent", "infinite", "nan"])
    def test_closed_form_rejects_a_force_bound_that_is_no_number(self, c):
        # a c(x) that varies over Ω is passed as its sup there, a number
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="sup of"):
            exit_lower_bound(constant_bound_spec(1, c), omega_unit(), lam0)

    def test_constant_force_closed_form(self):
        # flat 1D factor, c const, rest state at the center: t* = √(2/c)
        for c in (1.0, 4.0):
            spec = product_spec(c=c)
            lam0 = PhasePoint(np.zeros(2), np.zeros(2))
            bound = exit_lower_bound(spec, omega_unit(), lam0, horizon=10.0)
            assert bound == pytest.approx(np.sqrt(2.0 / c), abs=1e-3)

    def test_default_bound_below_exact_exit(self):
        # the default exit-time case: the comparison system x = t²/2 leaves
        # Ω at exactly √2, which the bound must not exceed, while staying
        # within the event tolerance of it
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        bound = exit_lower_bound(product_spec(), omega_unit(), lam0, horizon=3.0)
        assert np.sqrt(2.0) - EXIT_TIME_TOL <= bound <= np.sqrt(2.0)

    def test_boundary_start_is_zero(self):
        spec = product_spec()
        lam0 = PhasePoint(np.array([1.0, 0.0]), np.zeros(2))
        assert exit_lower_bound(spec, omega_unit(), lam0) == 0.0

    def test_zero_force_rest_state_hits_horizon(self):
        spec = product_spec(c=1.0)
        zero_c = PotentialField(value=spec.V.value, gradient=spec.V.gradient, c_bound=0.0)
        spec0 = HamiltonianSpec(space=spec.space, V=zero_c, W=spec.W[0])
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        assert exit_lower_bound(spec0, omega_unit(), lam0, horizon=7.5) == 7.5

    def test_monotone_in_region(self):
        spec = product_spec()
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        big = exit_lower_bound(spec, omega_unit(), lam0)
        small = exit_lower_bound(spec, BoxRegion(((-0.5, 0.5), None)), lam0)
        assert small <= big + 1e-12

    def test_hypothesis_check_fires(self):
        space = ChartSpace(dimension=2)
        spec = HamiltonianSpec(
            space=space,
            V=PotentialField(value=lambda xy: 0.0 * np.asarray(xy)[..., 0],
                             gradient=lambda xy: np.zeros_like(np.asarray(xy, dtype=float)),
                             c_bound=0.0),
            W=make_potential("linear", 2, slope=[1.0, 0.0]),  # W = x on N1
        )
        with pytest.raises(HypothesisViolated):
            check_w_constancy(spec, omega_unit(), PhasePoint(np.zeros(2), np.zeros(2)))

    def test_omega_bounding_a_fibre_axis_puts_it_in_the_base(self):
        # W = cos z on (x, y, z): constant along the base x of an Ω that
        # bounds x alone, but an Ω that also bounds z makes z a base axis,
        # along which W varies
        spec = HamiltonianSpec(space=ChartSpace(dimension=3), V=make_potential("zero", 3),
                               W=make_potential("cosine", 3, amplitude=[0.0, 0.0, 1.0]))
        lam0 = PhasePoint(np.zeros(3), np.zeros(3))
        assert check_w_constancy(spec, BoxRegion(((-1.0, 1.0), None, None)), lam0) == 0.0
        with pytest.raises(HypothesisViolated):
            exit_lower_bound(spec, BoxRegion(((-1.0, 1.0), None, (-0.5, 0.5))), lam0)


@pytest.mark.parametrize("bounds", [(None,), ((-1.0, 1.0), (-1.0, 1.0))],
                         ids=["bounds-no-axis", "more-entries-than-axes"])
@pytest.mark.parametrize("entry", ["exit_lower_bound", "sampled_exit_time"])
def test_omega_that_does_not_fit_the_chart_is_refused(bounds, entry):
    # a 1-D chart: Ω must bound its one axis; sampled_exit_time is given its
    # bound, so it cannot lean on exit_lower_bound's check
    spec = HamiltonianSpec(space=ChartSpace(dimension=1), V=make_potential("zero", 1),
                           W=make_potential("linear", 1, slope=0.0))
    lam0 = PhasePoint(np.zeros(1), np.zeros(1))
    call = {"exit_lower_bound": lambda omega: exit_lower_bound(spec, omega, lam0),
            "sampled_exit_time": lambda omega: sampled_exit_time(
                spec, lam0, omega, sample_controls(0, 2, 1.0, 1.0), horizon=1.0,
                analytic_bound=0.0)}[entry]
    with pytest.raises(ValueError, match=r"Ω = .* does not fit the 1-dimensional chart"):
        call(BoxRegion(bounds))


class TestSampledExit:
    def test_ensemble_respects_bound(self):
        spec = product_spec()
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        controls = sample_controls(42, 200, duration=3.0, amplitude=100.0,
                                   max_breakpoints=6)
        report = sampled_exit_time(spec, lam0, omega_unit(), controls,
                                   horizon=3.0, step=2e-3)
        assert report.bound_respected
        assert report.ensemble_size == 200
        assert np.all(report.exit_times >= report.analytic_bound)

    def test_bound_independent_of_amplitude(self):
        spec = product_spec()
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        r1 = sampled_exit_time(spec, lam0, omega_unit(),
                               sample_controls(7, 50, 3.0, 10.0), horizon=3.0)
        r2 = sampled_exit_time(spec, lam0, omega_unit(),
                               sample_controls(8, 50, 3.0, 100.0), horizon=3.0)
        assert r1.analytic_bound == pytest.approx(r2.analytic_bound, abs=1e-12)
        assert r2.sampled_min_exit >= r2.analytic_bound

    def test_unbounded_region_returns_horizon(self):
        spec = product_spec()
        lam0 = PhasePoint(np.zeros(2), np.zeros(2))
        whole = BoxRegion(((-1e9, 1e9), None))
        report = sampled_exit_time(spec, lam0, whole,
                                   sample_controls(3, 20, 1.0, 5.0), horizon=1.0)
        assert report.sampled_min_exit == 1.0
        assert np.all(report.exit_times == 1.0)

    def test_violated_hypothesis_exits_fast(self):
        # W = x on the base factor: strong controls leave Ω arbitrarily fast
        space = ChartSpace(dimension=1)
        spec = HamiltonianSpec(
            space=space,
            V=PotentialField(value=lambda x: 0.0 * np.asarray(x)[..., 0],
                             gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                             c_bound=0.0),
            W=make_potential("linear", 1, slope=1.0),
        )
        lam0 = PhasePoint(np.zeros(1), np.zeros(1))
        omega = BoxRegion(((-1.0, 1.0),))
        mins = []
        for amp in (10.0, 100.0, 1000.0):
            controls = [ControlSignal.constant(amp, 2.0),
                        ControlSignal.constant(-amp, 2.0)]
            exits = sampled_exit_time(spec, lam0, omega, controls, horizon=2.0,
                                      step=1e-3, analytic_bound=0.0).sampled_min_exit
            mins.append(exits)
        assert mins[0] > mins[1] > mins[2]
        # constant force amp: exit when x = ½·amp·t² = 1
        assert mins[2] == pytest.approx(np.sqrt(2.0 / 1000.0), rel=1e-3)

    @pytest.mark.parametrize("x0, p0", [(0.0, 1.5), (0.3, -0.9)], ids=["exits", "stays"])
    def test_plane_run_is_the_base_line_run(self, x0, p0):
        # Ω = ((−1, 1), None) makes x the base of the plane: under V = ½x²
        # + cos y and W = cos y, x obeys the line's ẍ = −x with a zero
        # control force, so the plane run equals the line run bit for bit
        controls = sample_controls(0, 10, 3.0, 100.0)
        plane = sampled_exit_time(product_spec(), PhasePoint([x0, 0.2], [p0, 0.4]),
                                  omega_unit(), controls, horizon=3.0)
        on_line = HamiltonianSpec(
            space=ChartSpace(dimension=1),
            V=PotentialField(value=lambda x: 0.5 * x[..., 0] ** 2,
                             gradient=lambda x: 1.0 * x, c_bound=1.0),
            W=make_potential("linear", 1, slope=0.0))
        line = sampled_exit_time(on_line, PhasePoint([x0], [p0]),
                                 BoxRegion(((-1.0, 1.0),)), controls, horizon=3.0)
        assert np.array_equal(plane.exit_times, line.exit_times)
        assert (plane.analytic_bound, plane.halving_drift, plane.march_ticks) == \
            (line.analytic_bound, line.halving_drift, line.march_ticks)

    def test_report_csv(self, tmp_path, monkeypatch):
        # exit_times.csv: the hash/seed comment, the bound and horizon, the
        # header, then one row per member with the report's own bits
        reports = []
        sampled = exit_mod.sampled_exit_time
        monkeypatch.setattr(exit_mod, "sampled_exit_time",
                            lambda *args, **kwargs: reports.append(sampled(*args, **kwargs))
                            or reports[-1])
        cfg = parse_config("experiment = exit-time\nseed = 1\nexit.ensemble = 5\n"
                           f"exit.horizon = 2.0\nexit.amplitude = 10.0\nout = {tmp_path}\n")
        assert run_experiment(cfg) == 0
        (report,) = reports
        lines = (tmp_path / "exit_times.csv").read_text().splitlines()
        assert lines[:3] == [f"# config_hash={cfg.content_hash()} seed=1",
                             f"# analytic_bound={report.analytic_bound!r} horizon=2.0",
                             "control_index,exit_time"]
        rows = [line.split(",") for line in lines[3:]]
        assert [int(row[0]) for row in rows] == list(range(5))
        assert np.array([float(row[1]) for row in rows]).tobytes() == report.exit_times.tobytes()

    def test_crossing_at_default_step(self):
        # x = 1.5·sin t under V = ½x² whatever the control on y: exit at asin(2/3)
        spec = product_spec()
        lam0 = PhasePoint(np.zeros(2), np.array([1.5, 0.0]))
        report = sampled_exit_time(spec, lam0, omega_unit(),
                                   sample_controls(0, 10, 3.0, 100.0), horizon=3.0)
        assert report.sampled_min_exit == pytest.approx(np.arcsin(2.0 / 3.0), abs=1e-8)
        assert np.allclose(report.exit_times, np.arcsin(2.0 / 3.0), rtol=0.0, atol=1e-8)


class TestHalvingMargin:
    def test_drift_zero_when_no_member_exits(self):
        report = sampled_exit_time(product_spec(), PhasePoint(np.zeros(2), np.zeros(2)),
                                   omega_unit(), sample_controls(3, 20, 1.0, 5.0),
                                   horizon=1.0, analytic_bound=0.0)
        assert report.members_exited == 0
        assert report.halving_drift == 0.0
        assert report.halving_allowed == 1e-5

    def test_crossing_drift_within_allowed(self):
        report = sampled_exit_time(product_spec(), PhasePoint(np.zeros(2), np.array([1.5, 0.0])),
                                   omega_unit(), sample_controls(0, 10, 3.0, 100.0),
                                   horizon=3.0, analytic_bound=0.0)
        assert report.members_exited == 10
        assert 0.0 < report.halving_drift <= report.halving_allowed == 1e-5 * 3.0

    def test_member_on_one_grid_in_both_passes_raises(self):
        # the second law's two segments (0.5 each) take one step at step 1
        # and at step/2 alike, so its halved pass repeats its coarse one;
        # the constant law's one segment halves (1 step, then 2), and its
        # step is refused only by the drift it shows
        lam0 = PhasePoint(np.zeros(2), np.array([1.5, 0.0]))
        controls = [ControlSignal.constant(1.0, 1.0),
                    ControlSignal(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]))]
        with pytest.raises(StepTooCoarse, match="member 1 takes the same steps"):
            sampled_exit_time(product_spec(), lam0, omega_unit(), controls, horizon=1.0,
                              step=1.0, analytic_bound=0.0)
        with pytest.raises(StepTooCoarse, match="under step halving"):
            sampled_exit_time(product_spec(), lam0, omega_unit(), controls[:1],
                              horizon=1.0, step=1.0, analytic_bound=0.0)

    def test_drift_past_allowed_raises(self, monkeypatch):
        # the fine pass moves one exit by twice the allowance
        monkeypatch.setattr(exit_mod, "_march_exits",
                            lambda *args: (np.array([[1.0, 2.0], [1.0, 2.0 + 6e-5]]), 1))
        with pytest.raises(StepTooCoarse, match="6.000e-05"):
            sampled_exit_time(product_spec(), PhasePoint(np.zeros(2), np.zeros(2)),
                              omega_unit(), sample_controls(0, 2, 3.0, 1.0),
                              horizon=3.0, analytic_bound=0.0)


def test_march_evaluates_the_control_force_on_its_axis():
    # the exit-ensemble benchmark config (300 laws, seed 0), W = cos y
    # pulled back onto y: each tick's four field calls evaluate the 1-D
    # cosine gradient on the y column alone, never W's full-width gradient,
    # which the hypothesis check still reads
    config = parse_config("experiment = exit-time\nseed = 0\nexit.ensemble = 300\n")
    spec = _exit_time_spec(config)
    axis, f = spec.W[0].axis_factor
    calls = {"axis": 0, "full": 0}

    def counted(key, gradient):
        def wrapped(x):
            calls[key] += 1
            return gradient(x)
        return wrapped

    W = pullback(dataclasses.replace(f, gradient=counted("axis", f.gradient)), axis)
    W = dataclasses.replace(W, gradient=counted("full", W.gradient))
    spec = dataclasses.replace(spec, W=W)
    controls = sample_controls(config.seed, config["exit.ensemble"], config["exit.horizon"],
                               config["exit.amplitude"], config["exit.breakpoints"])
    lam0 = PhasePoint(np.zeros(2), np.zeros(2))
    _, ticks = exit_mod._march_exits(spec, lam0, omega_unit(), controls,
                                     config["exit.horizon"], config["exit.step"])
    assert ticks == 3004
    assert calls == {"axis": 4 * ticks, "full": 0}
    check_w_constancy(spec, omega_unit(), lam0)
    assert calls == {"axis": 4 * ticks + 4, "full": 4}


def line_spec(columns):
    """Flat line, V = ½x², and W = x (one column) or W = (x, x/2) (two)."""
    space = ChartSpace(dimension=1)
    W = [make_potential("linear", 1, slope=1.0), make_potential("linear", 1, slope=0.5)]
    return HamiltonianSpec(space=space, V=make_potential("harmonic", 1), W=W[:columns])


@st.composite
def control_ensembles(draw):
    """Controls on a 1/4 grid, so breakpoints often coincide across members;
    durations run from well short of the horizon 1 to past it."""
    columns = draw(st.sampled_from([1, 2]))
    controls = []
    for _ in range(draw(st.integers(1, 5))):
        ticks = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True))
        bp = np.array([0.0] + sorted(0.25 * k for k in ticks))
        shape = (bp.size - 1,) if columns == 1 else (bp.size - 1, 2)
        values = draw(st.lists(st.floats(-5.0, 5.0), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        controls.append(ControlSignal(bp, np.reshape(values, shape)))
    return controls


def member_schedule(u, horizon, step):
    """Independent model of one member's grid: its cuts and, per segment,
    the step count and the step."""
    cuts = [0.0] + [float(b) for b in u.breakpoints if 0.0 < b < horizon] + [horizon]
    n = [_nsteps(a, b, step) for a, b in zip(cuts[:-1], cuts[1:])]
    return cuts, n, [(b - a) / k for a, b, k in zip(cuts[:-1], cuts[1:], n)]


def member_pieces(u, bounds):
    """Independent model of one law's pieces on consecutive windows: the
    (window, start, end, value) of each gap between its cuts, with the value
    looked up at the piece's midpoint."""
    lo, hi = bounds[0], bounds[-1]
    cuts = sorted(set(bounds) | {float(b) for b in u.breakpoints if lo < b < hi})
    return [(max(k for k, t in enumerate(bounds) if t <= a), a, b,
             u.value_at(0.5 * (a + b))) for a, b in zip(cuts[:-1], cuts[1:])]


class TestControlPieces:
    @settings(max_examples=60, deadline=None)
    @given(control_ensembles(),
           st.lists(st.integers(0, 10), min_size=2, max_size=5).map(sorted))
    def test_pieces_match_each_member_and_each_window(self, controls, ticks):
        # bounds on a 1/8 grid up to 1.25, so a law (its end 0.25 to 1.5)
        # may stop short of them or run past them, a breakpoint may sit on a
        # bound, a repeated bound makes an empty window, and every midpoint
        # lies strictly inside its piece
        bounds = [0.125 * k for k in ticks]
        first, window, start, end, u = control_pieces(controls, bounds)
        assert first[0] == 0 and first[-1] == start.size
        assert window.size == end.size == u.shape[0] == start.size
        for j, law in enumerate(controls):
            mine = slice(first[j], first[j + 1])
            got = list(zip(window[mine].tolist(), start[mine].tolist(),
                           end[mine].tolist(), u[mine]))
            want = member_pieces(law, bounds)
            assert [g[:3] for g in got] == [w[:3] for w in want]
            for g, w in zip(got, want):
                assert np.array_equal(g[3], w[3])
        # cutting one window alone gives that window's pieces
        for k in range(len(bounds) - 1):
            f1, w1, s1, e1, u1 = control_pieces(controls, bounds[k:k + 2])
            assert not w1.any()
            for j in range(len(controls)):
                mine = np.arange(first[j], first[j + 1])
                mine = mine[window[mine] == k]
                alone = slice(f1[j], f1[j + 1])
                assert np.array_equal(s1[alone], start[mine])
                assert np.array_equal(e1[alone], end[mine])
                assert np.array_equal(u1[alone], u[mine])


class TestControlIntegral:
    @settings(max_examples=60, deadline=None)
    @given(control_ensembles())
    def test_integral_matches_segment_sum(self, controls):
        # ∫u of every scalar law (each column of a two-column law taken
        # alone) at 0, its breakpoints, a 1/16 grid and times past its end
        # equals the oracle's segment-by-segment sum, bit for bit
        for law in controls:
            for column in law.values.reshape(law.values.shape[0], -1).T:
                u = ControlSignal(law.breakpoints, column)
                T = u.duration
                times = np.concatenate([[0.0], u.breakpoints, np.arange(0.0, 2.0, 0.0625),
                                        [T, T + 1e-9, T + 0.5]])
                want = [control_integral(u, min(t, T)) for t in times]
                assert np.array_equal(u.integral(times), want)
                assert [u.integral(t) for t in times] == want


class TestSweepControlLookup:
    @settings(max_examples=40, deadline=None)
    @given(control_ensembles())
    def test_values_match_value_at_every_cut(self, controls):
        # at every tick, each live row (coarse then fine pass, members in
        # order) carries its own segment's step, time and value_at(midpoint)
        horizon, step = 1.0, 0.05
        built, seen, lookups = {}, [], []
        real_rhs, real_step = exit_mod.controlled_rhs, exit_mod.rk4_step
        real_value_at = ControlSignal.value_at

        def recording_rhs(spec, u_values):
            rhs = real_rhs(spec, u_values)
            built[rhs] = u_values
            return rhs

        def recording_step(rhs, t, z, h):
            seen.append((np.array(built[rhs]), np.array(t), np.array(h)))
            return real_step(rhs, t, z, h)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exit_mod, "controlled_rhs", recording_rhs)
            mp.setattr(exit_mod, "rk4_step", recording_step)
            mp.setattr(ControlSignal, "value_at",
                       lambda self, t: lookups.append(1) or real_value_at(self, t))
            # Ω is unbounded: nobody exits, so each row runs its whole schedule
            exit_mod._march_exits(line_spec(controls[0].values[0].size),
                                  PhasePoint(np.zeros(1), np.zeros(1)),
                                  BoxRegion(((-1e9, 1e9),)), controls, horizon, step)
        rows = [(u, *member_schedule(u, horizon, step_p))
                for step_p in (step, 0.5 * step) for u in controls]
        assert len(lookups) == len(controls)  # one array lookup per member
        assert len(seen) == max(sum(n) for _, _, n, _ in rows)
        for tick, (u_vals, t, h) in enumerate(seen):
            live = [r for r in rows if tick < sum(r[2])]
            assert u_vals.shape[0] == t.shape[0] == h.shape[0] == len(live)
            for i, (u, cuts, n, hs) in enumerate(live):
                s = int(np.searchsorted(np.cumsum(n), tick, side="right"))
                t_want = cuts[s]
                for _ in range(tick - sum(n[:s])):
                    t_want += hs[s]
                assert h[i, 0] == hs[s] and t[i, 0] == t_want
                want = np.atleast_1d(u.value_at(0.5 * (cuts[s] + cuts[s + 1])))
                assert np.array_equal(u_vals[i], want)

    def test_lookups_only_at_switches(self, monkeypatch):
        controls = sample_controls(3, 40, 3.0, 100.0, max_breakpoints=6)
        calls = []
        real_value_at = ControlSignal.value_at
        monkeypatch.setattr(ControlSignal, "value_at",
                            lambda self, t: calls.append(1) or real_value_at(self, t))
        exit_mod._march_exits(product_spec(), PhasePoint(np.zeros(2), np.zeros(2)),
                              omega_unit(), controls, 3.0, 2e-3)
        switches = sum(int(np.sum((u.breakpoints > 0.0) & (u.breakpoints < 3.0)))
                       for u in controls)
        assert 0 < len(calls) <= len(controls) + switches


class TestMemberSchedules:
    def test_member_exit_independent_of_ensemble(self):
        # W = x acts on the base, so the exits spread; each member marched
        # alone must give, bitwise, its exit inside the ensemble
        spec = dataclasses.replace(_exit_time_spec(parse_config("experiment = exit-time\n")),
                                   W=make_potential("linear", 2, slope=[1.0, 0.0]))
        lam0 = PhasePoint(np.zeros(2), np.array([1.5, 0.0]))
        controls = sample_controls(0, 60, 3.0, 0.5, 6)
        together = sampled_exit_time(spec, lam0, omega_unit(), controls, 3.0,
                                     analytic_bound=0.0).exit_times
        alone = [sampled_exit_time(spec, lam0, omega_unit(), [u], 3.0,
                                   analytic_bound=0.0).exit_times[0] for u in controls]
        assert np.ptp(together) > 0.1
        assert np.array_equal(together, alone)

    def test_ticks_equal_longest_fine_schedule(self, monkeypatch):
        # nobody exits, so the stack runs until the longest fine-pass
        # schedule ends: one rk4_step per tick, for both passes at once
        controls = sample_controls(0, 300, 3.0, 100.0, max_breakpoints=6)
        calls = []
        real_step = exit_mod.rk4_step
        monkeypatch.setattr(exit_mod, "rk4_step",
                            lambda *args: calls.append(1) or real_step(*args))
        report = sampled_exit_time(product_spec(), PhasePoint(np.zeros(2), np.zeros(2)),
                                   omega_unit(), controls, 3.0, step=2e-3,
                                   analytic_bound=0.0)
        assert report.members_exited == 0
        longest = max(sum(member_schedule(u, 3.0, 1e-3)[1]) for u in controls)
        assert len(calls) == longest == 3004

    def test_rows_leaving_in_one_tick_are_located_together(self, monkeypatch):
        # x = 1.5 sin t: every row leaves Ω near asin(2/3), in a few ticks;
        # each tick's leavers share one bisect_event call and keep, bitwise,
        # the exit each member gets alone
        lam0 = PhasePoint(np.zeros(2), np.array([1.5, 0.0]))
        controls = sample_controls(0, 12, 3.0, 100.0)
        brackets = []
        real_bisect = exit_mod.bisect_event

        def recording_bisect(f, lo, hi, **kwargs):
            brackets.append(lo.size)
            return real_bisect(f, lo, hi, **kwargs)

        monkeypatch.setattr(exit_mod, "bisect_event", recording_bisect)
        together = sampled_exit_time(product_spec(), lam0, omega_unit(), controls, 3.0,
                                     analytic_bound=0.0).exit_times
        assert sum(brackets) == 2 * len(controls)
        assert len(brackets) < len(controls)
        alone = [sampled_exit_time(product_spec(), lam0, omega_unit(), [u], 3.0,
                                   analytic_bound=0.0).exit_times[0] for u in controls]
        assert np.array_equal(together, alone)
