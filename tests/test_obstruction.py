import gc
import json
import types
import weakref

import numpy as np
import pytest

from oracles import (control_integral, cumulative_trapezoid, engine_fan,
                     member_residual_norm, residual_norms)
import sclab.obstruction
import sclab.wkb
from sclab.cli import main as cli_main
from sclab.config import parse_config
from sclab.dynamics import ControlSignal, sample_controls
from sclab.errors import CausticReached, HypothesisViolated
from sclab.geometry import BoxRegion, PotentialField, make_potential, pullback
from sclab.harness import run_experiment
from sclab.obstruction import (DUHAMEL_SLACK, FIELD_BLOCK, AnsatzEngine, ObstructionConfig,
                               _sample_indices, estimate_Tq_lower_bound,
                               run_localization_experiment)
from sclab.schrodinger import SpatialGrid, WaveStack, split_step_evolve


def scalar_config(**overrides):
    base = dict(
        grid=SpatialGrid(((-np.pi, 2 * np.pi, 512),)),
        omega=BoxRegion(((-0.9, 0.9),)),
        omega_prime=BoxRegion(((-0.6, 0.6),)),
        V=None,
        W=make_potential("linear", 1, slope=0.0, offset=1.0),  # W ≡ 1
        eps_grid=(0.01, 0.02, 0.04),
        ensemble_count=8,
        seed=3,
    )
    base.update(overrides)
    return ObstructionConfig(**base)


def localize(cfg):
    """The localization experiment on an engine built at max(eps_grid)."""
    return run_localization_experiment(AnsatzEngine(cfg, max(cfg.eps_grid)))


def cli_report(tmp_path, monkeypatch, body):
    """run_experiment on an obstruction config with body at seed 3, writing
    into tmp_path; the config and the report its files were written from."""
    reports = []
    run = sclab.obstruction.run_localization_experiment
    monkeypatch.setattr(sclab.obstruction, "run_localization_experiment",
                        lambda engine: reports.append(run(engine)) or reports[-1])
    cfg = parse_config(f"experiment = obstruction\nseed = 3\n{body}\nout = {tmp_path}\n")
    assert run_experiment(cfg) == 0
    (rep,) = reports
    return cfg, rep


def chi_psi_at(engine, t):
    """The engine's χψ̃ row at the fan time t."""
    return engine.chi_psi[engine.rows(int(np.argmin(np.abs(engine.times - t))))]


def ansatz(cfg, controls, t):
    """φ(t) of every control as the localization experiment builds it: the
    engine's χψ̃ row at t times each control's phase e^{-ic∫₀ᵗu/ħ}."""
    engine = AnsatzEngine(cfg, max(cfg.eps_grid))
    phases = engine.phase(np.array([u.integral(t) for u in controls]))
    return np.multiply(chi_psi_at(engine, t), phases[:, None])


class TestBuildAnsatz:
    def test_initial_state_normalized(self):
        cfg = scalar_config()
        phi0 = ansatz(cfg, [ControlSignal.constant(7.0, 0.04)], 0.0)[0]
        norm = np.sqrt(np.sum(np.abs(phi0) ** 2) * cfg.grid.cell_volume)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_magnitude_control_independent(self):
        cfg = scalar_config()
        u1 = ControlSignal.constant(9.0, 0.04)
        u2 = ControlSignal(np.array([0.0, 0.01, 0.04]), np.array([-30.0, 4.0]))
        for t in (0.01, 0.03):
            a, b = ansatz(cfg, [u1, u2], t)
            assert np.max(np.abs(np.abs(a) - np.abs(b))) < 1e-13

    def test_phase_carries_control_integral(self):
        cfg = scalar_config()
        u1 = ControlSignal.constant(5.0, 0.04)
        u2 = ControlSignal.constant(0.0, 0.04)
        t = 0.02
        a, b = ansatz(cfg, [u1, u2], t)
        expected = np.exp(-1j * 5.0 * t)  # c = 1: e^{-ic∫u}
        mask = np.abs(b) > 1e-8
        ratio = a[mask] / b[mask]
        assert np.max(np.abs(ratio - expected)) < 1e-10

    def test_product_ansatz_is_rank_one(self, separable_run):
        # a separable evolution keeps ψ₁ ⊗ ψ₂ a product, the form of the
        # product ansatz φ₁ ⊗ ψ₂: every 2×2 minor of each member's ψ vanishes
        for vals in separable_run["psi"].values:
            i0, j0 = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
            rank1 = np.outer(vals[:, j0], vals[i0, :]) / vals[i0, j0]
            assert np.max(np.abs(vals - rank1)) < 1e-10

    def test_degenerate_second_factor_matches_scalar_delta(self, degenerate_run):
        # a constant W₂ on N₂ carries the control phase that W ≡ 1 puts on
        # N₁ in the scalar run: ‖ψ − φ₁ ⊗ U₂ψ₂‖ with the phase-free φ₁ is the
        # scalar ‖ψ − φ‖, which the scalar δ bounds
        r = degenerate_run
        phi1 = chi_psi_at(AnsatzEngine(r["cfg"], max(r["cfg"].eps_grid)), r["T"])
        product = r["psi"].distances(phi1[None, :, None] * r["second"].values[:, None, :])
        scalar = r["scalar"].distances(ansatz(r["cfg"], r["controls"], r["T"]))
        assert np.allclose(product, scalar, rtol=0.0, atol=1e-12)
        (max_deviation,), (delta,) = r["rep"].max_deviation, r["rep"].delta
        assert np.all(product <= max_deviation + 1e-12)
        assert np.all(product <= delta + DUHAMEL_SLACK)

    def test_ensemble_phases_match_each_control_alone(self):
        # the ensemble's ∫u and control phases are those of each control
        # integrated alone, segment by segment, bit for bit
        cfg = scalar_config(W=make_potential("linear", 1, slope=0.0, offset=0.7))
        engine = AnsatzEngine(cfg, max(cfg.eps_grid))
        controls = sample_controls(7, 30, 0.04, 50.0, 8, scheme="lhs",
                                   include_extremes=True)
        times = np.linspace(0.0, 0.05, 51)  # past the horizon too
        table = np.array([u.integral(times) for u in controls])
        for k, t in enumerate(times):
            alone = np.array([control_integral(u, min(t, u.duration)) for u in controls])
            assert np.array_equal(table[:, k], alone)
            assert np.array_equal(engine.phase(table)[:, k],
                                  [engine.phase(a) for a in alone])


N2_GRID = SpatialGrid(((-np.pi, 2 * np.pi, 64),))


def evolved(grid, state, V, W, controls, T, dt, hbar):
    """One copy of state per control, evolved to T under V + u·W."""
    stack = WaveStack(grid, np.repeat(state[None], len(controls), axis=0), hbar)
    return split_step_evolve(stack, V, W, controls, T, dt)


def product_evolution(cfg, controls, T, psi1, psi2, V2, W2):
    """ψ₁ ⊗ ψ₂ evolved on N₁ × N₂ under cfg.V on N₁ and V₂ + u·W₂ on N₂, with
    the 1-D evolutions of its factors: U₁ψ₁ under cfg.V alone (the controls
    only cut its steps) and U₂ψ₂ under V₂ + u·W₂."""
    grid = SpatialGrid((cfg.grid.axes[0], N2_GRID.axes[0]))
    psi = evolved(grid, np.multiply.outer(psi1, psi2), pullback(V2, 1), pullback(W2, 1),
                  controls, T, cfg.dt, cfg.hbar)
    return (psi, evolved(cfg.grid, psi1, cfg.V, None, controls, T, cfg.dt, cfg.hbar),
            evolved(N2_GRID, psi2, V2, W2, controls, T, cfg.dt, cfg.hbar))


def gaussian_on_n2():
    y = N2_GRID.points(0)
    psi2 = np.exp(-y ** 2)
    return psi2 / np.sqrt(np.sum(psi2 ** 2) * N2_GRID.cell_volume)


@pytest.fixture(scope="module")
def separable_run():
    """V₂ = cos y, W₂ = cos 2y on N₂; nothing but the free flow on N₁."""
    cfg = scalar_config(grid=SpatialGrid(((-np.pi, 2 * np.pi, 128),)), W=None,
                        n_seeds=600, eps_grid=(0.05,), dt=2.5e-4)
    V2, W2 = make_potential("cosine", 1), make_potential("cosine", 1, freq=2.0)
    controls = sample_controls(1, 3, 0.05, 20.0, 8, scheme="lhs", include_extremes=True)
    T = 0.05
    engine = AnsatzEngine(cfg, T)
    psi2 = gaussian_on_n2()
    psi, free, second = product_evolution(cfg, controls, T, chi_psi_at(engine, 0.0), psi2,
                                          V2, W2)
    return dict(cfg=cfg, controls=controls, T=T, engine=engine, psi2=psi2, V2=V2, W2=W2,
                psi=psi, free=free, second=second)


@pytest.fixture(scope="module")
def degenerate_run():
    """The scalar experiment at W ≡ 1 beside the same ensemble on N₁ × N₂
    with V₂ = cos y and a constant W₂ ≡ 1 on N₂: the control then enters
    only as a phase, on either factor."""
    cfg = scalar_config(grid=SpatialGrid(((-np.pi, 2 * np.pi, 128),)), n_seeds=600,
                        eps_grid=(0.05,), ensemble_count=5, ensemble_amplitude=20.0,
                        seed=1, dt=2.5e-4)
    rep = localize(cfg)
    # the ensemble run_localization_experiment draws from the config's seed
    controls = sample_controls(np.random.default_rng(cfg.seed), cfg.ensemble_count,
                               max(cfg.eps_grid), cfg.ensemble_amplitude,
                               cfg.ensemble_max_breakpoints, scheme="lhs",
                               include_extremes=True)
    T = rep.eps_grid[-1]
    phi0 = ansatz(cfg, controls, 0.0)
    one = make_potential("linear", 1, slope=0.0, offset=1.0)
    psi, _, second = product_evolution(cfg, controls, T, phi0[0], gaussian_on_n2(),
                                       make_potential("cosine", 1), one)
    scalar = split_step_evolve(WaveStack(cfg.grid, phi0, cfg.hbar), cfg.V, cfg.W, controls,
                               T, cfg.dt)
    return dict(cfg=cfg, rep=rep, controls=controls, T=T, psi=psi, second=second,
                scalar=scalar)


class TestProductReduction:
    """A separable N₁ × N₂ system is the scalar case on N₁ (the obstruction
    module docstring): its evolution factors, so the product ansatz's
    deviation is the scalar one."""

    def test_product_evolution_factors(self, separable_run):
        # ψ₁ ⊗ ψ₂ evolved on the 2-D grid is U₁ψ₁ ⊗ U₂ψ₂ from the two 1-D
        # evolutions, so ‖ψ − φ₁ ⊗ U₂ψ₂‖ = ‖U₁ψ₁ − φ₁‖ for the ansatz φ₁
        r = separable_run
        psi, free, second = r["psi"], r["free"], r["second"]
        factored = free.values[:, :, None] * second.values[:, None, :]
        assert np.max(psi.distances(factored)) <= 1e-12
        phi1 = chi_psi_at(r["engine"], r["T"])
        assert np.allclose(psi.distances(phi1[None, :, None] * second.values[:, None, :]),
                           free.distances(phi1), rtol=0.0, atol=1e-12)
        # the factor check can fail: ψ₂·e^{i·10⁻³y} on N₂ misses ψ by far more
        perturbed = evolved(N2_GRID, r["psi2"] * np.exp(1e-3j * N2_GRID.points(0)),
                            r["V2"], r["W2"], r["controls"], r["T"], r["cfg"].dt,
                            r["cfg"].hbar)
        assert np.min(psi.distances(free.values[:, :, None]
                                    * perturbed.values[:, None, :])) > 1e-5


class TestLocalizationExperiment:
    def test_scalar_demo_report(self):
        rep = localize(scalar_config())
        assert rep.duhamel_violations == 0
        assert rep.witness_violations == 0
        assert rep.hypothesis_uniform
        assert all(v < 1e-9 for v in rep.delta_spread_by_eps.values())
        assert rep.certified_bound > 0.0
        assert rep.initial_tail < 1e-10
        assert rep.initial_tail >= 0.0
        assert np.all(rep.outside_probability >= 0.0)
        # δ grows linearly for the static-phase demo
        eps = sorted(rep.delta_by_eps)
        deltas = [rep.delta_by_eps[e] for e in eps]
        ratios = [d / e for d, e in zip(deltas, eps)]
        assert max(ratios) - min(ratios) < 1e-6 * max(ratios)

    @pytest.mark.parametrize("hbar, certified", [(0.5, 0.08), (0.25, 0.16)])
    def test_duhamel_bound_holds_below_unit_hbar(self, hbar, certified):
        # the control phase and δ both carry 1/ħ; for S0 = V = 0 the residual
        # is ∝ ħ², so δ ∝ ħ and the certified ε grows as 1/ħ
        rep = localize(scalar_config(
            hbar=hbar, ensemble_count=4, eps_grid=(0.04, 0.08, 0.16)))
        assert rep.duhamel_violations == 0
        assert rep.witness_violations == 0
        assert rep.certified_bound == certified

    def test_delta_rounds_up_a_falling_residual(self):
        # S0 = +x²/2 spreads the packet, so ‖r‖ falls between the samples;
        # each interval's larger end norm puts δ above the trapezoid's value
        cfg = scalar_config(S0=make_potential("harmonic", 1, k=1.0), ensemble_count=2,
                            eps_grid=(0.02, 0.04))
        engine = AnsatzEngine(cfg, 0.04)
        rep = run_localization_experiment(engine)
        for eps in cfg.eps_grid:
            idx = _sample_indices(engine, eps, cfg.n_samples)
            norms, times = engine.residual_norms(idx), engine.times[idx]
            assert np.all(np.diff(norms) < 0)
            trapezoid = cumulative_trapezoid(norms, times)[-1] / cfg.hbar
            assert rep.delta_by_eps[float(times[-1])] > trapezoid

    def test_violation_withholds_certificate(self, monkeypatch):
        monkeypatch.setattr(sclab.obstruction, "DUHAMEL_SLACK", -1.0)
        rep = localize(scalar_config(ensemble_count=2, eps_grid=(0.02,)))
        assert rep.duhamel_violations > 0
        assert max(rep.delta_by_eps.values()) < 1.0 - 0.1  # δ alone would certify
        assert rep.certified_bound == 0.0

    def test_margins_turn_negative_when_the_checks_fail(self, tmp_path, monkeypatch):
        # summary.json's least Duhamel and witness margins are positive on a
        # run that passes, and negative under the violation of
        # test_violation_withholds_certificate
        def summary(out):
            cfg = parse_config("experiment = obstruction\nseed = 3\n"
                               "obstruction.eps_grid = 0.02\nobstruction.ensemble = 2\n"
                               f"out = {out}\n")
            assert run_experiment(cfg) == 0
            return json.loads((out / "summary.json").read_text())

        passed = summary(tmp_path / "passed")
        assert passed["duhamel_violations"] == passed["witness_violations"] == 0
        assert passed["duhamel_margin_min"] > 0.0
        assert passed["witness_margin_min"] > 0.0
        monkeypatch.setattr(sclab.obstruction, "DUHAMEL_SLACK", -1.0)
        failed = summary(tmp_path / "failed")
        assert failed["duhamel_violations"] > 0
        assert failed["witness_violations"] > 0
        assert failed["duhamel_margin_min"] < 0.0
        assert failed["witness_margin_min"] < 0.0

    def test_nested_samples_keep_the_bits_of_the_largest_eps(self):
        # 0.01's sample times are among 0.02's, so the one march of
        # (0.01, 0.02) is the march of (0.02,) and 0.02's rows keep their bits
        V = make_potential("harmonic", 1)
        rows = []
        for eps_grid in ((0.01, 0.02), (0.02,)):
            cfg = scalar_config(V=V, ensemble_count=6, eps_grid=eps_grid)
            engine = AnsatzEngine(cfg, max(eps_grid))
            samples = [set(_sample_indices(engine, eps, cfg.n_samples)) for eps in eps_grid]
            assert samples[0] <= samples[-1]
            rep = run_localization_experiment(engine)
            e = rep.eps_grid.index(max(rep.eps_grid))
            rows.append((rep.eps_grid[e], np.stack(
                [t[e] for t in (rep.delta, rep.max_deviation, rep.min_witness_distance,
                                rep.outside_probability, rep.duhamel_margin)])))
        assert rows[0][1].shape == (5, 6 + 2)  # with the two extreme constants
        assert rows[0][0] == rows[1][0]
        assert rows[0][1].tobytes() == rows[1][1].tobytes()

    def test_coarser_step_stays_inside_the_slack(self, monkeypatch):
        # every ε takes the step of the largest; each ε's max_deviation
        # stays within DUHAMEL_SLACK of that ε marched alone at the step it
        # would take alone, min(1e-3, ε/64)
        cfg = scalar_config(V=make_potential("harmonic", 1, k=4.0),
                            eps_grid=(0.01, 0.02, 0.04, 0.08))
        engine = AnsatzEngine(cfg, max(cfg.eps_grid))
        ensembles = []
        evolve = sclab.obstruction.split_step_evolve
        monkeypatch.setattr(sclab.obstruction, "split_step_evolve",
                            lambda stack, V, W, controls, *args, **kwargs:
                            ensembles.append(controls) or evolve(stack, V, W, controls,
                                                                 *args, **kwargs))
        rep = run_localization_experiment(engine)
        assert rep.duhamel_violations == rep.witness_violations == 0
        controls = ensembles[0]
        for eps in cfg.eps_grid:
            idx = _sample_indices(engine, eps, cfg.n_samples)
            rows, times = engine.rows(idx), engine.times[idx]
            phases = engine.phase(np.array([u.integral(times) for u in controls]))
            stack = WaveStack(cfg.grid, engine.chi_psi[rows[0]] * phases[:, :1], cfg.hbar)
            alone = np.zeros(len(controls))

            def compare(k, stack):
                phi = engine.chi_psi[rows[k + 1]] * phases[:, k + 1, None]
                np.maximum(alone, stack.distances(phi), out=alone)

            split_step_evolve(stack, cfg.V, cfg.W, controls, times[1:],
                              min(1e-3, times[-1] / 64.0), on_stop=compare)
            shared = rep.max_deviation[rep.eps_grid.index(times[-1])]
            assert len(shared) == len(controls)
            assert np.max(np.abs(np.subtract(shared, alone))) <= DUHAMEL_SLACK

    def test_distance_floor_holds_per_record(self):
        rep = localize(scalar_config(ensemble_count=4))
        assert np.all(rep.min_witness_distance >= 1.0 - rep.delta - 1e-6)

    def test_hypothesis_enforcement(self):
        cfg = scalar_config(W=make_potential("linear", 1, slope=1.0),
                            ensemble_count=2)
        with pytest.raises(HypothesisViolated):
            localize(cfg)

    def test_broken_hypothesis_flagged_not_failed(self):
        cfg = scalar_config(W=make_potential("linear", 1, slope=1.0),
                            enforce_hypothesis=False,
                            ensemble_count=4, ensemble_amplitude=5.0,
                            ensemble_max_breakpoints=1,
                            eps_grid=(0.02,), dt=2.5e-4)
        rep = localize(cfg)
        assert rep.duhamel_violations == 0  # modified residual still certifies
        assert not rep.hypothesis_uniform   # but δ is control dependent
        assert max(rep.delta_spread_by_eps.values()) > 1e-9

    def test_ensemble_spread_is_round_off_for_constant_w(self):
        # W ≡ 1 makes u·W a global phase, which φ carries: no control moves
        # ψ off φ, so max_deviation agrees across the ensemble
        rep = localize(scalar_config())
        assert rep.ensemble_spread <= 1e-12

    def test_ensemble_spread_sees_a_varying_w(self):
        # the config of test_broken_hypothesis_flagged_not_failed: with W = x
        # each control moves ψ off φ by its own amount
        cfg = scalar_config(W=make_potential("linear", 1, slope=1.0),
                            enforce_hypothesis=False,
                            ensemble_count=4, ensemble_amplitude=5.0,
                            ensemble_max_breakpoints=1,
                            eps_grid=(0.02,), dt=2.5e-4)
        rep = localize(cfg)
        assert rep.ensemble_spread > 1e-6

    def test_product_outside_probability_bounded(self, degenerate_run):
        # the mass of ψ outside Ω × N₂ is the scalar run's mass outside Ω,
        # which the scalar δ and initial tail bound
        r = degenerate_run
        rep, cfg, psi = r["rep"], r["cfg"], r["psi"]
        assert rep.duhamel_violations == 0
        outside = ~cfg.omega.contains(cfg.grid.mesh()).reshape(cfg.grid.shape)
        mass = np.sum(np.abs(psi.values[:, outside]) ** 2, axis=(1, 2)) * psi.grid.cell_volume
        (outside_probability,), (delta,) = rep.outside_probability, rep.delta
        assert mass == pytest.approx(outside_probability, rel=1e-9, abs=1e-15)
        assert np.all(mass <= delta + rep.initial_tail + 1e-9)

    def test_report_serialization(self, tmp_path, monkeypatch):
        # records.csv carries the hash and seed; report.json carries neither
        cfg, rep = cli_report(tmp_path, monkeypatch,
                              "obstruction.ensemble = 2\nobstruction.eps_grid = 0.02")
        js = json.loads((tmp_path / "report.json").read_text())
        assert js["certified_bound"] == rep.certified_bound
        assert "config_hash" not in js and "seed" not in js
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash={cfg.content_hash()} seed=3"
        assert len(lines) == 2 + rep.delta.size == 2 + js["n_records"]

    def test_csv_lists_the_table_eps_major(self, tmp_path, monkeypatch):
        # 2 ε × 3 members (one drawn, two extreme constants): one row per
        # cell, ε-major then member, each float the table's own bits
        _, rep = cli_report(tmp_path, monkeypatch,
                            "obstruction.ensemble = 1\nobstruction.eps_grid = 0.01,0.02")
        tables = (rep.delta, rep.max_deviation, rep.min_witness_distance,
                  rep.outside_probability)
        assert all(t.shape == (2, 3) for t in tables + (rep.duhamel_margin,))
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[1] == ("eps,control_index,delta,max_deviation,"
                            "min_witness_distance,outside_probability")
        rows = [line.split(",") for line in lines[2:]]
        assert [(float(row[0]), int(row[1])) for row in rows] == \
            [(eps, j) for eps in rep.eps_grid for j in range(3)]
        for i, row in enumerate(rows):
            e, j = divmod(i, 3)
            assert [float(cell) for cell in row[2:]] == [t[e, j] for t in tables]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n_records"] == len(rows) == 2 * 3

    def test_eps_on_the_first_fan_time_refused(self, tmp_path):
        # ε = 0.0002 snaps to t = 0, where δ, the max deviation and the
        # Duhamel margin would read 0, 0 and +inf: a check that cannot fail
        cfg = parse_config("experiment = obstruction\nobstruction.eps_grid = 0.0002,0.01\n"
                           f"obstruction.ensemble = 2\nout = {tmp_path}\n")
        assert run_experiment(cfg) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["error_kind"] == "ValueError"
        assert "ε=0.0002 snaps to the fan time 0.0" in summary["error"]
        assert not (tmp_path / "records.csv").exists()

    def test_refused_eps_grid_assembles_no_field(self, tmp_path, monkeypatch):
        # the engine refuses the grid once the fan is shot, before its
        # assembly loop; an engine for T_q alone, whose horizon is below
        # max ε, still builds
        calls = []
        field = sclab.obstruction.wkb_field
        monkeypatch.setattr(sclab.obstruction, "wkb_field",
                            lambda *args: calls.append(1) or field(*args))
        cfg = parse_config("experiment = obstruction\nobstruction.eps_grid = 0.0002,0.08\n"
                           f"out = {tmp_path}\n")
        assert run_experiment(cfg) == 1
        assert "snaps to the fan time 0.0" in json.loads(
            (tmp_path / "summary.json").read_text())["error"]
        assert calls == []
        engine = AnsatzEngine(scalar_config(eps_grid=(0.01, 0.08)), 0.04)
        assert calls and estimate_Tq_lower_bound(engine) > 0.0


class TestTqEstimate:
    def test_zero_residual_reaches_horizon(self):
        # for S0 = V = 0 the residual is ħ²·½Δ(χa), so δ = (1/ħ)∫‖r‖ is ∝ ħ:
        # at ħ = 1e-6 it stays near zero and the bound is the whole horizon
        cfg = scalar_config(hbar=1e-6, eps_grid=(0.05,))
        bound = estimate_Tq_lower_bound(AnsatzEngine(cfg, 0.05))
        assert bound == pytest.approx(0.05, abs=1e-6)

    def test_demo_bound_strictly_positive(self):
        bound = estimate_Tq_lower_bound(AnsatzEngine(scalar_config(), 0.2))
        assert bound > 0.0

    def test_linear_model_inversion(self):
        # δ(ε) = s·ε here, so the ε with δ = thr is thr/s; one engine
        # serves both stages
        engine = AnsatzEngine(scalar_config(), 0.2)
        rep = run_localization_experiment(engine)
        eps0 = sorted(rep.delta_by_eps)[0]
        slope = rep.delta_by_eps[eps0] / eps0
        thr = 0.9
        bound = estimate_Tq_lower_bound(engine, threshold=thr)
        assert bound == pytest.approx(thr / slope, rel=1e-2)

    def test_bound_grows_as_inverse_hbar(self):
        # for S0 = V = 0 the residual is ∝ ħ², so δ = (1/ħ)∫‖r‖ is ∝ ħ
        bound = estimate_Tq_lower_bound(AnsatzEngine(scalar_config(), 0.3), threshold=0.9)
        half = estimate_Tq_lower_bound(AnsatzEngine(scalar_config(hbar=0.5), 0.3),
                                       threshold=0.9)
        assert half == pytest.approx(2.0 * bound, rel=1e-6)

    def test_falling_residual_stays_below_the_fan_grid_crossing(self):
        # S0 = +x²/2 spreads the packet, so ‖r‖ falls from 16.2 to 9.9 by
        # t = 0.4; the T_q grid keeps every third of the 801 fan times.  The
        # trapezoid on that grid understates δ where ‖r‖ is concave and put
        # T_q past the crossing of δ on every fan time; each interval's
        # larger end norm keeps T_q before it
        cfg = scalar_config(S0=make_potential("harmonic", 1, k=1.0), eps_grid=(0.04,))
        engine = AnsatzEngine(cfg, 0.4)
        assert engine.tq_idx[1] == 3  # the T_q grid is coarser than the fan's
        # the engine serves the T_q grid alone; every fan time's ‖r‖ comes
        # from the fan shot again, which gives the engine's bits on every
        # block
        every = np.arange(engine.tq_idx[-1] + 1)
        norms = residual_norms(engine, engine_fan(engine, 0.4), every)
        assert np.array_equal(norms[engine.tq_idx], engine.residual_norms(engine.tq_idx))
        assert norms[-1] < 0.75 * norms[0]

        def crossing(delta, times, thr):
            k = int(np.argmax(delta >= thr))
            return times[k - 1] + (thr - delta[k - 1]) / (delta[k] - delta[k - 1]) \
                * (times[k] - times[k - 1])

        times = engine.times
        fan_grid = cumulative_trapezoid(norms, times[every])
        coarse = cumulative_trapezoid(engine.residual_norms(engine.tq_idx),
                                       times[engine.tq_idx])
        for thr in (0.5, 1.0, 2.0):
            t_fan = crossing(fan_grid, times[every], thr)
            assert crossing(coarse, times[engine.tq_idx], thr) > t_fan  # the old rule
            assert 0.9 * t_fan < estimate_Tq_lower_bound(engine, threshold=thr) <= t_fan

    def test_varying_w_certifies_no_horizon(self, tmp_path):
        # W = x breaks the constancy hypothesis: the control-free ‖r‖ then
        # misses the u·(W − c)·φ term, and the run's own δ passes the
        # threshold at ε = 0.02 although that ‖r‖ stays below it to 0.04
        cfg = parse_config("experiment = obstruction\nseed = 5\n"
                           "obstruction.w.name = linear\nobstruction.w.slope = 1.0\n"
                           "obstruction.amplitude = 400\nobstruction.ensemble = 4\n"
                           "obstruction.eps_grid = 0.01,0.02,0.04\n"
                           f"obstruction.enforce_hypothesis = false\nout = {tmp_path}\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["delta_by_eps"]["0.02"] > 0.9
        assert summary["tq_lower_bound"] == 0.0

    def test_varying_w_raises_when_enforced(self, monkeypatch):
        # the engine checks the hypothesis before it shoots its fan
        calls = []
        shoot = sclab.obstruction.shoot_characteristics
        monkeypatch.setattr(sclab.obstruction, "shoot_characteristics",
                            lambda *a, **k: calls.append(1) or shoot(*a, **k))
        with pytest.raises(HypothesisViolated):
            AnsatzEngine(scalar_config(W=make_potential("linear", 1, slope=1.0)), 0.04)
        assert calls == []

    def test_caustic_caps_the_bound(self):
        # contracting phase S0 = -x²/2 focuses at t = 1: guard must cap earlier
        cfg = scalar_config(S0=make_potential("harmonic", 1, k=-1.0),
                            a0=make_potential("gaussian", 1, width=0.3),
                            eps_grid=(0.05,))
        bound = estimate_Tq_lower_bound(AnsatzEngine(cfg, 2.0), threshold=1e9)
        assert 0.0 < bound < 1.0


class TestWorkCounts:
    """The time-independent tables are made once, whatever the sample count."""

    def test_cutoff_tabulated_once_per_engine(self, monkeypatch):
        profiles = []
        bump = sclab.wkb._bump
        monkeypatch.setattr(sclab.wkb, "_bump",
                            lambda s: profiles.append(s.shape) or bump(s))
        counts = []
        for eps_grid in ((0.01,), (0.01, 0.02, 0.04)):
            cfg = scalar_config(eps_grid=eps_grid, ensemble_count=2)
            engine = AnsatzEngine(cfg, max(eps_grid))
            run_localization_experiment(engine)
            estimate_Tq_lower_bound(engine)
            counts.append(len(profiles))
            profiles.clear()
        assert counts == [1, 1]

    def test_one_split_step_call_per_run(self, monkeypatch):
        # one march from t = 0 stops at every sample time of every ε; 0.08's
        # samples (stride 3) are not among 0.04's (stride 1)
        stops = []
        evolve = sclab.obstruction.split_step_evolve

        def counted(stack, V, W, controls, T, *args, **kwargs):
            stops.append(np.array(T))
            return evolve(stack, V, W, controls, T, *args, **kwargs)

        monkeypatch.setattr(sclab.obstruction, "split_step_evolve", counted)
        cfg = scalar_config(ensemble_count=3, eps_grid=(0.01, 0.02, 0.04, 0.08))
        engine = AnsatzEngine(cfg, max(cfg.eps_grid))
        run_localization_experiment(engine)
        union = np.unique(np.concatenate([_sample_indices(engine, eps, cfg.n_samples)
                                          for eps in cfg.eps_grid]))
        assert union[0] == 0
        assert len(stops) == 1
        assert np.array_equal(stops[0], engine.times[union[1:]])

    def test_w_tabulated_once_when_the_hypothesis_is_broken(self):
        calls = []
        slope = make_potential("linear", 1, slope=1.0)
        W = PotentialField(value=lambda x: calls.append(1) or slope.value(x),
                           gradient=slope.gradient, name="counted-linear")
        counts = []
        for count in (2, 4):
            cfg = scalar_config(W=W, enforce_hypothesis=False, ensemble_count=count,
                                ensemble_amplitude=5.0, eps_grid=(0.02,), dt=2.5e-4)
            localize(cfg)
            counts.append(len(calls))
            calls.clear()
        assert counts[0] == counts[1]

    def test_residual_grid_once_per_sample_time(self, monkeypatch):
        # with the hypothesis broken every member needs a residual at every
        # sample time; the control-free grid is shared, only u·(W − c)·χψ̃
        # is per member, and the grids come FIELD_BLOCK times per call
        grids = []
        residual = sclab.obstruction.wkb_residual
        monkeypatch.setattr(sclab.obstruction, "wkb_residual",
                            lambda field, chi: grids.append(np.size(field.t))
                            or residual(field, chi))
        cfg = scalar_config(W=make_potential("linear", 1, slope=1.0), enforce_hypothesis=False,
                            ensemble_count=4, ensemble_amplitude=5.0, eps_grid=(0.01, 0.02),
                            dt=2.5e-4)
        engine = AnsatzEngine(cfg, max(cfg.eps_grid))
        run_localization_experiment(engine)
        sample_times = {k for eps in cfg.eps_grid
                        for k in _sample_indices(engine, eps, cfg.n_samples)}
        assert sum(grids) == len(sample_times)
        assert len(grids) == -(-len(sample_times) // FIELD_BLOCK)

    def test_broken_hypothesis_assembles_each_served_time_once(self, monkeypatch):
        # with W = x and the hypothesis not enforced, t = 0, whose row scales
        # a0, is assembled in the first block like any other served time
        field_times = []
        field = sclab.obstruction.wkb_field
        monkeypatch.setattr(sclab.obstruction, "wkb_field",
                            lambda fan, a0, grid, t: field_times.append(np.atleast_1d(t))
                            or field(fan, a0, grid, t))
        cfg = scalar_config(W=make_potential("linear", 1, slope=1.0), enforce_hypothesis=False)
        engine = AnsatzEngine(cfg, max(cfg.eps_grid))
        assert engine.residuals is not None
        assert sorted(np.concatenate(field_times).tolist()) == \
            engine.times[engine.served].tolist()
        assert len(field_times) == -(-engine.served.size // FIELD_BLOCK)

    def test_member_norms_match_the_per_member_formula(self):
        # one row per member, taken on the shared control-free grid, gives
        # the bits of ‖r‖ formed for each (member, sample time) alone
        cfg = scalar_config(W=make_potential("cosine", 1), enforce_hypothesis=False,
                            eps_grid=(0.02,))
        engine = AnsatzEngine(cfg, 0.02)
        fan = engine_fan(engine, 0.02)
        controls = sample_controls(4, 6, 0.02, 50.0, 4, include_extremes=True)
        idx = _sample_indices(engine, 0.02, cfg.n_samples)
        rows = engine.member_residual_norms(idx, controls)
        assert rows.shape == (len(controls), idx.size)
        assert np.array_equal(rows, [[member_residual_norm(engine, fan, u, k) for k in idx]
                                     for u in controls])


class TestSharedEngine:
    def test_harness_shoots_one_fan(self, tmp_path, monkeypatch):
        # one hypothesis check, then one fan at max(eps_grid)
        calls = []
        shoot = sclab.obstruction.shoot_characteristics
        check = sclab.obstruction.check_hypothesis

        def counted(*args, **kwargs):
            calls.append(args[3])  # the horizon
            return shoot(*args, **kwargs)

        monkeypatch.setattr(sclab.obstruction, "shoot_characteristics", counted)
        monkeypatch.setattr(sclab.obstruction, "check_hypothesis",
                            lambda cfg: calls.append("check") or check(cfg))
        cfg = parse_config("experiment = obstruction\nseed = 5\n"
                           "obstruction.eps_grid = 0.01,0.02\n"
                           "obstruction.ensemble = 3\nobstruction.n_seeds = 600\n"
                           "obstruction.w.name = linear\nobstruction.w.slope = 0.0\n"
                           f"obstruction.w.offset = 1.0\nout = {tmp_path}\n")
        assert run_experiment(cfg) == 0
        assert calls == ["check", 0.02]

    def test_shared_engine_still_raises_at_a_caustic(self):
        cfg = scalar_config(S0=make_potential("harmonic", 1, k=-1.0),
                            a0=make_potential("gaussian", 1, width=0.3),
                            eps_grid=(1.2,), ensemble_count=1)
        engine = AnsatzEngine(cfg, 1.2)
        with pytest.raises(CausticReached):
            run_localization_experiment(engine)
        assert 0.0 < estimate_Tq_lower_bound(engine, 1e9) < 1.0

    def test_validity_is_required_up_to_the_largest_sample_time(self):
        # the fan reaches past the caustic, the ε grid stops before it
        cfg = scalar_config(S0=make_potential("harmonic", 1, k=-1.0),
                            a0=make_potential("gaussian", 1, width=0.3),
                            eps_grid=(0.05,), ensemble_count=1)
        engine = AnsatzEngine(cfg, 1.2)
        assert 0.05 < engine.guard_floor < 1.2
        rep = run_localization_experiment(engine)
        assert rep.eps_grid == (pytest.approx(0.05),)

    def test_benchmark_reference_summary(self, tmp_path, bench):
        # the obstruction workload of perfbench/run.py at seed 0
        workload = bench.WORKLOADS["obstruction"]
        out = tmp_path / "out"
        cfg = parse_config(bench.config_text(workload, 0, out, shipped_sizes=False))
        assert run_experiment(cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert bench.check_summary(workload, summary, use_reference=True) == []


# the obstruction benchmark's config: W ≡ 1 on the base, 40 members, seed 0
BENCHMARK_CONFIG = """experiment = obstruction
seed = 0
obstruction.w.name = linear
obstruction.w.slope = 0.0
obstruction.w.offset = 1.0
obstruction.ensemble = 40
"""


class TestBenchmarkConfig:
    """One `sclab obstruction` run at the benchmark's config, with its numbers
    pinned here as well as in perfbench, and the work it does counted."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench")
        config = out / "config.txt"
        config.write_text(BENCHMARK_CONFIG + f"out = {out}\n")
        counts = {"fans": 0, "slope_solves": 0, "field_times": 0, "field_calls": 0,
                  "marches": 0, "ffts": 0}
        # the times each wkb_field call assembles, the engine, and weak
        # references to the fan's frame arrays with their size
        seen = {"field_times": [], "engines": [], "frames": [], "frame_bytes": 0}
        shoot, slopes = sclab.obstruction.shoot_characteristics, sclab.wkb._not_a_knot_slopes
        field = sclab.obstruction.wkb_field
        evolve = sclab.obstruction.split_step_evolve
        engine = sclab.obstruction.AnsatzEngine
        fftn, ifftn = np.fft.fftn, np.fft.ifftn

        def counted_shoot(*args, **kwargs):
            counts["fans"] += 1
            fan = shoot(*args, **kwargs)
            arrays = (fan.x, fan.p, fan.S, fan.J, fan.delta_p)
            seen["frames"] = [weakref.ref(a) for a in arrays + (fan.x.base,)]
            seen["frame_bytes"] = min(a.nbytes for a in arrays)
            return fan

        def counted_slopes(x, y):
            counts["slope_solves"] += 1
            return slopes(x, y)

        def counted_field(fan, a0, grid, t):
            counts["field_times"] += np.size(t)
            counts["field_calls"] += 1
            seen["field_times"].extend(np.atleast_1d(t).tolist())
            return field(fan, a0, grid, t)

        def kept_engine(*args):
            seen["engines"].append(engine(*args))
            return seen["engines"][-1]

        def counted_evolve(*args, **kwargs):
            counts["marches"] += 1
            return evolve(*args, **kwargs)

        def counted_fft(transform):
            def call(*args, **kwargs):
                counts["ffts"] += 1
                return transform(*args, **kwargs)
            return call

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sclab.obstruction, "shoot_characteristics", counted_shoot)
            mp.setattr(sclab.obstruction, "split_step_evolve", counted_evolve)
            mp.setattr(np.fft, "fftn", counted_fft(fftn))
            mp.setattr(np.fft, "ifftn", counted_fft(ifftn))
            mp.setattr(sclab.wkb, "_not_a_knot_slopes", counted_slopes)
            mp.setattr(sclab.obstruction, "wkb_field", counted_field)
            mp.setattr(sclab.obstruction, "AnsatzEngine", kept_engine)
            assert cli_main(["obstruction", "--config", str(config)]) == 0
        return json.loads((out / "summary.json").read_text()), counts, seen

    def test_summary_numbers(self, run):
        summary, _, _ = run
        assert summary["certified_bound"] == 0.04
        assert summary["caustic_floor"] == 0.08
        assert summary["tq_lower_bound"] == pytest.approx(0.055515979827057985, abs=1e-8)
        assert summary["duhamel_violations"] == 0
        assert summary["witness_violations"] == 0
        assert summary["hypothesis_uniform"] is True
        assert summary["duhamel_margin_min"] > 0.0
        assert summary["witness_margin_min"] > 0.0

    def test_one_fan_and_a_slope_solve_per_block(self, run):
        # 161 fan times on [0, 0.08], each assembled once, FIELD_BLOCK per
        # knot solve; the first block's t = 0 row normalizes a0
        _, counts, _ = run
        assert counts["fans"] == 1
        assert counts["field_times"] == 161
        assert counts["slope_solves"] == -(-161 // FIELD_BLOCK) == 21

    def test_one_march_and_its_ffts(self, run):
        # one split-step march at dt = 1e-3 stops at the 68 sample times
        # after t = 0 of the ε grid (0.01, 0.02, 0.04, 0.08): 156 lockstep
        # steps of two FFTs each, and one resolution spectrum each for the
        # input, the 68 stops and the 76 steps where some piece ends before
        # its window does (156·2 + 1 + 68 + 76)
        _, counts, _ = run
        assert counts["marches"] == 1
        assert counts["ffts"] == 457

    def test_each_served_time_assembled_once(self, run):
        # the engine serves the 161 fan times of the T_q grid, which hold
        # every sample time of the ε grid, in 21 wkb_field calls
        _, counts, seen = run
        (engine,) = seen["engines"]
        assert engine.served.size == 161
        assert counts["field_calls"] == -(-161 // FIELD_BLOCK) == 21
        assert sorted(seen["field_times"]) == engine.times[engine.served].tolist()

    def test_engine_holds_no_fan(self, run):
        # the fan's frames are freed with the build, and nothing the engine
        # still reaches is as large as one of them
        _, _, seen = run
        (engine,) = seen["engines"]
        assert len(seen["frames"]) == 6
        assert all(ref() is None for ref in seen["frames"])
        sizes = [a.nbytes for a in reachable_arrays(engine)]
        assert engine.chi_psi.nbytes in sizes
        assert max(sizes) < seen["frame_bytes"]


def reachable_arrays(root) -> list:
    """Every ndarray reachable from root through object references, array
    bases and function closures and defaults, but not through modules,
    classes or a function's globals."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            out.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return out


class TestServedSet:
    """The engine answers for the fan times it serves and refuses the rest."""

    @pytest.mark.parametrize("broken", [False, True])
    def test_unserved_time_raises(self, broken):
        # at horizon 0.4 the T_q grid and ε = 0.04's samples take every
        # third fan time, so t_1 = 0.0005 is not served
        W = make_potential("linear", 1, slope=1.0) if broken else None
        cfg = scalar_config(W=W, enforce_hypothesis=not broken, eps_grid=(0.04,))
        engine = AnsatzEngine(cfg, 0.4)
        assert 1 not in engine.served and 3 in engine.served
        engine.residual_norms([0, 3])
        with pytest.raises(ValueError, match="t=0.0005"):
            engine.residual_norms([0, 1, 3])
        with pytest.raises(ValueError, match="t=0.0005"):
            engine.rows(1)
        if broken:
            # residual grids are kept at ε's sample indices alone, not at the
            # rest of the T_q grid
            controls = [ControlSignal.constant(1.0, 0.4)]
            stops = _sample_indices(engine, 0.04, cfg.n_samples)
            assert engine.residuals.shape[0] == stops.size
            assert engine.member_residual_norms(stops, controls).shape == (1, stops.size)
            for k in (1, engine.tq_idx[-1]):
                with pytest.raises(ValueError, match=f"t={float(engine.times[k])!r}"):
                    engine.member_residual_norms([0, k], controls)
