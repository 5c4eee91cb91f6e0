import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sclab.spectral
from sclab.config import parse_config
from sclab.errors import QuadratureDivergence
from sclab.harness import run_experiment
from sclab.spectral import (CouplingMatrix, cutoff_coupling,
                            default_zero_tol, gap_rational_relation,
                            gaussian_coupling, hermite_polynomial_values,
                            minor_connectivity, perturbed_spectrum,
                            relation_floor)


def eigenfunctions(N, x):
    """Rows φ_i(x) = h_i(x)·e^{−x²/2}, i < N: the oscillator eigenbasis."""
    x = np.asarray(x, dtype=float)
    return hermite_polynomial_values(N, x) * np.exp(-0.5 * x * x)


class TestHermiteBasis:
    def test_orthonormal_under_quadrature(self):
        # numpy's Gauss–Hermite rule integrates h_i·h_j·e^{−x²} exactly
        nodes, weights = np.polynomial.hermite.hermgauss(40)
        h = hermite_polynomial_values(12, nodes)
        gram = (h * weights) @ h.T
        assert np.max(np.abs(gram - np.eye(12))) < 1e-10

    def test_eigenfunction_normalization_on_grid(self):
        # independent Riemann-sum check of ∫φ_3² = 1
        x = np.linspace(-12, 12, 20001)
        phi = eigenfunctions(6, x)
        val = np.trapezoid(phi[3] ** 2, x)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestGaussianCoupling:
    def test_b00_closed_form(self):
        # (1-a)^{-1/2}·e^{b²/(4(1-a))+c} = 1/√2 at (-1, 0, 0)
        B = gaussian_coupling(-1.0, 0.0, 0.0, 8)
        assert B.entries[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)

    def test_parity_kills_b01(self):
        B = gaussian_coupling(-1.0, 0.0, 0.5, 8)
        assert abs(B.entries[0, 1]) < 1e-12

    def test_b01_closed_form(self):
        # ∫φ0 φ1 e^{-x²+x} = (√2/√π)∫x e^{-2x²+x} dx = e^{1/8}/4
        B = gaussian_coupling(-1.0, 1.0, 0.0, 8)
        assert B.entries[0, 1] == pytest.approx(np.exp(0.125) / 4.0, abs=1e-10)

    def test_bounded_and_nested_at_large_truncation(self):
        # |b_ij| ≤ ‖φ_i‖‖φ_j‖·sup e^{-x²+x} = e^{1/4}, and the leading block
        # does not depend on how many basis functions are kept
        small = gaussian_coupling(-1.0, 1.0, 0.0, 12).entries
        for N in (48, 96, 192):
            B = gaussian_coupling(-1.0, 1.0, 0.0, N).entries
            assert np.all(np.isfinite(B))
            assert np.max(np.abs(B)) <= np.exp(0.25)
            assert np.max(np.abs(B[:12, :12] - small)) < 1e-12

    def test_rejects_undamped_exponent(self):
        with pytest.raises(QuadratureDivergence):
            gaussian_coupling(1.0, 0.0, 0.0, 4)

    def test_symmetry_exact(self):
        B = gaussian_coupling(-0.5, 0.3, -0.2, 9)
        assert np.array_equal(B.entries, B.entries.T)


class TestCutoffCoupling:
    def test_zero_window_is_identity(self):
        full = gaussian_coupling(-1.0, 1.0, 0.0, 6)
        hat, f = cutoff_coupling(-1.0, 1.0, 0.0, 0.0, 6)
        assert np.array_equal(f, np.zeros((6, 6)))
        assert np.allclose(hat.entries, full.entries, atol=1e-14)

    def test_whole_line_window_empties_coupling(self):
        hat, f = cutoff_coupling(-1.0, 1.0, 0.0, 20.0, 6)
        full = gaussian_coupling(-1.0, 1.0, 0.0, 6)
        assert np.max(np.abs(f - full.entries)) < 1e-10
        assert np.max(np.abs(hat.entries)) < 1e-10

    @pytest.mark.parametrize("a, b, eps, N", [
        (-1.0, 1.0, 1000.0, 12), (-1.0, 1.0, 200.0, 6), (-1.0, -1.0, 1e5, 8),
        (0.5, 1.0, 300.0, 12), (0.9, 3.0, 500.0, 24)])
    def test_wide_window_empties_coupling(self, a, b, eps, N):
        # a window far wider than the Gaussian bump: an unclipped rule of
        # order 2N-4N misses the bump and would return f = 0
        hat, f = cutoff_coupling(a, b, 0.0, eps, N)
        full = gaussian_coupling(a, b, 0.0, N).entries
        scale = np.max(np.abs(full))
        assert np.max(np.abs(f - full)) < 1e-10 * scale
        assert np.max(np.abs(hat.entries)) < 1e-10 * scale

    def test_refuses_before_building_an_order_above_the_cap(self, monkeypatch):
        # a = 0.5, b = 0.4, ε = 5, N = 24 never meets the agreement rule (its
        # differences sit on a rounding floor), so the orders double from 48
        # until the cap refuses the next one: none above it is ever built
        orders = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: orders.append(n) or leggauss(n))
        monkeypatch.setattr(sclab.spectral, "CUTOFF_MAX_ORDER", 200)
        with pytest.raises(QuadratureDivergence, match="order 200"):
            cutoff_coupling(0.5, 0.4, 0.0, 5.0, 24)
        assert orders == [48, 96, 192]

    def test_f00_monotone_in_eps(self):
        vals = [cutoff_coupling(-1.0, 0.0, 0.0, e, 4)[1][0, 0]
                for e in (0.1, 0.3, 0.7, 1.5)]
        assert np.all(np.diff(vals) > 0)

    def test_window_linear_in_small_eps(self):
        # |f_ij(ε)| ≤ C·ε for bounded integrands; measure the slope
        eps = np.array([1e-3, 2e-3, 4e-3, 8e-3])
        f00 = np.array([cutoff_coupling(-1.0, 1.0, 0.0, e, 4)[1][0, 0] for e in eps])
        slope = np.polyfit(np.log(eps), np.log(f00), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)


    def test_matches_elementwise_quadrature(self):
        # scipy's adaptive quad, one entry at a time, is the reference
        from scipy.integrate import quad
        a, b, c, eps, N = -0.5, 0.3, -0.2, 2.0, 5
        _, f = cutoff_coupling(a, b, c, eps, N)
        for i in range(N):
            for j in range(i, N):
                def integrand(x):
                    phi = eigenfunctions(N, [x])[:, 0]
                    return phi[i] * phi[j] * np.exp(a * x * x + b * x + c)
                ref, _ = quad(integrand, -eps, eps, epsabs=1e-14, epsrel=1e-13)
                assert f[i, j] == pytest.approx(ref, abs=1e-12)
        assert np.array_equal(f, f.T)


class TestConnectivity:
    def test_identity_disconnected(self):
        B = CouplingMatrix(np.eye(2))
        connected, parts = minor_connectivity(B, 2, 1e-12)
        assert not connected
        assert parts == [[0], [1]]

    def test_tridiagonal_chain_connected(self):
        m = np.diag(np.ones(5)) + np.diag(0.5 * np.ones(4), 1) + np.diag(0.5 * np.ones(4), -1)
        B = CouplingMatrix(m)
        for k in range(2, 6):
            assert minor_connectivity(B, k, 1e-12)[0]

    def test_gaussian_coupling_connected(self):
        B = gaussian_coupling(-1.0, 1.0, 0.0, 8)
        connected, _ = minor_connectivity(B, 6, 1e-12)
        assert connected

    def test_default_zero_tol_scales(self):
        B = gaussian_coupling(-1.0, 1.0, 0.0, 6)
        assert default_zero_tol(B) == pytest.approx(1e-12 * np.max(np.abs(B.entries)))


class TestRationalRelations:
    def test_equal_gaps_found(self):
        rel = gap_rational_relation(np.array([2.0, 2.0, 2.0]), 50, 1e-9)
        assert rel is not None
        assert np.any(rel != 0)
        assert abs(rel @ np.array([2.0, 2.0, 2.0])) < 1e-9

    def test_sqrt2_independent(self):
        assert gap_rational_relation(np.array([1.0, np.sqrt(2.0)]), 50, 1e-9) is None

    def test_unperturbed_oscillator_refuted(self):
        gaps = perturbed_spectrum(0.0, -1.0, 1.0, 0.0, 6, 24).gaps
        rel = gap_rational_relation(gaps, 10, 1e-7)
        assert rel is not None

    def test_lattice_route_matches(self):
        # force the PSLQ branch with a wide bound and many gaps
        g = np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0])
        rel = gap_rational_relation(g, 1000, 1e-10)
        assert rel is not None
        assert abs(rel @ g) < 1e-10

    def test_lattice_route_on_perturbed_gaps(self):
        # PSLQ is consulted here (101^6 > budget); any relation it returns
        # must be verified in absolute terms, and none may raise
        g = perturbed_spectrum(1.0, -1.0, 1.0, 0.0, 8, 48).gaps
        rel = gap_rational_relation(g, 50, 1e-9)
        if rel is not None:
            assert np.max(np.abs(rel)) <= 50
            assert abs(rel @ g) < 1e-9


class TestRelationFloor:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=3),
           st.integers(1, 4))
    def test_some_relation_within_floor(self, gaps, bound):
        g = np.array(gaps)
        best = min(abs(np.dot(lam, g))
                   for lam in itertools.product(range(-bound, bound + 1), repeat=g.size)
                   if any(lam))
        assert best <= relation_floor(g, bound) * (1 + 1e-12)

    def test_default_size(self):
        g = perturbed_spectrum(1.0, -1.0, 1.0, 0.0, 12, 48).gaps
        assert relation_floor(g, 50) == pytest.approx(
            50 * np.sum(g) / (51.0 ** 11 - 1), rel=1e-12)

    def test_huge_box_underflows_to_zero(self):
        assert relation_floor(np.full(400, 2.0), 50) == 0.0


class TestPerturbedSpectrum:
    def test_unperturbed_exact(self):
        gv = perturbed_spectrum(0.0, -1.0, 1.0, 0.0, 8, 32)
        assert np.max(np.abs(gv.eigenvalues - (2 * np.arange(8) + 1))) < 1e-10
        assert np.allclose(gv.gaps, 2.0, atol=1e-10)

    def test_first_order_perturbation(self):
        mu = 1e-4
        B = gaussian_coupling(-1.0, 1.0, 0.0, 8)
        gv = perturbed_spectrum(mu, -1.0, 1.0, 0.0, 8, 48)
        predicted = 2 * np.arange(8) + 1 + mu * np.diag(B.entries)[:8]
        assert np.max(np.abs(gv.eigenvalues - predicted)) < 1e-6

    def test_moderate_mu_distinct_gaps(self):
        gv = perturbed_spectrum(1.0, -1.0, 1.0, 0.0, 8, 64)
        gaps = gv.gaps
        diffs = np.abs(gaps[:, None] - gaps[None, :])[np.triu_indices(len(gaps), 1)]
        assert np.min(diffs) > 1e-6

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            perturbed_spectrum(0.0, -1.0, 0.0, 0.0, 10, 12)


class TestInvariantDisc:
    """The spectral run's disc verdict: the free rotation keeps the disc of
    radius r0 out of the control's support {x > ε} iff r0 ≤ ε."""

    @staticmethod
    def summary(tmp_path, r0):
        cfg = parse_config(f"experiment = spectral\nout = {tmp_path}/spec\n"
                           f"spectral.N = 8\nspectral.eps = 0.5\nspectral.disc_r0 = {r0}\n")
        assert run_experiment(cfg) == 0
        return json.loads((tmp_path / "spec" / "summary.json").read_text())

    def test_disc_inside_cutoff_is_invariant(self, tmp_path):
        summary = self.summary(tmp_path, 0.1)
        assert summary["disc_invariant"] is True
        assert summary["disc_margin"] == pytest.approx(0.4, abs=1e-15)

    def test_disc_touching_cutoff_is_invariant(self, tmp_path):
        # the support is open, so the circle r0 = ε only touches its edge
        summary = self.summary(tmp_path, 0.5)
        assert summary["disc_invariant"] is True
        assert summary["disc_margin"] == 0.0

    def test_large_disc_not_invariant(self, tmp_path):
        summary = self.summary(tmp_path, 1.2)
        assert summary["disc_invariant"] is False
        assert summary["disc_margin"] == pytest.approx(-0.7, abs=1e-15)
