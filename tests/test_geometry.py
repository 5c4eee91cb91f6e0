import numpy as np
import pytest

from sclab.errors import InvalidChart, MetricDegenerate, StepTooCoarse
from sclab.geometry import (BoxRegion, ChartSpace, PhasePoint, PotentialField,
                            cometric_at, geodesic_endpoint, make_metric,
                            make_potential, riemannian_gradient)

# sample points for the callback checks: the origin, three along each axis
# and one off the axes
VALIDATION_POINTS = {
    1: [np.array([v]) for v in (0.0, -1.5, 0.75, 1.5, 0.45)],
    2: [np.array(v) for v in ((0.0, 0.0), (-1.5, 0.0), (0.75, 0.0), (1.5, 0.0),
                              (0.0, -1.5), (0.0, 0.75), (0.0, 1.5), (0.45, 0.45))],
}


def space_1d_quadratic():
    # g^{11}(x) = 1 + x^2
    return ChartSpace(
        dimension=1,
        cometric=lambda x: np.array([[1.0 + x[0] ** 2]]),
        dcometric=lambda x: np.array([[[2.0 * x[0]]]]),
    )


class TestCometric:
    def test_flat_box_identity(self):
        space = ChartSpace(dimension=2)
        assert np.array_equal(cometric_at(space, [0.3, -1.2]), np.eye(2))

    def test_quadratic_at_zero(self):
        assert np.allclose(cometric_at(space_1d_quadratic(), [0.0]), [[1.0]])

    def test_quadratic_at_two(self):
        # hand evaluation of the callback: 1 + 2^2 = 5
        assert np.allclose(cometric_at(space_1d_quadratic(), [2.0]), [[5.0]])

    def test_non_finite_raises(self):
        space = ChartSpace(dimension=1,
                           cometric=lambda x: np.array([[np.inf]]),
                           dcometric=lambda x: np.zeros((1, 1, 1)))
        with pytest.raises(InvalidChart):
            cometric_at(space, [0.0])

    def test_non_pd_raises(self):
        space = ChartSpace(dimension=1,
                           cometric=lambda x: np.array([[-1.0]]),
                           dcometric=lambda x: np.zeros((1, 1, 1)))
        with pytest.raises(MetricDegenerate):
            cometric_at(space, [0.0])

    def test_derivative_validation(self):
        space_1d_quadratic().validate(VALIDATION_POINTS[1])
        bad = ChartSpace(dimension=1,
                         cometric=lambda x: np.array([[1.0 + x[0] ** 2]]),
                         dcometric=lambda x: np.array([[[5.0 * x[0]]]]))
        with pytest.raises(InvalidChart):
            bad.validate(VALIDATION_POINTS[1])


class TestRiemannianGradient:
    def test_flat_line_linear(self):
        space = ChartSpace(dimension=1)
        f = make_potential("linear", 1, slope=1.0)
        for x in (-2.0, 0.0, 3.7):
            assert np.allclose(riemannian_gradient(space, f, [x]), [1.0])

    def test_flat_line_quadratic(self):
        space = ChartSpace(dimension=1)
        f = make_potential("harmonic", 1, k=1.0)
        assert np.allclose(riemannian_gradient(space, f, [3.0]), [3.0])

    def test_constant_metric_rescales(self):
        # g^{11} = 2 constant: gradient of f(x)=x is g^{ij} ∂_j f = 2
        space = make_metric("constant-diagonal", 1, values=2.0)
        f = make_potential("linear", 1, slope=1.0)
        assert np.allclose(riemannian_gradient(space, f, [0.4]), [2.0])

    def test_flat_reduces_to_coordinate_gradient(self):
        space = ChartSpace(dimension=3)
        f = make_potential("gaussian", 3, amplitude=2.0, width=0.7)
        x = np.array([0.2, -0.1, 0.4])
        assert np.array_equal(riemannian_gradient(space, f, x), f.grad(x))


class TestGeodesics:
    def test_flat_line_straight(self):
        space = ChartSpace(dimension=1)
        end = geodesic_endpoint(space, [0.0], [1.0], 2.0, 1e-3)
        assert np.allclose(end.x, [2.0], atol=1e-9)
        assert np.allclose(end.p, [1.0], atol=1e-12)

    def test_circle_wraps(self):
        space = ChartSpace(dimension=1, topology=(2 * np.pi,))
        end = geodesic_endpoint(space, [0.0], [1.0], 3 * np.pi, 1e-2)
        assert np.allclose(end.x, [np.pi], atol=1e-8)
        assert np.allclose(end.p, [1.0])

    def test_constant_metric_speed(self):
        # ẋ = g^{11} p = 4 p with conserved p: x(1) = 4
        space = make_metric("constant-diagonal", 1, values=4.0)
        end = geodesic_endpoint(space, [0.0], [1.0], 1.0, 1e-3)
        assert np.allclose(end.x, [4.0], atol=1e-9)
        assert np.allclose(end.p, [1.0], atol=1e-10)

    def test_kinetic_energy_conserved(self):
        space = space_1d_quadratic()

        def kinetic_energy(x, p):
            p = np.asarray(p, dtype=float)
            return 0.5 * float(p @ cometric_at(space, x) @ p)

        x0, p0 = [0.3], [0.8]
        e0 = kinetic_energy(x0, p0)
        end = geodesic_endpoint(space, x0, p0, 1.5, 1e-3)
        e1 = kinetic_energy(end.x, end.p)
        assert abs(e1 - e0) <= 1e-8 * max(1.0, abs(e0))

    def test_reversibility(self):
        space = space_1d_quadratic()
        end = geodesic_endpoint(space, [0.2], [1.1], 1.0, 1e-3)
        back = geodesic_endpoint(space, end.x, -end.p, 1.0, 1e-3)
        assert np.max(np.abs(back.x - np.array([0.2]))) < 1e-7

    def test_step_too_coarse(self):
        space = space_1d_quadratic()
        with pytest.raises(StepTooCoarse):
            geodesic_endpoint(space, [0.5], [1.0], 2.0, 0.5)


class TestPhasePoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PhasePoint(np.array([np.nan]), np.array([0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PhasePoint(np.array([0.0, 1.0]), np.array([0.0]))

    def test_circle_reduction_via_factory(self):
        space = ChartSpace(dimension=1, topology=(2.0,))
        pt = space.phase_point([5.5], [1.0])
        assert np.allclose(pt.x, [1.5])


class TestRegistry:
    @pytest.mark.parametrize("name,kwargs", [
        ("harmonic", {"k": 2.0, "center": 0.3}),
        ("linear", {"slope": [1.0, -2.0]}),
        ("gaussian", {"amplitude": 1.5, "width": 0.6}),
        ("cosine", {"amplitude": 0.7, "freq": 2.0}),
        ("polynomial", {"c0": [0.0, 0.0, 0.5, 0.1]}),
    ])
    def test_gradients_validate(self, name, kwargs):
        dim = 2 if name == "linear" else 1
        f = make_potential(name, dim, **kwargs)
        f.validate(VALIDATION_POINTS[dim])

    def test_polynomial_metric_validates(self):
        make_metric("polynomial-diagonal", 1, c0=[1.0, 0.0, 1.0]).validate(
            VALIDATION_POINTS[1])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_potential("quartic-oscillator")

    def test_vectorized_evaluation(self):
        f = make_potential("harmonic", 2, k=1.0)
        pts = np.random.default_rng(0).normal(size=(5, 2))
        vals = f.value(pts)
        assert vals.shape == (5,)
        assert np.allclose(vals, [f(p) for p in pts])
        grads = f.gradient(pts)
        assert grads.shape == (5, 2)


class TestBoxRegion:
    def test_contains_and_gap(self):
        box = BoxRegion(((-1.0, 1.0), None))
        assert box.contains(np.array([0.0, 99.0]))
        assert not box.contains(np.array([1.5, 0.0]))
        assert box.signed_gap(np.array([0.25, 7.0])) == pytest.approx(0.75)

    def test_batch_mask(self):
        box = BoxRegion(((-1.0, 1.0),))
        pts = np.array([[-2.0], [0.0], [0.99]])
        assert np.array_equal(box.contains(pts), [False, True, True])
