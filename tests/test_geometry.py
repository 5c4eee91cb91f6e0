import numpy as np
import pytest

from oracles import fd_jacobian, validate_potential
from sclab.geometry import BoxRegion, PhasePoint, make_potential

# sample points for the callback checks: the origin, three along each axis
# and one off the axes
VALIDATION_POINTS = {
    1: [np.array([v]) for v in (0.0, -1.5, 0.75, 1.5, 0.45)],
    2: [np.array(v) for v in ((0.0, 0.0), (-1.5, 0.0), (0.75, 0.0), (1.5, 0.0),
                              (0.0, -1.5), (0.0, 0.75), (0.0, 1.5), (0.45, 0.45))],
}


class TestPhasePoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PhasePoint(np.array([np.nan]), np.array([0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PhasePoint(np.array([0.0, 1.0]), np.array([0.0]))


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
        validate_potential(f, VALIDATION_POINTS[dim])

    @pytest.mark.parametrize("name,dim,kwargs", [
        ("zero", 1, {}),
        ("harmonic", 1, {"k": 2.0, "center": 0.3}),
        ("harmonic", 2, {"k": [2.0, 0.5], "center": [0.3, -0.2]}),
        ("linear", 2, {"slope": [1.0, -2.0]}),
        ("gaussian", 1, {"amplitude": 1.5, "width": 0.6}),
        ("gaussian", 2, {"amplitude": 1.5, "center": [0.1, -0.3], "width": [0.6, 0.9]}),
        ("cosine", 1, {"amplitude": 0.7, "freq": 2.0, "phase": 0.4}),
        ("cosine", 2, {"amplitude": [0.7, 1.2], "freq": [2.0, 0.5]}),
        ("polynomial", 1, {"c0": [0.0, 0.0, 0.5, 0.1]}),
        ("polynomial", 2, {"c0": [1.0, 0.3], "c1": [0.0, -1.0, 0.2, 0.05, 0.01]}),
    ])
    def test_hessian_matches_finite_differences(self, name, dim, kwargs):
        # ∂²f/∂x_k², shaped like the gradient, against central differences of
        # the gradient, at every validation point at once
        f = make_potential(name, dim, **kwargs)
        pts = np.array(VALIDATION_POINTS[dim])
        hess = f.hessian(pts)
        assert hess.shape == pts.shape
        fd = np.stack([fd_jacobian(lambda x: f.gradient(x)[..., k], pts)[..., k]
                       for k in range(dim)], axis=-1)
        assert np.max(np.abs(hess - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(hess))))

    @pytest.mark.parametrize("name,dim,kwargs", [
        ("harmonic", 1, {"k": 2.0, "center": 0.0}),
        ("harmonic", 1, {"k": 2.0, "center": -0.0}),
        ("harmonic", 2, {"k": [2.0, 0.5], "center": [0.0, 0.0]}),
        ("harmonic", 2, {"k": 1.5, "center": [0.0, -0.0]}),
        ("harmonic", 2, {"k": [1.0, 1.0], "center": [0.3, -0.2]}),
        ("cosine", 1, {"amplitude": 0.7, "freq": 1.0, "phase": 0.0}),
        ("cosine", 1, {"amplitude": 0.7, "freq": 1.0, "phase": -0.0}),
        ("cosine", 2, {"amplitude": [0.7, 1.2], "freq": [1.0, 1.0], "phase": [0.0, 0.4]}),
        ("cosine", 2, {"amplitude": 1.0, "freq": [2.0, 0.5], "phase": [0.0, -0.0]}),
    ])
    def test_folded_gradient_keeps_every_bit(self, name, dim, kwargs):
        # the gradient with its coefficients folded against the per-axis
        # formula, bit for bit and zero sign included, at ±0 and elsewhere
        f = make_potential(name, dim, **kwargs)
        coeff = {k: np.broadcast_to(np.asarray(v, dtype=float), (dim,)) for k, v in kwargs.items()}
        x = np.stack([np.array([0.0, -0.0, 1e-300, -2.5, 3.25, -np.pi, 7.0])] * dim, axis=-1)
        x[::2, -1] *= -1.0
        if name == "harmonic":
            plain = coeff["k"] * (x - coeff["center"])
        else:
            plain = -coeff["amplitude"] * coeff["freq"] * np.sin(coeff["freq"] * x
                                                                  + coeff["phase"])
        got = f.gradient(x)
        assert got.shape == plain.shape
        assert np.array_equal(got.view(np.uint64), plain.view(np.uint64))

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
