"""Unit tests for the kernel functions (paper Table 2 + extensions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import KERNELS, get_kernel
from repro.errors import ParameterError

ALL_KERNELS = sorted(KERNELS)
FINITE = ["uniform", "epanechnikov", "quartic", "triangular", "cosine"]
POLY = ["uniform", "epanechnikov", "quartic"]


class TestRegistry:
    def test_table2_kernels_present(self):
        for name in ("uniform", "epanechnikov", "quartic", "gaussian"):
            assert name in KERNELS

    def test_extension_kernels_present(self):
        for name in ("triangular", "cosine", "exponential"):
            assert name in KERNELS

    def test_get_by_name_and_instance(self):
        k = get_kernel("quartic")
        assert get_kernel(k) is k

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown kernel"):
            get_kernel("box")


@pytest.mark.parametrize("name", ALL_KERNELS)
class TestKernelContracts:
    def test_non_negative(self, name):
        k = KERNELS[name]
        d = np.linspace(0, 5, 200)
        assert (k.evaluate(d, 2.0) >= 0).all()

    def test_monotone_non_increasing(self, name):
        k = KERNELS[name]
        d = np.linspace(0, 5, 200)
        vals = k.evaluate(d, 2.0)
        assert (np.diff(vals) <= 1e-12).all()

    def test_zero_beyond_support(self, name):
        k = KERNELS[name]
        r = k.support_radius(2.0)
        if np.isfinite(r):
            assert k.evaluate(r * 1.001, 2.0) == 0.0

    def test_evaluate_matches_evaluate_sq(self, name):
        k = KERNELS[name]
        d = np.linspace(0, 4, 50)
        np.testing.assert_allclose(
            k.evaluate(d, 1.5), k.evaluate_sq(d * d, 1.5), atol=1e-12
        )

    def test_integral_matches_numeric(self, name):
        """The closed-form plane integral must match polar quadrature."""
        k = KERNELS[name]
        b = 1.7
        r_max = k.support_radius(b)
        if not np.isfinite(r_max):
            r_max = k.effective_radius(b, tail=1e-16)
        r = np.linspace(0, r_max, 200_001)
        vals = k.evaluate(r, b) * r
        numeric = 2.0 * np.pi * np.trapezoid(vals, r)
        assert numeric == pytest.approx(k.integral(b), rel=1e-4)

    def test_bandwidth_validation(self, name):
        k = KERNELS[name]
        with pytest.raises(ParameterError):
            k.evaluate(1.0, 0.0)
        with pytest.raises(ParameterError):
            k.integral(-1.0)


@pytest.mark.parametrize("name", POLY)
class TestPolynomialCoefficients:
    def test_poly_matches_kernel_inside_support(self, name):
        k = KERNELS[name]
        b = 2.5
        coeffs = k.poly_coeffs(b)
        d = np.linspace(0, b * 0.999, 100)
        poly = sum(c * (d * d) ** j for j, c in enumerate(coeffs))
        np.testing.assert_allclose(poly, k.evaluate(d, b), atol=1e-12)


class TestTemporalExpansionMatrix:
    """K(|t - t_i|) must equal the separated bilinear form in t and t_i."""

    @pytest.mark.parametrize("name", POLY)
    def test_bilinear_identity_inside_support(self, name):
        from repro.core.kernels import temporal_expansion_matrix

        k = KERNELS[name]
        b = 3.0
        matrix = temporal_expansion_matrix(k, b)
        n = matrix.shape[0]
        rng = np.random.default_rng(11)
        t = rng.uniform(-10.0, 10.0, 40)
        ti = t + rng.uniform(-b, b, 40)  # always inside the support
        powers_t = t[:, None] ** np.arange(n)[None, :]
        powers_ti = ti[:, None] ** np.arange(n)[None, :]
        bilinear = np.einsum("im,mp,ip->i", powers_ti, matrix, powers_t)
        np.testing.assert_allclose(
            bilinear, k.evaluate(np.abs(t - ti), b), atol=1e-10
        )

    @pytest.mark.parametrize("name", ["gaussian", "exponential", "triangular",
                                      "cosine"])
    def test_non_polynomial_returns_none(self, name):
        from repro.core.kernels import temporal_expansion_matrix

        assert temporal_expansion_matrix(name, 2.0) is None

    def test_accepts_kernel_names(self):
        from repro.core.kernels import temporal_expansion_matrix

        matrix = temporal_expansion_matrix("epanechnikov", 2.0)
        assert matrix.shape == (3, 3)


class TestSpecificValues:
    def test_uniform_value(self):
        assert KERNELS["uniform"].evaluate(0.5, 2.0) == pytest.approx(0.5)
        assert KERNELS["uniform"].evaluate(2.5, 2.0) == 0.0

    def test_epanechnikov_at_zero_and_boundary(self):
        k = KERNELS["epanechnikov"]
        assert k.evaluate(0.0, 3.0) == pytest.approx(1.0)
        assert k.evaluate(3.0, 3.0) == pytest.approx(0.0)

    def test_quartic_is_epanechnikov_squared(self):
        d = np.linspace(0, 2, 30)
        e = KERNELS["epanechnikov"].evaluate(d, 2.0)
        q = KERNELS["quartic"].evaluate(d, 2.0)
        np.testing.assert_allclose(q, e * e, atol=1e-12)

    def test_gaussian_paper_convention(self):
        # K = exp(-d^2/b^2): at d = b the value is exactly 1/e.
        assert KERNELS["gaussian"].evaluate(2.0, 2.0) == pytest.approx(np.exp(-1.0))

    def test_gaussian_effective_radius(self):
        k = KERNELS["gaussian"]
        r = k.effective_radius(2.0, tail=1e-6)
        assert k.evaluate(r, 2.0) == pytest.approx(1e-6, rel=1e-9)

    def test_exponential_effective_radius(self):
        k = KERNELS["exponential"]
        r = k.effective_radius(1.5, tail=1e-8)
        assert k.evaluate(r, 1.5) == pytest.approx(1e-8, rel=1e-9)

    def test_gaussian_has_no_poly_form(self):
        assert KERNELS["gaussian"].poly_coeffs(1.0) is None
        assert KERNELS["exponential"].poly_coeffs(1.0) is None
        assert KERNELS["triangular"].poly_coeffs(1.0) is None
        assert KERNELS["cosine"].poly_coeffs(1.0) is None

    def test_cosine_at_zero(self):
        assert KERNELS["cosine"].evaluate(0.0, 1.0) == pytest.approx(1.0)

    def test_triangular_midpoint(self):
        assert KERNELS["triangular"].evaluate(1.0, 2.0) == pytest.approx(0.5)


def _where_form(name, d2, b):
    """Each kernel's textbook ``where``/clamp expression, evaluated apart."""
    d = np.sqrt(d2)
    return {
        "uniform": lambda: np.where(d2 <= b * b, 1.0 / b, 0.0),
        "epanechnikov": lambda: np.maximum(
            np.where(d2 <= b * b, 1.0 - d2 / (b * b), 0.0), 0.0),
        "quartic": lambda: np.where(
            d2 <= b * b, (1.0 - d2 / (b * b)) ** 2, 0.0),
        "gaussian": lambda: np.exp(-d2 / (b * b)),
        "triangular": lambda: np.maximum(
            np.where(d <= b, 1.0 - d / b, 0.0), 0.0),
        "cosine": lambda: np.maximum(
            np.where(d <= b, np.cos(np.pi * d / (2.0 * b)), 0.0), 0.0),
        "exponential": lambda: np.exp(-d / b),
    }[name]()


class TestInPlaceEvaluation:
    """``evaluate_sq(d2, b, out=)`` writes the allocating form's bits."""

    @staticmethod
    def _same_bits(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                       np.signbit(b))

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(ALL_KERNELS),
        b=st.floats(1e-3, 1e3),
        extra=st.lists(st.floats(0.0, 1e300), max_size=30),
        scaled=st.lists(st.floats(0.0, 30.0), max_size=30),
    )
    def test_in_place_equals_allocating_bit_for_bit(self, name, b, extra,
                                                    scaled):
        k = KERNELS[name]
        b2 = b * b
        d2 = np.array(
            [0.0, b2, np.nextafter(b2, 0.0), np.nextafter(b2, np.inf),
             1e300, np.inf] + extra + [f * b2 for f in scaled]
        )
        # The where forms take cos(inf) and square huge values outside
        # the disc before discarding them.
        with np.errstate(invalid="ignore", over="ignore"):
            want = k.evaluate_sq(d2, b)
            # In place over d2 itself, into a separate buffer, and the
            # allocating form against the kernel's textbook expression.
            own = d2.copy()
            assert k.evaluate_sq(own, b, out=own) is own
            other = np.full_like(d2, np.nan)
            assert k.evaluate_sq(d2, b, out=other) is other
            reference = _where_form(name, d2, b)
        assert self._same_bits(own, want)
        assert self._same_bits(other, want)
        assert self._same_bits(want, reference)
