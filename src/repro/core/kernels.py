"""Kernel functions (paper Table 2, plus the "future work" kernels of §2.4).

Each kernel follows the paper's parameterisation: it is a function of the
Euclidean distance ``dist(q, p)`` and a bandwidth ``b``.  The four Table 2
kernels (uniform, Epanechnikov, quartic, Gaussian) are implemented exactly
as printed; the triangular, cosine and exponential kernels cover the
"other important kernel functions" the paper lists as future work.

A kernel exposes:

* ``evaluate(d, b)`` / ``evaluate_sq(d2, b, out=None)`` — vectorised
  values; ``out`` (``d2`` itself allowed) takes them in place, bit for bit
  the allocating form's,
* ``support_radius(b)`` — the cutoff beyond which the kernel is zero
  (``inf`` for Gaussian/exponential),
* ``integral(b)`` — the integral of the kernel over the plane, from which
  the normalisation constant ``w`` of Equation 1 is derived,
* ``poly_coeffs(b)`` — for finite-support kernels that are polynomials in
  the *squared* distance (uniform, Epanechnikov, quartic), the coefficients
  ``c_k`` such that ``K = sum_k c_k * (d^2)^k`` inside the support.  These
  drive the sweep-line (computational sharing) backend, which is exactly
  the class of kernels the paper says SLAM-style algorithms handle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import comb

import numpy as np

from .._validation import check_positive
from ..errors import ParameterError

__all__ = [
    "Kernel",
    "KernelTable",
    "build_kernel_table",
    "temporal_expansion_matrix",
    "UniformKernel",
    "EpanechnikovKernel",
    "QuarticKernel",
    "GaussianKernel",
    "TriangularKernel",
    "CosineKernel",
    "ExponentialKernel",
    "get_kernel",
    "KERNELS",
]


def _buffer(d2, out) -> tuple[np.ndarray, np.ndarray]:
    """``d2`` as float64 and the array to evaluate into: ``out`` or a new one."""
    d2 = np.asarray(d2, dtype=np.float64)
    return d2, np.empty_like(d2) if out is None else out


def _falloff(x: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """``max(1 - x/scale, 0)`` into ``out``, the linear falloff of a disc.

    ``x <= scale`` exactly when ``1 - x/scale >= 0`` (the division is
    monotone), so ``fmax`` zeroes the outside of the disc, NaN included,
    as ``where(x <= scale, 1 - x/scale, 0)`` clamped at 0 would: the same
    bits, also at the boundary, where float cancellation could otherwise
    leave a value a few ulp below zero.
    """
    np.divide(x, scale, out=out)
    np.subtract(1.0, out, out=out)
    return np.fmax(out, 0.0, out=out)


class Kernel(ABC):
    """Base class for radial kernels ``K(q, p) = K(dist(q, p); b)``."""

    #: Registry / lookup name.
    name: str = ""
    #: True when the kernel vanishes beyond a finite radius.
    finite_support: bool = True

    def evaluate(self, d, bandwidth: float) -> np.ndarray:
        """Kernel value at distance(s) ``d`` with the given bandwidth."""
        d = np.asarray(d, dtype=np.float64)
        return self.evaluate_sq(d * d, bandwidth)

    @abstractmethod
    def evaluate_sq(self, d2, bandwidth: float,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Kernel value from *squared* distances (the fast path).

        ``out`` — a float64 array shaped like ``d2``, or ``d2`` itself —
        receives the values in place and is returned; they are the
        allocating form's bits.  Finite-support kernels never return a
        negative value.
        """

    @abstractmethod
    def support_radius(self, bandwidth: float) -> float:
        """Distance beyond which the kernel is exactly zero (may be inf)."""

    @abstractmethod
    def integral(self, bandwidth: float) -> float:
        """Integral of the kernel over the whole plane.

        The Equation 1 normalisation constant for a probability density is
        ``w = 1 / (n * integral(b))``.
        """

    def poly_coeffs(self, bandwidth: float) -> np.ndarray | None:
        """Coefficients of K as a polynomial in d^2 inside the support.

        Returns ``None`` for kernels that are not polynomial in the squared
        distance (Gaussian, exponential, triangular, cosine); those cannot
        use the sweep-line backend, matching the limitation the paper
        highlights in §2.4.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class UniformKernel(Kernel):
    """Table 2 uniform kernel: ``1/b`` inside the bandwidth disc."""

    name = "uniform"
    finite_support = True

    def evaluate_sq(self, d2, bandwidth: float, out=None) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        d2, out = _buffer(d2, out)
        np.less_equal(d2, b * b, out=out)   # 1.0 inside the disc, else 0.0
        return np.multiply(out, 1.0 / b, out=out)

    def support_radius(self, bandwidth: float) -> float:
        return check_positive(bandwidth, "bandwidth")

    def integral(self, bandwidth: float) -> float:
        b = check_positive(bandwidth, "bandwidth")
        return np.pi * b  # (1/b) * pi b^2

    def poly_coeffs(self, bandwidth: float) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        return np.array([1.0 / b])


class EpanechnikovKernel(Kernel):
    """Table 2 Epanechnikov kernel: ``1 - d^2/b^2`` inside the disc."""

    name = "epanechnikov"
    finite_support = True

    def evaluate_sq(self, d2, bandwidth: float, out=None) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        d2, out = _buffer(d2, out)
        return _falloff(d2, b * b, out)

    def support_radius(self, bandwidth: float) -> float:
        return check_positive(bandwidth, "bandwidth")

    def integral(self, bandwidth: float) -> float:
        b = check_positive(bandwidth, "bandwidth")
        return np.pi * b * b / 2.0

    def poly_coeffs(self, bandwidth: float) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        return np.array([1.0, -1.0 / (b * b)])


class QuarticKernel(Kernel):
    """Table 2 quartic (biweight) kernel: ``(1 - d^2/b^2)^2`` inside the disc."""

    name = "quartic"
    finite_support = True

    def evaluate_sq(self, d2, bandwidth: float, out=None) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        d2, out = _buffer(d2, out)
        u = _falloff(d2, b * b, out)
        return np.multiply(u, u, out=u)

    def support_radius(self, bandwidth: float) -> float:
        return check_positive(bandwidth, "bandwidth")

    def integral(self, bandwidth: float) -> float:
        b = check_positive(bandwidth, "bandwidth")
        return np.pi * b * b / 3.0

    def poly_coeffs(self, bandwidth: float) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        b2 = b * b
        return np.array([1.0, -2.0 / b2, 1.0 / (b2 * b2)])


class GaussianKernel(Kernel):
    """Table 2 Gaussian kernel: ``exp(-d^2/b^2)`` (infinite support).

    Note the paper's convention puts ``b^2`` (not ``2 sigma^2``) in the
    exponent; ``b = sqrt(2) * sigma`` relative to the statistics convention.
    """

    name = "gaussian"
    finite_support = False

    def evaluate_sq(self, d2, bandwidth: float, out=None) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        d2, out = _buffer(d2, out)
        # ``d2 / -b^2`` is ``-d2 / b^2`` bit for bit (rounding is symmetric).
        np.divide(d2, -(b * b), out=out)
        return np.exp(out, out=out)

    def support_radius(self, bandwidth: float) -> float:
        check_positive(bandwidth, "bandwidth")
        return np.inf

    def effective_radius(self, bandwidth: float, tail: float = 1e-12) -> float:
        """Radius beyond which the kernel value drops below ``tail``."""
        b = check_positive(bandwidth, "bandwidth")
        return b * float(np.sqrt(-np.log(tail)))

    def integral(self, bandwidth: float) -> float:
        b = check_positive(bandwidth, "bandwidth")
        return np.pi * b * b


class TriangularKernel(Kernel):
    """Triangular kernel ``1 - d/b`` inside the disc (§2.4 extension)."""

    name = "triangular"
    finite_support = True

    def evaluate_sq(self, d2, bandwidth: float, out=None) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        d2, out = _buffer(d2, out)
        return _falloff(np.sqrt(d2, out=out), b, out)

    def support_radius(self, bandwidth: float) -> float:
        return check_positive(bandwidth, "bandwidth")

    def integral(self, bandwidth: float) -> float:
        b = check_positive(bandwidth, "bandwidth")
        return np.pi * b * b / 3.0


class CosineKernel(Kernel):
    """Cosine kernel ``cos(pi d / (2 b))`` inside the disc (§2.4 extension)."""

    name = "cosine"
    finite_support = True

    def evaluate_sq(self, d2, bandwidth: float, out=None) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        d2, out = _buffer(d2, out)
        d = np.sqrt(d2, out=out)
        # The cosine turns positive again past the disc, so the outside
        # (NaN included) is masked before ``d`` is overwritten.
        outside = ~(d <= b)
        np.multiply(d, np.pi, out=out)
        np.divide(out, 2.0 * b, out=out)
        np.cos(out, out=out)
        out[outside] = 0.0
        # ``cos`` rounds to ~-1.6e-16 at ``d == b``: densities stay >= 0.
        return np.maximum(out, 0.0, out=out)

    def support_radius(self, bandwidth: float) -> float:
        return check_positive(bandwidth, "bandwidth")

    def integral(self, bandwidth: float) -> float:
        # 2 pi * int_0^b cos(pi r / 2b) r dr = 4 b^2 (1 - 2/pi)
        b = check_positive(bandwidth, "bandwidth")
        return 4.0 * b * b * (1.0 - 2.0 / np.pi)


class ExponentialKernel(Kernel):
    """Exponential kernel ``exp(-d/b)`` (infinite support, §2.4 extension)."""

    name = "exponential"
    finite_support = False

    def evaluate_sq(self, d2, bandwidth: float, out=None) -> np.ndarray:
        b = check_positive(bandwidth, "bandwidth")
        d2, out = _buffer(d2, out)
        np.sqrt(d2, out=out)
        np.divide(out, -b, out=out)
        return np.exp(out, out=out)

    def support_radius(self, bandwidth: float) -> float:
        check_positive(bandwidth, "bandwidth")
        return np.inf

    def effective_radius(self, bandwidth: float, tail: float = 1e-12) -> float:
        """Radius beyond which the kernel value drops below ``tail``."""
        b = check_positive(bandwidth, "bandwidth")
        return b * float(-np.log(tail))

    def integral(self, bandwidth: float) -> float:
        b = check_positive(bandwidth, "bandwidth")
        return 2.0 * np.pi * b * b


KERNELS: dict[str, Kernel] = {
    k.name: k
    for k in (
        UniformKernel(),
        EpanechnikovKernel(),
        QuarticKernel(),
        GaussianKernel(),
        TriangularKernel(),
        CosineKernel(),
        ExponentialKernel(),
    )
}


#: Interpolation nodes per kernel table (float32 values; the node count
#: trades table size against the published interpolation bound).
_TABLE_SIZE = 4096

#: Oversampling factor of the probe grid that certifies ``max_abs_error``.
_TABLE_PROBE = 8


class KernelTable:
    """Precomputed float32 lookup table for one ``(kernel, bandwidth)`` pair.

    The table holds kernel values at evenly spaced nodes of an axis
    variable ``x`` — the *squared* distance for kernels that are smooth in
    ``d^2`` (polynomial kernels, Gaussian), the plain distance for the
    square-root family (triangular, cosine, exponential), whose derivative
    in ``d^2`` blows up at zero and would wreck a linear-in-``d^2``
    interpolant.  :meth:`lookup_sq` evaluates by linear interpolation and
    returns exact ``0`` beyond the cutoff.

    ``max_abs_error`` is the *certified* absolute interpolation bound:
    the maximum deviation from the exact float64 kernel measured on a
    probe grid oversampling every node interval, plus one float32 ulp of
    headroom.  The float32 scatter mode publishes its error contract in
    terms of this number (see ``docs/PERFORMANCE.md``).
    """

    def __init__(
        self,
        kernel_name: str,
        bandwidth: float,
        cutoff: float,
        axis: str,
        values: np.ndarray,
        max_abs_error: float,
    ):
        if axis not in ("d", "d2"):
            raise ParameterError(f"table axis must be 'd' or 'd2', got {axis!r}")
        self.kernel_name = kernel_name
        self.bandwidth = float(bandwidth)
        self.cutoff = float(cutoff)
        self.axis = axis
        self.values = np.asarray(values, dtype=np.float32)
        self.max_abs_error = float(max_abs_error)
        x_max = self.cutoff if axis == "d" else self.cutoff * self.cutoff
        self._x_max = np.float32(x_max)
        self._scale = np.float32((self.values.shape[0] - 1) / x_max)

    @property
    def n_nodes(self) -> int:
        return int(self.values.shape[0])

    def lookup_sq(self, d2: np.ndarray) -> np.ndarray:
        """Interpolated kernel values from squared distances (float32).

        Distances beyond the cutoff return exact ``0``; the boundary test
        happens in float32, so callers that must match a float64
        truncation decision bit-for-bit should test in float64 themselves
        and use :meth:`lookup_sq_clipped` on the surviving entries.
        """
        d2 = np.asarray(d2, dtype=np.float32)
        x = np.sqrt(d2) if self.axis == "d" else d2
        out = self._interpolate(x)
        return np.where(x <= self._x_max, out, np.float32(0.0))

    def lookup_sq_clipped(self, d2: np.ndarray) -> np.ndarray:
        """Like :meth:`lookup_sq` but clipped to the last node beyond the
        cutoff instead of zeroed — the caller owns the truncation mask."""
        d2 = np.asarray(d2, dtype=np.float32)
        x = np.sqrt(d2) if self.axis == "d" else d2
        return self._interpolate(x)

    def _interpolate(self, x: np.ndarray) -> np.ndarray:
        t = x * self._scale
        np.minimum(t, np.float32(self.values.shape[0] - 1), out=t)
        i0 = np.minimum(t.astype(np.int32), self.values.shape[0] - 2)
        frac = t - i0.astype(np.float32)
        lo = self.values[i0]
        return lo + frac * (self.values[i0 + 1] - lo)


def build_kernel_table(
    kernel: str | Kernel,
    bandwidth: float,
    cutoff: float | None = None,
    size: int = _TABLE_SIZE,
) -> KernelTable:
    """Build the float32 lookup table used by the scatter core's f32 mode.

    ``cutoff`` defaults to the kernel's support radius; infinite-support
    kernels must pass their truncation radius explicitly.  The returned
    table's ``max_abs_error`` is certified against the exact float64
    kernel on a probe grid oversampling every node interval
    ``_TABLE_PROBE`` times.
    """
    k = get_kernel(kernel)
    b = check_positive(bandwidth, "bandwidth")
    if cutoff is None:
        cutoff = k.support_radius(b)
    cutoff = float(cutoff)
    if not np.isfinite(cutoff) or cutoff <= 0.0:
        raise ParameterError(
            f"kernel table cutoff must be finite and positive, got {cutoff}"
        )
    size = int(size)
    if size < 2:
        raise ParameterError(f"kernel table size must be >= 2, got {size}")
    axis = "d2" if (k.poly_coeffs(b) is not None or k.name == "gaussian") else "d"
    x_max = cutoff if axis == "d" else cutoff * cutoff
    nodes = np.linspace(0.0, x_max, size)
    d2_nodes = nodes * nodes if axis == "d" else nodes
    values = k.evaluate_sq(d2_nodes, b).astype(np.float32)

    # Certify the interpolation bound on an oversampled probe grid inside
    # the support, evaluating the interpolant exactly as the scatter
    # core's float32 mode does (clipped lookup in float32, truncation
    # masked by the caller in float64).
    probe = np.linspace(0.0, x_max, _TABLE_PROBE * (size - 1) + 1)
    d2_probe = probe * probe if axis == "d" else probe
    exact = k.evaluate_sq(d2_probe, b)
    table = KernelTable(k.name, b, cutoff, axis, values, 0.0)
    approx = table.lookup_sq_clipped(d2_probe.astype(np.float32))
    measured = float(np.max(np.abs(approx.astype(np.float64) - exact)))
    headroom = float(np.finfo(np.float32).eps) * float(np.max(np.abs(values), initial=0.0))
    table.max_abs_error = measured + headroom
    return table


def temporal_expansion_matrix(
    kernel: str | Kernel, bandwidth: float
) -> np.ndarray | None:
    """Binomial expansion of a polynomial kernel in event-time powers.

    A finite-support kernel that is polynomial in the squared distance
    (``poly_coeffs`` non-``None``) applied to a *temporal* offset
    ``|t - t_i|`` is a polynomial in ``(t - t_i)``, so it separates into
    powers of the frame time ``t`` and the event time ``t_i``::

        K(|t - t_i|; b) = sum_{m, p} B[m, p] * t^p * t_i^m
                        (valid for |t - t_i| <= support_radius(b))

    with ``B[m, p] = (-1)^m * C(m + p, m) * c_{(m+p)/2}`` when ``m + p``
    is even and ``(m + p) / 2`` indexes a ``poly_coeffs`` entry, else 0.
    ``B`` is the ``(M, M)`` matrix with ``M = 2 * degree + 1``; the
    temporal-sharing STKDV backend maintains one *moment grid* per row
    ``m`` (``M_m(q) = sum_i t_i^m patch_i(q)``) and reconstructs a frame
    at time ``t`` as ``sum_m (B @ [t^p])_m * M_m``.

    Returns ``None`` for kernels that are not polynomial in the squared
    distance (Gaussian, exponential, triangular, cosine) — exactly the
    kernels the sharing backend must fall back to windowing for.
    """
    k = get_kernel(kernel)
    coeffs = k.poly_coeffs(bandwidth)
    if coeffs is None:
        return None
    degree = coeffs.shape[0] - 1
    n = 2 * degree + 1
    matrix = np.zeros((n, n), dtype=np.float64)
    for m in range(n):
        for p in range(n - m):
            if (m + p) % 2:
                continue
            matrix[m, p] = ((-1.0) ** m) * comb(m + p, m) * coeffs[(m + p) // 2]
    return matrix


def get_kernel(kernel: str | Kernel) -> Kernel:
    """Resolve a kernel by name or pass an instance through."""
    if isinstance(kernel, Kernel):
        return kernel
    try:
        return KERNELS[kernel]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise ParameterError(f"unknown kernel {kernel!r}; available: {known}") from None
