"""The standard normal CDF and the paired expectation/variance container.

Everything in this module is pure and elementwise; the per-layer transforms
build on these primitives.  All computation is in 64-bit floats.
"""

from __future__ import annotations

import numpy as np
from scipy import special

_SQRT2 = float(np.sqrt(2.0))


def std_normal_cdf(x):
    """CDF of N(0, 1) computed through the complementary error function.

    Accurate to well below 1e-12 absolute over the whole real line, which
    matters because downstream rectifier/pooling moments compound the error
    across layers.
    """
    return 0.5 * special.erfc(np.asarray(x, dtype=np.float64) / -_SQRT2)


class MomentTensor:
    """Expectation and variance arrays of identical shape.

    This is the signal that flows through the single-pass propagation mode.
    Arrays are stored as read-only float64 views, so instances are immutable
    and safe to share across threads.  Construction rejects negative variance
    entries; layers that can round a variance slightly negative clamp before
    constructing (see ``layers.variance_clamp_count``).
    """

    __slots__ = ("expectation", "variance")

    def __init__(self, expectation, variance):
        e = np.asarray(expectation, dtype=np.float64)
        v = np.asarray(variance, dtype=np.float64)
        if e.shape != v.shape:
            raise ValueError(
                f"expectation shape {e.shape} != variance shape {v.shape}"
            )
        if v.size and not np.all(v >= 0.0):
            raise ValueError("variance entries must all be >= 0")
        e = e.view()
        v = v.view()
        e.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "expectation", e)
        object.__setattr__(self, "variance", v)

    @classmethod
    def from_point(cls, values) -> "MomentTensor":
        """Lift a deterministic array to a moment pair with zero variance."""
        values = np.asarray(values, dtype=np.float64)
        return cls(values, np.zeros_like(values))

    @classmethod
    def _unchecked(cls, expectation, variance) -> "MomentTensor":
        """Internal fast path for layer outputs whose variance is nonnegative
        by construction (clamped, or sums/products of nonnegative terms)."""
        out = cls.__new__(cls)
        e = expectation.view()
        v = variance.view()
        e.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(out, "expectation", e)
        object.__setattr__(out, "variance", v)
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.expectation.shape

    def __setattr__(self, name, value):
        raise AttributeError("MomentTensor is immutable")

    def __repr__(self):
        return f"MomentTensor(shape={self.shape})"
