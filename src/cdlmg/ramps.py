"""Time-dependent field schedules h(t) with analytic derivatives.

Every schedule provides both h(t) and hdot(t) in closed form; nothing in the
package differentiates a schedule numerically except the construction-time
check of hdot against central differences of h.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError

__all__ = ["RampSchedule"]

# Largest accepted gap between hdot and central differences of h on the
# 1001-point validation grid, relative to max |hdot|.  Smooth ramps are far
# inside it (tanh:0.75,0.5,5 differs by 1e-5 relative); a wrong derivative
# is off by order one.
DERIVATIVE_RTOL = 1e-2


@dataclass(frozen=True)
class RampSchedule:
    """Field schedule h(t) on a fixed time domain.

    Use the classmethod constructors (`linear`, `quadratic`, `tanh_ramp`,
    `constant`, `custom`); they attach the matching analytic derivative.
    """

    kind: str
    h_func: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    hdot_func: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    params: tuple = ()
    t_start: float = 0.0
    t_end: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.params)):
            raise ValidationError(f"{self.kind} ramp parameters must be finite, got {self.params}")
        if not np.all(np.isfinite((self.t_start, self.t_end))):
            raise ValidationError(
                f"ramp domain must be finite, got [{self.t_start}, {self.t_end}]")
        if not self.t_end > self.t_start:
            raise ValidationError("ramp domain must satisfy t_end > t_start")
        ts = np.linspace(self.t_start, self.t_end, 1001)
        hs, hdots = self.h(ts), self.hdot(ts[1:-1])
        for name, values in (("h", hs), ("hdot", hdots)):
            if not np.all(np.isfinite(values)):
                raise ValidationError(f"{self.kind} ramp: {name} is not finite inside "
                                      f"[{self.t_start}, {self.t_end}]")
        if np.any(hs <= 0):
            raise ValidationError(
                f"{self.kind} ramp reaches h <= 0 inside [{self.t_start}, {self.t_end}]"
            )
        mismatch = np.max(np.abs((hs[2:] - hs[:-2]) / (ts[2:] - ts[:-2]) - hdots))
        if not mismatch <= DERIVATIVE_RTOL * np.max(np.abs(hdots)):
            raise ValidationError(
                f"{self.kind} ramp: hdot differs from the slope of h by {mismatch:.3g}")

    def h(self, t):
        t = np.asarray(t, dtype=float)
        out = np.broadcast_to(np.asarray(self.h_func(t), dtype=float), t.shape)
        return float(out) if out.ndim == 0 else out.copy()

    def hdot(self, t):
        t = np.asarray(t, dtype=float)
        out = np.broadcast_to(np.asarray(self.hdot_func(t), dtype=float), t.shape)
        return float(out) if out.ndim == 0 else out.copy()

    def grid(self, steps: int) -> np.ndarray:
        """Uniform time grid with `steps` propagation intervals."""
        if steps < 1:
            raise ValidationError("steps must be >= 1")
        return np.linspace(self.t_start, self.t_end, steps + 1)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @classmethod
    def linear(cls, h0: float, rate: float, t_start: float = 0.0, t_end: float = 1.0):
        """h(t) = h0 + rate * t."""
        return cls("linear", lambda t: h0 + rate * t, lambda t: rate * np.ones_like(t),
                   (h0, rate), t_start, t_end)

    @classmethod
    def quadratic(cls, h0: float, rate: float, t_start: float = 0.0, t_end: float = 1.0):
        """h(t) = h0 + rate * t**2."""
        return cls("quadratic", lambda t: h0 + rate * t * t, lambda t: 2.0 * rate * t,
                   (h0, rate), t_start, t_end)

    @classmethod
    def tanh_ramp(cls, h0: float, amp: float, rate: float,
                  t_start: float = 0.0, t_end: float = 1.0):
        """h(t) = h0 + amp * tanh(rate * t)."""
        def hdot(t):
            # sech^2 x = 4e / (1 + e)^2 with e = exp(-2|x|), which cannot
            # overflow where cosh x does
            e = np.exp(-2.0 * np.abs(rate * t))
            return 4.0 * amp * rate * e / (1.0 + e) ** 2

        return cls("tanh", lambda t: h0 + amp * np.tanh(rate * t), hdot,
                   (h0, amp, rate), t_start, t_end)

    @classmethod
    def constant(cls, h0: float, t_start: float = 0.0, t_end: float = 1.0):
        return cls("constant", lambda t: h0 * np.ones_like(t),
                   lambda t: np.zeros_like(t), (h0,), t_start, t_end)

    @classmethod
    def custom(cls, h_func, hdot_func, t_start: float = 0.0, t_end: float = 1.0):
        """Arbitrary smooth schedule; `hdot_func` must be the analytic
        derivative of `h_func`, which construction checks."""
        return cls("custom", h_func, hdot_func, (), t_start, t_end)

    @classmethod
    def parse(cls, text: str) -> "RampSchedule":
        """Build a schedule from a 'kind:p1,p2[,p3]' string (CLI syntax)."""
        kind, _, rest = text.partition(":")
        try:
            params = [float(p) for p in rest.split(",")] if rest else []
        except ValueError as exc:
            raise ValidationError(f"cannot parse ramp parameters in {text!r}") from exc
        makers = {"linear": (cls.linear, 2), "quadratic": (cls.quadratic, 2),
                  "tanh": (cls.tanh_ramp, 3), "constant": (cls.constant, 1)}
        if kind not in makers:
            raise ValidationError(
                f"unknown ramp kind {kind!r}; expected one of {sorted(makers)}")
        maker, nargs = makers[kind]
        if len(params) != nargs:
            raise ValidationError(f"ramp {kind!r} needs {nargs} parameters, got {len(params)}")
        return maker(*params)
