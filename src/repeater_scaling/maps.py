"""Scalar fidelity maps: purification, entanglement swapping and memory decay.

Entangled pairs are treated as Werner states parametrised by their fidelity
with the target Bell state.  All maps accept floats or numpy arrays and
broadcast elementwise; they are pure functions and safe to call concurrently.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import FidelityClampWarning

__all__ = [
    "ErrorParams",
    "PurifyResult",
    "check_error_rates",
    "purify_ideal",
    "purify",
    "purify_coefficients",
    "swap_fidelity",
    "swap_preimage",
    "decay",
]

# Tolerated floating-point excursion outside (0, 1] before clamping is an error.
CLAMP_TOLERANCE = 1e-9


def check_error_rates(eps_g: float, eps_r: float = 0.0) -> None:
    """Require ``eps_g`` in [0, 1) and ``eps_r`` in [0, 0.5); NaN fails both."""
    if not 0.0 <= eps_g < 1.0:
        raise ValueError(f"eps_g must be in [0, 1), got {eps_g}")
    if not 0.0 <= eps_r < 0.5:
        raise ValueError(f"eps_r must be in [0, 0.5), got {eps_r}")


@dataclass(frozen=True)
class ErrorParams:
    """Effective gate and read-out error rates of a repeater node.

    ``eps_g`` is the probability that a Pauli error hits the source qubit
    between two idealised entangling gates; ``p_x``, ``p_y``, ``p_z`` are the
    conditional weights of the three Pauli operators given that an error
    occurred.  ``eps_r`` is the effective read-out error on measured qubits
    (bit flips after the gate are absorbed into it).  ``eta_s`` is the
    read-out efficiency used during entanglement swapping; it defaults to
    ``1 - eps_r`` since swapping and purification run on the same hardware.
    """

    eps_g: float = 0.0
    eps_r: float = 0.0
    p_x: float = 0.25
    p_y: float = 0.25
    p_z: float = 0.5
    eta_s: float | None = None

    def __post_init__(self) -> None:
        check_error_rates(self.eps_g, self.eps_r)
        if min(self.p_x, self.p_y, self.p_z) < 0.0:
            raise ValueError("Pauli weights must be non-negative")
        if abs(self.p_x + self.p_y + self.p_z - 1.0) > 1e-12:
            raise ValueError("Pauli weights must sum to 1 within 1e-12")
        if self.eta_s is None:
            object.__setattr__(self, "eta_s", 1.0 - self.eps_r)
        if not 0.5 < self.eta_s <= 1.0:
            raise ValueError(f"eta_s must be in (0.5, 1], got {self.eta_s}")

    @property
    def eta(self) -> float:
        """Read-out efficiency on the purification target qubits."""
        return 1.0 - self.eps_r


class PurifyResult(NamedTuple):
    fidelity: float
    p_accept: float


def _outside(value, lower: float) -> bool:
    """True when some value lies at or below ``lower`` or above 1; NaN passes.

    Floats (``np.float64`` included) are compared directly: wrapping each
    scalar in a 0-d array would cost more than the map it guards.
    """
    if isinstance(value, float):
        return value <= lower or value > 1.0
    arr = np.asarray(value)
    return bool(np.any(arr <= lower) or np.any(arr > 1.0))


def _check_fidelity(value, lower: float = 0.0, name: str = "fidelity") -> None:
    if _outside(value, lower):
        raise ValueError(f"{name} must lie in ({lower}, 1], got {value}")


def _clamp_unit(value):
    """Clamp floating-point excursions outside (0, 1] and flag them.

    Excursions beyond CLAMP_TOLERANCE are never silently absorbed.
    """
    if isinstance(value, float):
        high = value - 1.0
        if high > 0.0:
            if high > CLAMP_TOLERANCE:
                raise ValueError(f"fidelity {value} exceeds 1 beyond tolerance")
            warnings.warn("fidelity clamped to 1.0", FidelityClampWarning, stacklevel=3)
            return 1.0
        return value
    arr = np.asarray(value)
    high = arr - 1.0
    if np.any(high > 0.0):
        if np.any(high > CLAMP_TOLERANCE):
            raise ValueError(f"fidelity {value} exceeds 1 beyond tolerance")
        warnings.warn("fidelity clamped to 1.0", FidelityClampWarning, stacklevel=3)
        arr = np.minimum(arr, 1.0)
        return arr if arr.ndim else float(arr)
    return value


def purify_ideal(fidelity):
    """Error-free purification map for two Werner pairs of equal fidelity.

    Both fixed points of the map, 1/2 and 1, delimit the region where
    purification gains fidelity.
    """
    _check_fidelity(fidelity)
    f = fidelity
    w = (1.0 - f) / 3.0
    num = f * f + w * w
    den = f * f + 2.0 * f * w + 5.0 * w * w
    return _clamp_unit(num / den)


def purify(fidelity, err: ErrorParams) -> PurifyResult:
    """Purification map with gate and read-out errors.

    Returns the fidelity after a successful round together with the
    acceptance probability of the round.  The acceptance probability depends
    only on the read-out efficiency: source-qubit gate errors never flip the
    measured target qubits.  This public entry point checks its input and
    clamps its output; the arithmetic is :func:`_purify_kernel`.
    """
    _check_fidelity(fidelity)
    fidelity_out, p_accept = _purify_kernel(fidelity, err)
    return PurifyResult(_clamp_unit(fidelity_out), p_accept)


def _purify_kernel(f, err: ErrorParams):
    """``(fidelity, p_accept)`` of :func:`purify`, unchecked and unclamped.

    The same float operations in the same order as the checked map, so both
    give the same bits.  Callers must pass fidelities in (0, 1]; the
    lock-step target scan feeds it the map's own outputs, which stay in
    (1/4, 1) there, so checking them again every round would find nothing.
    """
    eta = err.eta
    eps_g = err.eps_g
    w = (1.0 - f) / 3.0
    ff = f * f
    ww = w * w
    meas_same = eta * eta + (1.0 - eta) * (1.0 - eta)
    meas_cross = eta * (1.0 - eta)
    cross = f * w + ww
    gate = (2.0 * eps_g - eps_g * eps_g) / ((1.0 - eps_g) * (1.0 - eps_g))
    num = (
        (ff + ww) * meas_same
        + cross * 2.0 * meas_cross
        + 2.0 * gate * (err.p_z * f * w + (err.p_x + err.p_y) * w * w)
    )
    p_accept = (ff + 2.0 * f * w + 5.0 * w * w) * meas_same + cross * 8.0 * meas_cross
    den = p_accept / ((1.0 - eps_g) * (1.0 - eps_g))
    return num / den, p_accept


def purify_coefficients(err: ErrorParams) -> tuple[float, float, float, float, float, float]:
    """Coefficients ``(a, b, c, n2, n1, n0)`` of :func:`purify` as polynomials in F.

    With acceptance ``p`` and output ``F'``, ``9 p = a F**2 + b F + c`` (no real
    root) and ``9 p (F' - F) = -a F**3 + n2 F**2 + n1 F + n0``.
    """
    eta = err.eta
    ms = eta * eta + (1.0 - eta) * (1.0 - eta)
    mc = eta * (1.0 - eta)
    u = (1.0 - err.eps_g) ** 2
    p_z = err.p_z
    q_xy = err.p_x + err.p_y
    a = 8.0 * ms - 16.0 * mc
    b = -4.0 * ms + 8.0 * mc
    c = 5.0 * ms + 8.0 * mc
    n2 = 10.0 * u * ms - 4.0 * u * mc + 2.0 * (1.0 - u) * (q_xy - 3.0 * p_z) - b
    n1 = -2.0 * u * ms + 2.0 * u * mc + 2.0 * (1.0 - u) * (3.0 * p_z - 2.0 * q_xy) - c
    n0 = u * ms + 2.0 * u * mc + 2.0 * (1.0 - u) * q_xy
    return a, b, c, n2, n1, n0


def swap_fidelity(fidelity, n_links: int, err: ErrorParams, absorbed: bool = True):
    """Fidelity after joining ``n_links`` adjacent links of equal fidelity.

    With ``absorbed=True`` the gate errors of the Bell-state measurements are
    absorbed into the swap read-out efficiency ``eta_s``; otherwise the gate
    error enters explicitly alongside the purification read-out efficiency.
    An array gives the same bits as a float call per element.
    """
    if n_links < 2:
        raise ValueError(f"swapping joins at least 2 links, got {n_links}")
    if _outside(fidelity, 0.25):
        raise ValueError(f"swap input fidelity must lie in (1/4, 1], got {fidelity}")
    if absorbed:
        out = _swap(fidelity, n_links, err.eta_s)
    else:
        out = _swap(fidelity, n_links, err.eta, (1.0 - err.eps_g) ** 3)
    return _clamp_unit(out)


def _swap(fidelity, n_links: int, eta: float, gate: float = 1.0):
    """Swap arithmetic of :func:`swap_fidelity`, with no domain check or clamp.

    ``gate`` scales the per-link factor; multiplying by the default 1.0 is
    exact, so the absorbed swap keeps its bits.
    """
    link_factor = gate * (4.0 * eta * eta - 1.0) / 3.0
    x = (4.0 * fidelity - 1.0) / 3.0
    if isinstance(x, float):
        x_n = x**n_links
    else:
        # Python's pow per element: numpy squares with x*x and takes higher
        # powers from its own loops, which round unlike pow() on floats.
        x_n = np.fromiter(
            map(pow, x.ravel().tolist(), itertools.repeat(n_links)), float, x.size
        ).reshape(x.shape)
    return 0.25 * (1.0 + 3.0 * link_factor ** (n_links - 1) * x_n)


def swap_preimage(fidelity: float, eta_s: float) -> float:
    """Inverse of ``swap_fidelity(F, 2, err)`` at ``err.eta_s == eta_s``, on (1/4, eta_s**2]."""
    return (3.0 * math.sqrt((4.0 * fidelity - 1.0) / (4.0 * eta_s**2 - 1.0)) + 1.0) / 4.0


def decay(fidelity, elapsed_s, t2_s):
    """Fidelity of a stored pair after ``elapsed_s`` seconds of memory decay.

    Gaussian envelope for a dynamically decoupled memory with coherence time
    ``t2_s``.
    """
    _check_fidelity(fidelity)
    if t2_s <= 0.0:
        raise ValueError(f"t2_s must be positive, got {t2_s}")
    if np.any(np.asarray(elapsed_s) < 0.0):
        raise ValueError(f"elapsed_s must be non-negative, got {elapsed_s}")
    ratio = np.asarray(elapsed_s) / t2_s
    out = fidelity * np.exp(-(ratio * ratio))
    return out if np.ndim(out) else float(out)
