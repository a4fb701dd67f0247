"""Photon-limited acquisition simulation.

Each measured value is (Poisson(rate * t * signal) + Gaussian(mu, sigma^2))
divided by rate * t. Sampling is exact (no Gaussian approximation of the
Poisson term) and driven by a stateless counter-based generator: every
(pixel, band) measurement owns its own stream derived from the master seed,
so results are independent of mask iteration order, chunking, and worker
count by construction. Values are deliberately not clamped at zero; read
noise can and does push low signals slightly negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import ClueSet, GuideImage, HyperCube, SpectralResponse, _resolve_response
from .errors import ValidationError

__all__ = ["MAX_POISSON_MEAN", "NoiseParams", "simulate_guide", "simulate_clues"]

# Largest Poisson mean the sampler accepts: beyond 2**53 consecutive integers
# stop being representable in float64 and exactness claims break down.
MAX_POISSON_MEAN = 2.0**53

_DOMAIN_GUIDE = np.uint64(0x47554944)
_DOMAIN_CLUES = np.uint64(0x434C5545)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT_2 = np.uint64(0x94D049BB133111EB)

# Means below this use the multiplication method, above it Hörmann's PTRS
# transformed rejection; both are exact.
_PTRS_THRESHOLD = 10.0


@dataclass(frozen=True)
class NoiseParams:
    """Acquisition model parameters.

    ``rho`` is the photon rate at full-scale radiance (counts per second),
    ``t`` the exposure per sample in seconds, ``mu``/``sigma`` the additive
    read-noise mean and standard deviation in counts, ``seed`` the master
    seed for the counter-based streams.
    """

    t: float
    rho: float = 9.6e7
    mu: float = 0.0
    sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.t) or self.t <= 0:
            raise ValidationError(f"exposure t must be positive, got {self.t}")
        if not np.isfinite(self.rho) or self.rho <= 0:
            raise ValidationError(f"photon rate rho must be positive, got {self.rho}")
        if not np.isfinite(self.mu):
            raise ValidationError("read-noise mean mu must be finite")
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValidationError(f"read-noise sigma must be >= 0, got {self.sigma}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**63:
            raise ValidationError(
                f"seed must be an integer in [0, 2**63), got {self.seed!r}"
            )

    @property
    def gain(self) -> float:
        """Counts per unit radiance for one sample (rho * t)."""
        return self.rho * self.t


# ---------------------------------------------------------------------------
# Counter-based uniform generator


def _mix64(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; a bijection on uint64
    x = (x ^ (x >> np.uint64(30))) * _MIX_MULT_1
    x = (x ^ (x >> np.uint64(27))) * _MIX_MULT_2
    return x ^ (x >> np.uint64(31))


def _uniform(seed: int, domain: np.uint64, slots: np.ndarray, draw: int) -> np.ndarray:
    """Open-interval (0, 1) uniforms for the given slots at one draw index."""
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(seed) * _GOLDEN + domain)
        h = _mix64(base ^ np.asarray(slots, dtype=np.uint64))
        h = _mix64(h ^ (np.uint64(draw) * _GOLDEN))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _gaussian(seed: int, domain: np.uint64, slots: np.ndarray) -> np.ndarray:
    """Standard normal draw per slot via Box-Muller on draws 0 and 1."""
    u0 = _uniform(seed, domain, slots, 0)
    u1 = _uniform(seed, domain, slots, 1)
    return np.sqrt(-2.0 * np.log(u0)) * np.cos(2.0 * np.pi * u1)


# ---------------------------------------------------------------------------
# Exact Poisson sampling

_MAX_MULT_ROUNDS = 1000
_MAX_PTRS_ROUNDS = 200
_FIRST_POISSON_DRAW = 2  # draws 0 and 1 belong to the Gaussian pair


def _poisson_small(mean, seed, domain, slots):
    """Multiplication method: multiply uniforms until falling below exp(-mean)."""
    target = np.exp(-mean)
    product = np.ones_like(mean)
    counts = np.zeros(mean.shape, dtype=np.int64)
    active = np.arange(mean.size)
    draw = _FIRST_POISSON_DRAW
    for _ in range(_MAX_MULT_ROUNDS):
        if active.size == 0:
            return counts - 1
        product[active] = product[active] * _uniform(seed, domain, slots[active], draw)
        counts[active] += 1
        active = active[product[active] > target[active]]
        draw += 1
    raise RuntimeError("Poisson multiplication method failed to terminate")


def _poisson_ptrs(mean, seed, domain, slots):
    """Hörmann's PTRS transformed rejection, exact for mean >= 10."""
    sqrt_mean = np.sqrt(mean)
    log_mean = np.log(mean)
    b = 0.931 + 2.53 * sqrt_mean
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)

    out = np.zeros(mean.shape, dtype=np.int64)
    active = np.arange(mean.size)
    for attempt in range(_MAX_PTRS_ROUNDS):
        if active.size == 0:
            return out
        draw = _FIRST_POISSON_DRAW + 2 * attempt
        u = _uniform(seed, domain, slots[active], draw) - 0.5
        v = _uniform(seed, domain, slots[active], draw + 1)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a[active] / us + b[active]) * u + mean[active] + 0.43)

        accept = (us >= 0.07) & (v <= v_r[active])
        feasible = (k >= 0) & ~((us < 0.013) & (v > us))
        k_safe = np.maximum(k, 0.0)
        log_accept = (
            np.log(v) + np.log(inv_alpha[active]) - np.log(a[active] / (us * us) + b[active])
        )
        log_target = -mean[active] + k_safe * log_mean[active] - gammaln(k_safe + 1.0)
        accept |= feasible & (log_accept <= log_target)

        out[active[accept]] = k[accept].astype(np.int64)
        active = active[~accept]
    raise RuntimeError("Poisson rejection sampler failed to terminate")


def _poisson(mean: np.ndarray, seed: int, domain: np.uint64, slots: np.ndarray) -> np.ndarray:
    """Exact Poisson draws, one per slot, from the counter-based streams."""
    mean = np.asarray(mean, dtype=np.float64)
    if np.any(mean < 0):
        raise ValidationError("Poisson mean is negative; radiance must be >= 0")
    if mean.size and float(mean.max()) > MAX_POISSON_MEAN:
        raise ValidationError(
            f"Poisson mean {mean.max():.3g} exceeds {MAX_POISSON_MEAN:.3g}; "
            "reduce rho * t or the scene scale"
        )
    slots = np.asarray(slots, dtype=np.uint64)
    out = np.zeros(mean.shape, dtype=np.int64)
    small = (mean > 0) & (mean < _PTRS_THRESHOLD)
    large = mean >= _PTRS_THRESHOLD
    if np.any(small):
        out[small] = _poisson_small(mean[small], seed, domain, slots[small])
    if np.any(large):
        out[large] = _poisson_ptrs(mean[large], seed, domain, slots[large])
    return out


# ---------------------------------------------------------------------------
# Simulation entry points


def _require_radiance(data: np.ndarray, what: str) -> None:
    if np.any(data < 0):
        raise ValidationError(f"{what} must be nonnegative radiance")


def _measure(
    signal: np.ndarray, params: NoiseParams, domain: np.uint64, slots: np.ndarray
) -> np.ndarray:
    """One measurement per slot of the flat radiance ``signal``, under the
    noise model of the module docstring."""
    gain = params.gain
    photons = _poisson(gain * signal, params.seed, domain, slots)
    read = params.mu + params.sigma * _gaussian(params.seed, domain, slots)
    return (photons + read) / gain


def simulate_guide(
    cube: HyperCube, params: NoiseParams, response: SpectralResponse | None = None
) -> GuideImage:
    """Simulate a noisy guide exposure of the scene.

    The ideal guide is the response-weighted band mean; each pixel then
    receives an exact Poisson draw at rho * t * ideal counts plus Gaussian
    read noise, and is divided back to radiance units.
    """
    _require_radiance(cube.data, "scene cube")
    resp = _resolve_response(cube.wavelengths, response)
    ideal = cube.data @ resp.weights
    slots = np.arange(ideal.size, dtype=np.uint64)
    values = _measure(ideal.ravel(), params, _DOMAIN_GUIDE, slots)
    return GuideImage(values.reshape(ideal.shape))


def simulate_clues(cube: HyperCube, mask, params: NoiseParams) -> ClueSet:
    """Simulate noisy spectral samples at the True positions of ``mask``.

    Every (pixel, band) measurement draws from its own counter-based
    stream keyed by the pixel's absolute position, so the same pixel gets
    the same noise no matter which mask carried it.
    """
    _require_radiance(cube.data, "scene cube")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (cube.height, cube.width):
        raise ValidationError(
            f"mask shape {mask.shape} does not match cube {cube.shape[:2]}"
        )
    if not mask.any():
        raise ValidationError("mask selects no pixels")
    bands = cube.bands
    true_spectra = cube.data[mask]
    pixel_index = np.flatnonzero(mask.ravel()).astype(np.uint64)
    slots = (pixel_index[:, None] * np.uint64(bands) + np.arange(bands, dtype=np.uint64)).ravel()
    spectra = _measure(true_spectra.ravel(), params, _DOMAIN_CLUES, slots)
    return ClueSet(
        cube.height, cube.width, cube.wavelengths, mask, spectra.reshape(true_spectra.shape)
    )
