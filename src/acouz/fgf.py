"""Fractional Gaussian fields on boundary spectra and random impedances.

The field with index s is the random series

    Xi_s = sum_{n > b0} xi_n mu_n^(-s/2) Y_n,        xi_n i.i.d. N(0, 1),

which converges in H^t exactly for t < s - (d-1)/2 (the boundary Hurst
parameter).  Divergence is never literal at finite truncation, so the
classifier operationalizes the dichotomy through the doubling ratio
|S_2N|_t / |S_N|_t of one consistently extended realization, and declares
borderline inputs (within 0.1 of the threshold) indeterminate instead of
guessing.

Randomness is counter-based: the Gaussian for mode n of stream (seed, j) is
a fixed word of a Philox stream, so coefficients are bit-identical across
runs, truncations, and worker schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .boundary import SpectralFunction, SpectrumError, ht_weights

STREAM_GAUSS = 0       # xi_n draws
STREAM_KERNEL = 1      # eta_n draws (kernel-mode law)

EPS_CONV_DEFAULT = 0.01
MARGIN_DEFAULT = 0.1


def _raw_uniforms(seed, stream, count):
    """First ``count`` uniforms in (0, 1) of the Philox stream keyed by
    (seed, stream).

    Word i depends only on (seed, stream, i): extending ``count`` never
    changes earlier values.  The top 53 bits k map to (k + 1/2) 2^-53, which
    rounds to 1.0 for the top word alone; that one is mapped just below 1.
    """
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    raw = Philox(key=key).random_raw(count)
    u = (raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54
    return np.minimum(u, np.nextafter(1.0, 0.0))


def gaussian_stream(seed, count, stream=STREAM_GAUSS):
    """Standard-normal draws xi_1..xi_count of the (seed, stream) stream."""
    return ndtri(_raw_uniforms(seed, stream, count))


def positive_stream(seed, count, stream=STREAM_KERNEL):
    """Exp(1) draws -log(u) for the kernel-mode weights: strictly positive,
    since every uniform lies below 1."""
    return -np.log(_raw_uniforms(seed, stream, count))


# ---------------------------------------------------------------------------
# field samples
# ---------------------------------------------------------------------------

def field_scales(spec, s, N_trunc):
    """mu_n^(-s/2) on the first N_trunc modes, zero on kernel modes."""
    if N_trunc > spec.count:
        raise SpectrumError(f"truncation {N_trunc} exceeds the spectrum ({spec.count})")
    b0 = spec.b0
    if N_trunc > b0 and spec.mu[b0] <= 0:
        raise SpectrumError("spectrum has no positive eigenvalues past the kernel")
    scales = np.zeros(N_trunc)
    scales[b0:] = spec.mu[b0:N_trunc] ** (-s / 2.0)
    return scales


def sample_fgf(spec, s, N_trunc, seed, scales=None):
    """Coefficients xi_n mu_n^(-s/2) of Xi_s on the first N_trunc modes of
    ``spec``, zero on kernel modes; ``scales`` is ``field_scales(spec, s,
    N_trunc)`` when the caller already has it."""
    if scales is None:
        scales = field_scales(spec, s, N_trunc)
    xi = gaussian_stream(seed, N_trunc)
    xi[:spec.b0] = 0.0
    return xi * scales


def _partial_sum_norms(spec, s, seeds, t, checkpoints):
    """|S_N|_t at every checkpoint N, along one consistently extended
    realization per seed.

    The xi_n of a seed are drawn once for the largest checkpoint; earlier
    checkpoints are prefixes of the same path, never redrawn.  The H^t
    weights and the field scales are computed once for all seeds.
    """
    checkpoints = list(checkpoints)
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    N_max = checkpoints[-1]
    scales = field_scales(spec, s, N_max)
    w = ht_weights(spec, t)[:N_max]
    out = []
    for seed in seeds:
        acc = np.cumsum((w * sample_fgf(spec, s, N_max, seed, scales)) ** 2)
        out.append([float(np.sqrt(acc[N - 1])) for N in checkpoints])
    return out


def convergence_classifier(spec, s, t, seeds=50, checkpoints=(64, 128, 256, 512,
                                                              1024, 2048, 4096),
                           eps_conv=EPS_CONV_DEFAULT, margin=MARGIN_DEFAULT,
                           seed0=0):
    """Empirical convergence/divergence verdict for Xi_s in H^t.

    Converges iff the median over seeds of |S_2N|_t / |S_N|_t at the last
    doubling is <= 1 + eps_conv.  Inputs with |t - threshold| < margin sit
    inside the band where the doubling statistic cannot separate log-type
    divergence from slow convergence at any affordable truncation; they are
    reported as indeterminate rather than silently coerced.
    """
    checkpoints = list(checkpoints)
    if seeds < 30:
        raise ValueError("need at least 30 seeds")
    doublings = sum(1 for a, b in zip(checkpoints, checkpoints[1:]) if b == 2 * a)
    if doublings < 4:
        raise ValueError("need at least 4 doubling checkpoints")
    if checkpoints[-1] != 2 * checkpoints[-2]:
        raise ValueError("the last two checkpoints must be a doubling")

    threshold = s - (spec.dim - 1) / 2.0
    ratios = [norms[-1] / norms[-2] for norms in _partial_sum_norms(
        spec, s, range(seed0, seed0 + seeds), t, checkpoints)]
    median_ratio = float(np.median(ratios))

    # strict interior of the band, with slack so |t - threshold| == margin
    # (up to roundoff) still gets a verdict
    if abs(t - threshold) < margin - 1e-9:
        verdict = "indeterminate"
    elif median_ratio <= 1.0 + eps_conv:
        verdict = "converges"
    else:
        verdict = "diverges"
    return {
        "verdict": verdict,
        "median_ratio": median_ratio,
        "ratio_iqr": [float(np.percentile(ratios, 25)), float(np.percentile(ratios, 75))],
        "threshold": threshold,
        "eps_conv": eps_conv,
        "margin": margin,
        "seeds": seeds,
        "checkpoints": checkpoints,
    }


# ---------------------------------------------------------------------------
# random impedance coefficients
# ---------------------------------------------------------------------------

@dataclass
class RandomImpedanceSpec:
    """Recipe zeta = c * Xi_s + sum_{n<=b0} c_n eta_n Y_n.

    The c_n weight nonnegative kernel modes; eta_n are i.i.d. Exp(1) draws.
    The field part enters the boundary operator skew-adjointly (see
    ``impedance_coefficients``), so the real part of the operator is carried
    entirely by the kernel sum: it vanishes iff all c_n are zero.  There are
    zero c_n or exactly b0 of them, one per kernel mode.
    """

    c: float
    s: float
    kernel_weights: tuple = ()

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("the field index s must be positive")
        kw = tuple(float(w) for w in self.kernel_weights)
        if any(w < 0 for w in kw):
            raise ValueError("kernel weights must be nonnegative")
        object.__setattr__(self, "kernel_weights", kw)

    def check_kernel_weights(self, b0):
        """Raise ValueError unless there are zero or exactly b0 kernel weights."""
        if len(self.kernel_weights) not in (0, b0):
            raise ValueError(f"need zero or exactly b0={b0} kernel weights, "
                             f"got {len(self.kernel_weights)}")


def sample_random_impedance(spec, rspec, N_trunc, seed):
    """One draw of zeta as a real-coefficient SpectralFunction.

    Kernel modes carry c_n * eta_n >= 0; modes past the kernel carry
    c * xi_n mu_n^(-s/2).  For d != 2 the sample is still produced but the
    supporting theory is out of regime; callers may check ``spec.dim``.
    """
    b0 = spec.b0
    rspec.check_kernel_weights(b0)
    coeffs = rspec.c * sample_fgf(spec, rspec.s, N_trunc, seed)
    if rspec.kernel_weights:
        eta = positive_stream(seed, b0)
        coeffs[:b0] = np.array(rspec.kernel_weights) * eta
    return SpectralFunction(spec, coeffs.astype(complex))


def impedance_coefficients(zeta):
    """Boundary-operator coefficients for a sampled zeta.

    The field component (modes past the kernel) multiplies the boundary
    condition through i * (real field), i.e. a purely imaginary coefficient
    whose multiplication operator is skew; the kernel component stays real
    and nonnegative.  With all kernel weights zero the resulting operator
    satisfies Z^natural = -Z exactly, hence a selfadjoint acoustic operator.
    """
    spec = zeta.spectrum
    c = zeta.coeffs.astype(complex).copy()
    c[spec.b0:] = 1j * c[spec.b0:].real
    return SpectralFunction(spec, c)
