"""Multiplication operators in the boundary eigenbasis.

A scalar phi (function, measure, or rougher distribution, known through its
eigenbasis coefficients c_k) acts on boundary functions by multiplication.
In the orthonormal basis {Y_n} the truncated operator has entries

    A[m, n] = integral( phi * Y_n * Y_m )  =  sum_k c_k G[k, m, n],

with G[k, m, n] = integral(Y_k Y_m Y_n) the fully symmetric triple-product
tensor.  On curves the products of trigonometric modes expand exactly by
product-to-sum identities, so G carries no quadrature error; on surfaces
the products are integrated per triangle with a degree-4 rule.

All norm and compactness statements are about compressions P_N M_phi P_N:
the operator norm from H^{s1} to H^{-s2} of the compression is the largest
singular value of D(-s2) A D(-s1), with D(t) the diagonal of H^t weights,
and refinement in N stands in for the infinite-dimensional claims.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boundary import (
    KIND_CONST, KIND_COS, KIND_SIN,
    BoundarySpectrum, SpectralFunction, SpectrumError, ht_weights,
)

PSD_TOL_FACTOR = 1e-10   # shared with the impedance module


def psd_tolerance(matrix_norm, factor=PSD_TOL_FACTOR):
    """Positive-semidefiniteness slack: factor * ||A||, floored at factor."""
    return factor * max(1.0, matrix_norm)


# ---------------------------------------------------------------------------
# triple products
# ---------------------------------------------------------------------------

_DEG4_BARY = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])
_DEG4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


class TripleProductTensor:
    """Access to G[k, m, n] = integral(Y_k Y_m Y_n) for a stored spectrum.

    On a curve component of length L, Y_m Y_n is exactly a sum of at most
    two modes, at the sum and the difference of the two frequencies, with
    coefficient +-1/sqrt(2L) on a cos/sin mode and 1/sqrt(L) on the
    constant: index arithmetic on (kind, frequency), vectorised over all
    pairs through a dense (comp, kind, freq) -> index table (-1 where a
    mode is not stored, so such terms drop out).  Modes on different
    components multiply to zero.  Surface spectra use a degree-4
    quadrature on every triangle.  Immutable after construction.
    """

    def __init__(self, spec: BoundarySpectrum):
        self.spec = spec
        if spec.mode_comp is None:
            if not spec.has_grid:
                raise SpectrumError("surface triple products need the modes: "
                                    "build the spectrum with store_modes=True")
            v = spec.geometry.vertices
            t = spec.geometry.triangles
            from .boundary import _triangle_areas
            areas = _triangle_areas(v, t)
            self._qw = (areas[:, None] * _DEG4_W[None, :]).ravel()
            # modes interpolated to quadrature points: (N, n_tri * 6)
            vals = spec.modes[:, t]                    # (N, n_tri, 3)
            self._qmodes = np.einsum("ntj,qj->ntq", vals, _DEG4_BARY).reshape(
                spec.count, -1)
        else:
            self._qw = self._qmodes = None
            lengths = spec.geometry.component_lengths()
            self._a = 1.0 / np.sqrt(lengths)          # on the component constant
            self._b = 1.0 / np.sqrt(2.0 * lengths)    # on a cos/sin mode
            # sum frequencies reach twice the largest stored one
            fmax = int(spec.mode_freq.max())
            self._index = np.full((lengths.size, 3, 2 * fmax + 1), -1, dtype=np.intp)
            self._index[spec.mode_comp, spec.mode_kind, spec.mode_freq] = \
                np.arange(spec.count)

    def _curve_terms(self, m, n):
        """Expansion Y_m * Y_n = coef_s * Y_{k_s} + coef_d * Y_{k_d}.

        For index arrays m, n returns (k_s, coef_s, k_d, coef_d): the sum
        frequency term and the difference frequency term of every pair, with
        k = -1 where the term is absent or its mode is not stored.
        """
        spec = self.spec
        comp = spec.mode_comp[m]
        tm, tn = spec.mode_kind[m], spec.mode_kind[n]
        km, kn = spec.mode_freq[m], spec.mode_freq[n]
        swap = (tm > tn) | ((tm == tn) & (km > kn))        # canonical order
        tm, tn = np.where(swap, tn, tm), np.where(swap, tm, tn)
        km, kn = np.where(swap, kn, km), np.where(swap, km, kn)
        a, b = self._a[comp], self._b[comp]
        const = tm == KIND_CONST                  # Y_const * Y_n = a Y_n
        cos_sin = (tm == KIND_COS) & (tn == KIND_SIN)
        equal = km == kn

        # cos(j)cos(k) = [cos(j+k) + cos(j-k)]/2, sin(j)sin(k) =
        # [cos(j-k) - cos(j+k)]/2, cos(j)sin(k) = [sin(k+j) + sin(k-j)]/2;
        # at j = k the difference term lands on the constant mode
        kind_s = np.where(const, tn, np.where(cos_sin, KIND_SIN, KIND_COS))
        freq_s = np.where(const, kn, km + kn)
        coef_s = np.where(const, a, np.where(tm == KIND_SIN, -b, b))
        kind_d = np.where(equal, KIND_CONST, np.where(cos_sin, KIND_SIN, KIND_COS))
        freq_d = np.where(equal, 0, np.abs(kn - km))
        coef_d = np.where(equal, a, np.where(cos_sin & (kn < km), -b, b))

        k_s = self._index[comp, kind_s, freq_s]
        k_d = self._index[comp, kind_d, freq_d]
        other = spec.mode_comp[n] != comp
        k_s[other] = -1
        k_d[other | const | (cos_sin & equal)] = -1
        return k_s, coef_s, k_d, coef_d

    def product_coefficients(self, coeffs_m, coeffs_n=None):
        """Coefficients of the pointwise product f*g of two coefficient vectors.

        The result is indexed like the spectrum (length N); contributions to
        modes beyond the stored truncation are dropped, mirroring the
        compression semantics of the multiplier matrices.
        """
        a = np.asarray(coeffs_m, dtype=complex)
        b = a if coeffs_n is None else np.asarray(coeffs_n, dtype=complex)
        if self._qmodes is not None:
            fa = a @ self._qmodes[:a.size]
            fb = b @ self._qmodes[:b.size]
            return self._qmodes @ (self._qw * fa * fb)
        m, n = (g.ravel() for g in np.meshgrid(np.flatnonzero(a), np.flatnonzero(b),
                                                indexing="ij"))
        k_s, coef_s, k_d, coef_d = self._curve_terms(m, n)
        out = np.zeros(self.spec.count, dtype=complex)
        for k, coef in ((k_s, coef_s), (k_d, coef_d)):
            keep = k >= 0
            np.add.at(out, k[keep], coef[keep] * a[m[keep]] * b[n[keep]])
        return out

    def entry(self, k, m, n):
        """G[k, m, n] (0-based indices)."""
        if self._qmodes is not None:
            return float(np.sum(self._qw * self._qmodes[k] * self._qmodes[m]
                                * self._qmodes[n]))
        k_s, coef_s, k_d, coef_d = self._curve_terms(np.array([m]), np.array([n]))
        return float(coef_s[0] if k_s[0] == k else coef_d[0] if k_d[0] == k else 0.0)

    def contract(self, coeffs, N_trunc):
        """A[m, n] = sum_k coeffs[k] G[k, m, n] for m, n < N_trunc."""
        c = np.asarray(coeffs, dtype=complex)
        if self._qmodes is not None:
            phi_q = c @ self._qmodes[:c.size]
            Yq = self._qmodes[:N_trunc]
            return (Yq * (self._qw * phi_q)[None, :]) @ Yq.T
        m, n = np.triu_indices(N_trunc)
        k_s, coef_s, k_d, coef_d = self._curve_terms(m, n)
        # zero past c and in slot -1: absent terms and modes past c add nothing
        c0 = np.zeros(self.spec.count + 1, dtype=complex)
        c0[:c.size] = c
        vals = coef_s * c0[k_s] + coef_d * c0[k_d]
        A = np.zeros((N_trunc, N_trunc), dtype=complex)
        A[m, n] = vals
        A[n, m] = vals      # G is symmetric in (m, n)
        return A


# ---------------------------------------------------------------------------
# multiplier matrices
# ---------------------------------------------------------------------------

def _real_if_exact(X):
    """X.real when the imaginary part of X is exactly zero, else X: LAPACK
    then runs in real arithmetic on real data at no loss of accuracy."""
    return X if np.any(X.imag) else X.real


@dataclass(frozen=True)
class MultiplierMatrix:
    """Compression P_N M_phi P_N with Sobolev-exponent bookkeeping.

    ``matrix[m, n] = <M_phi Y_n, Y_m> = integral(phi Y_n Y_m)``; the target
    mapping H^{s1} -> H^{-s2} only enters through the diagonal weights of
    :meth:`weighted`.  The singular values of the weighted matrix, which
    :func:`multiplier_norm` and :func:`compactness_profile` both read, are
    computed once per compression, in real arithmetic when the compression
    is real (a real phi).  Immutable, so that cache stays valid.
    """

    spectrum: BoundarySpectrum
    matrix: np.ndarray
    s1: float
    s2: float
    N_trunc: int

    def weighted(self):
        d1 = ht_weights(self.spectrum, -self.s1)[:self.N_trunc]
        d2 = ht_weights(self.spectrum, -self.s2)[:self.N_trunc]
        return d2[:, None] * self.matrix * d1[None, :]

    @functools.cached_property
    def singular_values(self):
        """Singular values of D(-s2) A D(-s1), in descending order."""
        return np.linalg.svd(_real_if_exact(self.weighted()), compute_uv=False)


def build_multiplier(phi, s1, s2, N_trunc, tensor=None):
    """Truncated matrix of multiplication by phi in the eigenbasis."""
    spec = phi.spectrum
    if N_trunc > spec.count:
        raise SpectrumError(f"truncation {N_trunc} exceeds the spectrum ({spec.count})")
    tensor = tensor or TripleProductTensor(spec)
    A = tensor.contract(phi.coeffs, N_trunc)
    return MultiplierMatrix(spectrum=spec, matrix=A, s1=s1, s2=s2, N_trunc=N_trunc)


def multiplier_norm(A: MultiplierMatrix):
    """Largest singular value of D(-s2) A D(-s1): the truncated operator
    norm H^{s1} -> H^{-s2}.  Shares one singular-value solve per
    compression with :func:`compactness_profile`, in real arithmetic when
    the compression is real."""
    return float(A.singular_values[0])


def compactness_profile(A: MultiplierMatrix, ranks):
    """Singular values of the weighted matrix at the requested 1-based ranks.

    A numerically compact multiplier shows sigma_k -> 0 with growing k,
    stably under truncation refinement; an identity-weighted symbol stays
    bounded away from zero.  The singular values are those of
    ``A.singular_values``: one solve per compression, shared with
    :func:`multiplier_norm`, in real arithmetic when the compression is real.
    """
    sv = A.singular_values
    out = []
    for k in ranks:
        if not 1 <= k <= sv.size:
            raise SpectrumError(f"rank {k} outside 1..{sv.size}")
        out.append(float(sv[k - 1]))
    return out


def hermitian_check(X, tol=None):
    """Herm(X) = (X + X*)/2 >= 0 up to the PSD slack: the one accretivity
    decision, shared by multiplier positivity, impedance accretivity and the
    Friedrichs precondition.

    Returns ``nonneg``, the extreme eigenvalues ``min_eig`` and ``max_eig``
    of Herm(X), ``tol`` (default ``psd_tolerance(norm)``) and ``norm`` =
    ||X||_2.  The eigenvalues are taken in real arithmetic when Herm(X) is
    exactly real; ||X||_2 is read from them when X is exactly Hermitian, and
    only a non-Hermitian X takes one singular-value solve.
    """
    eigs = np.linalg.eigvalsh(_real_if_exact(0.5 * (X + X.conj().T)))
    if np.array_equal(X, X.conj().T):
        norm = float(np.abs(eigs).max())
    else:
        norm = float(np.linalg.svd(_real_if_exact(X), compute_uv=False)[0])
    tol = psd_tolerance(norm) if tol is None else tol
    return {"nonneg": bool(eigs[0] >= -tol), "min_eig": float(eigs[0]),
            "max_eig": float(eigs[-1]), "tol": tol, "norm": norm}


def positivity_test(A: MultiplierMatrix, tol=None):
    """Multiplicative positivity of phi from its compression A = P_N M_phi P_N.

    phi >= 0 as a measure/distribution iff the Hermitian part of M_phi is
    positive semidefinite; at truncation this is :func:`hermitian_check` of
    ``A.matrix`` (the Sobolev weights of A play no part).  A real phi has an
    exactly symmetric curve contraction, so no singular value is taken.
    """
    return hermitian_check(A.matrix, tol)


def accretivity_integral_test(z, test_count=32, seed=0, tensor=None):
    """Check integral(re(z) |g|^2) >= 0 over probe functions g.

    Probes are ``test_count`` random band-limited functions plus the
    Rayleigh minimizer of the Hermitian part, so the outcome is exact and
    agrees with :func:`positivity_test` applied to re(z).  Each value is
    computed through the triple-product expansion of |g|^2, not through the
    multiplier matrix.
    """
    spec = z.spectrum
    N = z.n_coeffs
    re_c = z.coeffs.real.astype(complex)
    tensor = tensor or TripleProductTensor(spec)

    A = tensor.contract(re_c, N)
    tol = hermitian_check(A)["tol"]
    _, eigvecs = np.linalg.eigh(0.5 * (A + A.conj().T))

    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(test_count):
        width = int(rng.integers(1, min(12, N) + 1))
        start = int(rng.integers(0, N - width + 1))
        g = np.zeros(N, dtype=complex)
        g[start:start + width] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        g /= np.linalg.norm(g)
        probes.append(g)
    probes.append(eigvecs[:, 0].astype(complex))

    ok = True
    values = []
    for g in probes:
        sq = tensor.product_coefficients(g, np.conj(g))
        val = np.dot(re_c, sq[:re_c.size])
        if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
            raise SpectrumError("integral of re(z)|g|^2 came out non-real")
        values.append(float(val.real))
        ok = ok and (val.real >= -tol)
    return {"nonneg": bool(ok), "values": values, "tol": tol}


# ---------------------------------------------------------------------------
# L^q embedding case analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LqEmbeddingQuery:
    """Exponent bookkeeping for L^q -> multiplier-space embeddings."""

    d: int
    s1: float
    s2: float
    q: float    # may be math.inf

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not (0.0 <= self.s1 <= 1.0 and 0.0 <= self.s2 <= 1.0):
            raise ValueError("exponents s1, s2 must lie in [0, 1]")
        if not (self.q >= 1.0):
            raise ValueError("q must lie in [1, inf]")

    @property
    def kappa(self):
        return (2.0 * self.s1 / (self.d - 1), 2.0 * self.s2 / (self.d - 1))

    @property
    def pi(self):
        k1, k2 = self.kappa
        return ((1.0 - k1) / 2.0, (1.0 - k2) / 2.0)

    @property
    def pi0(self):
        return (self.s1 + self.s2) / (self.d - 1)


def lq_embedding_case(query: LqEmbeddingQuery, eq_tol=1e-12):
    """First sufficient condition under which L^q multiplies H^{s1} -> H^{-s2}.

    Pure arithmetic case analysis; returns ``{"case": "none", "embeds":
    "unknown"}`` when no sufficient condition applies (which does not assert
    a non-embedding).
    """
    k1, k2 = query.kappa
    q = query.q
    ssum = query.s1 + query.s2
    q_crit = (query.d - 1) / ssum if ssum > 0 else math.inf

    if k1 < 1 and k2 < 1 and q >= q_crit:
        return {"case": "i", "embeds": True}
    if k1 <= 1 and k2 <= 1 and (k1 - 1) * (k2 - 1) == 0 and q > q_crit:
        return {"case": "ii", "embeds": True}
    if min(k1, k2) < 1 < max(k1, k2):
        q_iii = 2.0 * (query.d - 1) / (query.d - 1 + 2.0 * min(query.s1, query.s2))
        if math.isfinite(q) and abs(q - q_iii) <= eq_tol:
            return {"case": "iii", "embeds": True}
    if k1 + k2 > 2 and (k1 - 1) * (k2 - 1) == 0 and q > 1:
        return {"case": "iv", "embeds": True}
    if k1 > 1 and k2 > 1 and math.isfinite(q) and abs(q - 1.0) <= eq_tol:
        return {"case": "v", "embeds": True}
    return {"case": "none", "embeds": "unknown"}


# ---------------------------------------------------------------------------
# Cantor-measure impedance coefficients
# ---------------------------------------------------------------------------

# samples per block of the power sums: the (B, chunk) and (m, chunk) power
# tables stay near 1.6 MB at the benchmark's kmax = 567
POWER_CHUNK = 2048
# samples per block of the stratified sampler's random remainder
_SAMPLER_CHUNK = 1 << 14


def _cantor_points(r, n_samples, rng, stratified):
    """Sample points of the symmetric Cantor measure with dissection ratio r.

    Every point is summed bit by bit in ascending order, so the stratified
    prefixes (built by doubling: the points with bit i set are the first
    2^i shifted by its weight) and the chunked random remainder give the
    same floats as a whole-array loop; besides x, only the random draw w is
    n-sized.
    """
    scale = 1.0 - r
    if stratified:
        J = max(1, min(22, int(math.floor(math.log2(max(2, n_samples))))))
        # random Cantor-distributed remainder of depth ~40 inside each leaf
        extra = max(8, min(48, int(math.ceil(-40.0 / math.log10(r)))))
        weight = [scale * r ** i for i in range(J + extra)]
        x = np.zeros(1 << J)
        for i in range(J):
            np.add(x[:1 << i], weight[i], out=x[1 << i:2 << i])
        w = rng.integers(0, 2 ** 62, size=x.size, dtype=np.uint64)
        for start in range(0, x.size, _SAMPLER_CHUNK):
            xc = x[start:start + _SAMPLER_CHUNK]
            wc = w[start:start + _SAMPLER_CHUNK]
            for i in range(extra):
                bit = ((wc >> np.uint64(i)) & np.uint64(1)).astype(float)
                xc += bit * weight[J + i]
        return x
    n = int(n_samples)
    depth = max(8, min(60, int(math.ceil(-18.0 / math.log10(r)))))
    x = np.zeros(n)
    for i in range(depth):
        bit = rng.integers(0, 2, size=n).astype(float)
        x += bit * (scale * r ** i)
    return x


def _power_means(x, kmax):
    """mean(z^k) over the sample for k = 0..kmax, z = exp(2 pi i x).

    With B = isqrt(kmax) + 1 and m = kmax // B + 1 every power is
    z^(qB + b) = (z^B)^q z^b, b < B, q < m.  Per chunk of POWER_CHUNK
    samples the rows A[b] = z^b and C[q] = (z^B)^q come from repeated
    multiplication, and table += C @ A^T sums all m*B > kmax powers in one
    matrix product, so table.ravel()[k] = sum z^k.  A power takes at most
    B + m multiplications, not k, and no n x B temporary is formed.
    """
    B = math.isqrt(kmax) + 1
    m = kmax // B + 1
    table = np.zeros((m, B), dtype=complex)
    for start in range(0, x.size, POWER_CHUNK):
        z = np.exp(2j * np.pi * x[start:start + POWER_CHUNK])
        A = np.empty((B, z.size), dtype=complex)
        C = np.empty((m, z.size), dtype=complex)
        A[0] = C[0] = 1.0
        for b in range(1, B):
            np.multiply(A[b - 1], z, out=A[b])
        zB = A[B - 1] * z
        for q in range(1, m):
            np.multiply(C[q - 1], zB, out=C[q])
        table += C @ A.T
    return table.ravel()[:kmax + 1] / x.size


def cantor_exponential_moments(r, freqs, n_samples=10**6, seed=0, stratified=True):
    """E[exp(2 pi i k X)] for X distributed per the symmetric Cantor measure
    with dissection ratio r on [0, 1].

    X = (1-r) * sum_i eps_i r^i with i.i.d. fair bits eps_i.  The stratified
    sampler enumerates all prefixes of depth J = floor(log2(n_samples)) and
    randomizes the remainder, so the leading J bits carry no sampling error
    at all; the plain sampler draws every bit independently (the brute-force
    oracle).

    A dense band of frequencies (max |k| at most 4 per requested frequency)
    reads every moment off one table of power sums: with B = isqrt(kmax) + 1,
    z^(qB + b) = (z^B)^q z^b, accumulated as a small matrix product over
    chunks of POWER_CHUNK samples (``_power_means``).  Sparse frequency sets
    take exp(2 pi i k x).mean() per frequency.  Negative frequencies return
    the conjugate of the moment at |k| in both branches.
    """
    if not 0.0 < r < 0.5:
        raise ValueError("dissection ratio must lie in (0, 1/2)")
    freqs = np.asarray(freqs, dtype=int)
    absk = np.abs(freqs)
    x = _cantor_points(r, n_samples, np.random.default_rng(seed), stratified)

    kmax = int(absk.max()) if freqs.size else 0
    if freqs.size and kmax <= 4 * freqs.size:
        out = _power_means(x, kmax)[absk]
    else:
        out = np.array([np.exp(2j * np.pi * k * x).mean() for k in absk],
                       dtype=complex)
    return np.where(freqs < 0, out.conj(), out)


def cantor_measure_coeffs(spec, r, target_component=0, N_trunc=None,
                          oracle_samples=10**6, seed=0, stratified=True):
    """Eigenbasis coefficients of a Cantor measure pushed onto one component.

    The unit-mass measure on [0, 1] is transported by the arclength
    parametrization x -> s = x * L of the closed component, so that
    c_n = integral(Y_n dmu); the constant mode picks up measure^(-1/2).
    """
    if spec.mode_comp is None:
        raise SpectrumError("cantor_measure_coeffs needs a curve spectrum")
    N_trunc = N_trunc or spec.count
    L = spec.geometry.component_lengths()[target_component]

    idx = np.arange(N_trunc)
    on = spec.mode_comp[:N_trunc] == target_component
    freqs = sorted({int(k) for k in spec.mode_freq[:N_trunc][on] if k > 0})
    moments = cantor_exponential_moments(r, np.array(freqs, dtype=int),
                                         n_samples=oracle_samples, seed=seed,
                                         stratified=stratified)
    table = dict(zip(freqs, moments))

    c = np.zeros(N_trunc, dtype=complex)
    for n in idx[on]:
        kind = spec.mode_kind[n]
        k = int(spec.mode_freq[n])
        if kind == KIND_CONST:
            c[n] = 1.0 / math.sqrt(L)
        elif kind == KIND_COS:
            c[n] = math.sqrt(2.0 / L) * table[k].real
        else:
            c[n] = math.sqrt(2.0 / L) * table[k].imag
    return SpectralFunction(spec, c)
