"""Closed boundaries and their Laplace-Beltrami spectra.

A boundary is either a collection of closed polygonal curves in the plane
(d = 2) or a closed triangulated surface in space (d = 3).  The surface
Laplacian on a closed curve is -d^2/ds^2 in arclength, so curve spectra are
computed analytically per component: eigenvalues (2*pi*k/L)^2 with one
constant mode and cos/sin pairs.  Surface spectra use the cotangent
stiffness matrix with a lumped (optionally consistent) mass matrix and an
ARPACK shift-invert solve.

Scalar functions and distributions on the boundary are stored as
coefficient vectors in the resulting orthonormal eigenbasis; the Sobolev
scale is realized through the diagonal weights

    w_n(t) = (mu_n^t + 1)^(1/2)          t > 0,
    w_n(t) = (mu_n^(-t) + 1)^(-1/2)      t < 0 and mu_n > 0,
    w_n(t) = 1                           t = 0 or mu_n = 0,

i.e. the graph norm of the fractional Laplacian with the plain L2 norm as
the pivot at t = 0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

KIND_CONST = 0
KIND_COS = 1
KIND_SIN = 2

# Orthonormality tolerances: curve modes are exact up to quadrature,
# FEM surface modes carry solver error.
TOL_ORTH_CURVE = 1e-10
TOL_ORTH_SURFACE = 1e-8
EIG_RESIDUAL_TOL = 1e-8


class GeometryError(ValueError):
    """Invalid or degenerate boundary geometry."""


class SpectrumError(ValueError):
    """Invalid spectral request (truncation, range, ...)."""


class TruncationExceeded(SpectrumError):
    """A query reached beyond the computed part of the spectrum."""


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryGeometry:
    """A closed boundary: polygonal curves (d=2) or a triangulated surface (d=3).

    For d=2, ``components`` is a list of (n_i, 2) vertex arrays, each an
    ordered closed polyline (first vertex not repeated).  For d=3,
    ``vertices`` is (n, 3) and ``triangles`` is (m, 3); the triangulation may
    contain several connected closed surfaces.
    """

    dim_ambient: int
    components: tuple = ()          # d=2 only
    vertices: np.ndarray | None = None    # d=3 only
    triangles: np.ndarray | None = None   # d=3 only
    _component_labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.dim_ambient == 2:
            if not self.components:
                raise GeometryError("a d=2 boundary needs at least one closed curve")
            comps = tuple(np.asarray(c, dtype=float) for c in self.components)
            for c in comps:
                if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 3:
                    raise GeometryError("each component must be an (n>=3, 2) polyline")
                if _polyline_length(c) <= 0.0:
                    raise GeometryError("degenerate component with zero length")
            object.__setattr__(self, "components", comps)
        elif self.dim_ambient == 3:
            v = np.asarray(self.vertices, dtype=float)
            t = np.asarray(self.triangles, dtype=int)
            if v.ndim != 2 or v.shape[1] != 3 or t.ndim != 2 or t.shape[1] != 3:
                raise GeometryError("d=3 boundary needs (n,3) vertices and (m,3) triangles")
            _check_closed_oriented(t)
            object.__setattr__(self, "vertices", v)
            object.__setattr__(self, "triangles", t)
            object.__setattr__(self, "_component_labels", _vertex_components(v.shape[0], t))
        else:
            raise GeometryError("dim_ambient must be 2 or 3")

    @property
    def n_components(self):
        if self.dim_ambient == 2:
            return len(self.components)
        return int(self._component_labels.max()) + 1

    @property
    def component_measures(self):
        """Length (d=2) or area (d=3) of every connected component."""
        if self.dim_ambient == 2:
            return np.array([_polyline_length(c) for c in self.components])
        areas = _triangle_areas(self.vertices, self.triangles)
        tri_label = self._component_labels[self.triangles[:, 0]]
        out = np.zeros(self.n_components)
        np.add.at(out, tri_label, areas)
        return out

    @property
    def total_measure(self):
        return float(self.component_measures.sum())

    def component_lengths(self):
        if self.dim_ambient != 2:
            raise GeometryError("component_lengths is a curve-only notion")
        return self.component_measures

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        if self.dim_ambient == 2:
            return {"dim": 2, "components": [c.tolist() for c in self.components]}
        return {"dim": 3, "vertices": self.vertices.tolist(),
                "triangles": self.triangles.tolist()}

    @classmethod
    def from_dict(cls, d):
        if d["dim"] == 2:
            return cls(dim_ambient=2, components=tuple(np.asarray(c) for c in d["components"]))
        return cls(dim_ambient=3, vertices=np.asarray(d["vertices"]),
                   triangles=np.asarray(d["triangles"]))

    def save_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load_json(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def content_hash(self):
        """Stable hash of the geometry (vertices and connectivity)."""
        h = hashlib.sha256()
        h.update(str(self.dim_ambient).encode())
        if self.dim_ambient == 2:
            for c in self.components:
                h.update(np.ascontiguousarray(c).tobytes())
        else:
            h.update(np.ascontiguousarray(self.vertices).tobytes())
            h.update(np.ascontiguousarray(self.triangles).tobytes())
        return h.hexdigest()


def _segment_lengths(c):
    d = np.diff(np.vstack([c, c[:1]]), axis=0)
    return np.hypot(d[:, 0], d[:, 1])


def _polyline_length(c):
    return float(_segment_lengths(c).sum())


def _triangle_areas(v, t):
    a = v[t[:, 1]] - v[t[:, 0]]
    b = v[t[:, 2]] - v[t[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def _check_closed_oriented(t):
    """Every edge shared by exactly two triangles, with opposite directions."""
    edges = {}
    for tri in t:
        for i in range(3):
            e = (int(tri[i]), int(tri[(i + 1) % 3]))
            if e in edges:
                raise GeometryError("surface is not consistently oriented "
                                    f"(directed edge {e} repeated)")
            edges[e] = edges.get(e, 0) + 1
    for (a, b) in edges:
        if (b, a) not in edges:
            raise GeometryError(f"surface is not closed (edge {(a, b)} unmatched)")


def _vertex_components(n_vertices, t):
    rows = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    cols = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    g = sp.coo_matrix((np.ones_like(rows), (rows, cols)), shape=(n_vertices, n_vertices))
    n, labels = connected_components(g, directed=False)
    # relabel in order of first appearance so component indices are stable
    order = {}
    for lab in labels:
        if lab not in order:
            order[lab] = len(order)
    return np.array([order[lab] for lab in labels])


# ---------------------------------------------------------------------------
# spectrum container
# ---------------------------------------------------------------------------

@dataclass
class BoundarySpectrum:
    """The first N Laplace-Beltrami eigenpairs of a closed boundary.

    ``modes`` holds the eigenfunctions sampled on a quadrature grid
    (arclength midpoints for curves, mesh vertices for surfaces) and
    ``quad_weights`` the matching weights, so that
    ``modes @ (quad_weights * f_grid)`` is the vector of L2 coefficients of
    a grid function f.  For curves, ``mode_comp/mode_kind/mode_freq`` carry
    the analytic descriptor of each mode, which downstream code uses for
    exact trigonometric products.
    """

    geometry: BoundaryGeometry
    count: int
    mu: np.ndarray                 # (N,) nondecreasing, mu[:b0] == 0
    modes: np.ndarray              # (N, n_grid)
    b0: int
    quad_points: np.ndarray        # grid coordinates (n_grid, dim)
    quad_weights: np.ndarray       # (n_grid,)
    quad_comp: np.ndarray          # component index per grid point
    quad_arclength: np.ndarray | None = None   # d=2: arclength per grid point
    mode_comp: np.ndarray | None = None
    mode_kind: np.ndarray | None = None
    mode_freq: np.ndarray | None = None
    residuals: np.ndarray | None = None

    @property
    def dim(self):
        return self.geometry.dim_ambient

    @property
    def has_grid(self):
        return self.modes.shape[1] > 0

    def gram_defect(self):
        """Max deviation of the quadrature Gram matrix from the identity."""
        if not self.has_grid:
            raise SpectrumError("spectrum was built without grid storage")
        g = (self.modes * self.quad_weights) @ self.modes.T
        return float(np.abs(g - np.eye(self.count)).max())

    # -- coefficient transforms --------------------------------------------

    def coeffs_from_values(self, values):
        """L2 projection of a grid function onto the retained modes."""
        if not self.has_grid:
            raise SpectrumError("spectrum was built without grid storage")
        values = np.asarray(values)
        return self.modes @ (self.quad_weights * values)

    def values_from_coeffs(self, coeffs):
        return np.asarray(coeffs) @ self.modes

    def evaluate_curve_modes(self, comp, s):
        """Evaluate all modes analytically at arclengths ``s`` on component ``comp``.

        Returns an (N, len(s)) array; modes living on other components are zero.
        Curve spectra only.
        """
        if self.mode_comp is None:
            raise SpectrumError("analytic evaluation is available for curve spectra only")
        return curve_modes(self.mode_comp, self.mode_kind, self.mode_freq, comp,
                           self.geometry.component_lengths()[comp],
                           np.asarray(s, dtype=float))

    # -- persistence ---------------------------------------------------------

    def dump_npz(self, path):
        np.savez_compressed(
            path, mu=self.mu, modes=self.modes, b0=self.b0,
            quad_points=self.quad_points, quad_weights=self.quad_weights,
            quad_comp=self.quad_comp,
            quad_arclength=(self.quad_arclength if self.quad_arclength is not None else np.array([])),
            mode_comp=(self.mode_comp if self.mode_comp is not None else np.array([])),
            mode_kind=(self.mode_kind if self.mode_kind is not None else np.array([])),
            mode_freq=(self.mode_freq if self.mode_freq is not None else np.array([])),
            residuals=(self.residuals if self.residuals is not None else np.array([])),
            geometry_json=np.frombuffer(json.dumps(self.geometry.to_dict()).encode(), dtype=np.uint8),
        )

    @classmethod
    def load_npz(cls, path):
        z = np.load(path)
        geom = BoundaryGeometry.from_dict(
            json.loads(bytes(z["geometry_json"].tobytes()).decode()))

        def opt(name, dtype=None):
            a = z[name]
            if a.size == 0:
                return None
            return a.astype(dtype) if dtype else a

        return cls(
            geometry=geom, count=int(z["mu"].shape[0]), mu=z["mu"], modes=z["modes"],
            b0=int(z["b0"]), quad_points=z["quad_points"], quad_weights=z["quad_weights"],
            quad_comp=z["quad_comp"], quad_arclength=opt("quad_arclength"),
            mode_comp=opt("mode_comp", int), mode_kind=opt("mode_kind", int),
            mode_freq=opt("mode_freq", int), residuals=opt("residuals"))


# ---------------------------------------------------------------------------
# curve spectra (exact arclength Fourier)
# ---------------------------------------------------------------------------

def build_curve_spectrum(geom, N, store_modes=True):
    """Exact spectrum of -d^2/ds^2 on a union of closed curves.

    Per component of length L the eigenvalues are 0 and (2*pi*k/L)^2 with a
    cos/sin pair each; the N smallest are merged across components and
    sorted, ties broken by (component index, cos before sin, k ascending).
    Zero modes are the per-component constants measure^(-1/2) >= 0.

    ``store_modes=False`` skips the quadrature grid (memory O(N^2) at large
    truncations); coefficient-space operations (H^t norms, multipliers,
    field sampling) still work, grid synthesis does not.
    """
    if geom.dim_ambient != 2:
        raise SpectrumError("build_curve_spectrum needs a d=2 geometry")
    lengths = geom.component_lengths()
    b0 = len(lengths)
    if N < b0:
        raise SpectrumError(f"N={N} is below the kernel dimension b0={b0}")

    entries = [(0.0, j, KIND_CONST, 0) for j in range(b0)]
    # k large enough that every component alone could fill the truncation
    for j, L in enumerate(lengths):
        kmax = N // 2 + 1
        for k in range(1, kmax + 1):
            mu = (2 * np.pi * k / L) ** 2
            entries.append((mu, j, KIND_COS, k))
            entries.append((mu, j, KIND_SIN, k))
    entries.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
    entries = entries[:N]

    mu = np.array([e[0] for e in entries])
    mode_comp = np.array([e[1] for e in entries], dtype=int)
    mode_kind = np.array([e[2] for e in entries], dtype=int)
    mode_freq = np.array([e[3] for e in entries], dtype=int)

    if not store_modes:
        empty = np.zeros((0,))
        return BoundarySpectrum(
            geometry=geom, count=N, mu=mu, modes=np.zeros((N, 0)), b0=b0,
            quad_points=np.zeros((0, 2)), quad_weights=empty,
            quad_comp=np.zeros(0, dtype=int), quad_arclength=empty,
            mode_comp=mode_comp, mode_kind=mode_kind, mode_freq=mode_freq)

    # midpoint arclength grid per component, dense enough that triple
    # products of retained modes are integrated exactly
    kmax_per_comp = np.zeros(b0, dtype=int)
    for j in range(b0):
        on = mode_freq[mode_comp == j]
        kmax_per_comp[j] = on.max() if on.size else 0
    pts, wts, comp_id, arcl = [], [], [], []
    for j, L in enumerate(lengths):
        M = int(4 * max(kmax_per_comp[j], 1) + 16)
        s = (np.arange(M) + 0.5) * (L / M)
        xy = _arclength_to_xy(geom.components[j], s)
        pts.append(xy)
        wts.append(np.full(M, L / M))
        comp_id.append(np.full(M, j, dtype=int))
        arcl.append(s)
    quad_points = np.vstack(pts)
    quad_weights = np.concatenate(wts)
    quad_comp = np.concatenate(comp_id)
    quad_arclength = np.concatenate(arcl)

    modes = np.zeros((N, quad_weights.size))
    for j, L in enumerate(lengths):
        on = quad_comp == j
        modes[:, on] = curve_modes(mode_comp, mode_kind, mode_freq, j, L,
                                   quad_arclength[on])
    _fix_signs(modes)

    return BoundarySpectrum(
        geometry=geom, count=N, mu=mu, modes=modes, b0=b0,
        quad_points=quad_points, quad_weights=quad_weights, quad_comp=quad_comp,
        quad_arclength=quad_arclength, mode_comp=mode_comp, mode_kind=mode_kind,
        mode_freq=mode_freq)


def curve_modes(mode_comp, mode_kind, mode_freq, comp, L, s):
    """Values of the curve modes (mode_comp, mode_kind, mode_freq) at
    arclengths ``s`` on component ``comp`` of length L.

    Returns a (len(mode_kind), len(s)) array, zero on the rows of modes that
    live on other components; cos and sin are evaluated only on their own
    rows.
    """
    out = np.zeros((mode_kind.size, s.size))
    on = mode_comp == comp
    out[on & (mode_kind == KIND_CONST)] = 1.0 / np.sqrt(L)
    for kind, trig in ((KIND_COS, np.cos), (KIND_SIN, np.sin)):
        rows = on & (mode_kind == kind)
        out[rows] = np.sqrt(2.0 / L) * trig(2 * np.pi * mode_freq[rows, None] * s / L)
    return out


def _arclength_to_xy(polyline, s):
    seg = _segment_lengths(polyline)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    closed = np.vstack([polyline, polyline[:1]])
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    frac = (s - cum[idx]) / seg[idx]
    return closed[idx] + frac[:, None] * (closed[idx + 1] - closed[idx])


def _fix_signs(modes):
    """Make the first nonzero grid coefficient of every mode positive."""
    for n in range(modes.shape[0]):
        row = modes[n]
        nz = np.flatnonzero(np.abs(row) > 1e-8 * np.abs(row).max())
        if nz.size and row[nz[0]] < 0:
            modes[n] = -row


# ---------------------------------------------------------------------------
# P1 finite elements
# ---------------------------------------------------------------------------

def assemble_p1(simplices, local, n):
    """Sum the per-simplex matrices local[e, i, j] into an (n, n) CSR matrix
    at (simplices[e, i], simplices[e, j])."""
    k = simplices.shape[1]
    rows = np.repeat(simplices.T, k, axis=0)        # (k*k, m): row i*k+j holds vertex i
    cols = np.tile(simplices.T, (k, 1))             # ... and column vertex j
    vals = local.transpose(1, 2, 0)
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def p1_mass(measure, k):
    """Local P1 mass matrices |e| (1 + delta_ij) / (k (k + 1)) of k-vertex
    simplices with measures |e| (edges k=2, triangles k=3)."""
    return measure[:, None, None] * (1.0 + np.eye(k)) / (k * (k + 1))


# ---------------------------------------------------------------------------
# surface spectra (cotangent FEM)
# ---------------------------------------------------------------------------

def cotangent_stiffness(v, t):
    """Sparse cotangent stiffness matrix of a triangulated surface."""
    local = np.zeros((t.shape[0], 3, 3))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        u1 = v[t[:, b]] - v[t[:, a]]
        u2 = v[t[:, c]] - v[t[:, a]]
        cos = np.einsum("ij,ij->i", u1, u2)
        sin = np.linalg.norm(np.cross(u1, u2), axis=1)
        # opposite edge (b, c) gets cot(angle at a) / 2
        w = 0.5 * cos / np.maximum(sin, 1e-300)
        local[:, [b, c], [c, b]] -= w[:, None]
        local[:, [b, c], [b, c]] += w[:, None]
    return assemble_p1(t, local, v.shape[0])


def mass_matrix(v, t, lumped=True):
    areas = _triangle_areas(v, t)
    n = v.shape[0]
    if lumped:
        diag = np.zeros(n)
        for i in range(3):
            np.add.at(diag, t[:, i], areas / 3.0)
        return sp.diags(diag).tocsr()
    return assemble_p1(t, p1_mass(areas, 3), n)


def arpack_start(size):
    """Fixed ARPACK start vector: without one, scipy draws it from OS entropy
    and eigenvalues (and artifact checksums) change from run to run."""
    return np.random.default_rng(0).standard_normal(size)


def build_surface_spectrum(geom, N, lumped_mass=True, sigma=-1e-2, tol=1e-10,
                           store_modes=True):
    """Smallest-N eigenpairs of the cotangent Laplacian on a closed surface.

    Generalized symmetric problem S x = mu M x solved by shift-invert
    Lanczos; eigenvectors come back M-orthonormal.  The kernel block is
    replaced by the exact per-component indicator constants so that zero
    modes are the nonnegative locally constant functions, and the remaining
    modes are re-orthogonalized against them.

    ``store_modes=False`` asks ARPACK for the eigenvalues only (no Ritz
    vectors) and returns a gridless spectrum, as ``build_curve_spectrum``
    does: mu-only work (Weyl fits, H^t weights, field sampling) runs, grid
    transforms and triple products raise ``SpectrumError``.
    """
    if geom.dim_ambient != 3:
        raise SpectrumError("build_surface_spectrum needs a d=3 geometry")
    v, t = geom.vertices, geom.triangles
    n = v.shape[0]
    if N > n // 10:
        raise SpectrumError(f"N={N} too large for a mesh with {n} vertices "
                            "(need N <= vertices/10)")
    S = cotangent_stiffness(v, t)
    M = mass_matrix(v, t, lumped=lumped_mass)

    # headroom past N so high-multiplicity clusters are not truncated mid-way
    k = min(N + max(8, N // 4), n - 2)
    try:
        eig = spla.eigsh(S, k=k, M=M, sigma=sigma, which="LM", tol=tol,
                         v0=arpack_start(n), return_eigenvectors=store_modes)
    except spla.ArpackNoConvergence as err:
        raise SpectrumError(f"eigen-solver did not converge: {err}") from err
    mu = eig[0] if store_modes else eig
    order = np.argsort(mu)[:N]
    mu = mu[order]

    b0 = geom.n_components
    gap = mu[b0] if N > b0 else np.inf
    if N > b0 and not (np.all(np.abs(mu[:b0]) < 1e-6 * max(gap, 1.0)) and gap > 0):
        raise SpectrumError("kernel dimension does not match the component count")
    mu[:b0] = 0.0
    mu[b0:] = np.maximum(mu[b0:], 0.0)
    if not store_modes:
        return BoundarySpectrum(
            geometry=geom, count=N, mu=mu, modes=np.zeros((N, 0)), b0=b0,
            quad_points=np.zeros((0, 3)), quad_weights=np.zeros(0),
            quad_comp=np.zeros(0, dtype=int))

    # exact kernel: indicator / sqrt(area) per component, M-orthonormal
    X = eig[1][:, order]
    labels = geom._component_labels
    measures = geom.component_measures
    for j in range(min(b0, N)):
        vec = np.where(labels == j, 1.0 / np.sqrt(measures[j]), 0.0)
        X[:, j] = vec
    if N > b0:
        K = X[:, :b0]
        coefs = K.T @ (M @ X[:, b0:])
        X[:, b0:] -= K @ coefs
        nrm = np.sqrt(np.einsum("ij,ij->j", X[:, b0:], M @ X[:, b0:]))
        X[:, b0:] /= nrm

    res = np.linalg.norm(S @ X - (M @ X) * mu, axis=0)
    modes = X.T.copy()
    _fix_signs(modes)

    weights = M.diagonal() if lumped_mass else mass_matrix(v, t, lumped=True).diagonal()
    return BoundarySpectrum(
        geometry=geom, count=N, mu=mu, modes=modes, b0=b0,
        quad_points=v, quad_weights=weights, quad_comp=labels,
        residuals=res)


# ---------------------------------------------------------------------------
# spectral functions and the H^t scale
# ---------------------------------------------------------------------------

@dataclass
class SpectralFunction:
    """A function/distribution on the boundary as eigenbasis coefficients."""

    spectrum: BoundarySpectrum
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size > self.spectrum.count:
            raise SpectrumError("coefficient vector longer than the spectrum")
        self.coeffs = c

    @property
    def n_coeffs(self):
        return self.coeffs.size

    def conj(self):
        return SpectralFunction(self.spectrum, np.conj(self.coeffs))

    def real(self):
        return SpectralFunction(self.spectrum, self.coeffs.real.astype(complex))

    def imag(self):
        return SpectralFunction(self.spectrum, self.coeffs.imag.astype(complex))

    def __add__(self, other):
        n = max(self.n_coeffs, other.n_coeffs)
        c = np.zeros(n, dtype=complex)
        c[:self.n_coeffs] += self.coeffs
        c[:other.n_coeffs] += other.coeffs
        return SpectralFunction(self.spectrum, c)

    def __rmul__(self, scalar):
        return SpectralFunction(self.spectrum, scalar * self.coeffs)

    def values(self):
        """Synthesize the function on the quadrature grid."""
        return self.spectrum.values_from_coeffs(
            np.pad(self.coeffs, (0, self.spectrum.count - self.n_coeffs)))

    def to_dict(self):
        return {"coeffs_re": self.coeffs.real.tolist(),
                "coeffs_im": self.coeffs.imag.tolist()}

    @classmethod
    def from_dict(cls, spectrum, d):
        return cls(spectrum, np.asarray(d["coeffs_re"]) + 1j * np.asarray(d["coeffs_im"]))


def constant_function(spec):
    """The function identically 1, i.e. sqrt(measure_j) on every kernel mode."""
    c = np.zeros(spec.count, dtype=complex)
    c[:spec.b0] = np.sqrt(spec.geometry.component_measures)
    return SpectralFunction(spec, c)


def unit_mode(spec, n, n_coeffs=None):
    """The basis function Y_n (1-based index) as a SpectralFunction."""
    size = n_coeffs or spec.count
    c = np.zeros(size, dtype=complex)
    c[n - 1] = 1.0
    return SpectralFunction(spec, c)


def dirac_coeffs(spec, comp, s0, n_coeffs=None):
    """Truncated point mass at arclength s0 on a curve component:
    c_n = Y_n(x0)."""
    size = n_coeffs or spec.count
    vals = spec.evaluate_curve_modes(comp, np.array([s0]))[:, 0]
    return SpectralFunction(spec, vals[:size].astype(complex))


def ht_weights(spec, t):
    """Diagonal H^t weights w_n(t) for the stored spectrum."""
    mu = spec.mu
    w = np.ones(spec.count)
    if t > 0:
        w = np.sqrt(mu ** t + 1.0)
    elif t < 0:
        pos = mu > 0
        w[pos] = (mu[pos] ** (-t) + 1.0) ** (-0.5)
    return w


def ht_norm(f, t):
    """Graph norm of f in H^t: (sum w_n(t)^2 |c_n|^2)^(1/2)."""
    w = ht_weights(f.spectrum, t)[:f.n_coeffs]
    return float(np.linalg.norm(w * f.coeffs))


def fractional_power_weights(spec, s, c):
    """Diagonal action (mu_n + c)^(s/2) of the shifted fractional Laplacian."""
    if c <= 0:
        raise SpectrumError("the shift c must be positive")
    return (spec.mu + c) ** (s / 2.0)


# ---------------------------------------------------------------------------
# asymptotic diagnostics
# ---------------------------------------------------------------------------

def weyl_diagnostic(spec, fit_range):
    """Log-log growth diagnostics of the eigenvalue sequence.

    ``fit_range = (lo, hi)`` is a 1-based inclusive index interval inside
    (b0, N].  Returns the least-squares slope of log(mu_n) against log(n),
    plus the min/max of mu_n / n^(2/(d-1)) over the range.
    """
    lo, hi = fit_range
    if lo <= spec.b0 or hi > spec.count:
        raise SpectrumError("fit range must lie inside (b0, N]")
    if hi - lo + 1 < 20:
        raise SpectrumError("fit range too short (need >= 20 indices)")
    n = np.arange(lo, hi + 1, dtype=float)
    mu = spec.mu[lo - 1:hi]
    if np.any(mu <= 0):
        raise SpectrumError("fit range contains zero eigenvalues")
    slope = float(np.polyfit(np.log(n), np.log(mu), 1)[0])
    ratio = mu / n ** (2.0 / (spec.dim - 1))
    return {"slope": slope, "c_lower": float(ratio.min()), "c_upper": float(ratio.max())}


def counting_function(spec, lam):
    """N(lam) = #{n : mu_n <= lam} on the computed part of the spectrum."""
    if lam < 0:
        raise SpectrumError("the counting function is defined for lam >= 0")
    if lam >= spec.mu[-1]:
        raise TruncationExceeded(
            f"lam={lam} reaches beyond the computed spectrum (mu_N={spec.mu[-1]})")
    return int(np.searchsorted(spec.mu, lam, side="right"))
