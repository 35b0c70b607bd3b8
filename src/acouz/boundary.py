"""Closed boundaries and their Laplace-Beltrami spectra.

A boundary is either a collection of closed polygonal curves in the plane
(d = 2) or a closed triangulated surface in space (d = 3).  The surface
Laplacian on a closed curve is -d^2/ds^2 in arclength, so curve spectra are
computed analytically per component: eigenvalues (2*pi*k/L)^2 with one
constant mode and cos/sin pairs, each mode described by its (component,
kind, frequency) and evaluated by :func:`curve_modes` wherever values are
needed; a curve spectrum stores no grid.  Surface spectra use the P1
stiffness matrix, which on a triangulated surface is the cotangent
Laplacian, and the lumped (diagonal) P1 mass D, scaled into one symmetric
matrix D^-1/2 S D^-1/2 that is solved by spectrum slicing: the Weyl law
mu_n ~ 4 pi n / area places the top cut, equal-width windows below it
each take one ARPACK shift-invert solve in a Lanczos basis sized to the
window (its count plus 32 vectors, since each restart costs O(n ncv^2)),
a Sylvester inertia count taken once per cut in this process fixes how
many eigenvalues every window must return, and the windows run in forked
processes (:func:`forked_map`).
The eigenvectors at the mesh vertices are stored when asked for.  The P1
stiffness, mass and midpoint subdivision serve the 2-D domain as well.

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

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

KIND_CONST = 0
KIND_COS = 1
KIND_SIN = 2

EIG_RESIDUAL_TOL = 1e-8     # on |S x - mu D x| / |x|, free of the surface's scale
# ARPACK tolerance of the surface eigensolve, the eigenvalues per window of
# a sliced surface spectrum (never the worker count: results must not depend
# on it), and the relative distance from a window cut inside which a Ritz
# value is ambiguous
SURFACE_TOL = 1e-10
SURFACE_WINDOW = 64
CUT_RTOL = 1e-8


class GeometryError(ValueError):
    """Invalid or degenerate boundary geometry."""


class SpectrumError(ValueError):
    """Invalid spectral request (truncation, range, ...)."""


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
    _component_labels: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dim_ambient == 2:
            if not self.components:
                raise GeometryError("a d=2 boundary needs at least one closed curve")
            comps = tuple(np.asarray(c, dtype=float) for c in self.components)
            for i, c in enumerate(comps):
                if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 3:
                    raise GeometryError("each component must be an (n>=3, 2) polyline")
                bad = ~np.isfinite(c).all(axis=1)
                if bad.any():
                    raise GeometryError(f"component {i} vertex {np.argmax(bad)} is not finite")
                if _polyline_length(c) <= 0.0:
                    raise GeometryError("degenerate component with zero length")
            object.__setattr__(self, "components", comps)
        elif self.dim_ambient == 3:
            v = np.asarray(self.vertices, dtype=float)
            t = np.asarray(self.triangles, dtype=int)
            if v.ndim != 2 or v.shape[1] != 3 or t.ndim != 2 or t.shape[1] != 3:
                raise GeometryError("d=3 boundary needs (n,3) vertices and (m,3) triangles")
            check_triangulation(v, t, GeometryError)
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
        areas = triangle_areas(self.vertices, self.triangles)
        tri_label = self._component_labels[self.triangles[:, 0]]
        out = np.zeros(self.n_components)
        np.add.at(out, tri_label, areas)
        return out

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


def _polyline_length(c):
    d = np.diff(np.vstack([c, c[:1]]), axis=0)
    return float(np.hypot(d[:, 0], d[:, 1]).sum())


def check_triangulation(v, t, error):
    """Raise ``error`` naming the first triangle with a corner outside
    0..n-1, vertex that is not finite or in no triangle, or triangle of
    |area| <= 1e-14 (longest edge)^2, at any scale: each vertex needs a
    positive P1 mass.  Returns the areas (signed in 2-D)."""
    outside = ((t < 0) | (t >= len(v))).any(axis=1)
    if outside.any():
        raise error(f"triangle {np.argmax(outside)} has a corner outside 0..{len(v) - 1}")
    areas = triangle_areas(v, t)
    edges = np.linalg.norm(v[t[:, [1, 2, 0]]] - v[t], axis=2)
    for bad, what in ((~np.isfinite(v).all(axis=1), "vertex {} is not finite"),
                      (np.bincount(t.ravel(), minlength=v.shape[0]) == 0,
                       "vertex {} is a corner of no triangle"),
                      (np.abs(areas) <= 1e-14 * edges.max(axis=1) ** 2,
                       "triangle {} is degenerate")):
        if bad.any():
            raise error(what.format(np.argmax(bad)))
    return areas


def _check_closed_oriented(t):
    """Every edge shared by exactly two triangles, with opposite directions:
    no directed edge repeats, and the reversed edges are the same set."""
    ends = t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)        # ab, bc, ca per triangle
    n = int(t.max(initial=0)) + 1
    keys = ends[:, 0] * n + ends[:, 1]
    unique, first = np.unique(keys, return_index=True)
    if unique.size < keys.size:
        repeated = np.ones(keys.size, dtype=bool)
        repeated[first] = False
        e = tuple(ends[np.argmax(repeated)].tolist())
        raise GeometryError("surface is not consistently oriented "
                            f"(directed edge {e} repeated)")
    reverse = ends[:, 1] * n + ends[:, 0]
    if not np.array_equal(unique, np.sort(reverse)):
        e = tuple(ends[np.argmax(~np.isin(reverse, unique))].tolist())
        raise GeometryError(f"surface is not closed (edge {e} unmatched)")


def _vertex_components(n_vertices, t):
    rows = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    cols = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    g = sp.coo_matrix((np.ones_like(rows), (rows, cols)), shape=(n_vertices, n_vertices))
    _, labels = connected_components(g, directed=False)
    # relabel in order of first appearance so component indices are stable
    _, first = np.unique(labels, return_index=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[labels]


# ---------------------------------------------------------------------------
# spectrum container
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BoundarySpectrum:
    """The first N Laplace-Beltrami eigenpairs of a closed boundary.

    Curve spectra are gridless: ``mode_comp/mode_kind/mode_freq`` carry the
    analytic descriptor of each mode, which downstream code uses for exact
    trigonometric products and evaluates by :func:`curve_modes`.  Surface
    spectra built with ``store_modes=True`` hold the lumped-mass-orthonormal
    eigenvectors at the mesh vertices in ``modes`` (N, n_vertices), which
    surface triple products integrate, and their ``residuals``; otherwise
    ``modes`` is None.  The size N is ``count`` and the kernel dimension is
    ``b0``, one zero mode per boundary component.
    """

    geometry: BoundaryGeometry
    mu: np.ndarray                 # (N,) nondecreasing, mu[:b0] == 0
    modes: np.ndarray | None = None         # d=3: (N, n_vertices)
    mode_comp: np.ndarray | None = None     # d=2 mode descriptors
    mode_kind: np.ndarray | None = None
    mode_freq: np.ndarray | None = None
    residuals: np.ndarray | None = None

    @property
    def count(self):
        return self.mu.size

    @property
    def b0(self):
        return self.geometry.n_components

    @property
    def dim(self):
        return self.geometry.dim_ambient

    # -- persistence ---------------------------------------------------------

    def dump_npz(self, path):
        def arr(a):
            return a if a is not None else np.array([])

        np.savez_compressed(
            path, mu=self.mu, modes=arr(self.modes),
            mode_comp=arr(self.mode_comp), mode_kind=arr(self.mode_kind),
            mode_freq=arr(self.mode_freq), residuals=arr(self.residuals),
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
            geometry=geom, mu=z["mu"], modes=opt("modes"), mode_comp=opt("mode_comp", int),
            mode_kind=opt("mode_kind", int), mode_freq=opt("mode_freq", int),
            residuals=opt("residuals"))


# ---------------------------------------------------------------------------
# curve spectra (exact arclength Fourier)
# ---------------------------------------------------------------------------

def build_curve_spectrum(geom, N):
    """Exact spectrum of -d^2/ds^2 on a union of closed curves.

    Per component of length L the eigenvalues are 0 and (2*pi*k/L)^2 with a
    cos/sin pair each; the N smallest are merged across components and
    sorted, ties broken by (component index, cos before sin, k ascending).
    Zero modes are the per-component constants measure^(-1/2) >= 0.  The
    spectrum is gridless: the modes are kept as (component, kind, frequency)
    descriptors for :func:`curve_modes`.
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

    return BoundarySpectrum(geometry=geom, mu=mu, mode_comp=mode_comp,
                            mode_kind=mode_kind, mode_freq=mode_freq)


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


def _fix_signs(modes):
    """Make the first nonzero vertex value of every mode positive."""
    for n in range(modes.shape[0]):
        row = modes[n]
        nz = np.flatnonzero(np.abs(row) > 1e-8 * np.abs(row).max())
        if nz.size and row[nz[0]] < 0:
            modes[n] = -row


# ---------------------------------------------------------------------------
# P1 finite elements, shared by surfaces and 2-D domains
# ---------------------------------------------------------------------------

def triangle_areas(v, t):
    """Areas of the triangles t of vertices v: signed in 2-D (positive for
    counterclockwise corners), positive in 3-D."""
    a = v[t[:, 1]] - v[t[:, 0]]
    b = v[t[:, 2]] - v[t[:, 0]]
    if v.shape[1] == 2:
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def assemble_p1(simplices, local, n):
    """Sum the per-simplex matrices local[e, i, j] into an (n, n) CSR matrix
    at (simplices[e, i], simplices[e, j])."""
    k = simplices.shape[1]
    rows = np.repeat(simplices.T, k, axis=0)        # (k*k, m): row i*k+j holds vertex i
    cols = np.tile(simplices.T, (k, 1))             # ... and column vertex j
    vals = local.transpose(1, 2, 0)
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def p1_stiffness(v, t, alpha=None):
    """P1 Galerkin stiffness of a triangle mesh in 2-D or on a surface in 3-D.

    With e_a the edge opposite vertex a, grad phi_a is e_a turned a quarter
    in the triangle's plane over 2|T|, so K_ab = e_a^t G e_b / (4 |T|): the
    cotangent Laplacian on a surface.  G is I, I / alpha for a scalar alpha
    per triangle, or alpha / det(alpha) = R^t alpha^-1 R for a (m, 2, 2)
    tensor in 2-D.  No triangle is degenerate (:func:`check_triangulation`).
    """
    e = v[t[:, [1, 2, 0]]] - v[t[:, [2, 0, 1]]]          # (m, 3, d)
    scale = 4.0 * np.abs(triangle_areas(v, t))
    if alpha is not None and alpha.ndim == 3:
        det = alpha[:, 0, 0] * alpha[:, 1, 1] - alpha[:, 0, 1] * alpha[:, 1, 0]
        local = np.einsum("mai,mij,mbj->mab", e, alpha / det[:, None, None], e)
    else:
        local = np.einsum("mai,mbi->mab", e, e)
        if alpha is not None:
            scale = scale * alpha
    local /= scale[:, None, None]
    return assemble_p1(t, local, v.shape[0])


def p1_mass(simplices, measure, n, lumped=False):
    """P1 mass matrix of k-vertex simplices (edges k=2, triangles k=3) with
    measures |e| (times a density): locally |e| (1 + delta_ij) / (k (k + 1)),
    or its row sums |e| / k on the diagonal when ``lumped``."""
    k = simplices.shape[1]
    if lumped:
        diag = np.bincount(simplices.ravel(), np.repeat(measure / k, k), n)
        return sp.diags(diag).tocsr()
    local = measure[:, None, None] * (1.0 + np.eye(k)) / (k * (k + 1))
    return assemble_p1(simplices, local, n)


def midpoint_subdivide(v, t):
    """Split every triangle (a, b, c) into [a, ab, ca], [b, bc, ab],
    [c, ca, bc], [ab, bc, ca] at its edge midpoints.

    The midpoints follow the vertices v, numbered in the order their edges
    first appear in t (triangle by triangle, edges ab, bc, ca).  Returns the
    new vertices and triangles, and the (n_edges, 2) sorted endpoints of the
    edge that each midpoint splits.
    """
    n = v.shape[0]
    ends = t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)        # ab, bc, ca per triangle
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    keys, first, inverse = np.unique(lo * n + hi, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ab, bc, ca = (n + rank[inverse].reshape(-1, 3)).T
    edges = np.column_stack([keys // n, keys % n])[order]
    a, b, c = t.T
    new_t = np.stack([np.column_stack(tri) for tri in
                      ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca))],
                     axis=1).reshape(-1, 3)
    new_v = np.vstack([v, 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])])
    return new_v, new_t, edges


# ---------------------------------------------------------------------------
# surface spectra (P1 FEM)
# ---------------------------------------------------------------------------

def arpack_start(size):
    """Fixed ARPACK start vector: without one, scipy draws it from OS entropy
    and eigenvalues (and artifact checksums) change from run to run."""
    return np.random.default_rng(0).standard_normal(size)


_forked = None    # (fn, items) of a forked worker


def _install_forked(fn, items):
    """Worker initializer: the forked child keeps fn and the items."""
    global _forked
    _forked = fn, items


def _run_forked(i):
    fn, items = _forked
    return fn(items[i])


def forked_map(fn, items, workers):
    """``[fn(x) for x in items]`` in at most min(workers, len(items))
    processes forked from this one.

    The children inherit fn, the items and all they reach (closures,
    assembled matrices, SuperLU factors), so none of these is pickled: only
    item indices go out, and fn's results come back.  That is why the
    children are forked, not spawned: a closure or a SuperLU factor cannot
    be pickled.  Results are in item
    order, so the worker count does not change them.  An exception raised
    by fn is raised here; a child that dies breaks the pool, which raises
    ``BrokenProcessPool``.  The children are joined either way.  With one
    worker, or where ``fork`` is not available, the map runs serially in
    this process.
    """
    items = list(items)
    processes = min(workers, len(items))
    if processes <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(fn, items))
    with ProcessPoolExecutor(processes, multiprocessing.get_context("fork"),
                             initializer=_install_forked,
                             initargs=(fn, items)) as ex:
        return list(ex.map(_run_forked, range(len(items))))


def surface_truncation_cap(geom):
    """The largest truncation N the boundary ``geom`` supports: a tenth of
    the vertices of a surface mesh, unbounded on a curve."""
    return geom.vertices.shape[0] // 10 if geom.dim_ambient == 3 else np.inf


def check_surface_truncation(N, geom):
    """Raise SpectrumError when N exceeds :func:`surface_truncation_cap`."""
    if N > surface_truncation_cap(geom):
        raise SpectrumError(f"N={N} too large for a mesh with "
                            f"{geom.vertices.shape[0]} vertices (need N <= vertices/10)")


def check_truncation(N_trunc, count):
    """Raise SpectrumError unless 1 <= N_trunc <= count."""
    if N_trunc < 1:
        raise SpectrumError(f"truncation {N_trunc} must be at least 1")
    if N_trunc > count:
        raise SpectrumError(f"truncation {N_trunc} exceeds the spectrum ({count})")


def check_coefficients(coeffs, count):
    """Raise SpectrumError unless ``coeffs`` is a vector of at most count."""
    if np.ndim(coeffs) != 1 or np.size(coeffs) > count:
        raise SpectrumError(f"coefficient vector of shape {np.shape(coeffs)} does "
                            f"not fit the spectrum ({count})")


def _count_below(C, cut):
    """Eigenvalues of the symmetric C below ``cut`` by Sylvester's law of
    inertia (C - cut I is congruent to S - cut D for C = D^-1/2 S D^-1/2):
    with diagonal pivots in a symmetric order, C - cut I = P L D L^t P^t
    and the count is that of the negative D."""
    lu = spla.splu((C - cut * sp.identity(C.shape[0])).tocsc(), permc_spec="COLAMD",
                   diag_pivot_thresh=0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SpectrumError("inertia count needs a symmetric pivot order")
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _window_cuts(C, N, area):
    """Cuts -inf = c_0 < ... < c_W of the windows [c_(j-1), c_j) of a sliced
    solve of C, each with its inertia count, taken once in this process: the
    top cut starts at the Weyl guess 4 pi N / area and grows by 10% until
    more than N eigenvalues lie below it; the others divide [0, top] evenly,
    about SURFACE_WINDOW eigenvalues a window by Weyl."""
    top = 4 * np.pi * N / area
    while (count := _count_below(C, top)) <= N:
        top *= 1.1
    W = -(-count // SURFACE_WINDOW)
    inner = top * np.arange(1, W) / W
    counts = [_count_below(C, c) for c in inner]
    return np.hstack([-np.inf, inner, top]), [0, *counts, count]


def _solve_window(C, lo, hi, m, store_modes):
    """The m eigenpairs of C with mu in [lo, hi), sorted, m the difference of
    the inertia counts at the cuts.  One shift-invert solve at the window's
    midpoint, (max(lo, 0) + hi) / 2 (the lowest window has lo = -inf and C
    no negative eigenvalue), asks for k = m + 8 pairs in a Lanczos basis of
    k + 24 vectors, and once more with 2k pairs (basis 2k + 24) if the
    window does not hold exactly m Ritz values.  The basis is sized to the
    window, not ARPACK's default 2k + 1: each implicit restart costs
    O(n ncv^2), so past a few dozen spare vectors the restarts cost more
    than the LU solves they save.  A Ritz value within CUT_RTOL of a cut
    cannot be placed against the count and raises.  ARPACK factors
    C - sigma I itself: the :func:`_count_below` factor is coarser."""
    n = C.shape[0]
    sigma = 0.5 * (max(lo, 0.0) + hi)
    for k in (min(m + 8, n - 2), min(2 * (m + 8), n - 2)):
        try:
            eig = spla.eigsh(C, k=k, sigma=sigma, which="LM", ncv=min(k + 24, n - 1),
                             tol=SURFACE_TOL, v0=arpack_start(n),
                             return_eigenvectors=store_modes)
        except spla.ArpackNoConvergence as err:
            raise SpectrumError(f"eigen-solver did not converge: {err}") from err
        mu = eig[0] if store_modes else eig
        for cut in (lo, hi):
            near = np.isclose(mu, cut, rtol=CUT_RTOL, atol=0)
            if near.any():
                raise SpectrumError(f"eigenvalue {mu[near][0]!r} lies on the "
                                    f"window cut {cut!r} (within {CUT_RTOL:g} "
                                    "relative): the inertia count cannot place it")
        inside = np.flatnonzero((mu >= lo) & (mu < hi))
        if inside.size == m:
            break
    else:
        raise SpectrumError(f"the eigen-solver found {inside.size} eigenvalues in "
                            f"[{lo:g}, {hi:g}) where the inertia count has {m}, "
                            f"also with k={k}")
    inside = inside[np.argsort(mu[inside])]
    return mu[inside], eig[1][:, inside] if store_modes else None


def build_surface_spectrum(geom, N, store_modes=True, workers=1):
    """Smallest-N eigenpairs of the P1 (cotangent) Laplacian on a closed surface.

    S x = mu D x, D the lumped (diagonal) mass, is solved as C y = mu y,
    C = D^-1/2 S D^-1/2 and x = D^-1/2 y, by spectrum slicing.  The Weyl law
    places the top cut, which rises until more than N eigenvalues lie below
    it; equal-width windows below it hold about SURFACE_WINDOW eigenvalues
    each, however many ``workers`` there are.  Each window takes one
    shift-invert Lanczos solve for its count plus 8 pairs in a basis of 24
    more (:func:`_solve_window`: a larger basis makes every restart dearer)
    and must return exactly as many eigenvalues as the Sylvester inertia
    counts (one per cut, taken here) give, else it is solved once more with
    twice the pairs, and then ``SpectrumError`` is raised, as for a mode
    residual above EIG_RESIDUAL_TOL.  Windows run in ``workers`` forked
    processes (:func:`forked_map`); the result does not depend on their
    number.  Eigenvectors come back D-orthonormal.  On
    the merged pairs, the kernel block is replaced by the exact
    per-component indicator constants, the nonnegative locally constant
    functions, and the other modes are re-orthogonalized against them.

    ``store_modes=False`` asks ARPACK for the eigenvalues only (no Ritz
    vectors) and returns a spectrum with ``modes`` None: mu-only work (Weyl
    fits, H^t weights, field sampling) runs, triple products raise
    ``SpectrumError``.
    """
    if geom.dim_ambient != 3:
        raise SpectrumError("build_surface_spectrum needs a d=3 geometry")
    v, t = geom.vertices, geom.triangles
    check_surface_truncation(N, geom)
    S = p1_stiffness(v, t)
    d = p1_mass(t, triangle_areas(v, t), v.shape[0], lumped=True).diagonal()
    scale = sp.diags(1.0 / np.sqrt(d))
    C = scale @ S @ scale

    cuts, counts = _window_cuts(C, N, geom.component_measures.sum())
    parts = forked_map(lambda w: _solve_window(C, *w, store_modes),
                       zip(cuts[:-1], cuts[1:], np.diff(counts).tolist()), workers)
    mu = np.concatenate([p[0] for p in parts])[:N]

    b0 = geom.n_components
    gap = mu[b0] if N > b0 else np.inf
    if N > b0 and not (np.all(np.abs(mu[:b0]) < 1e-6 * max(gap, 1.0)) and gap > 0):
        raise SpectrumError("kernel dimension does not match the component count")
    mu[:b0] = 0.0
    mu[b0:] = np.maximum(mu[b0:], 0.0)
    if not store_modes:
        return BoundarySpectrum(geometry=geom, mu=mu)

    # exact kernel: indicator / sqrt(area) per component; the rest D-orthogonal
    X = scale @ np.hstack([p[1] for p in parts])[:, :N]
    kernel = np.arange(min(b0, N))
    X[:, kernel] = ((geom._component_labels[:, None] == kernel)
                    / np.sqrt(geom.component_measures[kernel]))
    K, R = X[:, :b0], X[:, b0:]
    R -= K @ (K.T @ (d[:, None] * R))
    R /= np.sqrt(np.einsum("ij,ij->j", R, d[:, None] * R))

    res = (np.linalg.norm(S @ X - (d[:, None] * X) * mu, axis=0)
           / np.linalg.norm(X, axis=0))
    if res.max() > EIG_RESIDUAL_TOL:
        raise SpectrumError(f"mode {np.argmax(res)} has residual {res.max():.3g}, "
                            f"above EIG_RESIDUAL_TOL = {EIG_RESIDUAL_TOL:g}")
    modes = X.T.copy()
    _fix_signs(modes)

    return BoundarySpectrum(geometry=geom, mu=mu, modes=modes, residuals=res)


# ---------------------------------------------------------------------------
# spectral functions and the H^t scale
# ---------------------------------------------------------------------------

def exact_dtype(a):
    """``a`` as a float array unless some imaginary entry is nonzero, then as
    a complex one: the one rule deciding an operator's arithmetic, applied
    where it is made (``SpectralFunction``, ``multipliers.MultiplierMatrix``)
    and where it is truncated (``acoustic.AcousticPencil.with_impedance``)."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and np.any(a.imag):
        return a.astype(complex, copy=False)
    return np.ascontiguousarray(a.real, dtype=float)


@dataclass(eq=False)
class SpectralFunction:
    """A function/distribution on the boundary as eigenbasis coefficients."""

    spectrum: BoundarySpectrum
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = exact_dtype(self.coeffs)
        check_coefficients(self.coeffs, self.spectrum.count)

    def __rmul__(self, scalar):
        return SpectralFunction(self.spectrum, scalar * self.coeffs)


def constant_function(spec):
    """The function identically 1, i.e. sqrt(measure_j) on every kernel mode."""
    c = np.zeros(spec.count)
    c[:spec.b0] = np.sqrt(spec.geometry.component_measures)
    return SpectralFunction(spec, c)


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


# ---------------------------------------------------------------------------
# asymptotic diagnostics
# ---------------------------------------------------------------------------

def check_fit_range(fit_range, b0, N):
    """Raise SpectrumError unless the fit range is two indices [lo, hi]
    that lie inside (b0, N] and span at least 20 indices."""
    if len(fit_range) != 2:
        raise SpectrumError(f"fit range needs two indices [lo, hi], not {fit_range}")
    lo, hi = fit_range
    if lo <= b0 or hi > N:
        raise SpectrumError("fit range must lie inside (b0, N]")
    if hi - lo + 1 < 20:
        raise SpectrumError("fit range too short (need >= 20 indices)")


def weyl_diagnostic(spec, fit_range):
    """Log-log growth diagnostics of the eigenvalue sequence.

    ``fit_range = (lo, hi)`` is a 1-based inclusive index interval inside
    (b0, N].  Returns the least-squares line log(mu_n) = log_c + slope
    log(n) and the min/max of mu_n / n^(2/(d-1)) over the range.
    """
    check_fit_range(fit_range, spec.b0, spec.count)
    lo, hi = fit_range
    n = np.arange(lo, hi + 1, dtype=float)
    mu = spec.mu[lo - 1:hi]
    if np.any(mu <= 0):
        raise SpectrumError("fit range contains zero eigenvalues")
    slope, log_c = np.polyfit(np.log(n), np.log(mu), 1)
    ratio = mu / n ** (2.0 / (spec.dim - 1))
    return {"slope": float(slope), "log_c": float(log_c),
            "c_lower": float(ratio.min()), "c_upper": float(ratio.max())}

