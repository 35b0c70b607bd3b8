"""Test-only oracles: the curve midpoint grid and what is computed on it,
single modes and point masses as coefficient vectors, geometries that only
tests build, the surface checks edge by edge, the P1 element written
the long way, the consistent-mass surface spectrum solved dense, the
acoustic pencil solved in complex arithmetic, its Neumann scale solved
by ``eigsh``, and its trace projection through a dense boundary mass.

The package computes every curve quantity exactly from the mode
descriptors (component, kind, frequency) and stores no grid; these grid
versions are the independent references the tests compare against.  It
also writes each P1 formula once for surfaces and domains; the cotangent,
gradient and dict-keyed midpoint forms here are the references for those.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from acouz import acoustic as ac
from acouz import boundary as bd
from acouz import shapes
from acouz.multipliers import hermitian_check, psd_tolerance

# Orthonormality tolerances: curve modes are exact up to quadrature, FEM
# surface modes carry solver error.
TOL_ORTH_CURVE = 1e-10
TOL_ORTH_SURFACE = 1e-8


def curve_mode_values(spec, comp, s):
    """All modes of a curve spectrum at arclengths ``s`` on component
    ``comp``: an (N, len(s)) array, zero on modes of other components."""
    return bd.curve_modes(spec.mode_comp, spec.mode_kind, spec.mode_freq, comp,
                          spec.geometry.component_lengths()[comp],
                          np.asarray(s, dtype=float))


@dataclass(frozen=True)
class CurveGrid:
    """Midpoint arclength grid of a curve spectrum with the modes on it."""

    arclength: np.ndarray    # (n_grid,)
    weights: np.ndarray      # (n_grid,)
    modes: np.ndarray        # (N, n_grid)

    def coeffs(self, values):
        """L2 projection of grid values onto the modes."""
        return self.modes @ (self.weights * np.asarray(values))

    def values(self, coeffs):
        """The function with these (leading) coefficients on the grid."""
        c = np.asarray(coeffs)
        return c @ self.modes[:c.size]


def curve_grid(spec):
    """M = 4 k_max + 16 midpoints per component, k_max its largest stored
    frequency: the rule integrates trigonometric polynomials of degree below
    M exactly, so triple products of retained modes carry no error."""
    lengths = spec.geometry.component_lengths()
    s, w, comp = [], [], []
    for j, L in enumerate(lengths):
        freqs = spec.mode_freq[spec.mode_comp == j]
        M = 4 * max(int(freqs.max(initial=0)), 1) + 16
        s.append((np.arange(M) + 0.5) * (L / M))
        w.append(np.full(M, L / M))
        comp.append(np.full(M, j))
    s, w, comp = (np.concatenate(a) for a in (s, w, comp))
    modes = np.zeros((spec.count, s.size))
    for j in range(lengths.size):
        on = comp == j
        modes[:, on] = curve_mode_values(spec, j, s[on])
    return CurveGrid(arclength=s, weights=w, modes=modes)


def gram_defect(spec):
    """Max deviation of the modes' Gram matrix from the identity: on the
    curve grid, or in the lumped vertex mass for a surface spectrum."""
    if spec.mode_comp is not None:
        grid = curve_grid(spec)
        Y, w = grid.modes, grid.weights
    else:
        geom = spec.geometry
        Y = spec.modes
        w = bd.p1_mass(geom.triangles, bd.triangle_areas(geom.vertices, geom.triangles),
                       geom.vertices.shape[0], lumped=True).diagonal()
    return float(np.abs((Y * w) @ Y.T - np.eye(spec.count)).max())


def quadrature_contract(spec, c, N_trunc):
    """sum_k c_k G[k, m, n] for m, n < N_trunc on the curve grid."""
    grid = curve_grid(spec)
    Y = grid.modes[:N_trunc]
    return (Y * (grid.weights * grid.values(c))) @ Y.T


# a symmetric six-point rule of degree 4 on the reference triangle, which
# integrates the cubic product of three P1 functions exactly
_DEG4_BARY = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])
_DEG4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


def quadrature_surface_contract(spec, c, N_trunc):
    """sum_k c_k G[k, m, n] for m, n < N_trunc on a surface, by the six-point
    rule on every triangle: the modes and phi interpolated to the points."""
    t = spec.geometry.triangles
    w = (bd.triangle_areas(spec.geometry.vertices, t)[:, None] * _DEG4_W).ravel()
    Yq = np.einsum("ntj,qj->ntq", spec.modes[:, t], _DEG4_BARY).reshape(spec.count, -1)
    c = np.asarray(c)
    Y = Yq[:N_trunc]
    return (Y * (w * (c @ Yq[:c.size]))) @ Y.T


def pairwise_curve_contract(tensor, coeffs, N_trunc):
    """The curve compression of ``tensor`` entry by entry: index arithmetic
    on (kind, frequency) over every pair m <= n, mirrored.  The byte-equality
    reference for ``TripleProductTensor.contract``, which builds the same
    entries as Toeplitz-plus-Hankel blocks."""
    spec = tensor.spec
    m, n = np.triu_indices(N_trunc)
    comp = spec.mode_comp[m]
    tm, tn = spec.mode_kind[m], spec.mode_kind[n]
    km, kn = spec.mode_freq[m], spec.mode_freq[n]
    swap = (tm > tn) | ((tm == tn) & (km > kn))        # canonical order
    tm, tn = np.where(swap, tn, tm), np.where(swap, tm, tn)
    km, kn = np.where(swap, kn, km), np.where(swap, km, kn)
    a, b = tensor._a[comp], tensor._b[comp]
    const = tm == bd.KIND_CONST               # Y_const * Y_n = a Y_n
    cos_sin = (tm == bd.KIND_COS) & (tn == bd.KIND_SIN)
    equal = km == kn

    # Y_m * Y_n = coef_s * Y_{k_s} + coef_d * Y_{k_d}: the sum and the
    # difference frequency term, k = -1 where absent or not stored
    kind_s = np.where(const, tn, np.where(cos_sin, bd.KIND_SIN, bd.KIND_COS))
    freq_s = np.where(const, kn, km + kn)
    coef_s = np.where(const, a, np.where(tm == bd.KIND_SIN, -b, b))
    kind_d = np.where(equal, bd.KIND_CONST,
                      np.where(cos_sin, bd.KIND_SIN, bd.KIND_COS))
    freq_d = np.where(equal, 0, np.abs(kn - km))
    coef_d = np.where(equal, a, np.where(cos_sin & (kn < km), -b, b))
    k_s = tensor._index[comp, kind_s, freq_s]
    k_d = tensor._index[comp, kind_d, freq_d]
    other = spec.mode_comp[n] != comp
    k_s[other] = -1
    k_d[other | const | (cos_sin & equal)] = -1

    c = np.asarray(coeffs, dtype=complex)
    c0 = np.zeros(spec.count + 1, dtype=complex)
    c0[:c.size] = c
    vals = coef_s * c0[k_s] + coef_d * c0[k_d]
    A = np.zeros((N_trunc, N_trunc), dtype=complex)
    A[m, n] = vals
    A[n, m] = vals
    return A


def dense_trace_projection(mesh, spec, N_b):
    """``acoustic.trace_projection`` with the boundary mass densified and
    solved by LAPACK: the path that the sparse SPD factor replaced, kept as
    its reference."""
    T = ac.moment_matrix(mesh, spec, N_b)
    Mb = ac.boundary_mass_matrix(mesh).toarray()
    gvals, gvecs = np.linalg.eigh(T @ np.linalg.solve(Mb, T.T))
    return (gvecs / np.sqrt(gvals)) @ gvecs.T @ T


def lambda_form_solve(pencil, n_wanted=12):
    """Shift-invert Arnoldi on the linearization in lambda itself, complex
    for every impedance: the path that ``solve_pencil`` replaced by its real
    form in mu = -i lambda, kept as its reference.  For y = (p, q) the
    operator is (x, shift x + p) with x = P(shift)^-1 (i B_Z p + M (q +
    shift p)), P(shift)^-1 applied by Woodbury with Zs = -i shift Zhat, and
    every LU solve takes the real and imaginary parts as two columns."""
    n, M, shift = pencil.n, pencil.M, pencil.shift
    lu0, W, T, bdofs = pencil.shifted_lu, pencil.W, pencil.trace, pencil.bdofs
    Zs = -1j * shift * pencil.Zhat
    F = np.linalg.solve(np.eye(pencil.N_b) + Zs @ pencil.S0, Zs)

    def solve_shifted(r):
        x0 = lu0.solve(np.column_stack([r.real, r.imag]))
        t = T @ x0[bdofs]
        d = F @ (t[:, 0] + 1j * t[:, 1])
        x = x0 - W @ np.column_stack([d.real, d.imag])
        return x[:, 0] + 1j * x[:, 1]

    def matvec(y):
        p, q = y[:n], y[n:]
        x = solve_shifted(1j * pencil.apply_B(p) + M @ (q + shift * p))
        return np.concatenate([x, shift * x + p])

    op = spla.LinearOperator(dtype=complex, shape=(2 * n, 2 * n), matvec=matvec)
    w, Y = spla.eigs(op, k=min(n_wanted, 2 * n - 2), which="LM",
                     tol=ac.ARPACK_TOL, v0=bd.arpack_start(2 * n))
    lam, X = shift + 1.0 / w, Y[:n]
    res = np.linalg.norm(pencil.evaluate(lam, X), axis=0) / np.linalg.norm(X, axis=0)
    return ac.EigenReport(eigenvalues=lam, residuals=res,
                          converged=True,
                          zero_tol=ac.ZERO_TOL * pencil.lam_scale)


def eigsh_neumann_scale(pencil):
    """sqrt of the smallest nonzero Neumann eigenvalue nu_1 of (K, M) by
    shift-invert ``eigsh``, with an LU of its own: the solve that
    ``acoustic.neumann_scale`` replaced by a Rayleigh-Ritz bound, kept as
    its reference.  s = mean(diag K) / mean(diag M) scales the shift and
    "nonzero", nu > 1e-8 s; sqrt(s) when no computed nu is nonzero."""
    k = min(6, pencil.n - 2)
    s = pencil.K.diagonal().mean() / pencil.M.diagonal().mean()
    nu = np.sort(spla.eigsh(pencil.K, k=k, M=pencil.M, sigma=-1e-3 * s, which="LM",
                            v0=bd.arpack_start(pencil.n), return_eigenvectors=False))
    pos = nu[nu > 1e-8 * s]
    return float(np.sqrt(pos[0] if pos.size else s))


def _real_if_exact(X):
    return X if np.any(X.imag) else X.real


def conjugate_singular_values(A):
    """``MultiplierMatrix.singular_values`` through full complex copies:
    the weights applied in complex arithmetic and Hermitian-ness tested
    against ``A.matrix.conj().T``."""
    d1 = bd.ht_weights(A.spectrum, -A.s1)[:A.N_trunc]
    d2 = bd.ht_weights(A.spectrum, -A.s2)[:A.N_trunc]
    W = _real_if_exact(d2[:, None] * A.matrix * d1[None, :])
    if A.s1 == A.s2 and np.array_equal(A.matrix, A.matrix.conj().T):
        return np.sort(np.abs(np.linalg.eigvalsh(W)))[::-1]
    return np.linalg.svd(W, compute_uv=False)


def conjugate_hermitian_check(X):
    """``hermitian_check`` through full complex copies of X.conj().T."""
    eigs = np.linalg.eigvalsh(_real_if_exact(0.5 * (X + X.conj().T)))
    if np.array_equal(X, X.conj().T):
        norm = float(np.abs(eigs).max())
    else:
        norm = float(np.linalg.svd(_real_if_exact(X), compute_uv=False)[0])
    tol = psd_tolerance(norm)
    return {"nonneg": bool(eigs[0] >= -tol), "min_eig": float(eigs[0]),
            "max_eig": float(eigs[-1]), "tol": tol, "norm": norm}


def accretivity_integral_test(z, test_count=32, seed=0):
    """Check integral(re(z) |g|^2) >= 0 over probe functions g on a curve.

    Probes are ``test_count`` random band-limited functions plus the
    Rayleigh minimizer of the grid compression of re(z), so the outcome is
    exact and agrees with ``positivity_test`` applied to re(z).  Every
    integral is a grid sum, independent of ``TripleProductTensor``.
    """
    spec = z.spectrum
    N = z.coeffs.size
    grid = curve_grid(spec)
    re_z = grid.values(z.coeffs.real)
    A = quadrature_contract(spec, z.coeffs.real, N)
    tol = hermitian_check(A)["tol"]
    _, eigvecs = np.linalg.eigh(A)

    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(test_count):
        width = int(rng.integers(1, min(12, N) + 1))
        start = int(rng.integers(0, N - width + 1))
        g = np.zeros(N, dtype=complex)
        g[start:start + width] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        probes.append(g / np.linalg.norm(g))
    probes.append(eigvecs[:, 0].astype(complex))

    values = [float(np.sum(grid.weights * re_z * np.abs(grid.values(g)) ** 2))
              for g in probes]
    return {"nonneg": min(values) >= -tol, "values": values, "tol": tol}


def unit_mode(spec, n):
    """The basis function Y_n (1-based index) as a SpectralFunction."""
    c = np.zeros(spec.count, dtype=complex)
    c[n - 1] = 1.0
    return bd.SpectralFunction(spec, c)


def dirac_coeffs(spec, comp, s0):
    """Truncated point mass at arclength s0 on a curve component:
    c_n = Y_n(x0)."""
    return bd.SpectralFunction(spec, curve_mode_values(spec, comp, [s0])[:, 0])


def square_geometry(side=1.0):
    pts = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return bd.BoundaryGeometry(dim_ambient=2, components=(pts,))


def two_spheres(subdivisions=2, radius=1.0, spacing=4.0):
    """Two disjoint icospheres as one triangulation (two components)."""
    g1 = shapes.icosphere(subdivisions, radius, center=(0.0, 0.0, 0.0))
    g2 = shapes.icosphere(subdivisions, radius, center=(spacing, 0.0, 0.0))
    n1 = g1.vertices.shape[0]
    return bd.BoundaryGeometry(dim_ambient=3,
                               vertices=np.vstack([g1.vertices, g2.vertices]),
                               triangles=np.vstack([g1.triangles, g2.triangles + n1]))


def dict_check_closed_oriented(t):
    """``boundary._check_closed_oriented`` edge by edge through a dict of
    directed edges."""
    edges = {}
    for tri in t:
        for i in range(3):
            e = (int(tri[i]), int(tri[(i + 1) % 3]))
            if e in edges:
                raise bd.GeometryError("surface is not consistently oriented "
                                       f"(directed edge {e} repeated)")
            edges[e] = edges.get(e, 0) + 1
    for (a, b) in edges:
        if (b, a) not in edges:
            raise bd.GeometryError(f"surface is not closed (edge {(a, b)} unmatched)")


def dict_vertex_components(n_vertices, t):
    """``boundary._vertex_components`` relabelled through a dict, in order
    of first appearance."""
    rows = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    cols = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    g = sp.coo_matrix((np.ones_like(rows), (rows, cols)), shape=(n_vertices, n_vertices))
    _, labels = connected_components(g, directed=False)
    order = {}
    for lab in labels:
        if lab not in order:
            order[lab] = len(order)
    return np.array([order[lab] for lab in labels])


# ---------------------------------------------------------------------------
# the P1 element the long way
# ---------------------------------------------------------------------------

def consistent_mass_spectrum(geom, N):
    """The N smallest eigenpairs of S x = mu M x on a one-component surface,
    M the consistent P1 mass, solved dense: the mass that surface triple
    products integrate exactly.  The modes are M-orthonormal, and the
    kernel mode is exactly 1 / sqrt(area)."""
    v, t = geom.vertices, geom.triangles
    S = bd.p1_stiffness(v, t).toarray()
    M = bd.p1_mass(t, bd.triangle_areas(v, t), v.shape[0]).toarray()
    mu, X = sla.eigh(S, M, subset_by_index=[0, N - 1])
    mu[0] = 0.0
    X[:, 0] = 1.0 / np.sqrt(geom.component_measures.sum())
    return bd.BoundarySpectrum(geometry=geom, mu=mu, modes=X.T.copy())


def cotangent_stiffness(v, t):
    """Cotangent Laplacian of a triangulated surface, angle by angle: the
    edge opposite the angle at a gets cot(angle) / 2."""
    local = np.zeros((t.shape[0], 3, 3))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        u1 = v[t[:, b]] - v[t[:, a]]
        u2 = v[t[:, c]] - v[t[:, a]]
        cos = np.einsum("ij,ij->i", u1, u2)
        sin = np.linalg.norm(np.cross(u1, u2), axis=1)
        w = 0.5 * cos / np.maximum(sin, 1e-300)
        local[:, [b, c], [c, b]] -= w[:, None]
        local[:, [b, c], [b, c]] += w[:, None]
    return bd.assemble_p1(t, local, v.shape[0])


def gradient_stiffness(mesh):
    """integral(alpha^-1 grad phi_i . grad phi_j) of a 2-D mesh from the
    barycentric gradients, with alpha inverted per triangle."""
    v, t = mesh.vertices, mesh.triangles
    areas = np.abs(bd.triangle_areas(v, t))
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    g = np.stack([p1 - p2, p2 - p0, p0 - p1], axis=1)
    grads = np.stack([g[:, :, 1], -g[:, :, 0]], axis=2) / (2 * areas)[:, None, None]
    a = mesh.alpha
    if a is None:
        prod = np.einsum("mik,mjk->mij", grads, grads)
    elif a.ndim == 1:
        prod = (1.0 / a)[:, None, None] * np.einsum("mik,mjk->mij", grads, grads)
    else:
        prod = np.einsum("mik,mkl,mjl->mij", grads, np.linalg.inv(a), grads)
    return bd.assemble_p1(t, areas[:, None, None] * prod, mesh.n_vertices)


def dict_midpoint_split(v, t):
    """Midpoint split (triangle -> 4) edge by edge through a dict keyed on
    the sorted edge; returns the vertices, triangles and that dict."""
    verts = list(v)
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append(0.5 * (verts[a] + verts[b]))
        return midpoint[key]

    new_t = []
    for a, b, c in t:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_t += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(verts), np.array(new_t, dtype=int), midpoint


def dict_icosphere(subdivisions):
    """The unit icosphere from the icosahedron by ``dict_midpoint_split``."""
    g = shapes.icosphere(0)
    v, t = g.vertices, g.triangles
    for _ in range(subdivisions):
        v, t, _ = dict_midpoint_split(v, t)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v, t


def dict_uniform_refine(mesh, boundary_project=None):
    """``studies.uniform_refine`` by ``dict_midpoint_split``, projecting
    the boundary midpoints one at a time."""
    v, t, midpoint = dict_midpoint_split(mesh.vertices, mesh.triangles)
    loops = []
    for loop in mesh.boundary_loops:
        new = []
        for a, b in zip(loop, np.roll(loop, -1)):
            m = midpoint[(min(a, b), max(a, b))]
            if boundary_project is not None:
                v[m] = boundary_project(v[m][None])[0]
            new += [int(a), m]
        loops.append(np.array(new, dtype=int))
    parent = np.repeat(np.arange(t.shape[0] // 4), 4)
    alpha = None if mesh.alpha is None else np.asarray(mesh.alpha)[parent]
    beta = None if mesh.beta is None else np.asarray(mesh.beta)[parent]
    return ac.DomainMesh(vertices=v, triangles=t, boundary_loops=loops,
                         alpha=alpha, beta=beta)
