"""Test-only oracles: the curve midpoint grid and what is computed on it,
single modes and point masses as coefficient vectors, and geometries that
only tests build.

The package computes every curve quantity exactly from the mode
descriptors (component, kind, frequency) and stores no grid; these grid
versions are the independent references the tests compare against.
"""

from dataclasses import dataclass

import numpy as np

from acouz import boundary as bd
from acouz import shapes
from acouz.multipliers import hermitian_check

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
        w = bd.mass_matrix(geom.vertices, geom.triangles, lumped=True).diagonal()
    return float(np.abs((Y * w) @ Y.T - np.eye(spec.count)).max())


def quadrature_contract(spec, c, N_trunc):
    """sum_k c_k G[k, m, n] for m, n < N_trunc on the curve grid."""
    grid = curve_grid(spec)
    Y = grid.modes[:N_trunc]
    return (Y * (grid.weights * grid.values(c))) @ Y.T


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
