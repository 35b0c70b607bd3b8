import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from acouz import boundary as bd
from acouz import shapes
from acouz.multipliers import TripleProductTensor

import oracles


def fd_curve_matrix(total_length, n_grid):
    """Dense periodic finite differences for -d^2/ds^2 on a closed curve."""
    h = total_length / n_grid
    main = np.full(n_grid, 2.0 / h ** 2)
    off = np.full(n_grid - 1, -1.0 / h ** 2)
    A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    A[0, -1] = A[-1, 0] = -1.0 / h ** 2
    return A


def fd_curve_eigenvalues(total_length, n_grid, count):
    """Smallest eigenvalues of fd_curve_matrix, the independent oracle for
    curve spectra.  The matrix is circulant, so they are known in closed
    form: (4 / h^2) sin^2(pi k / n)."""
    h = total_length / n_grid
    k = np.arange(n_grid)
    return np.sort(4.0 / h ** 2 * np.sin(np.pi * k / n_grid) ** 2)[:count]


class TestGeometry:
    def test_rejects_degenerate_component(self):
        line = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(bd.GeometryError):
            bd.BoundaryGeometry(dim_ambient=2, components=(line,))

    def test_total_measure_is_sum_of_segments(self, unit_circle_geom):
        seg = np.diff(np.vstack([unit_circle_geom.components[0],
                                 unit_circle_geom.components[0][:1]]), axis=0)
        assert unit_circle_geom.component_measures.sum() == pytest.approx(
            np.hypot(seg[:, 0], seg[:, 1]).sum(), abs=1e-14)

    def test_open_surface_rejected(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        t = np.array([[0, 1, 2]])
        with pytest.raises(bd.GeometryError):
            bd.BoundaryGeometry(dim_ambient=3, vertices=v, triangles=t)

    def test_inconsistent_orientation_rejected(self):
        g = shapes.icosphere(0)
        t = g.triangles.copy()
        t[0] = t[0][[0, 2, 1]]
        with pytest.raises(bd.GeometryError):
            bd.BoundaryGeometry(dim_ambient=3, vertices=g.vertices, triangles=t)

    @pytest.mark.parametrize("case", ["intact", "flipped", "removed",
                                      "two_spheres"])
    def test_edge_check_matches_dict_oracle(self, case):
        t = shapes.icosphere(2).triangles.copy()
        if case == "flipped":
            t[5] = t[5][[0, 2, 1]]
        elif case == "removed":
            t = np.delete(t, 5, axis=0)
        elif case == "two_spheres":
            t = oracles.two_spheres(1).triangles

        def verdict(check):
            try:
                check(t)
            except bd.GeometryError as err:
                return str(err)
            return None

        got = verdict(bd._check_closed_oriented)
        assert got == verdict(oracles.dict_check_closed_oriented)
        assert (got is None) == (case in ("intact", "two_spheres"))

    def test_components_match_dict_oracle(self):
        g = oracles.two_spheres(1)
        n = g.vertices.shape[0]
        relabel = np.random.default_rng(0).permutation(n)
        for t in (g.triangles, relabel[g.triangles]):
            labels = bd._vertex_components(n, t)
            assert np.array_equal(labels, oracles.dict_vertex_components(n, t))
            assert labels.max() == 1

    def test_json_roundtrip(self, tmp_path, unit_circle_geom):
        p = tmp_path / "geom.json"
        unit_circle_geom.save_json(p)
        back = bd.BoundaryGeometry.load_json(p)
        assert len(back.components) == 1
        assert np.array_equal(back.components[0], unit_circle_geom.components[0])


class TestCurveSpectrum:
    def test_unit_circle_small(self, circle_spec):
        assert np.allclose(circle_spec.mu[:5], [0, 1, 1, 4, 4], atol=1e-12)
        assert circle_spec.b0 == 1

    def test_two_circles_union_spectrum(self):
        geoms = [shapes.scaled_circle_by_perimeter(2 * np.pi),
                 shapes.scaled_circle_by_perimeter(np.pi)]
        comps = (geoms[0].components[0],
                 geoms[1].components[0] + np.array([10.0, 0.0]))
        geom = bd.BoundaryGeometry(dim_ambient=2, components=comps)
        spec = bd.build_curve_spectrum(geom, 3)
        assert np.allclose(spec.mu, [0, 0, 1], atol=1e-12)
        assert spec.b0 == 2
        # smaller circle: first nonzero eigenvalue is (2 pi / pi)^2 = 4
        spec8 = bd.build_curve_spectrum(geom, 8)
        assert np.allclose(sorted(spec8.mu), [0, 0, 1, 1, 4, 4, 4, 4], atol=1e-12)

    def test_fd_closed_form_matches_dense(self):
        dense = np.sort(np.linalg.eigvalsh(fd_curve_matrix(4.0, 64)))
        assert np.allclose(fd_curve_eigenvalues(4.0, 64, 64), dense,
                           rtol=0, atol=1e-10)

    def test_square_vs_finite_differences(self):
        spec = bd.build_curve_spectrum(oracles.square_geometry(1.0), 7)
        exact = (2 * np.pi / 4.0) ** 2
        assert spec.mu[1] == pytest.approx(exact, rel=1e-14)
        assert spec.mu[2] == pytest.approx(exact, rel=1e-14)
        oracle = fd_curve_eigenvalues(4.0, 4000, 7)
        assert np.allclose(spec.mu, oracle, rtol=2e-5, atol=1e-8)

    def test_rejects_undersized_truncation(self, unit_circle_geom):
        with pytest.raises(bd.SpectrumError):
            bd.build_curve_spectrum(
                bd.BoundaryGeometry(
                    dim_ambient=2,
                    components=(unit_circle_geom.components[0],
                                unit_circle_geom.components[0] + 10.0)), 1)

    def test_orthonormal_and_signed(self, circle_spec):
        assert oracles.gram_defect(circle_spec) < oracles.TOL_ORTH_CURVE
        for row in oracles.curve_grid(circle_spec).modes:
            nz = np.flatnonzero(np.abs(row) > 1e-8 * np.abs(row).max())
            assert row[nz[0]] > 0

    def test_kernel_mode_is_constant(self, circle_spec):
        L = circle_spec.geometry.component_measures.sum()
        assert np.allclose(oracles.curve_grid(circle_spec).modes[0], 1 / np.sqrt(L))

    def test_tie_order_cos_before_sin(self, circle_spec):
        assert circle_spec.mode_kind[1] == bd.KIND_COS
        assert circle_spec.mode_kind[2] == bd.KIND_SIN
        assert circle_spec.mode_freq[3] == 2

    def test_grid_equals_analytic_modes(self):
        # curve_modes against the normalized trigonometric functions written
        # out per mode, on two circles, zero off each mode's own component
        geoms = [shapes.scaled_circle_by_perimeter(2 * np.pi),
                 shapes.scaled_circle_by_perimeter(np.pi)]
        comps = (geoms[0].components[0],
                 geoms[1].components[0] + np.array([10.0, 0.0]))
        geom = bd.BoundaryGeometry(dim_ambient=2, components=comps)
        spec = bd.build_curve_spectrum(geom, 41)
        assert spec.modes is None
        for j, L in enumerate(geom.component_lengths()):
            s = np.linspace(0.0, L, 13)
            Y = oracles.curve_mode_values(spec, j, s)
            for n in range(spec.count):
                k = spec.mode_freq[n]
                expect = {bd.KIND_CONST: np.full(s.size, 1 / np.sqrt(L)),
                          bd.KIND_COS: np.sqrt(2 / L) * np.cos(2 * np.pi * k * s / L),
                          bd.KIND_SIN: np.sqrt(2 / L) * np.sin(2 * np.pi * k * s / L),
                          }[spec.mode_kind[n]]
                if spec.mode_comp[n] != j:
                    expect = np.zeros(s.size)
                assert np.allclose(Y[n], expect, rtol=0, atol=1e-14)


class TestSurfaceSpectrum:
    def test_sphere_oracle(self, sphere_spec):
        # exact unit-sphere spectrum: l(l+1) with multiplicity 2l+1
        exact = [0] + [2] * 3 + [6] * 5 + [12] * 7
        rel = np.abs(sphere_spec.mu[1:] - exact[1:len(sphere_spec.mu)]) \
            / np.array(exact[1:len(sphere_spec.mu)])
        assert rel.max() < 0.02
        assert sphere_spec.mu[0] == 0.0
        assert np.all(sphere_spec.residuals <= bd.EIG_RESIDUAL_TOL)
        assert oracles.gram_defect(sphere_spec) < oracles.TOL_ORTH_SURFACE

    def test_kernel_constant_vector(self):
        spec = bd.build_surface_spectrum(shapes.icosphere(2), 1)
        assert spec.mu[0] == 0.0
        v = spec.modes[0]
        assert np.allclose(v, v[0]) and v[0] > 0

    def test_keeps_every_member_of_a_cluster(self):
        # the default Lanczos headroom on icosphere(3) returns 3 of the 4
        # copies of one eigenvalue cluster and 3 of the 5 of the next, and
        # fills the list from above; the inertia count asks for more
        g = shapes.icosphere(3)
        v, t = g.vertices, g.triangles
        S = bd.p1_stiffness(v, t).toarray()
        d = bd.p1_mass(t, bd.triangle_areas(v, t), v.shape[0], lumped=True).diagonal()
        dense = np.linalg.eigvalsh(S / np.sqrt(np.outer(d, d)))[:60]
        dense[0] = 0.0
        spec = bd.build_surface_spectrum(g, 60, store_modes=False)
        assert np.all(np.abs(spec.mu - dense) <= 1e-9 * np.maximum(dense, 1.0))

    @pytest.mark.parametrize("store_modes", [False, True])
    def test_missed_eigenvalue_raises(self, monkeypatch, store_modes):
        eigsh = spla.eigsh

        def dropping_one(*args, **kwargs):
            out = eigsh(*args, **kwargs)
            w = out[0] if kwargs["return_eigenvectors"] else out
            keep = np.delete(np.arange(w.size), np.argsort(w)[10])
            if kwargs["return_eigenvectors"]:
                return w[keep], out[1][:, keep]
            return w[keep]

        monkeypatch.setattr(bd.spla, "eigsh", dropping_one)
        with pytest.raises(bd.SpectrumError, match="inertia count"):
            bd.build_surface_spectrum(shapes.icosphere(2), 16,
                                      store_modes=store_modes)

    def test_two_spheres_two_kernel_modes(self):
        spec = bd.build_surface_spectrum(oracles.two_spheres(2), 2)
        assert np.array_equal(spec.mu, [0.0, 0.0])
        assert spec.b0 == 2
        # indicator modes: supported on one component each, nonnegative
        for row in spec.modes:
            assert row.min() >= 0.0

    def test_truncation_guard(self):
        with pytest.raises(bd.SpectrumError):
            bd.build_surface_spectrum(shapes.icosphere(1), 30)

    def test_consistent_mass_option(self):
        spec = bd.build_surface_spectrum(shapes.icosphere(3), 5, lumped_mass=False)
        assert np.abs(spec.mu[1:4] - 2).max() / 2 < 0.02

    def test_fem_matrices_on_constants(self):
        g = shapes.icosphere(3)
        v, t = g.vertices, g.triangles
        S = bd.p1_stiffness(v, t)
        one = np.ones(v.shape[0])
        assert np.abs(S @ one).max() <= 1e-12 * abs(S).max()
        for lumped in (True, False):
            M = bd.p1_mass(t, bd.triangle_areas(v, t), v.shape[0], lumped=lumped)
            assert one @ M @ one == pytest.approx(g.component_measures.sum(), rel=1e-13)

    def test_store_modes_false_is_gridless(self):
        geom = shapes.icosphere(2)
        lean = bd.build_surface_spectrum(geom, 16, store_modes=False)
        assert lean.modes is None and lean.b0 == 1 and lean.mu[0] == 0.0
        with pytest.raises(bd.SpectrumError):
            TripleProductTensor(lean)

    def test_npz_roundtrip(self, tmp_path, sphere_spec):
        p = tmp_path / "spec.npz"
        sphere_spec.dump_npz(p)
        back = bd.BoundarySpectrum.load_npz(p)
        assert np.array_equal(back.mu, sphere_spec.mu)
        assert np.array_equal(back.modes, sphere_spec.modes)
        assert back.b0 == sphere_spec.b0


class TestP1Element:
    """The shared P1 formulas against their long forms in ``oracles``."""

    @pytest.mark.parametrize("subdivisions", [3, 4])
    def test_stiffness_is_cotangent_laplacian(self, subdivisions):
        g = shapes.icosphere(subdivisions)
        S = bd.p1_stiffness(g.vertices, g.triangles)
        ref = oracles.cotangent_stiffness(g.vertices, g.triangles)
        assert abs(S - ref).max() <= 1e-14 * abs(ref).max()

    def test_lumped_mass_is_row_sum_of_consistent(self):
        g = shapes.icosphere(2)
        t, n = g.triangles, g.vertices.shape[0]
        areas = bd.triangle_areas(g.vertices, t)
        lumped = bd.p1_mass(t, areas, n, lumped=True).toarray()
        row_sums = bd.p1_mass(t, areas, n).toarray().sum(axis=1)
        assert np.array_equal(lumped, np.diag(np.diag(lumped)))
        assert np.allclose(np.diag(lumped), row_sums, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("subdivisions", range(6))
    def test_icosphere_matches_dict_split(self, subdivisions):
        g = shapes.icosphere(subdivisions)
        v, t = oracles.dict_icosphere(subdivisions)
        assert np.array_equal(g.vertices, v)
        assert np.array_equal(g.triangles, t)

    def test_midpoint_edges(self):
        g = shapes.icosphere(1)
        v, t, edges = bd.midpoint_subdivide(g.vertices, g.triangles)
        _, _, midpoint = oracles.dict_midpoint_split(g.vertices, g.triangles)
        assert [tuple(e) for e in edges] == list(midpoint)
        n = g.vertices.shape[0]
        assert np.array_equal(v[n:], 0.5 * (v[edges[:, 0]] + v[edges[:, 1]]))


class TestHtScale:
    # the H^t norm of the unit mode Y_n is the weight w_n(t)
    def test_kernel_mode_unit_weight_any_t(self, circle_spec):
        for t in [-2.0, -0.5, 0.0, 0.5, 3.0]:
            assert bd.ht_weights(circle_spec, t)[0] == pytest.approx(1.0, abs=1e-15)

    def test_positive_t_graph_norm(self, circle_spec):
        n = 10
        mu = circle_spec.mu[n - 1]
        for t in [0.5, 1.0, 2.0]:
            assert bd.ht_weights(circle_spec, t)[n - 1] == pytest.approx(
                np.sqrt(mu ** t + 1))

    def test_negative_t_dual_norm(self, circle_spec):
        n = 10
        mu = circle_spec.mu[n - 1]
        for t in [0.5, 1.0, 2.0]:
            assert bd.ht_weights(circle_spec, -t)[n - 1] == pytest.approx(
                (mu ** t + 1) ** -0.5)

    def test_duality_product_one(self, circle_spec):
        for t in [0.25, 1.0, 3.0]:
            prod = bd.ht_weights(circle_spec, t) * bd.ht_weights(circle_spec, -t)
            assert prod[[1, 6, 29]] == pytest.approx(1.0)

    def test_monotone_in_t_above_mu_one(self, circle_spec):
        # modes with mu >= 1: weight nondecreasing along the whole scale
        ts = np.linspace(-3, 3, 25)
        vals = [bd.ht_weights(circle_spec, t)[11] for t in ts]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_fractional_power_weights(self, circle_spec):
        w = bd.fractional_power_weights(circle_spec, 0.0, 2.0)
        assert np.allclose(w, 1.0)
        w = bd.fractional_power_weights(circle_spec, -0.5, 1.0)
        assert w[1] == pytest.approx(2 ** -0.25)
        prod = w * bd.fractional_power_weights(circle_spec, 0.5, 1.0)
        assert np.allclose(prod, 1.0)
        with pytest.raises(bd.SpectrumError):
            bd.fractional_power_weights(circle_spec, 1.0, 0.0)

    def test_fractional_weights_match_discrete_shifted_laplacian(self, circle_spec):
        # (mu+1) weights == Rayleigh quotients of the FD (Delta + 1) applied
        # to the modes on a fine arclength grid
        L = circle_spec.geometry.component_measures.sum()
        M = 4096
        s = (np.arange(M) + 0.5) * L / M
        h = L / M
        for n in [2, 5, 9]:
            y = oracles.curve_mode_values(circle_spec, 0, s)[n - 1]
            lap = (2 * y - np.roll(y, 1) - np.roll(y, -1)) / h ** 2
            rq = np.dot(y, lap + y) / np.dot(y, y)
            w2 = bd.fractional_power_weights(circle_spec, 2.0, 1.0)[n - 1]
            assert rq == pytest.approx(w2, rel=1e-4)


class TestDiagnostics:
    def test_weyl_circle_slope(self, circle_spec_400):
        d = bd.weyl_diagnostic(circle_spec_400, (21, 200))
        assert abs(d["slope"] - 2.0) <= 0.02
        assert 0 < d["c_lower"] <= d["c_upper"]

    def test_weyl_sandwich_single_component(self, circle_spec_400):
        n = np.arange(20, 401)
        ratio = circle_spec_400.mu[19:] / n ** 2
        assert ratio.max() / ratio.min() <= 10.0

    def test_weyl_range_validation(self, circle_spec_400):
        with pytest.raises(bd.SpectrumError):
            bd.weyl_diagnostic(circle_spec_400, (1, 200))    # includes kernel
        with pytest.raises(bd.SpectrumError):
            bd.weyl_diagnostic(circle_spec_400, (21, 30))    # too short


class TestSpectralFunction:
    def test_constant_function_coefficients(self, circle_spec):
        one = bd.constant_function(circle_spec)
        L = circle_spec.geometry.component_measures.sum()
        assert one.coeffs[0] == pytest.approx(np.sqrt(L))
        assert np.allclose(one.coeffs[1:], 0)
        assert np.allclose(oracles.curve_grid(circle_spec).values(one.coeffs), 1.0)

    def test_json_dict_roundtrip(self, circle_spec):
        # the coefficient lists of a `multiplier` config
        d = json.loads(json.dumps({"coeffs_re": [1.0, 0.0], "coeffs_im": [2.0, -0.5]}))
        back = bd.SpectralFunction.from_dict(circle_spec, d)
        assert np.array_equal(back.coeffs, np.array([1 + 2j, -0.5j]))
