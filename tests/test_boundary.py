import json

import numpy as np
import pytest

from acouz import boundary as bd
from acouz import shapes
from acouz.multipliers import TripleProductTensor


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
        assert unit_circle_geom.total_measure == pytest.approx(
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

    def test_json_roundtrip(self, tmp_path, unit_circle_geom):
        p = tmp_path / "geom.json"
        unit_circle_geom.save_json(p)
        back = bd.BoundaryGeometry.load_json(p)
        assert back.content_hash() == unit_circle_geom.content_hash()


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
        spec = bd.build_curve_spectrum(shapes.square_geometry(1.0), 7)
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
        assert circle_spec.gram_defect() < bd.TOL_ORTH_CURVE
        for row in circle_spec.modes:
            nz = np.flatnonzero(np.abs(row) > 1e-8 * np.abs(row).max())
            assert row[nz[0]] > 0

    def test_kernel_mode_is_constant(self, circle_spec):
        L = circle_spec.geometry.total_measure
        assert np.allclose(circle_spec.modes[0], 1 / np.sqrt(L))

    def test_tie_order_cos_before_sin(self, circle_spec):
        assert circle_spec.mode_kind[1] == bd.KIND_COS
        assert circle_spec.mode_kind[2] == bd.KIND_SIN
        assert circle_spec.mode_freq[3] == 2

    def test_grid_equals_analytic_modes(self):
        geoms = [shapes.scaled_circle_by_perimeter(2 * np.pi),
                 shapes.scaled_circle_by_perimeter(np.pi)]
        comps = (geoms[0].components[0],
                 geoms[1].components[0] + np.array([10.0, 0.0]))
        geom = bd.BoundaryGeometry(dim_ambient=2, components=comps)
        spec = bd.build_curve_spectrum(geom, 41)
        for j in range(2):
            on = spec.quad_comp == j
            Y = spec.evaluate_curve_modes(j, spec.quad_arclength[on])
            assert np.array_equal(Y, spec.modes[:, on])

    def test_store_modes_false_matches(self, unit_circle_geom, circle_spec):
        lean = bd.build_curve_spectrum(unit_circle_geom, 65, store_modes=False)
        assert np.array_equal(lean.mu, circle_spec.mu)
        assert not lean.has_grid
        with pytest.raises(bd.SpectrumError):
            lean.gram_defect()


class TestSurfaceSpectrum:
    def test_sphere_oracle(self, sphere_spec):
        # exact unit-sphere spectrum: l(l+1) with multiplicity 2l+1
        exact = [0] + [2] * 3 + [6] * 5 + [12] * 7
        rel = np.abs(sphere_spec.mu[1:] - exact[1:len(sphere_spec.mu)]) \
            / np.array(exact[1:len(sphere_spec.mu)])
        assert rel.max() < 0.02
        assert sphere_spec.mu[0] == 0.0
        assert np.all(sphere_spec.residuals <= bd.EIG_RESIDUAL_TOL)
        assert sphere_spec.gram_defect() < bd.TOL_ORTH_SURFACE

    def test_kernel_constant_vector(self):
        spec = bd.build_surface_spectrum(shapes.icosphere(2), 1)
        assert spec.mu[0] == 0.0
        v = spec.modes[0]
        assert np.allclose(v, v[0]) and v[0] > 0

    def test_two_spheres_two_kernel_modes(self):
        spec = bd.build_surface_spectrum(shapes.two_spheres(2), 2)
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
        S = bd.cotangent_stiffness(v, t)
        one = np.ones(v.shape[0])
        assert np.abs(S @ one).max() <= 1e-12 * abs(S).max()
        for lumped in (True, False):
            M = bd.mass_matrix(v, t, lumped=lumped)
            assert one @ M @ one == pytest.approx(g.total_measure, rel=1e-13)

    def test_store_modes_false_is_gridless(self):
        geom = shapes.icosphere(2)
        lean = bd.build_surface_spectrum(geom, 16, store_modes=False)
        assert not lean.has_grid and lean.b0 == 1 and lean.mu[0] == 0.0
        with pytest.raises(bd.SpectrumError):
            lean.coeffs_from_values(np.ones(geom.vertices.shape[0]))
        with pytest.raises(bd.SpectrumError):
            TripleProductTensor(lean)

    def test_npz_roundtrip(self, tmp_path, sphere_spec):
        p = tmp_path / "spec.npz"
        sphere_spec.dump_npz(p)
        back = bd.BoundarySpectrum.load_npz(p)
        assert np.array_equal(back.mu, sphere_spec.mu)
        assert np.array_equal(back.modes, sphere_spec.modes)
        assert back.b0 == sphere_spec.b0


class TestHtScale:
    def test_kernel_mode_unit_weight_any_t(self, circle_spec):
        y1 = bd.unit_mode(circle_spec, 1)
        for t in [-2.0, -0.5, 0.0, 0.5, 3.0]:
            assert bd.ht_norm(y1, t) == pytest.approx(1.0, abs=1e-15)

    def test_positive_t_graph_norm(self, circle_spec):
        n = 10
        mu = circle_spec.mu[n - 1]
        y = bd.unit_mode(circle_spec, n)
        for t in [0.5, 1.0, 2.0]:
            assert bd.ht_norm(y, t) == pytest.approx(np.sqrt(mu ** t + 1))

    def test_negative_t_dual_norm(self, circle_spec):
        n = 10
        mu = circle_spec.mu[n - 1]
        y = bd.unit_mode(circle_spec, n)
        for t in [0.5, 1.0, 2.0]:
            assert bd.ht_norm(y, -t) == pytest.approx((mu ** t + 1) ** -0.5)

    def test_duality_product_one(self, circle_spec):
        for n in [2, 7, 30]:
            y = bd.unit_mode(circle_spec, n)
            for t in [0.25, 1.0, 3.0]:
                assert bd.ht_norm(y, t) * bd.ht_norm(y, -t) == pytest.approx(1.0)

    def test_monotone_in_t_above_mu_one(self, circle_spec):
        # modes with mu >= 1: weight nondecreasing along the whole scale
        y = bd.unit_mode(circle_spec, 12)
        ts = np.linspace(-3, 3, 25)
        vals = [bd.ht_norm(y, t) for t in ts]
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
        L = circle_spec.geometry.total_measure
        M = 4096
        s = (np.arange(M) + 0.5) * L / M
        h = L / M
        for n in [2, 5, 9]:
            y = circle_spec.evaluate_curve_modes(0, s)[n - 1]
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

    def test_counting_function_examples(self, circle_spec):
        assert bd.counting_function(circle_spec, 0.0) == 1
        assert bd.counting_function(circle_spec, 1.0) == 3
        assert bd.counting_function(circle_spec, 4.5) == 5

    def test_counting_against_enumeration(self, circle_spec):
        # independent enumeration of (2 pi k / L)^2 <= lam
        L = circle_spec.geometry.total_measure
        for lam in [0.5, 2.0, 17.3, 26.0]:
            count = 1 + 2 * sum(1 for k in range(1, 100)
                                if (2 * np.pi * k / L) ** 2 <= lam)
            assert bd.counting_function(circle_spec, lam) == count

    def test_counting_monotone_and_jump(self, circle_spec):
        mu = circle_spec.mu
        for n in [2, 4, 6, 10]:
            assert bd.counting_function(circle_spec, mu[n - 1]) >= n
            gap = mu[n - 1] - mu[n - 2]    # gap down to the previous eigenvalue
            if gap > 0:
                assert bd.counting_function(circle_spec, mu[n - 1] - gap / 2) < n

    def test_counting_truncation_exceeded(self, circle_spec):
        with pytest.raises(bd.TruncationExceeded):
            bd.counting_function(circle_spec, circle_spec.mu[-1])
        with pytest.raises(bd.SpectrumError):
            bd.counting_function(circle_spec, -1.0)


class TestSpectralFunction:
    def test_constant_function_coefficients(self, circle_spec):
        one = bd.constant_function(circle_spec)
        L = circle_spec.geometry.total_measure
        assert one.coeffs[0] == pytest.approx(np.sqrt(L))
        assert np.allclose(one.coeffs[1:], 0)
        assert np.allclose(one.values(), 1.0)

    def test_projection_roundtrip(self, circle_spec):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(20)
        f = bd.SpectralFunction(circle_spec, np.pad(c, (0, 45)).astype(complex))
        back = circle_spec.coeffs_from_values(f.values())
        assert np.allclose(back[:20], c, atol=1e-12)

    def test_conj_and_parts(self, circle_spec):
        c = np.array([1 + 2j, 0.5 - 1j, 3.0])
        f = bd.SpectralFunction(circle_spec, c)
        assert np.array_equal(f.conj().coeffs, np.conj(c))
        assert np.array_equal(f.real().coeffs + 1j * f.imag().coeffs, c)

    def test_json_dict_roundtrip(self, circle_spec):
        f = bd.SpectralFunction(circle_spec, np.array([1 + 2j, -0.5j]))
        back = bd.SpectralFunction.from_dict(circle_spec, json.loads(
            json.dumps(f.to_dict())))
        assert np.array_equal(back.coeffs, f.coeffs)
