import functools
import multiprocessing
import os

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
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

    @pytest.mark.parametrize("radius", [1e-6, 1.0, 1e6])
    def test_degenerate_triangle_rule_is_scale_free(self, radius):
        # icosphere(4, radius=1e-6) has areas near 2.5e-15, which an absolute
        # bound of 1e-14 rejected; a collinear triangle raises at any scale
        g = shapes.icosphere(4, radius=radius)
        v = g.vertices.copy()
        a, b, c = g.triangles[0]
        v[c] = (v[a] + v[b]) / 2
        with pytest.raises(bd.GeometryError, match="triangle 0 is degenerate"):
            bd.check_triangulation(v, g.triangles, bd.GeometryError)

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


def dense_surface_eigenvalues(geom, N):
    """The N smallest eigenvalues of S x = mu D x with the lumped mass D,
    from the dense symmetric matrix D^-1/2 S D^-1/2."""
    v, t = geom.vertices, geom.triangles
    S = bd.p1_stiffness(v, t).toarray()
    d = bd.p1_mass(t, bd.triangle_areas(v, t), v.shape[0], lumped=True).diagonal()
    return sla.eigh(S / np.sqrt(np.outer(d, d)), eigvals_only=True,
                    subset_by_index=[0, N - 1])


@functools.cache
def sliced_case(case):
    """The named case: icosphere(4) with N=200 or two_spheres(3) with N=128,
    each several windows deep."""
    return {"icosphere4": (shapes.icosphere(4), 200),
            "two_spheres3": (oracles.two_spheres(3), 128)}[case]


@functools.cache
def sliced(case, store_modes, workers):
    """A sliced surface spectrum of the named case."""
    geom, N = sliced_case(case)
    return bd.build_surface_spectrum(geom, N, store_modes=store_modes, workers=workers)


def surface_matrix(geom):
    """C = D^-1/2 S D^-1/2, the matrix a sliced surface solve works on."""
    v, t = geom.vertices, geom.triangles
    S = bd.p1_stiffness(v, t)
    d = bd.p1_mass(t, bd.triangle_areas(v, t), v.shape[0], lumped=True).diagonal()
    scale = sp.diags(1.0 / np.sqrt(d))
    return scale @ S @ scale


def window_count(geom, N):
    cuts, _ = bd._window_cuts(surface_matrix(geom), N, geom.component_measures.sum())
    return len(cuts) - 1        # cuts[0] is -inf


class TestSlicedSurfaceSpectrum:
    def test_windows_match_dense_oracle(self):
        geom = shapes.icosphere(4)
        assert window_count(geom, 200) >= 3
        dense = dense_surface_eigenvalues(geom, 200)
        dense[0] = 0.0
        mu = sliced("icosphere4", False, 2).mu
        assert np.all(np.abs(mu - dense) <= 1e-9 * np.maximum(dense, 1.0))

    def test_two_components_kernel_in_the_lowest_window(self):
        geom = oracles.two_spheres(3)
        assert window_count(geom, 128) >= 2
        spec = sliced("two_spheres3", True, 2)
        dense = dense_surface_eigenvalues(geom, 128)
        dense[:2] = 0.0
        assert spec.b0 == 2 and np.array_equal(spec.mu[:2], [0.0, 0.0])
        assert np.all(np.abs(spec.mu - dense) <= 1e-9 * np.maximum(dense, 1.0))
        labels = geom._component_labels
        for j, row in enumerate(spec.modes[:2]):
            assert row.min() >= 0.0
            assert np.array_equal(row > 0, labels == j)
        assert np.all(spec.residuals <= bd.EIG_RESIDUAL_TOL)
        assert oracles.gram_defect(spec) < oracles.TOL_ORTH_SURFACE

    @pytest.mark.parametrize("case, store_modes", [
        ("icosphere4", False), ("icosphere4", True), ("two_spheres3", True)])
    def test_worker_count_changes_no_bit(self, case, store_modes):
        serial = sliced(case, store_modes, 1)
        for workers in (2, 3):
            forked = sliced(case, store_modes, workers)
            for key in ("mu", "modes", "residuals"):
                assert (np.asarray(getattr(serial, key)).tobytes()
                        == np.asarray(getattr(forked, key)).tobytes()), key
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", ["icosphere4", "two_spheres3"])
    def test_every_cut_factored_once(self, monkeypatch, case, workers):
        # the counts run in this process at any worker count, so all are
        # recorded: only the windows are forked
        geom, N = sliced_case(case)
        windows = window_count(geom, N)
        factored, count_below = [], bd._count_below

        def recording(C, cut):
            factored.append(cut)
            return count_below(C, cut)

        monkeypatch.setattr(bd, "_count_below", recording)
        bd.build_surface_spectrum(geom, N, store_modes=False, workers=workers)
        assert len(factored) >= windows
        assert len(factored) == len(set(factored))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_missed_eigenvalue_in_a_middle_window_raises(self, monkeypatch, workers):
        cuts = []
        window_cuts, eigsh = bd._window_cuts, spla.eigsh

        def recording(*args):
            out = window_cuts(*args)
            cuts.extend(out[0])         # -inf, c_1, ..., c_W
            return out

        def dropping_one(*args, **kwargs):
            w = eigsh(*args, **kwargs)
            if kwargs["sigma"] != 0.5 * (cuts[1] + cuts[2]):
                return w
            return np.delete(w, np.argmin(np.abs(w - kwargs["sigma"])))

        monkeypatch.setattr(bd, "_window_cuts", recording)
        monkeypatch.setattr(bd.spla, "eigsh", dropping_one)
        with pytest.raises(bd.SpectrumError, match="inertia count"):
            bd.build_surface_spectrum(oracles.two_spheres(3), 128,
                                      store_modes=False, workers=workers)
        assert len(cuts) >= 4       # window 1 lies between two others

    def test_window_missing_a_ritz_value_is_solved_again(self, monkeypatch):
        # the first attempt's guard of 8 pairs can fall short; one retry with
        # twice the pairs must then return the unpatched spectrum
        geom = shapes.icosphere(3)
        plain = bd.build_surface_spectrum(geom, 60, store_modes=False).mu
        asked, eigsh = [], spla.eigsh

        def dropping_first(*args, **kwargs):
            asked.append(kwargs["k"])
            w = eigsh(*args, **kwargs)
            if len(asked) > 1:
                return w
            return np.delete(w, np.argmin(np.abs(w - kwargs["sigma"])))

        monkeypatch.setattr(bd.spla, "eigsh", dropping_first)
        mu = bd.build_surface_spectrum(geom, 60, store_modes=False).mu
        assert len(asked) == 2 and asked[1] == 2 * asked[0]
        assert np.all(np.abs(mu - plain) <= 1e-12 * np.maximum(plain, 1.0))

    def test_top_cut_grows_until_it_passes_N(self, monkeypatch):
        # a quarter of the Weyl guess (four times the area) lies below the
        # N-th eigenvalue, so the top cut must grow by 10% steps past it
        geom = shapes.icosphere(3)
        factored, count_below = {}, bd._count_below

        def recording(C, cut):
            assert cut not in factored
            factored[cut] = count_below(C, cut)
            return factored[cut]

        monkeypatch.setattr(bd, "_count_below", recording)
        cuts, counts = bd._window_cuts(surface_matrix(geom), 60,
                                       4 * geom.component_measures.sum())
        grown = list(factored.values())[:list(factored).index(cuts[-1]) + 1]
        assert len(grown) >= 2 and grown[0] <= 60 < grown[-1] == counts[-1]
        assert np.all(np.diff(grown) >= 0) and np.all(np.diff(counts) >= 0)

    def test_no_convergence_in_a_child_is_a_spectrum_error(self, monkeypatch):
        parent = os.getpid()
        eigsh = spla.eigsh

        def failing_in_children(*args, **kwargs):
            if os.getpid() != parent:
                raise spla.ArpackNoConvergence("planted", np.zeros(0), np.zeros((0, 0)))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(bd.spla, "eigsh", failing_in_children)
        with pytest.raises(bd.SpectrumError, match="did not converge: .*planted"):
            bd.build_surface_spectrum(oracles.two_spheres(3), 128, workers=2)
        assert multiprocessing.active_children() == []

    def test_ritz_value_on_a_cut_raises(self, monkeypatch):
        # a cut on an eigenvalue, up to rounding: the inertia count and the
        # Ritz value may place it on different sides, so the solve refuses
        geom = shapes.icosphere(3)
        mu = bd.build_surface_spectrum(geom, 60, store_modes=False).mu

        def planted(C, *args):
            cuts = np.array([-np.inf, mu[30] * (1 + 1e-11), 1.2 * mu[-1]])
            return cuts, [0, *(bd._count_below(C, c) for c in cuts[1:])]

        monkeypatch.setattr(bd, "_window_cuts", planted)
        with pytest.raises(bd.SpectrumError, match="lies on the window cut"):
            bd.build_surface_spectrum(geom, 60, store_modes=False)


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

    def test_mode_residual_above_tolerance_raises(self, monkeypatch):
        eigsh = spla.eigsh

        def perturbing_one(*args, **kwargs):
            w, V = eigsh(*args, **kwargs)
            V = V.copy()
            V[0, np.argsort(w)[5]] += 1e-3
            return w, V

        monkeypatch.setattr(bd.spla, "eigsh", perturbing_one)
        with pytest.raises(bd.SpectrumError, match="mode 5 has residual .* above "
                                                   "EIG_RESIDUAL_TOL"):
            bd.build_surface_spectrum(shapes.icosphere(2), 16)

    def test_mode_residual_is_scale_free(self):
        # mu ~ 1/r^2 and D ~ r^2 while the cotangent S does not scale, so
        # |S x - mu D x| grows like |x| ~ 1/r: unscaled, mode 114 read 6.4e-8
        # at r = 1e-5 and raised
        radius = 1e-5
        spec = bd.build_surface_spectrum(shapes.icosphere(4, radius=radius), 200)
        assert spec.residuals.max() <= 1e-12
        assert spec.mu[1] * radius ** 2 == pytest.approx(2.0, rel=0.01)

    def test_large_surface_shifts_the_lowest_window_at_its_midpoint(self):
        # a fixed shift of -1e-2 clustered the lowest window's mu ~ 1/r^2 in
        # shift-invert: at r = 1e4 mode 39 read residual 1.05e-7 and raised
        radius = 1e4
        spec = bd.build_surface_spectrum(shapes.icosphere(4, radius=radius), 200)
        assert spec.residuals.max() <= 1e-12
        assert spec.mu[1] * radius ** 2 == pytest.approx(2.0, rel=1e-6)

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
            assert rq == pytest.approx(circle_spec.mu[n - 1] + 1.0, rel=1e-4)


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
