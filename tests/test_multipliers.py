import json
import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest

from acouz import boundary as bd
from acouz import harness
from acouz import impedance as imp
from acouz import multipliers as mp
from acouz import shapes

import oracles
from oracles import dirac_coeffs, quadrature_contract, unit_mode
from studies import LqEmbeddingQuery, lq_embedding_case

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fejer_riesz_positive(spec, deg, rng):
    """phi = |q|^2 for a random trig polynomial q: nonnegative by
    construction, coefficients taken by exact grid projection."""
    L = spec.geometry.component_measures.sum()
    grid = oracles.curve_grid(spec)
    s = grid.arclength
    a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    q = np.zeros_like(s, dtype=complex)
    for j, aj in enumerate(a):
        q += aj * np.exp(2j * np.pi * j * s / L)
    vals = np.abs(q) ** 2
    return bd.SpectralFunction(spec, grid.coeffs(vals)), vals


def random_coeffs(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def two_circles_spec(N):
    comps = (shapes.scaled_circle_by_perimeter(2 * np.pi).components[0],
             shapes.scaled_circle_by_perimeter(3.0).components[0] + 10.0)
    return bd.build_curve_spectrum(
        bd.BoundaryGeometry(dim_ambient=2, components=comps), N)


def mean_zero_oscillation(spec, rng, band=12):
    c = np.zeros(spec.count, dtype=complex)
    c[spec.b0:spec.b0 + band] = rng.standard_normal(band)
    return bd.SpectralFunction(spec, c)


@pytest.fixture(scope="module")
def cantor_400(circle_spec_400):
    return mp.cantor_measure_coeffs(circle_spec_400, 1 / 3)


@pytest.fixture(scope="module", params=["icosphere3", "two_spheres2"])
def small_surface_spec(request):
    geom = {"icosphere3": shapes.icosphere(3),
            "two_spheres2": oracles.two_spheres(2)}[request.param]
    return bd.build_surface_spectrum(geom, 32)


@pytest.fixture
def svd_calls(monkeypatch):
    """Record the dtype of every array passed to np.linalg.svd, also by
    np.linalg.norm(x, 2), which calls svd through its own module's globals."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.asarray(a).dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setitem(getattr(svd, "__wrapped__", svd).__globals__, "svd", counting)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """Record (name, dtype, size) of every np.linalg.svd and
    np.linalg.eigvalsh call on a square matrix of that size."""
    calls = []
    for name in ("svd", "eigvalsh"):
        fn = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _fn=fn, **kwargs):
            calls.append((_name, np.asarray(a).dtype, len(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestBuildMultiplier:
    def test_identity(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 32, tensor=circle_tensor)
        assert np.abs(A.matrix - np.eye(32)).max() < 1e-14

    def test_identity_two_components(self):
        spec = two_circles_spec(24)
        tensor = mp.TripleProductTensor(spec)
        A = mp.build_multiplier(bd.constant_function(spec), 0.5, 0.5, 12,
                                tensor=tensor)
        assert np.abs(A.matrix - np.eye(12)).max() < 1e-14
        # random phi: the quadrature oracle, and exactly zero blocks between
        # modes of different components
        c = random_coeffs(np.random.default_rng(6), spec.count)
        A = tensor.contract(c, spec.count)
        assert np.abs(A - quadrature_contract(spec, c, spec.count)).max() < 1e-12
        cross = spec.mode_comp[:, None] != spec.mode_comp[None, :]
        assert cross.any() and np.all(A[cross] == 0.0)

    def test_mode_multiplier_vs_quadrature(self, circle_spec, circle_tensor,
                                           disk_setup):
        phi = unit_mode(circle_spec, 2)
        A = mp.build_multiplier(phi, 0.5, 0.5, 20, tensor=circle_tensor)
        quad = quadrature_contract(circle_spec, phi.coeffs, 20)
        assert np.abs(A.matrix - quad).max() < 1e-13
        # random complex phi at N_trunc = count, where sum frequencies leave
        # the stored modes and must drop out (the disk boundary spectrum ends
        # on a cos mode without its sin partner), and phi shorter than N_trunc
        rng = np.random.default_rng(4)
        disk_spec = disk_setup[1]
        for spec, n_c, N_trunc in ((circle_spec, circle_spec.count, circle_spec.count),
                                   (disk_spec, disk_spec.count, disk_spec.count),
                                   (disk_spec, 10, 40)):
            c = random_coeffs(rng, n_c)
            A = mp.TripleProductTensor(spec).contract(c, N_trunc)
            assert np.abs(A - quadrature_contract(spec, c, N_trunc)).max() < 1e-12

    def test_linearity_in_phi(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(0)
        c1 = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        c2 = rng.standard_normal(30)
        f = lambda c: mp.build_multiplier(
            bd.SpectralFunction(circle_spec, c), 0.5, 0.5, 16,
            tensor=circle_tensor).matrix
        assert np.allclose(f(2.0 * c1 + c2), 2.0 * f(c1) + f(c2), atol=1e-13)

    def test_dirac_rank_one_exact(self, circle_spec, circle_tensor):
        s0 = 1.234
        phi = dirac_coeffs(circle_spec, 0, s0)
        A = mp.build_multiplier(phi, 0.5, 0.5, 16, tensor=circle_tensor)
        y = oracles.curve_mode_values(circle_spec, 0, [s0])[:16, 0]
        assert np.abs(A.matrix - np.outer(y, y)).max() < 1e-13

    def test_truncation_guard(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        with pytest.raises(bd.SpectrumError):
            mp.build_multiplier(one, 0.5, 0.5, circle_spec.count + 1,
                                tensor=circle_tensor)

    def test_adjoint_symmetry_exact(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        phi = bd.SpectralFunction(circle_spec, c)
        A = mp.build_multiplier(phi, 0.5, 0.5, 20, tensor=circle_tensor)
        Ac = mp.build_multiplier(bd.SpectralFunction(circle_spec, np.conj(c)),
                                 0.5, 0.5, 20, tensor=circle_tensor)
        assert np.array_equal(Ac.matrix, A.matrix.conj().T)

    def test_real_phi_gives_real_symmetric(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(8)
        phi = bd.SpectralFunction(circle_spec, rng.standard_normal(30))
        A = mp.build_multiplier(phi, 0.5, 0.5, 20, tensor=circle_tensor).matrix
        assert np.abs(A.imag).max() == 0.0
        assert np.array_equal(A, A.T)

    def test_surface_multiplier_identity(self, sphere_spec):
        # lumped-mass modes: identity up to the lumped/consistent mismatch
        tensor = mp.TripleProductTensor(sphere_spec)
        one = bd.constant_function(sphere_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 10, tensor=tensor)
        assert np.abs(A.matrix - np.eye(10)).max() < 2e-2
        # consistent-mass modes: the P1 vertex formula integrates products
        # of three P1 functions exactly, so the identity is recovered to
        # solver precision
        spec_c = oracles.consistent_mass_spectrum(shapes.icosphere(3), 10)
        Ac = mp.build_multiplier(bd.constant_function(spec_c), 0.5, 0.5, 10,
                                 tensor=mp.TripleProductTensor(spec_c))
        assert np.abs(Ac.matrix - np.eye(10)).max() < 1e-9

    def test_surface_tensor_symmetric(self, sphere_spec):
        # G[k, m, n] = contract(e_k)[m, n] under cyclic permutations
        tensor = mp.TripleProductTensor(sphere_spec)
        e = np.eye(sphere_spec.count)
        vals = [tensor.contract(e[2], 8)[5, 7], tensor.contract(e[5], 8)[7, 2],
                tensor.contract(e[7], 8)[2, 5]]
        assert np.ptp(np.real(vals)) < 1e-15 and not np.any(np.imag(vals))

    @pytest.mark.parametrize("phi_kind", ["real", "complex"])
    def test_surface_contract_matches_quadrature(self, small_surface_spec, phi_kind):
        # the assembled Y M_phi Y^T against the six-point rule, which is exact
        # on the same cubic products, with phi and N_trunc shorter than N
        spec = small_surface_spec
        rng = np.random.default_rng(7)
        c = (rng.standard_normal(30) if phi_kind == "real"
             else random_coeffs(rng, 30))
        A = mp.TripleProductTensor(spec).contract(c, 24)
        ref = oracles.quadrature_surface_contract(spec, c, 24)
        assert A.shape == (24, 24) and np.isrealobj(A) == np.isrealobj(c)
        assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()
        # symmetric (complex-symmetric) to the bit, as M_phi is
        assert np.array_equal(A, A.T)

    def test_surface_contract_peak_memory(self):
        # no table of the modes at quadrature points: six per triangle would
        # take N x 6 n_tri doubles, 63 MB here, where the assembly peaks at 6 MB
        spec = bd.build_surface_spectrum(shapes.icosphere(4), 256)
        c = np.random.default_rng(3).standard_normal(spec.count)
        tracemalloc.start()
        try:
            mp.TripleProductTensor(spec).contract(c, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_kernel_row_reproduces_identity(self, circle_spec, circle_tensor):
        # sum over kernel modes weighted by sqrt(measure) gives delta_mn
        L = circle_spec.geometry.component_measures.sum()
        G0 = circle_tensor.contract(np.eye(circle_spec.count)[0], 5)
        for m, n in [(1, 1), (3, 3), (2, 5)]:
            val = math.sqrt(L) * G0[m - 1, n - 1].real
            assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-14)


class TestNormsAndCompactness:
    def test_identity_norm_is_one(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 32, tensor=circle_tensor)
        assert mp.multiplier_norm(A) == pytest.approx(1.0, abs=1e-12)

    def test_norm_scaling(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(1)
        phi = bd.SpectralFunction(circle_spec, rng.standard_normal(30))
        A = mp.build_multiplier(phi, 0.5, 0.5, 20, tensor=circle_tensor)
        A3 = mp.build_multiplier(-3.0 * phi, 0.5, 0.5, 20, tensor=circle_tensor)
        assert mp.multiplier_norm(A3) == pytest.approx(3 * mp.multiplier_norm(A))

    def test_symmetric_exponent_equality(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(2)
        phi = bd.SpectralFunction(circle_spec, rng.standard_normal(30))
        n1 = mp.multiplier_norm(mp.build_multiplier(phi, 0.3, 0.8, 24,
                                                    tensor=circle_tensor))
        n2 = mp.multiplier_norm(mp.build_multiplier(phi, 0.8, 0.3, 24,
                                                    tensor=circle_tensor))
        assert n1 == pytest.approx(n2, rel=1e-12)

    def test_norm_monotone_with_weight_ratio_bound(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(3)
        phi = bd.SpectralFunction(circle_spec, rng.standard_normal(40))
        s1, s2, t1, t2 = 0.25, 0.4, 0.5, 0.9
        As = mp.build_multiplier(phi, s1, s2, 24, tensor=circle_tensor)
        At = mp.build_multiplier(phi, t1, t2, 24, tensor=circle_tensor)
        w = lambda t: bd.ht_weights(circle_spec, t)[:24]
        C = np.max(w(-t2) / w(-s2)) * np.max(w(-t1) / w(-s1))
        assert mp.multiplier_norm(At) <= C * mp.multiplier_norm(As) + 1e-12

    def test_diagonal_profile_closed_form(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 32, tensor=circle_tensor)
        prof = mp.compactness_profile(A, [1, 4, 16, 32])
        w = np.sort(bd.ht_weights(circle_spec, -0.5)[:32]
                    / bd.ht_weights(circle_spec, 0.5)[:32])[::-1]
        assert np.allclose(prof, w[[0, 3, 15, 31]])
        # sigma_k ~ mu_k^{-1/2} decay: compact indicator
        assert prof[-1] < 0.1 * prof[0]

    def test_identity_weights_not_compact(self, circle_spec):
        A = mp.MultiplierMatrix(spectrum=circle_spec, matrix=np.eye(32),
                                s1=0.0, s2=0.0)
        prof = mp.compactness_profile(A, [1, 32])
        assert prof[1] == pytest.approx(prof[0])

    def test_rough_distribution_compact_profile(self, circle_spec, circle_tensor):
        # coefficients of an H^{-s} distribution with s < 1/2: xi mu^{s/2-...}
        # modeled deterministically as c_n = mu_n^{0.2/2} (in H^{-0.2-eps})
        c = np.ones(circle_spec.count)
        c[circle_spec.b0:] = circle_spec.mu[circle_spec.b0:] ** 0.1
        phi = bd.SpectralFunction(circle_spec, c)
        A = mp.build_multiplier(phi, 0.5, 0.5, 48, tensor=circle_tensor)
        prof = mp.compactness_profile(A, [1, 8, 32, 48])
        assert prof[-1] < 0.2 * prof[0]

    def test_rank_validation(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 8, tensor=circle_tensor)
        with pytest.raises(bd.SpectrumError):
            mp.compactness_profile(A, [9])


def curve_geometry(components):
    """Closed curves of perimeters 2 pi, 3 and 5.5: the first ``components``."""
    comps = tuple(shapes.scaled_circle_by_perimeter(perimeter).components[0] + 10.0 * j
                  for j, perimeter in enumerate((2 * np.pi, 3.0, 5.5)[:components]))
    return bd.BoundaryGeometry(dim_ambient=2, components=comps)


class TestBlockContraction:
    """The Toeplitz-plus-Hankel curve contraction against the pairwise one."""

    # a spectrum holds at least one mode per component
    @pytest.mark.parametrize("components, N", [
        (k, N) for k in (1, 2, 3) for N in (1, 2, 3, 7, 8, 40, 41, 131) if N >= k])
    def test_byte_equal_to_pairwise_oracle(self, components, N):
        spec = bd.build_curve_spectrum(curve_geometry(components), N)
        tensor = mp.TripleProductTensor(spec)
        rng = np.random.default_rng(N)
        short = max(1, N // 3)
        coeffs = {"real": rng.standard_normal(N),
                  "complex": random_coeffs(rng, N),
                  "short_real": rng.standard_normal(short),
                  "short_complex": random_coeffs(rng, short)}
        for N_trunc in sorted({1, 2, 3, N // 2, N} & set(range(1, N + 1))):
            for name, c in coeffs.items():
                A = tensor.contract(c, N_trunc)
                ref = oracles.pairwise_curve_contract(tensor, c, N_trunc)
                if np.isrealobj(c):     # a real phi builds in real arithmetic
                    assert np.all(ref.imag == 0.0), (name, N_trunc)
                    ref = ref.real
                assert A.tobytes() == ref.tobytes(), (name, N_trunc)

    def test_peak_memory_of_contract(self, unit_circle_geom):
        # the pairwise build peaked at 4.7 A.nbytes
        spec = bd.build_curve_spectrum(unit_circle_geom, 1134)
        tensor = mp.TripleProductTensor(spec)
        c = mp.cantor_measure_coeffs(spec, 1 / 3).coeffs
        tracemalloc.start()
        try:
            A = tensor.contract(c, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * A.nbytes


def parity_calls(name, dtype, N):
    """The solves of a Cantor compression of even size N on the circle: one
    per parity block, the constant and cosines first, then the sines."""
    return [(name, dtype, N // 2 + 1), (name, dtype, N // 2 - 1)]


class TestSingularValues:
    """One solve per irreducible block larger than 1x1 of each compression
    (the Cantor phi is even, so its compression splits by parity), real when
    phi is real, and a symmetric eigensolve when the weighted compression is
    Hermitian."""

    @pytest.mark.parametrize("N_trunc", [64, 128])
    @pytest.mark.parametrize("s1, s2", [(0.5, 0.5), (0.3, 0.8)])
    def test_real_path_matches_complex_svd(self, cantor_400, N_trunc, s1, s2,
                                           solve_calls):
        A = mp.build_multiplier(cantor_400, s1, s2, N_trunc)
        sv = A.singular_values
        assert solve_calls == parity_calls("eigvalsh" if s1 == s2 else "svd",
                                           np.float64, N_trunc)
        ref = np.linalg.svd(A.weighted().astype(complex), compute_uv=False)
        assert np.abs(sv - ref).max() <= 1e-13 * ref[0]

    @pytest.mark.parametrize("N_trunc", [256, 400])
    def test_eigvalsh_path_matches_svd_at_large_truncation(self, cantor_400, N_trunc):
        A = mp.build_multiplier(cantor_400, 0.5, 0.5, N_trunc)
        ref = np.linalg.svd(A.weighted().astype(complex), compute_uv=False)
        assert np.abs(A.singular_values - ref).max() <= 1e-13 * ref[0]

    def test_complex_phi_keeps_complex_arithmetic(self, circle_spec, circle_tensor,
                                                  svd_calls):
        phi = 1j * unit_mode(circle_spec, 4)
        A = mp.build_multiplier(phi, 0.5, 0.3, 32, tensor=circle_tensor)
        sv = A.singular_values
        assert svd_calls and set(svd_calls) == {np.dtype(complex)}
        ref = np.linalg.svd(A.weighted(), compute_uv=False)
        assert np.abs(sv - ref).max() <= 1e-13 * ref[0]

    def test_norm_and_profile_share_one_solve(self, cantor_400, solve_calls):
        A = mp.build_multiplier(cantor_400, 0.5, 0.5, 64)
        norm = mp.multiplier_norm(A)
        prof = mp.compactness_profile(A, [1, 8, 64])
        assert solve_calls == parity_calls("eigvalsh", np.float64, 64)
        assert prof[0] == norm

    @pytest.mark.parametrize("imaginary, s1, s2", [(False, 0.3, 0.8),
                                                   (True, 0.5, 0.5)],
                             ids=["unequal_exponents", "non_hermitian"])
    def test_one_svd_unless_hermitian_congruence(self, cantor_400, imaginary, s1, s2,
                                                 solve_calls):
        phi = 1j * cantor_400 if imaginary else cantor_400
        A = mp.build_multiplier(phi, s1, s2, 64)
        norm = mp.multiplier_norm(A)
        prof = mp.compactness_profile(A, [1, 8, 64])
        dtype = np.complex128 if imaginary else np.float64
        assert solve_calls == parity_calls("svd", dtype, 64)
        assert prof[0] == norm

    def test_positivity_takes_no_svd_on_real_phi(self, cantor_400, circle_spec,
                                                 circle_tensor, svd_calls):
        mp.positivity_test(mp.build_multiplier(cantor_400, 0.0, 0.0, 64))
        assert svd_calls == []
        mp.positivity_test(mp.build_multiplier(1j * unit_mode(circle_spec, 3),
                                               0.0, 0.0, 16, tensor=circle_tensor))
        assert svd_calls and set(svd_calls) == {np.dtype(complex)}

    def test_positivity_takes_no_svd_on_real_surface_phi(self, small_surface_spec,
                                                        svd_calls):
        c = np.random.default_rng(5).standard_normal(32)
        mp.positivity_test(mp.build_multiplier(bd.SpectralFunction(small_surface_spec, c),
                                               0.0, 0.0, 32))
        assert svd_calls == []

    def test_benchmark_profile_solves_parity_blocks(self, tmp_path, solve_calls):
        # the multiplier_profile config of the benchmark: each truncation's
        # norm and profile, then the positivity test at the smallest one,
        # solve the two parity blocks and nothing larger
        config = {"experiment": "multiplier_profile",
                  "geometry": {"kind": "circle", "segments": 256},
                  "params": {"phi": {"kind": "cantor"}, "truncations": [256, 512]}}
        manifest = harness.run(harness.ExperimentConfig.from_dict(config),
                               str(tmp_path))
        assert manifest.passed, manifest.assertions
        assert solve_calls == (2 * parity_calls("eigvalsh", np.float64, 256)
                               + parity_calls("eigvalsh", np.float64, 512))


def random_blocks(rng, sizes, hermitian=False):
    """A complex matrix, irreducible blocks of ``sizes`` on the diagonal,
    its rows and columns shuffled alike; the blocks as index vectors."""
    n = sum(sizes)
    perm = rng.permutation(n)
    X = np.zeros((n, n), dtype=complex)
    blocks, start = [], 0
    for size in sizes:
        b = np.sort(perm[start:start + size])
        G = random_coeffs(rng, (size, size))
        X[np.ix_(b, b)] = G + G.conj().T if hermitian else G
        blocks.append(b)
        start += size
    return X, sorted(blocks, key=lambda b: b[0])


def same_blocks(got, want):
    return [b.tolist() for b in got] == [b.tolist() for b in want]


class TestDiagonalBlocks:
    """Each solve split by exact zeros gives the values of one solve on the
    whole matrix, within 1e-13 of the largest."""

    @staticmethod
    def assert_close(values, ref):
        assert values.shape == ref.shape
        assert np.abs(values - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_two_circles_split_by_component(self, solve_calls):
        spec = two_circles_spec(48)
        rng = np.random.default_rng(21)
        phi = bd.SpectralFunction(spec, rng.standard_normal(spec.count) + 0j)
        A = mp.build_multiplier(phi, 0.5, 0.5, spec.count)
        comps = [np.flatnonzero(spec.mode_comp == j) for j in range(2)]
        assert same_blocks(mp.diagonal_blocks(A.matrix),
                           sorted(comps, key=lambda b: b[0]))
        sv = A.singular_values
        assert sorted(size for _, _, size in solve_calls) == sorted(
            b.size for b in comps)
        self.assert_close(sv, np.linalg.svd(A.weighted(), compute_uv=False))

    def test_cantor_splits_by_parity(self, cantor_400):
        spec = cantor_400.spectrum
        N = 96
        A = mp.build_multiplier(cantor_400, 0.3, 0.8, N)
        kind = spec.mode_kind[:N]
        blocks = mp.diagonal_blocks(A.matrix)
        assert same_blocks(blocks, [np.flatnonzero(kind != bd.KIND_SIN),
                                    np.flatnonzero(kind == bd.KIND_SIN)])
        assert [b.size for b in blocks] == [N // 2 + 1, N // 2 - 1]
        self.assert_close(A.singular_values,
                          np.linalg.svd(A.weighted(), compute_uv=False))
        X = A.matrix.real
        self.assert_close(mp.eigvalsh_by_block(X), np.linalg.eigvalsh(X))

    @pytest.mark.parametrize("imaginary", [False, True])
    def test_diagonal_symbol_takes_no_lapack_call(self, circle_spec, imaginary,
                                                  solve_calls):
        Z = imp.symbol_impedance(circle_spec, 16, c1=1.0, c2=1.0, t=1.0,
                                 imaginary=imaginary)
        g = Z.matrix.diagonal()
        assert same_blocks(mp.diagonal_blocks(Z.matrix),
                           [np.array([i]) for i in range(16)])
        check = imp.is_accretive(Z)
        sv = Z.singular_values
        assert solve_calls == []
        assert np.array_equal(sv, np.sort(np.abs(g))[::-1])
        assert (check["min_eig"], check["max_eig"]) == (g.real.min(), g.real.max())
        assert check["norm"] == np.abs(g).max()

    def test_random_complex_phi_is_one_block(self, circle_spec, circle_tensor,
                                             solve_calls):
        rng = np.random.default_rng(22)
        phi = bd.SpectralFunction(circle_spec, random_coeffs(rng, circle_spec.count))
        A = mp.build_multiplier(phi, 0.5, 0.3, 40, tensor=circle_tensor)
        assert len(mp.diagonal_blocks(A.matrix)) == 1
        sv = A.singular_values
        assert solve_calls == [("svd", np.complex128, 40)]
        assert np.array_equal(sv, np.linalg.svd(A.weighted(), compute_uv=False))

    @pytest.mark.parametrize("sizes", [[1, 5, 12, 1, 9], [30], [1, 1, 1]])
    def test_unequal_exponents_take_the_svd_path(self, circle_spec, sizes,
                                                 solve_calls):
        X, blocks = random_blocks(np.random.default_rng(23), sizes)
        assert same_blocks(mp.diagonal_blocks(X), blocks)
        A = mp.MultiplierMatrix(circle_spec, X, 0.3, 0.8)
        sv = A.singular_values
        assert solve_calls == [("svd", np.complex128, b.size) for b in blocks
                               if b.size > 1]
        self.assert_close(sv, np.linalg.svd(A.weighted(), compute_uv=False))

    def test_non_hermitian_hermitian_check(self):
        X, _ = random_blocks(np.random.default_rng(24), [7, 1, 13, 4])
        H = 0.5 * (X + X.conj().T)
        eigs = np.linalg.eigvalsh(H)
        norm = np.linalg.svd(X, compute_uv=False)[0]
        check = mp.hermitian_check(X)
        self.assert_close(np.array([check["min_eig"], check["max_eig"]]),
                          eigs[[0, -1]])
        assert abs(check["norm"] - norm) <= 1e-13 * norm
        self.assert_close(mp.eigvalsh_by_block(H), eigs)

    def test_hermitian_blocks(self):
        X, blocks = random_blocks(np.random.default_rng(25), [6, 1, 11], hermitian=True)
        assert same_blocks(mp.diagonal_blocks(X), blocks)
        self.assert_close(mp.eigvalsh_by_block(X), np.linalg.eigvalsh(X))

    @pytest.mark.parametrize("upper", [True, False])
    def test_block_triangular_is_not_split(self, upper):
        # [[P, Q], [0, R]] and [[P, 0], [Q, R]] have the singular values of
        # neither P nor R: the pattern symmetrized with its transpose keeps
        # each one block
        rng = np.random.default_rng(26)
        X = random_coeffs(rng, (12, 12))
        X[6:, :6] = 0.0
        if not upper:
            X = X.T.copy()
        assert same_blocks(mp.diagonal_blocks(X), [np.arange(12)])
        assert np.array_equal(mp.svdvals_by_block(X),
                              np.linalg.svd(X, compute_uv=False))
        split = np.sort(np.concatenate([np.linalg.svd(X[:6, :6], compute_uv=False),
                                        np.linalg.svd(X[6:, 6:], compute_uv=False)]))
        assert np.abs(split[::-1] - np.linalg.svd(X, compute_uv=False)).max() > 1e-3

    def test_cayley_of_a_split_impedance(self, circle_spec, circle_tensor):
        Z = imp.multiplier_impedance(mp.cantor_measure_coeffs(circle_spec, 1 / 3), 32,
                                     tensor=circle_tensor)
        cp = imp.cayley(Z)
        ref = np.linalg.svd(cp.K, compute_uv=False)[0]
        assert abs(cp.norm_K - ref) <= 1e-13 * ref
        assert len(mp.diagonal_blocks(cp.K)) == 2


def hermitian_kinds(rng, n=48):
    """A real symmetric, a complex Hermitian and a non-Hermitian matrix."""
    G = random_coeffs(rng, (n, n))
    return {"real_symmetric": G.real + G.real.T,
            "complex_hermitian": G + G.conj().T,
            "non_hermitian": G}


class TestCopyFreeHermitianTest:
    """The Hermitian test without X.conj().T gives the results of the one
    with it, byte for byte."""

    @pytest.mark.parametrize("kind", ["real_symmetric", "complex_hermitian",
                                      "non_hermitian"])
    def test_matches_conjugate_path(self, circle_spec, kind):
        X = hermitian_kinds(np.random.default_rng(11))[kind]
        for s1, s2 in ((0.5, 0.5), (0.3, 0.8)):
            A = mp.MultiplierMatrix(spectrum=circle_spec, matrix=X, s1=s1, s2=s2)
            assert (A.singular_values.tobytes()
                    == oracles.conjugate_singular_values(A).tobytes())
        assert repr(mp.hermitian_check(X)) == repr(oracles.conjugate_hermitian_check(X))

    def test_real_hermitian_part_is_solved_real(self, solve_calls):
        # S + iA with S, A real symmetric is not Hermitian, and its computed
        # Hermitian part S is real: eigvalsh runs in float64
        S, A = (G + G.T for G in np.random.default_rng(14).standard_normal((2, 24, 24)))
        X = S + 1j * A
        res = mp.hermitian_check(X)
        assert [c for c in solve_calls if c[0] == "eigvalsh"] == [
            ("eigvalsh", np.float64, 24)]
        assert repr(res) == repr(oracles.conjugate_hermitian_check(X))

    def test_one_ulp_off_is_not_hermitian(self):
        X = hermitian_kinds(np.random.default_rng(12))["complex_hermitian"]
        for part in ("real", "imag"):
            Y = X.copy()
            getattr(Y, part)[3, 5] = np.nextafter(getattr(Y, part)[3, 5], np.inf)
            assert not mp._is_hermitian(Y)
            assert repr(mp.hermitian_check(Y)) == repr(oracles.conjugate_hermitian_check(Y))
        assert mp._is_hermitian(X)


class TestPositivity:
    def test_constant_positive(self, circle_spec, circle_tensor):
        res = mp.positivity_test(mp.build_multiplier(
            bd.constant_function(circle_spec), 0.0, 0.0, 16, tensor=circle_tensor))
        assert res["nonneg"] and res["min_eig"] == pytest.approx(1.0)

    def test_mean_zero_oscillation_fails(self, circle_spec, circle_tensor):
        res = mp.positivity_test(mp.build_multiplier(
            unit_mode(circle_spec, 2), 0.0, 0.0, 16, tensor=circle_tensor))
        assert not res["nonneg"] and res["min_eig"] < -0.1

    def test_dirac_psd(self, circle_spec, circle_tensor):
        res = mp.positivity_test(mp.build_multiplier(
            dirac_coeffs(circle_spec, 0, 0.7), 0.0, 0.0, 20, tensor=circle_tensor))
        assert res["nonneg"]

    @pytest.mark.parametrize("make_z", [
        lambda spec, T: imp.multiplier_impedance(bd.constant_function(spec), 16,
                                                 tensor=T),
        lambda spec, T: imp.multiplier_impedance(unit_mode(spec, 2), 16, tensor=T),
        lambda spec, T: imp.multiplier_impedance(dirac_coeffs(spec, 0, 0.7), 20,
                                                 tensor=T),
        lambda spec, T: imp.multiplier_impedance(
            mp.cantor_measure_coeffs(spec, 1 / 3), 24, tensor=T),
        lambda spec, T: imp.multiplier_impedance(1j * unit_mode(spec, 2), 16,
                                                 tensor=T),
        lambda spec, T: imp.symbol_impedance(spec, 16, c1=1.0, c2=1.0, t=1.0,
                                             imaginary=True),
        lambda spec, T: imp.matrix_impedance(
            spec, random_coeffs(np.random.default_rng(7), (12, 12))),
    ], ids=["constant", "unit_mode", "dirac", "cantor", "imaginary",
            "imaginary_symbol", "random_matrix"])
    def test_matches_complex_hermitian_oracle(self, circle_spec, circle_tensor, make_z):
        # every caller of hermitian_check against the complex formulas it replaced
        Z = make_z(circle_spec, circle_tensor)
        X = Z.matrix
        min_eig = np.linalg.eigvalsh(0.5 * (X + X.conj().T))[0]
        norm = np.linalg.norm(X, 2)
        tol = mp.psd_tolerance(norm)
        for res in (mp.positivity_test(Z), imp.is_accretive(Z)):
            assert res["min_eig"] == pytest.approx(min_eig, abs=1e-13)
            assert res["norm"] == pytest.approx(norm, rel=1e-12)
            assert res["tol"] == pytest.approx(tol, rel=1e-12)
            assert res["nonneg"] == (min_eig >= -tol)
        assert imp.selfadjointness_criterion(Z) == (
            np.linalg.norm(X + X.conj().T, 2) <= tol)

    def test_fejer_riesz_family_psd(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(11)
        for _ in range(10):
            phi, _ = fejer_riesz_positive(circle_spec, deg=6, rng=rng)
            res = mp.positivity_test(mp.build_multiplier(phi, 0.0, 0.0, 24,
                                                         tensor=circle_tensor))
            assert res["min_eig"] >= -1e-10

    def test_toeplitz_cross_check(self, circle_spec):
        # exponential-basis multiplier matrix of a nonnegative measure is a
        # PSD Toeplitz matrix; eigenvalues agree with the real-basis compression
        rng = np.random.default_rng(13)
        phi, vals = fejer_riesz_positive(circle_spec, deg=5, rng=rng)
        L = circle_spec.geometry.component_measures.sum()
        grid = oracles.curve_grid(circle_spec)
        s, w = grid.arclength, grid.weights
        K = 8
        moments = np.array([(w * vals * np.exp(-2j * np.pi * k * s / L)).sum() / L
                            for k in range(2 * K + 1)])
        T = np.empty((2 * K + 1, 2 * K + 1), dtype=complex)
        for mm in range(2 * K + 1):
            for nn in range(2 * K + 1):
                d = mm - nn
                T[mm, nn] = moments[d] if d >= 0 else np.conj(moments[-d])
        ev_toeplitz = np.linalg.eigvalsh(T)
        assert ev_toeplitz.min() >= -1e-10
        A = mp.build_multiplier(phi, 0.0, 0.0, 2 * K + 1,
                                tensor=mp.TripleProductTensor(circle_spec))
        ev_real = np.linalg.eigvalsh(0.5 * (A.matrix + A.matrix.conj().T))
        assert np.allclose(np.sort(ev_real), np.sort(ev_toeplitz), atol=1e-10)


class TestAccretivityAgreement:
    def test_trivial_cases(self, circle_spec):
        one = bd.constant_function(circle_spec)
        assert oracles.accretivity_integral_test(one, 8, seed=0)["nonneg"]
        z = bd.SpectralFunction(circle_spec, 1j * unit_mode(circle_spec, 5).coeffs)
        assert oracles.accretivity_integral_test(z, 8, seed=0)["nonneg"]
        minus = bd.SpectralFunction(circle_spec, -one.coeffs)
        assert not oracles.accretivity_integral_test(minus, 8, seed=0)["nonneg"]

    def test_agreement_with_positivity_random(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(5)
        agree = 0
        for trial in range(40):
            c = np.zeros(circle_spec.count, dtype=complex)
            c[:24] = rng.standard_normal(24) + 1j * rng.standard_normal(24)
            if trial % 3 == 0:
                c[:24] += 4.0 * bd.constant_function(circle_spec).coeffs[:24]
            z = bd.SpectralFunction(circle_spec, c)
            a = oracles.accretivity_integral_test(z, 12, seed=trial)["nonneg"]
            b = mp.positivity_test(mp.build_multiplier(
                bd.SpectralFunction(circle_spec, c.real), 0.0, 0.0, c.size,
                tensor=circle_tensor))["nonneg"]
            agree += (a == b)
        assert agree == 40


class TestLqCases:
    def test_paper_anchor_points(self):
        assert lq_embedding_case(LqEmbeddingQuery(3, .5, .5, 2.0)) == \
            {"case": "i", "embeds": True}
        assert lq_embedding_case(LqEmbeddingQuery(2, .5, .5, 1.5)) == \
            {"case": "ii", "embeds": True}
        assert lq_embedding_case(LqEmbeddingQuery(2, 1.0, 1.0, 1.0)) == \
            {"case": "v", "embeds": True}

    def test_derived_quantities(self):
        q = LqEmbeddingQuery(3, 0.5, 1.0, 2.0)
        assert q.kappa == (0.5, 1.0)
        assert q.pi == (0.25, 0.0)
        assert q.pi0 == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            LqEmbeddingQuery(1, 0.5, 0.5, 2.0)
        with pytest.raises(ValueError):
            LqEmbeddingQuery(2, 1.5, 0.5, 2.0)
        with pytest.raises(ValueError):
            LqEmbeddingQuery(2, 0.5, 0.5, 0.5)

    def test_matches_reference_fixture(self):
        with open(os.path.join(FIXTURES, "lq_reference.json")) as f:
            rows = json.load(f)
        assert len(rows) == 200
        for row in rows:
            q = math.inf if row["q"] == "inf" else row["q"]
            got = lq_embedding_case(
                LqEmbeddingQuery(row["d"], row["s1"], row["s2"], q))
            assert got["case"] == row["case"], row
            assert got["embeds"] == (True if row["case"] != "none" else "unknown")


def mpmath_cantor_moment(r, k, factors=80):
    """(-1)^k prod_{i<80} cos(pi k (1-r) r^i) at 30 digits, for the float r."""
    with mpmath.workdps(30):
        r = mpmath.mpf(r)
        p = mpmath.fprod(mpmath.cos(mpmath.pi * k * (1 - r) * r ** i)
                         for i in range(factors))
        return float((-1) ** k * p)


def _moment_sums(x, freqs):
    """Per-frequency sums of cos, cos^2, sin and sin^2 of 2 pi k x."""
    sums = np.zeros((4, len(freqs)))
    for j, k in enumerate(freqs):
        c, sn = np.cos(2 * np.pi * k * x), np.sin(2 * np.pi * k * x)
        sums[:, j] = c.sum(), (c * c).sum(), sn.sum(), (sn * sn).sum()
    return sums


def _means_and_errors(sums, n):
    mean_c, mean_s = sums[0] / n, sums[2] / n
    se_c = np.sqrt(np.maximum(sums[1] / n - mean_c**2, 0.0) / n)
    se_s = np.sqrt(np.maximum(sums[3] / n - mean_s**2, 0.0) / n)
    return mean_c, se_c, mean_s, se_s


def plain_cantor_moments(r, freqs, n, seed, chunk=10**6):
    """Monte Carlo means and standard errors of cos and sin(2 pi k X).

    Each point X = (1-r) sum_{i<64} eps_i r^i takes its 64 fair bits from one
    random uint64, summed one byte at a time through 256-entry tables; the
    points are drawn and summed ``chunk`` at a time.
    """
    rng = np.random.default_rng(seed)
    weights = (1.0 - r) * r ** np.arange(64.0)
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    tables = [byte_bits @ weights[8 * b:8 * b + 8] for b in range(8)]
    sums = np.zeros((4, len(freqs)))
    for start in range(0, n, chunk):
        w = rng.integers(0, 2**64, size=min(chunk, n - start), dtype=np.uint64)
        octets = w.view(np.uint8).reshape(-1, 8)
        sums += _moment_sums(sum(tables[b][octets[:, b]] for b in range(8)), freqs)
    return _means_and_errors(sums, n)


def stratified_cantor_moments(r, freqs, n, seed):
    """Monte Carlo means and standard errors over a stratified Cantor sample.

    All 2^J prefixes of the first J = floor(log2 n) digits (J <= 22) appear
    once; the remaining digits, down to r^i ~ 1e-40, are random bits.  The
    standard errors are those of a plain sample, an upper bound here.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 - r
    J = max(1, min(22, int(math.floor(math.log2(max(2, n))))))
    idx = np.arange(1 << J, dtype=np.uint64)
    x = np.zeros(1 << J)
    for i in range(J):
        x += ((idx >> np.uint64(i)) & np.uint64(1)).astype(float) * (scale * r ** i)
    extra = max(8, min(48, int(math.ceil(-40.0 / math.log10(r)))))
    w = rng.integers(0, 2 ** 62, size=x.size, dtype=np.uint64)
    for i in range(extra):
        x += ((w >> np.uint64(i)) & np.uint64(1)).astype(float) * (scale * r ** (J + i))
    return _means_and_errors(_moment_sums(x, freqs), x.size)


class TestCantor:
    def test_ratio_validation(self, circle_spec):
        with pytest.raises(ValueError):
            mp.cantor_measure_coeffs(circle_spec, 0.6)

    def test_unit_mass_constant_coefficient(self, circle_spec):
        phi = mp.cantor_measure_coeffs(circle_spec, 1 / 3)
        L = circle_spec.geometry.component_measures.sum()
        assert phi.coeffs[0].real == pytest.approx(1 / np.sqrt(L), abs=1e-12)

    def test_self_similarity_non_decay(self):
        # for r = 1/3, mu(3k) = mu(k) (exact self-similarity): the moments at
        # 3^j all equal the moment at k = 1; no Rajchman decay on them
        k = np.arange(1, 190)
        assert np.abs(mp.cantor_exponential_moments(1 / 3, 3 * k)
                      - mp.cantor_exponential_moments(1 / 3, k)).max() <= 1e-13
        mo = mp.cantor_exponential_moments(1 / 3, np.array([1, 3, 9, 27, 81, 243]))
        assert np.abs(mo - 0.371437).max() < 5e-7

    @pytest.mark.parametrize("r", [0.1, 1 / 3, 0.45])
    def test_matches_mpmath_product(self, r):
        # the error grows like k * eps from rounding pi k (1-r) r^i
        k = np.unique(np.r_[0:40, np.geomspace(40, 1990, 30).astype(int), 1990:2001])
        ref = np.array([mpmath_cantor_moment(r, int(j)) for j in k])
        assert np.abs(mp.cantor_exponential_moments(r, k) - ref).max() <= 1e-12

    def test_stratified_vs_brute_force(self):
        # the two Monte Carlo oracles agree with each other and with the product
        freqs = np.array([1, 3, 9, 27])
        exact = mp.cantor_exponential_moments(1 / 3, freqs)
        a, se_a, _, _ = stratified_cantor_moments(1 / 3, freqs, 2**17, seed=1)
        b, se_b, _, _ = plain_cantor_moments(1 / 3, freqs, 2 * 10**5, seed=9)
        assert np.abs(a - b).max() < 5e-3
        assert np.all(np.abs(a - exact) <= 5 * se_a)
        assert np.all(np.abs(b - exact) <= 5 * se_b)

    @pytest.mark.slow
    def test_brute_force_oracle_ten_million(self):
        freqs = np.array([1, 3, 9, 27, 81, 243])
        exact = mp.cantor_exponential_moments(1 / 3, freqs)
        mean_c, se_c, mean_s, se_s = plain_cantor_moments(1 / 3, freqs, 10**7, seed=4)
        assert np.all(np.abs(mean_c - exact) <= 5 * se_c)
        assert np.all(np.abs(mean_s) <= 5 * se_s)
        assert np.abs(mean_c).min() > 0.3      # non-decay confirmed by brute force

    def test_positivity_of_cantor_measure(self, circle_spec, circle_tensor):
        phi = mp.cantor_measure_coeffs(circle_spec, 1 / 3)
        res = mp.positivity_test(mp.build_multiplier(phi, 0.0, 0.0, 24,
                                                     tensor=circle_tensor))
        assert res["nonneg"]

    def test_negative_frequencies_are_conjugates(self):
        # the moments are real, so the conjugate at -k is the value at k
        mo = mp.cantor_exponential_moments(1 / 3, np.array([-1, 1, 2]))
        assert mo[0] == np.conj(mo[1]) == mo[1]

    def test_branches_agree_on_mixed_signs(self):
        # one far frequency deepens the product for the whole set; the extra
        # factors round to 1 and leave the near moments as they were
        freqs = np.array([-5, -2, 0, 1, 2, 5])
        near = mp.cantor_exponential_moments(1 / 3, freqs)
        deep = mp.cantor_exponential_moments(1 / 3, np.append(freqs, 1000))[:-1]
        assert np.abs(near - deep).max() <= 1e-13
        assert np.array_equal(near, mp.cantor_exponential_moments(1 / 3, np.abs(freqs)))

    @pytest.mark.parametrize("r", [0.1, 1 / 3, 0.45])
    def test_moments_real_bounded_and_even(self, r):
        k = np.arange(-600, 601)
        mo = mp.cantor_exponential_moments(r, k)
        assert mo.dtype == np.float64 and np.abs(mo).max() <= 1.0
        assert np.array_equal(mo, mo[::-1]) and mo[600] == 1.0

    def test_sin_coefficients_are_exactly_zero(self, circle_spec_400):
        phi = mp.cantor_measure_coeffs(circle_spec_400, 0.45)
        sin = circle_spec_400.mode_kind == bd.KIND_SIN
        assert sin.any() and np.all(phi.coeffs[sin] == 0)
        assert np.all(phi.coeffs.imag == 0)

    def test_second_component_support(self):
        comps = (shapes.scaled_circle_by_perimeter(2 * np.pi).components[0],
                 shapes.scaled_circle_by_perimeter(2.0).components[0] + 8.0)
        geom = bd.BoundaryGeometry(dim_ambient=2, components=comps)
        spec = bd.build_curve_spectrum(geom, 20)
        phi = mp.cantor_measure_coeffs(spec, 1 / 3, target_component=1)
        on0 = spec.mode_comp == 0
        assert np.abs(phi.coeffs[on0]).max() == 0.0


class TestCantorPowerSums:
    """The exact moments against Monte Carlo power sums (1/n) sum_j z_j^k,
    z_j = exp(2 pi i X_j), taken one frequency at a time."""

    # from the trivial k = 0 to past the 567 moments of a 400-mode circle
    @pytest.mark.parametrize("kmax", [0, 1, 24**2 - 1, 24**2])
    @pytest.mark.parametrize("n_samples, stratified", [(2**12, True),
                                                       (10**4 + 7, False)],
                             ids=["stratified", "plain_ragged_chunk"])
    def test_matches_per_frequency_means(self, kmax, n_samples, stratified):
        freqs = np.arange(kmax + 1)
        if stratified:
            mean_c, se_c, mean_s, se_s = stratified_cantor_moments(
                1 / 3, freqs, n_samples, seed=5)
        else:
            mean_c, se_c, mean_s, se_s = plain_cantor_moments(
                1 / 3, freqs, n_samples, seed=5, chunk=1000)
        got = mp.cantor_exponential_moments(1 / 3, freqs)
        assert got[0] == mean_c[0] == 1.0
        assert np.all(np.abs(got - mean_c) <= 5 * se_c)
        assert np.all(np.abs(mean_s) <= 5 * se_s)

    @pytest.mark.parametrize("chunk", [7, 1000, 2**20])
    def test_chunk_size_does_not_matter(self, chunk):
        # the plain oracle draws the same points however it splits them
        freqs = np.array([1, 3, 9, 27, 81, 243, 567])
        ref = plain_cantor_moments(1 / 3, freqs, 10**4 + 7, seed=2)
        got = plain_cantor_moments(1 / 3, freqs, 10**4 + 7, seed=2, chunk=chunk)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-13
