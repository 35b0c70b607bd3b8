import json

import numpy as np
import pytest

from acouz import boundary as bd
from acouz import fgf
from acouz import impedance as imp
from acouz import multipliers as mp
from acouz.config import ConfigError


def parsed(config):
    """``config`` read as an impedance block (``param_block``)."""
    return imp.param_block({"impedance": config}, "impedance")


def random_impedance_matrix(n, rng, accretive):
    """Accretive by construction (G*G Hermitian part) or with a planted
    negative direction of size -1/2."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = rng.standard_normal((n, n))
    S = S + S.T
    H = G.conj().T @ G / n
    if not accretive:
        w, V = np.linalg.eigh(H)
        w[0] = -0.5
        H = (V * w) @ V.conj().T
    return H + 1j * S / np.sqrt(n)


class TestConstruction:
    def test_multiplier_kind_unit_weights(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        Z = imp.multiplier_impedance(one, 24, tensor=circle_tensor)
        A = mp.build_multiplier(one, 0.0, 0.0, 24, tensor=circle_tensor)
        assert np.array_equal(Z.matrix, A.matrix)

    def test_symbol_kind_diagonal(self, circle_spec):
        Z = imp.symbol_impedance(circle_spec, 12, c1=2.0, c2=3.0, t=0.5, sign=-1)
        expect = -3.0 * (circle_spec.mu[:12] + 2.0) ** 0.25
        assert np.allclose(np.diag(Z.matrix), expect)
        assert np.count_nonzero(Z.matrix - np.diag(np.diag(Z.matrix))) == 0

    def test_matrix_kind_validation(self, circle_spec):
        with pytest.raises(bd.SpectrumError):
            imp.matrix_impedance(circle_spec, np.ones((3, 4)))

    def test_json_dict_roundtrip(self, circle_spec):
        # the coefficient lists of a `multiplier` config
        d = json.loads(json.dumps({"kind": "multiplier", "coeffs_re": [1.0, 0.0],
                                   "coeffs_im": [2.0, -0.5]}))
        back = imp.phi_from_config(circle_spec, parsed(d))
        assert np.array_equal(back.coeffs, np.array([1 + 2j, -0.5j]))

    @pytest.mark.parametrize("config", [
        {"kind": "bogus"},
        {"kind": "multiplier", "coeffs_re": [1.0] * 70, "coeffs_im": [0.0] * 70},
        {"kind": "multiplier", "coeffs_re": [1.0, 0.0, 0.0], "coeffs_im": [0.0, 0.0]},
        {"kind": "cantor", "ratio": 0.5},
        {"kind": "cantor", "component": 1},
        {"kind": "symbol", "c1": -1.0, "c2": 1.0, "t": 1.0},
        {"kind": "symbol", "c1": 0.0, "c2": 1.0, "t": -1.0},
        {"kind": "matrix", "re": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        {"kind": "matrix", "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[1.0, 2.0]]},
    ], ids=["kind", "coeffs_past_spectrum", "coeffs_unequal", "cantor_ratio",
            "cantor_component", "symbol_shift", "symbol_zero_shift_negative_t",
            "matrix_not_square", "matrix_im_shape"])
    def test_build_applies_the_config_check(self, circle_spec, config):
        # a block is parsed once, and impedance_from_config runs
        # check_impedance_config on the parse: what validate rejects never builds
        with pytest.raises(bd.SpectrumError):
            imp.check_impedance_config(parsed(config), 4, circle_spec.count,
                                       circle_spec.geometry)
        with pytest.raises(bd.SpectrumError):
            imp.impedance_from_config(circle_spec, parsed(config), N_trunc=4)

    def test_phi_block_defaults_to_cantor(self):
        assert imp.param_block({"phi": {"ratio": 0.25}}, "phi") == imp.ParamBlock(
            "cantor", (0.25, 0, 1 + 0j))
        assert imp.param_block({}, "impedance") == imp.ParamBlock("zero", None)
        with pytest.raises(bd.SpectrumError):
            imp.param_block({"phi": {"kind": "symbol", "c1": 1, "c2": 1, "t": 1}}, "phi")

    def test_config_round_trip(self, circle_spec):
        Z = imp.impedance_from_config(circle_spec, parsed({"kind": "constant", "z0": 2.0}),
                                      N_trunc=8)
        assert np.allclose(Z.matrix, 2.0 * np.eye(8))
        Z = imp.impedance_from_config(circle_spec,
                                      parsed({"kind": "symbol", "c1": 1.0, "c2": 1.0,
                                              "t": 1.0, "imaginary": True}), N_trunc=6)
        assert np.allclose(np.diag(Z.matrix), 1j * np.sqrt(circle_spec.mu[:6] + 1))
        Z = imp.impedance_from_config(circle_spec,
                                      parsed({"kind": "symbol", "sign": -1, "imaginary": True,
                                              "c2": 2.0, "c1": 0.5, "t": 1.0}),
                                      N_trunc=4)
        assert np.allclose(np.diag(Z.matrix),
                           -2j * np.sqrt(circle_spec.mu[:4] + 0.5))
        # the string spelling "expr" is gone: such a config lacks c1
        with pytest.raises(ConfigError, match="c1 is required"):
            imp.impedance_from_config(circle_spec, parsed({"kind": "symbol",
                                                           "expr": "mu^2"}), N_trunc=4)


class TestSymbolShift:
    def test_zero_shift_needs_nonnegative_t(self, circle_spec):
        # every spectrum has mu = 0 modes, where (mu + 0)^(t/2) is infinite
        # for t < 0; t >= 0 at c1 = 0 stays finite
        with pytest.raises(bd.SpectrumError, match="c1 must be positive"):
            imp.symbol_impedance(circle_spec, 8, c1=0.0, c2=1.0, t=-1.0)
        for t in (0.0, 0.5):
            Z = imp.symbol_impedance(circle_spec, 8, c1=0.0, c2=1.0, t=t)
            assert np.all(np.isfinite(Z.matrix))
        Z = imp.symbol_impedance(circle_spec, 8, c1=1e-3, c2=1.0, t=-1.0)
        assert np.all(np.isfinite(Z.matrix))


class TestArithmeticDecidedWhereMade:
    """An operator is float64 unless some imaginary entry is nonzero: the
    rule ``boundary.exact_dtype`` applies it where an operator is made, in
    ``SpectralFunction`` and ``multipliers.MultiplierMatrix``, and where it is
    truncated, and every consumer reads the dtype it gets."""

    @pytest.mark.parametrize("config", [
        {"kind": "zero"},
        {"kind": "constant", "z0": 2.0},
        {"kind": "cantor", "scale_re": 2.0},
        {"kind": "multiplier", "coeffs_re": [1.0, 0.5], "coeffs_im": [0.0, 0.0]},
        {"kind": "symbol", "c1": 1.0, "c2": 1.0, "t": 0.5},
        {"kind": "symbol", "c1": 1.0, "c2": 0.0, "t": 0.5, "imaginary": True},
        {"kind": "matrix", "re": [[1.0, 2.0], [0.0, 1.0]]},
        {"kind": "matrix", "re": [[1.0, 2.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    ], ids=["zero", "constant", "cantor", "multiplier", "symbol", "symbol_zero_c2",
            "matrix", "matrix_zero_im"])
    def test_real_impedances_are_float(self, circle_spec, config):
        Z = imp.impedance_from_config(circle_spec, parsed(config), N_trunc=16)
        assert Z.matrix.dtype == np.float64

    @pytest.mark.parametrize("config", [
        {"kind": "constant", "z0": 1.0 + 0.5j},
        {"kind": "cantor", "scale_im": 1.0},
        {"kind": "multiplier", "coeffs_re": [1.0, 0.5], "coeffs_im": [0.0, 0.25]},
        {"kind": "symbol", "c1": 1.0, "c2": 1.0, "t": 0.5, "imaginary": True},
        {"kind": "matrix", "re": [[1.0, 2.0], [0.0, 1.0]], "im": [[0.0, 0.0], [1.0, 0.0]]},
    ], ids=["constant", "cantor", "multiplier", "symbol", "matrix"])
    def test_complex_impedances_are_complex(self, circle_spec, config):
        Z = imp.impedance_from_config(circle_spec, parsed(config), N_trunc=16)
        assert Z.matrix.dtype == np.complex128

    def test_cantor_compression_is_float(self, circle_spec, circle_tensor):
        phi = mp.cantor_measure_coeffs(circle_spec, 1 / 3)
        A = mp.build_multiplier(phi, 0.5, 0.5, 32, tensor=circle_tensor)
        assert phi.coeffs.dtype == A.matrix.dtype == A.weighted().dtype == np.float64
        assert bd.constant_function(circle_spec).coeffs.dtype == np.float64

    def test_real_compression_of_a_complex_phi_is_float(self, circle_spec,
                                                        circle_tensor):
        # the imaginary part sits on the last mode, frequency 32: a
        # compression to 16 modes (frequencies up to 8) never reaches it
        c = mp.cantor_measure_coeffs(circle_spec, 1 / 3).coeffs.astype(complex)
        c[-1] += 1e-3j
        phi = bd.SpectralFunction(circle_spec, c)
        assert phi.coeffs.dtype == np.complex128
        for N_trunc, dtype in ((16, np.float64), (circle_spec.count, np.complex128)):
            A = mp.build_multiplier(phi, 0.5, 0.5, N_trunc, tensor=circle_tensor)
            assert A.matrix.dtype == A.weighted().dtype == dtype

    def test_fgf_impedance_is_complex(self, circle_spec, circle_tensor):
        # zeta is real; only its i * field part makes the operator complex
        for c, dtype in ((1.0, np.complex128), (0.0, np.float64)):
            r = fgf.RandomImpedanceSpec(c=c, s=0.3, kernel_weights=(1.5,))
            zeta = fgf.sample_random_impedance(circle_spec, r, 32, seed=7)
            phi = fgf.impedance_coefficients(zeta)
            Z = imp.multiplier_impedance(phi, 16, tensor=circle_tensor)
            assert zeta.coeffs.dtype == np.float64
            assert phi.coeffs.dtype == Z.matrix.dtype == dtype

    def test_complex_typed_real_input_becomes_float(self, circle_spec):
        rng = np.random.default_rng(13)
        G = rng.standard_normal((16, 16))
        X = (G + G.T).astype(complex)
        f = bd.SpectralFunction(circle_spec, X[0])
        Z = mp.MultiplierMatrix(spectrum=circle_spec, matrix=X)
        assert f.coeffs.dtype == Z.matrix.dtype == np.float64
        assert f.coeffs.tobytes() == X[0].real.tobytes()
        assert Z.matrix.tobytes() == X.real.tobytes()
        assert Z.matrix.flags.c_contiguous


# one block of every kind, real or complex
KIND_CONFIGS = {
    "zero": {"kind": "zero"},
    "constant": {"kind": "constant", "z0": 2.0},
    "multiplier": {"kind": "multiplier", "coeffs_re": [1.0, 0.5], "coeffs_im": [0.0, 0.25]},
    "cantor": {"kind": "cantor"},
    "symbol": {"kind": "symbol", "c1": 1.0, "c2": 1.0, "t": 0.5, "imaginary": True},
    "matrix": {"kind": "matrix", "re": [[1.0, 2.0], [0.0, 1.0]],
               "im": [[0.0, 0.0], [1.0, 0.0]]},
}


@pytest.mark.parametrize("kind", imp.IMPEDANCE_KINDS)
def test_every_impedance_is_a_compression(circle_spec, kind):
    # an impedance is a MultiplierMatrix at s1 = s2 = 0: multiplier
    # positivity and accretivity are one check, and its singular values
    # are those of its matrix
    Z = imp.impedance_from_config(circle_spec, parsed(KIND_CONFIGS[kind]), N_trunc=16)
    assert isinstance(Z, mp.MultiplierMatrix) and Z.s1 == Z.s2 == 0.0
    assert mp.positivity_test(Z) == imp.is_accretive(Z)
    sv = mp.svdvals_by_block(Z.matrix)
    assert np.abs(Z.singular_values - sv).max() <= 1e-13 * max(1.0, sv[0])


class TestConjugation:
    def test_identity_conjugates_to_weights(self, circle_spec):
        Z = imp.matrix_impedance(circle_spec, np.eye(16))
        Zt = imp.conjugate_to_l2(Z)
        assert np.allclose(np.diag(Zt), (circle_spec.mu[:16] + 1.0) ** -0.5)

    def test_unit_symbol_conjugates_to_identity(self, circle_spec):
        Z = imp.symbol_impedance(circle_spec, 16, c1=1.0, c2=1.0, t=1.0)
        assert np.abs(imp.conjugate_to_l2(Z) - np.eye(16)).max() < 1e-14

    def test_congruence_preserves_inertia(self, circle_spec):
        rng = np.random.default_rng(0)
        for trial in range(100):
            Zm = random_impedance_matrix(24, rng, accretive=(trial % 2 == 0))
            Z = imp.matrix_impedance(circle_spec, Zm)
            a = imp.is_accretive(Z)["nonneg"]
            Zt = imp.conjugate_to_l2(Z)
            herm = 0.5 * (Zt + Zt.conj().T)
            b = np.linalg.eigvalsh(herm)[0] >= -mp.psd_tolerance(
                float(np.linalg.norm(Zt, 2)))
            assert a == b == (trial % 2 == 0)


class TestAccretivity:
    def test_constant_accretive(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        res = imp.is_accretive(imp.multiplier_impedance(one, 16, tensor=circle_tensor))
        assert res["nonneg"] and res["min_eig"] == pytest.approx(1.0)

    def test_imaginary_symbol_accretive_zero_herm(self, circle_spec):
        Z = imp.symbol_impedance(circle_spec, 16, c1=1.0, c2=1.0, t=1.0,
                                 imaginary=True)
        res = imp.is_accretive(Z)
        assert res["nonneg"] and res["min_eig"] == 0.0

    def test_cantor_multiplier_accretive(self, circle_spec, circle_tensor):
        phi = mp.cantor_measure_coeffs(circle_spec, 1 / 3)
        Z = imp.multiplier_impedance(phi, 20, tensor=circle_tensor)
        assert imp.is_accretive(Z, tol=1e-8)["nonneg"]


class TestNaturalAdjoint:
    """The natural adjoint w.r.t. the boundary pairing is the conjugate
    transpose of Zhat; these are its closed forms per recipe."""

    def test_real_multiplier_selfadjoint_matrix(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(1)
        phi = bd.SpectralFunction(circle_spec, rng.standard_normal(24))
        Z = imp.multiplier_impedance(phi, 16, tensor=circle_tensor)
        assert np.array_equal(Z.matrix.conj().T, Z.matrix)

    def test_imaginary_symbol_antisymmetric(self, circle_spec):
        Z = imp.symbol_impedance(circle_spec, 12, c1=0.5, c2=2.0, t=0.8,
                                 imaginary=True)
        assert np.abs(Z.matrix.conj().T + Z.matrix).max() < 1e-15

    def test_multiplier_adjoint_is_conj_phi(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        Z = imp.multiplier_impedance(bd.SpectralFunction(circle_spec, c), 16,
                                     tensor=circle_tensor)
        direct = imp.multiplier_impedance(bd.SpectralFunction(circle_spec, np.conj(c)),
                                          16, tensor=circle_tensor)
        assert np.array_equal(Z.matrix.conj().T, direct.matrix)


class TestSelfadjointness:
    def test_fgf_multiplier_selfadjoint(self, circle_spec, circle_tensor):
        coeffs = fgf.sample_fgf(circle_spec, 0.5, 32, seed=6)
        phi = bd.SpectralFunction(circle_spec, 1j * 2.0 * coeffs)
        Z = imp.multiplier_impedance(phi, 24, tensor=circle_tensor)
        assert imp.selfadjointness_criterion(Z)

    def test_constant_not_selfadjoint(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        assert not imp.selfadjointness_criterion(
            imp.multiplier_impedance(one, 16, tensor=circle_tensor))

    def test_zero_selfadjoint(self, circle_spec):
        assert imp.selfadjointness_criterion(imp.zero_impedance(circle_spec, 16))


class TestCayley:
    def test_zero_gives_minus_identity(self, circle_spec):
        cp = imp.cayley(imp.zero_impedance(circle_spec, 16))
        assert np.abs(cp.K + np.eye(16)).max() < 1e-14
        assert cp.norm_K == pytest.approx(1.0)

    def test_unit_symbol_gives_zero(self, circle_spec):
        Z = imp.symbol_impedance(circle_spec, 16, c1=1.0, c2=1.0, t=1.0)
        cp = imp.cayley(Z)
        assert np.abs(cp.K).max() < 1e-14

    def test_contraction_iff_accretive_and_roundtrip(self, circle_spec):
        rng = np.random.default_rng(4)
        for trial in range(100):
            acc = trial % 2 == 0
            Zm = random_impedance_matrix(32, rng, accretive=acc)
            cp = imp.cayley(imp.matrix_impedance(circle_spec, Zm))
            assert (cp.norm_K <= 1 + imp.CAYLEY_CONTRACTION_SLACK) == acc
            back = imp.inverse_cayley(cp.K)
            rel = np.linalg.norm(back - cp.Z_tilde, 2) \
                / max(1.0, np.linalg.norm(cp.Z_tilde, 2))
            assert rel <= 1e-10

    def test_adjoint_compatibility(self, circle_spec):
        # Cayley of the adjoint is the adjoint of the Cayley, unconditionally
        rng = np.random.default_rng(5)
        Zm = random_impedance_matrix(20, rng, accretive=True)
        K1 = imp.cayley(imp.matrix_impedance(circle_spec, Zm.conj().T)).K
        K2 = imp.cayley(imp.matrix_impedance(circle_spec, Zm)).K.conj().T
        assert np.abs(K1 - K2).max() < 1e-11

    def test_singular_shift_reported(self, circle_spec):
        # kernel mode has conjugation weight 1, so Zhat = -1 puts the
        # eigenvalue -1 obstruction exactly on Ztilde + I
        with pytest.raises(bd.SpectrumError):
            imp.cayley(imp.matrix_impedance(circle_spec, np.array([[-1.0]])))

