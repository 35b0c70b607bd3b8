"""Boundary impedance operators Z and their operator-theoretic toolkit.

An impedance operator is realized as a matrix Zhat in the orthonormal
eigenbasis of the boundary Laplacian, built from one of three recipes:

* ``multiplier``: Zhat is the truncated multiplication matrix of a
  coefficient vector (functions, measures, distributions alike);
* ``symbol``: Zhat is diagonal, g(mu_n) for the spectral symbol
  g(mu) = [i] * sign * c2 * (mu + c1)^(t/2), realizing nonlocal impedances;
* ``matrix``: an explicit matrix.

The dissipativity theory runs through the diagonal congruence

    Ztilde = (Lam)^(-1/4) Zhat (Lam)^(-1/4),        Lam = diag(mu_n + 1),

which maps the H^{1/2} -> H^{-1/2} picture to L^2: accretivity of Zhat,
positive semidefiniteness of Herm(Ztilde), and contractivity of the Cayley
transform K = (Ztilde - I)(Ztilde + I)^(-1) are three independently
computable, provably equivalent checks.  The first two are one decision,
``multipliers.hermitian_check`` (smallest eigenvalue of the Hermitian part
against the shared PSD slack), which :func:`is_accretive`,
:func:`selfadjointness_criterion` and ``multipliers.positivity_test`` all
call; the Cayley transform is the independent third.  At finite truncation
every accretive matrix is maximal accretive and every bounded nonnegative
operator is its own Friedrichs extension, so neither needs a check beyond
accretivity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .boundary import (
    SpectralFunction, SpectrumError, check_truncation, constant_function,
    fractional_power_weights,
)
from .multipliers import (
    build_multiplier, cantor_measure_coeffs, check_cantor_target, hermitian_check,
)

CAYLEY_CONTRACTION_SLACK = 1e-10


@dataclass
class ImpedanceOperator:
    """A realized boundary operator in the Y-basis (immutable after build).

    Whatever recipe built it, the operator is its matrix Zhat: every check
    below reads ``matrix`` only, and accretivity is decided by
    ``multipliers.hermitian_check``.
    """

    spectrum: object
    N_trunc: int
    matrix: np.ndarray             # (N_trunc, N_trunc) complex


def multiplier_impedance(phi, N_trunc, tensor=None):
    """Z = M_phi compressed to the first N_trunc modes (unit weights)."""
    A = build_multiplier(phi, 0.0, 0.0, N_trunc, tensor=tensor)
    return ImpedanceOperator(spectrum=phi.spectrum, N_trunc=N_trunc, matrix=A.matrix)


def symbol_impedance(spec, N_trunc, c1, c2, t, imaginary=False, sign=1):
    """Z = [i] * sign * c2 * (Delta + c1)^(t/2), diagonal in the Y-basis."""
    if c1 < 0:
        raise SpectrumError("symbol shift c1 must be nonnegative")
    g = sign * c2 * (spec.mu[:N_trunc] + c1) ** (t / 2.0)
    if imaginary:
        g = 1j * g
    return ImpedanceOperator(spectrum=spec, N_trunc=N_trunc,
                             matrix=np.diag(g.astype(complex)))


def matrix_impedance(spec, Zhat):
    Zhat = np.asarray(Zhat, dtype=complex)
    if Zhat.shape[0] != Zhat.shape[1]:
        raise SpectrumError("impedance matrix must be square")
    check_truncation(Zhat.shape[0], spec.count)
    return ImpedanceOperator(spectrum=spec, N_trunc=Zhat.shape[0], matrix=Zhat)


def zero_impedance(spec, N_trunc):
    return ImpedanceOperator(spectrum=spec, N_trunc=N_trunc,
                             matrix=np.zeros((N_trunc, N_trunc), dtype=complex))


_SYMBOL_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<imag>i\*)?\s*(?P<c2>[\d.eE+-]+)\s*\*\s*"
    r"\(\s*mu\s*\+\s*(?P<c1>[\d.eE+-]+)\s*\)\s*\^\s*\(\s*(?P<t>[\d.eE+-]+)\s*/\s*2\s*\)\s*$")


MULTIPLIER_KINDS = ("constant", "multiplier", "cantor")
IMPEDANCE_KINDS = ("zero", *MULTIPLIER_KINDS, "symbol", "matrix")


def phi_from_config(spec, config):
    """Multiplier coefficients phi from a ``constant``, ``multiplier`` or
    ``cantor`` config (see ``impedance_from_config``).

    The Cantor coefficients are exact, so a ``cantor`` config still accepts
    the keys ``samples`` and ``seed`` of the former sampler and ignores them.
    """
    kind = config["kind"]
    if kind == "constant":
        return SpectralFunction(spec, complex(config.get("z0", 1.0))
                                * constant_function(spec).coeffs)
    if kind == "multiplier":
        return SpectralFunction.from_dict(spec, config)
    if kind == "cantor":
        phi = cantor_measure_coeffs(spec, config.get("ratio", 1.0 / 3.0),
                                    target_component=config.get("component", 0))
        return complex(config.get("scale_re", 1.0), config.get("scale_im", 0.0)) * phi
    raise SpectrumError(f"unknown multiplier kind {kind!r}")


def check_impedance_config(config, N_trunc, count, geom):
    """The truncation of the operator ``impedance_from_config`` builds from
    ``config`` at N_trunc (a matrix's size, else N_trunc); SpectrumError unless
    it fits a spectrum of ``count`` modes on the boundary ``geom``."""
    if config["kind"] == "cantor":
        check_cantor_target(geom, config.get("component", 0))
    N = len(config["re"]) if config["kind"] == "matrix" else N_trunc
    check_truncation(N, count)
    return N


def impedance_from_config(spec, config, N_trunc=None):
    """Build an operator from its JSON-config description.

    ``{"kind": "zero"}``; ``{"kind": "constant", "z0": ...}``;
    ``{"kind": "multiplier", "coeffs_re": [...], "coeffs_im": [...]}``;
    ``{"kind": "cantor", "ratio": r, ...}``;
    ``{"kind": "symbol", "c1": .., "c2": .., "t": .., "imaginary": bool,
    "sign": +-1}`` or ``{"kind": "symbol", "expr": "i*c2*(mu+c1)^(t/2)"}``;
    ``{"kind": "matrix", "re": [[..]], "im": [[..]]}``.
    """
    N_trunc = N_trunc or spec.count
    check_impedance_config(config, N_trunc, spec.count, spec.geometry)
    kind = config["kind"]
    if kind == "zero":
        return zero_impedance(spec, N_trunc)
    if kind in MULTIPLIER_KINDS:
        return multiplier_impedance(phi_from_config(spec, config), N_trunc)
    if kind == "symbol":
        if "expr" in config:
            m = _SYMBOL_RE.match(config["expr"])
            if not m:
                raise SpectrumError(f"cannot parse symbol {config['expr']!r}")
            return symbol_impedance(
                spec, N_trunc, c1=float(m["c1"]), c2=float(m["c2"]),
                t=float(m["t"]), imaginary=bool(m["imag"]),
                sign=-1 if m["sign"] == "-" else 1)
        return symbol_impedance(spec, N_trunc, c1=config["c1"], c2=config["c2"],
                                t=config["t"],
                                imaginary=config.get("imaginary", False),
                                sign=config.get("sign", 1))
    if kind == "matrix":
        Z = np.asarray(config["re"], dtype=float) + 1j * np.asarray(
            config.get("im", np.zeros_like(config["re"])), dtype=float)
        return matrix_impedance(spec, Z)
    raise SpectrumError(f"unknown impedance kind {kind!r}")


# ---------------------------------------------------------------------------
# the operator toolkit
# ---------------------------------------------------------------------------

def conjugate_to_l2(Z):
    """Ztilde = diag((mu+1)^(-1/4)) Zhat diag((mu+1)^(-1/4)).

    A congruence, so the Hermitian parts of Zhat and Ztilde share inertia;
    accretivity survives the conjugation in both directions.
    """
    d = fractional_power_weights(Z.spectrum, -0.5, 1.0)[:Z.N_trunc]
    return d[:, None] * Z.matrix * d[None, :]


def is_accretive(Z, tol=None):
    """``hermitian_check`` of Zhat: Herm(Zhat) >= 0 up to the shared PSD
    slack; ``norm`` is ||Zhat||_2."""
    return hermitian_check(Z.matrix, tol)


def selfadjointness_criterion(Z):
    """True iff Z^natural = -Z, where the natural adjoint (w.r.t. the boundary
    pairing) is the conjugate transpose Zhat*: ||Zhat + Zhat*||_2 =
    2 max|eig Herm(Zhat)| below the PSD slack of Zhat.

    When true, the acoustic pencil built from Z must produce a real
    spectrum (cross-module contract, tested in the acoustic module).
    """
    c = hermitian_check(Z.matrix)
    return bool(2.0 * max(-c["min_eig"], c["max_eig"]) <= c["tol"])


@dataclass
class CayleyPair:
    Z_tilde: np.ndarray
    K: np.ndarray
    norm_K: float


def cayley(Z):
    """K = (Ztilde - I)(Ztilde + I)^(-1); a contraction iff Z is accretive."""
    Zt = conjugate_to_l2(Z)
    n = Zt.shape[0]
    ZpI = Zt + np.eye(n)
    sv_min = np.linalg.svd(ZpI, compute_uv=False)[-1]
    if sv_min < 1e-12 * max(1.0, np.linalg.norm(Zt, 2)):
        raise SpectrumError("Ztilde + I is singular: non-accretive input with "
                            "an eigenvalue -1 obstruction")
    K = np.linalg.solve(ZpI.T, (Zt - np.eye(n)).T).T
    return CayleyPair(Z_tilde=Zt, K=K, norm_K=float(np.linalg.norm(K, 2)))


def inverse_cayley(K):
    """Ztilde = (I + K)(I - K)^(-1), valid while 1 is not in spectrum(K)."""
    n = K.shape[0]
    ImK = np.eye(n) - K
    return np.linalg.solve(ImK.T, (np.eye(n) + K).T).T

