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
computable, provably equivalent checks.  At finite truncation every
accretive matrix is maximal accretive and every bounded nonnegative
operator is its own Friedrichs extension; the corresponding operations
exist to document the degeneracy, not to hide it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .boundary import (
    SpectralFunction, SpectrumError, constant_function, fractional_power_weights,
)
from .multipliers import build_multiplier, cantor_measure_coeffs, psd_tolerance

CAYLEY_CONTRACTION_SLACK = 1e-10


@dataclass
class ImpedanceOperator:
    """A realized boundary operator in the Y-basis (immutable after build)."""

    kind: str                      # "multiplier" | "symbol" | "matrix" | "zero"
    spectrum: object
    N_trunc: int
    matrix: np.ndarray             # (N_trunc, N_trunc) complex, cached
    phi: SpectralFunction | None = None
    symbol: dict | None = None

    def hermitian_part(self):
        return 0.5 * (self.matrix + self.matrix.conj().T)


def multiplier_impedance(phi, N_trunc=None, tensor=None):
    """Z = M_phi compressed to the first N_trunc modes (unit weights)."""
    N_trunc = N_trunc or phi.n_coeffs
    A = build_multiplier(phi, 0.0, 0.0, N_trunc, tensor=tensor)
    return ImpedanceOperator(kind="multiplier", spectrum=phi.spectrum,
                             N_trunc=N_trunc, matrix=A.matrix, phi=phi)


def symbol_impedance(spec, N_trunc, c1, c2, t, imaginary=False, sign=1):
    """Z = [i] * sign * c2 * (Delta + c1)^(t/2), diagonal in the Y-basis."""
    if c1 < 0:
        raise SpectrumError("symbol shift c1 must be nonnegative")
    g = sign * c2 * (spec.mu[:N_trunc] + c1) ** (t / 2.0)
    if imaginary:
        g = 1j * g
    return ImpedanceOperator(kind="symbol", spectrum=spec, N_trunc=N_trunc,
                             matrix=np.diag(g.astype(complex)),
                             symbol={"c1": c1, "c2": c2, "t": t,
                                     "imaginary": imaginary, "sign": sign})


def matrix_impedance(spec, Zhat):
    Zhat = np.asarray(Zhat, dtype=complex)
    if Zhat.shape[0] != Zhat.shape[1]:
        raise SpectrumError("impedance matrix must be square")
    if Zhat.shape[0] > spec.count:
        raise SpectrumError("impedance matrix larger than the spectrum")
    return ImpedanceOperator(kind="matrix", spectrum=spec,
                             N_trunc=Zhat.shape[0], matrix=Zhat)


def zero_impedance(spec, N_trunc):
    return ImpedanceOperator(kind="zero", spectrum=spec, N_trunc=N_trunc,
                             matrix=np.zeros((N_trunc, N_trunc), dtype=complex))


_SYMBOL_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<imag>i\*)?\s*(?P<c2>[\d.eE+-]+)\s*\*\s*"
    r"\(\s*mu\s*\+\s*(?P<c1>[\d.eE+-]+)\s*\)\s*\^\s*\(\s*(?P<t>[\d.eE+-]+)\s*/\s*2\s*\)\s*$")


def phi_from_config(spec, config, seed=0):
    """Multiplier coefficients phi from a ``constant``, ``multiplier`` or
    ``cantor`` config (see ``impedance_from_config``).

    The Cantor sampler takes ``config["seed"]`` when given, else ``seed``.
    """
    kind = config["kind"]
    if kind == "constant":
        return SpectralFunction(spec, complex(config.get("z0", 1.0))
                                * constant_function(spec).coeffs)
    if kind == "multiplier":
        return SpectralFunction.from_dict(spec, config)
    if kind == "cantor":
        phi = cantor_measure_coeffs(
            spec, config.get("ratio", 1.0 / 3.0),
            target_component=config.get("component", 0),
            oracle_samples=config.get("samples", 10**6),
            seed=config.get("seed", seed))
        return complex(config.get("scale_re", 1.0), config.get("scale_im", 0.0)) * phi
    raise SpectrumError(f"unknown multiplier kind {kind!r}")


def impedance_from_config(spec, config, N_trunc=None, tensor=None):
    """Build an operator from its JSON-config description.

    ``{"kind": "zero"}``; ``{"kind": "constant", "z0": ...}``;
    ``{"kind": "multiplier", "coeffs_re": [...], "coeffs_im": [...]}``;
    ``{"kind": "cantor", "ratio": r, ...}``;
    ``{"kind": "symbol", "c1": .., "c2": .., "t": .., "imaginary": bool,
    "sign": +-1}`` or ``{"kind": "symbol", "expr": "i*c2*(mu+c1)^(t/2)"}``;
    ``{"kind": "matrix", "re": [[..]], "im": [[..]]}``.
    """
    N_trunc = N_trunc or spec.count
    kind = config["kind"]
    if kind == "zero":
        return zero_impedance(spec, N_trunc)
    if kind in ("constant", "multiplier", "cantor"):
        return multiplier_impedance(phi_from_config(spec, config), N_trunc,
                                    tensor=tensor)
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
    """Smallest eigenvalue of Herm(Zhat) against the shared PSD slack."""
    H = Z.hermitian_part()
    min_eig = float(np.linalg.eigvalsh(H)[0])
    if tol is None:
        tol = psd_tolerance(float(np.linalg.norm(Z.matrix, 2)))
    return {"verdict": bool(min_eig >= -tol), "min_herm_eig": min_eig, "tol": tol}


def natural_adjoint(Z):
    """The adjoint w.r.t. the boundary pairing: the conjugate transpose.

    For multiplier operators this is exactly the operator of conj(phi).
    """
    if Z.kind == "multiplier":
        out = multiplier_impedance(Z.phi.conj(), Z.N_trunc)
        # entrywise identity with the transpose; keep the cached route
        return out
    return ImpedanceOperator(kind=Z.kind, spectrum=Z.spectrum, N_trunc=Z.N_trunc,
                             matrix=Z.matrix.conj().T.copy(), phi=None,
                             symbol=Z.symbol)


def selfadjointness_criterion(Z, tol=None):
    """True iff Z^natural = -Z, i.e. ||Zhat + Zhat*|| below the PSD slack.

    When true, the acoustic pencil built from Z must produce a real
    spectrum (cross-module contract, tested in the acoustic module).
    """
    if tol is None:
        tol = psd_tolerance(float(np.linalg.norm(Z.matrix, 2)))
    return bool(np.linalg.norm(Z.matrix + Z.matrix.conj().T, 2) <= tol)


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


def friedrichs_conjugated(Z, tol=None, check_tol=1e-12):
    """De-conjugated Friedrichs extension of an accretive truncation.

    Bounded everywhere-defined operators coincide with their Friedrichs
    extension, so at finite truncation this map returns Zhat itself; the
    assertion documents the degeneracy instead of hiding it.
    """
    Zt = conjugate_to_l2(Z)
    H = 0.5 * (Zt + Zt.conj().T)
    if tol is None:
        tol = psd_tolerance(float(np.linalg.norm(Zt, 2)))
    if np.linalg.eigvalsh(H)[0] < -tol:
        raise SpectrumError("Friedrichs construction needs a PSD Hermitian part")
    d = fractional_power_weights(Z.spectrum, 0.5, 1.0)[:Z.N_trunc]
    back = d[:, None] * Zt * d[None, :]
    scale = max(1.0, float(np.linalg.norm(Z.matrix, "fro")))
    if np.linalg.norm(back - Z.matrix, "fro") > check_tol * scale:
        raise SpectrumError("conjugation round-trip failed")
    return back
