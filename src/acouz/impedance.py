"""Boundary impedance operators Z and their operator-theoretic toolkit.

An impedance operator is realized as a matrix Zhat in the orthonormal
eigenbasis of the boundary Laplacian.  The paper's generalized impedance
coefficients are Sobolev multipliers, so every impedance is a compression
``multipliers.MultiplierMatrix`` with s1 = s2 = 0, built from one recipe:

* ``multiplier`` (also ``constant`` and ``cantor``): Zhat is the truncated
  multiplication matrix of a coefficient vector (functions, measures,
  distributions alike);
* ``symbol``: Zhat is diagonal, g(mu_n) for the spectral symbol
  g(mu) = [i] * sign * c2 * (mu + c1)^(t/2), realizing nonlocal impedances;
* ``matrix``: an explicit matrix;
* ``zero``: the zero matrix.

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

from dataclasses import dataclass

import numpy as np

from .boundary import (
    SpectralFunction, SpectrumError, check_coefficients, check_truncation,
    constant_function,
)
from .config import read
from .multipliers import (
    MultiplierMatrix, build_multiplier, cantor_measure_coeffs, check_cantor_target,
    hermitian_check, svdvals_by_block,
)

CAYLEY_CONTRACTION_SLACK = 1e-10


def multiplier_impedance(phi, N_trunc, tensor=None):
    """Z = M_phi compressed to the first N_trunc modes (unit weights)."""
    return build_multiplier(phi, 0.0, 0.0, N_trunc, tensor=tensor)


def _check_shift(c1, t):
    """Raise unless (mu + c1)^(t/2) is finite on every mode: c1 >= 0, and
    c1 > 0 when t < 0, since every spectrum has mu = 0 modes."""
    if c1 < 0:
        raise SpectrumError("symbol shift c1 must be nonnegative")
    if c1 == 0 and t < 0:
        raise SpectrumError(f"symbol shift c1 must be positive when t < 0 "
                            f"(t = {t!r}): (mu + c1)^(t/2) is infinite at mu = 0")


def symbol_impedance(spec, N_trunc, c1, c2, t, imaginary=False, sign=1):
    """Z = [i] * sign * c2 * (Delta + c1)^(t/2), diagonal in the Y-basis."""
    _check_shift(c1, t)
    g = sign * c2 * (spec.mu[:N_trunc] + c1) ** (t / 2.0)
    if imaginary:
        g = 1j * g
    return MultiplierMatrix(spec, np.diag(g))


def _square(Zhat):
    Zhat = np.asarray(Zhat)
    if Zhat.ndim != 2 or Zhat.shape[0] != Zhat.shape[1]:
        raise SpectrumError("impedance matrix must be square")
    return Zhat


def matrix_impedance(spec, Zhat):
    Zhat = _square(Zhat)
    check_truncation(Zhat.shape[0], spec.count)
    return MultiplierMatrix(spec, Zhat)


def zero_impedance(spec, N_trunc):
    return MultiplierMatrix(spec, np.zeros((N_trunc, N_trunc)))


MULTIPLIER_KINDS = ("constant", "multiplier", "cantor")
IMPEDANCE_KINDS = ("zero", *MULTIPLIER_KINDS, "symbol", "matrix")


def _complex(re_, im, keys):
    re_, im = np.asarray(re_, dtype=float), np.asarray(im, dtype=float)
    if re_.shape != im.shape:
        raise SpectrumError(f"{keys} differ in shape: {re_.shape} and {im.shape}")
    return re_ + 1j * im


def _block_args(config, kinds):
    """What ``config`` of one of ``kinds`` builds from (see :func:`param_block`)."""
    if not isinstance(config, dict) or config.get("kind") not in kinds:
        raise SpectrumError(f"kind must be one of {list(kinds)}")
    kind = config["kind"]
    if kind == "constant":
        return complex(read(config, "z0", 1.0, "complex"))
    if kind == "multiplier":
        return _complex(read(config, "coeffs_re", many=True),
                        read(config, "coeffs_im", many=True), "coeffs_re and coeffs_im")
    if kind == "matrix":
        re_ = read(config, "re", many=2)
        im = read(config, "im", [[0.0] * len(row) for row in re_], many=2)
        return _square(_complex(re_, im, "re and im"))
    if kind == "cantor":
        ratio = read(config, "ratio", 1.0 / 3.0)
        if not 0.0 < ratio < 0.5:
            raise SpectrumError(f"ratio must lie in (0, 1/2), not {ratio!r}")
        return (ratio, read(config, "component", 0, "integer"),
                complex(read(config, "scale_re", 1.0), read(config, "scale_im", 0.0)))
    if kind == "symbol":
        args = {key: read(config, key) for key in ("c1", "c2", "t")}
        _check_shift(args["c1"], args["t"])
        return {**args, "imaginary": read(config, "imaginary", False, "bool"),
                "sign": read(config, "sign", 1)}
    return None


@dataclass(frozen=True)
class ParamBlock:
    """An ``impedance`` or ``phi`` block parsed by :func:`param_block`: its
    kind and what it builds from, all that sizes, checks and builds it."""

    kind: str
    args: object

    def truncation(self, N_trunc):
        """The size of the operator built at N_trunc: a matrix's own side."""
        return len(self.args) if self.kind == "matrix" else N_trunc


def param_block(params, name):
    """``params[name]``, an experiment's ``impedance`` (zero when absent) or
    ``phi`` (Cantor unless it names a kind), parsed once, each value by
    ``config.read``; other keys, such as the ``samples`` of the former Cantor
    sampler, are ignored.

    ``{"kind": "zero"}``; ``{"kind": "constant", "z0": ...}``;
    ``{"kind": "multiplier", "coeffs_re": [...], "coeffs_im": [...]}``;
    ``{"kind": "cantor", "ratio": r, "component": j, ...}``;
    ``{"kind": "symbol", "c1": .., "c2": .., "t": .., "imaginary": bool,
    "sign": +-1}``; ``{"kind": "matrix", "re": [[..]], "im": [[..]]}``.
    Raises unless every rule that needs no spectrum holds: on a value that
    ``config.read`` rejects, coefficient lists of unequal lengths, a Cantor
    ratio outside (0, 1/2), c1 < 0 or c1 = 0 with t < 0, an ``im`` unlike
    ``re`` or a ``re`` not square.
    """
    block = read(params, name, {"kind": "zero"} if name == "impedance" else {}, "object")
    if name == "phi":
        block = {"kind": "cantor", **block}
    kinds = IMPEDANCE_KINDS if name == "impedance" else MULTIPLIER_KINDS
    return ParamBlock(block["kind"], _block_args(block, kinds))


def check_impedance_config(block, N_trunc, count, geom):
    """Raise unless the operator built from ``block`` at N_trunc fits a
    spectrum of ``count`` modes on ``geom``: coefficients within it, a Cantor
    component of the curve ``geom``, a truncation in 1..count."""
    if block.kind == "multiplier":
        check_coefficients(block.args, count)
    if block.kind == "cantor":
        check_cantor_target(geom, block.args[1])
    check_truncation(block.truncation(N_trunc), count)


def spectrum_modes(block, N_trunc, b0):
    """The boundary modes, b0 at least, that the operator built from
    ``block`` at N_trunc reads: the kept ones, and the coefficients of a
    ``multiplier`` or the side of a ``matrix``.  A ``cantor`` measure, or with
    ``block`` None the field of a Monte Carlo sample, has modes past any
    spectrum: the products of the kept modes reach twice their frequency, and
    a positive measure cut below that compresses to a matrix not positive."""
    kind = None if block is None else block.kind
    if kind in (None, "cantor"):
        N_trunc = int(2.2 * N_trunc) + 8
    elif kind in ("multiplier", "matrix"):
        N_trunc = max(N_trunc, len(block.args))
    return max(N_trunc, b0)


def phi_from_config(spec, block):
    """Multiplier coefficients phi from a ``constant``, ``multiplier`` or
    ``cantor`` block; the Cantor coefficients are exact."""
    if block.kind == "constant":
        return SpectralFunction(spec, block.args * constant_function(spec).coeffs)
    if block.kind == "multiplier":
        return SpectralFunction(spec, block.args)
    ratio, component, scale = block.args
    return scale * cantor_measure_coeffs(spec, ratio, target_component=component)


def impedance_from_config(spec, block, N_trunc=None):
    """The operator on ``spec`` that the parsed ``block`` builds at N_trunc
    (default spec.count); raises on what ``check_impedance_config`` rejects."""
    N_trunc = block.truncation(N_trunc or spec.count)
    check_impedance_config(block, N_trunc, spec.count, spec.geometry)
    if block.kind == "zero":
        return zero_impedance(spec, N_trunc)
    if block.kind in MULTIPLIER_KINDS:
        return multiplier_impedance(phi_from_config(spec, block), N_trunc)
    if block.kind == "symbol":
        return symbol_impedance(spec, N_trunc, **block.args)
    return matrix_impedance(spec, block.args)


# ---------------------------------------------------------------------------
# the operator toolkit
# ---------------------------------------------------------------------------

def conjugate_to_l2(Z):
    """Ztilde = D Zhat D, D = diag((mu+1)^(-1/4)) the action of (Delta + 1)^(-1/4).

    A congruence, so the Hermitian parts of Zhat and Ztilde share inertia;
    accretivity survives the conjugation in both directions.
    """
    d = (Z.spectrum.mu[:Z.N_trunc] + 1.0) ** -0.25
    return d[:, None] * Z.matrix * d[None, :]


def is_accretive(Z):
    """``hermitian_check`` of Zhat: Herm(Zhat) >= 0 up to the shared PSD
    slack; ``norm`` is ||Zhat||_2."""
    return hermitian_check(Z.matrix)


def selfadjointness_criterion(Z):
    """True iff Z^natural = -Z, where the natural adjoint (w.r.t. the boundary
    pairing) is the conjugate transpose Zhat*: ||Zhat + Zhat*||_2 =
    2 max|eig Herm(Zhat)| below the PSD slack of Zhat.

    When true, the acoustic pencil built from Z must produce a real
    spectrum (cross-module contract, tested in the acoustic module).
    """
    c = hermitian_check(Z.matrix)
    return bool(2.0 * max(-c["min_eig"], c["max_eig"]) <= c["tol"])


@dataclass(eq=False)
class CayleyPair:
    Z_tilde: np.ndarray
    K: np.ndarray
    norm_K: float


def cayley(Z):
    """K = (Ztilde - I)(Ztilde + I)^(-1); a contraction iff Z is accretive.

    Every singular value is taken one irreducible block at a time
    (``multipliers.svdvals_by_block``), each matrix split by its own exact
    zeros: the zero blocks of Zhat carry over to Ztilde, Ztilde + I and,
    through the solve, to K.
    """
    Zt = conjugate_to_l2(Z)
    n = Zt.shape[0]
    ZpI = Zt + np.eye(n)
    sv_min = svdvals_by_block(ZpI)[-1]
    if sv_min < 1e-12 * max(1.0, svdvals_by_block(Zt)[0]):
        raise SpectrumError("Ztilde + I is singular: non-accretive input with "
                            "an eigenvalue -1 obstruction")
    K = np.linalg.solve(ZpI.T, (Zt - np.eye(n)).T).T
    return CayleyPair(Z_tilde=Zt, K=K, norm_K=float(svdvals_by_block(K)[0]))


def inverse_cayley(K):
    """Ztilde = (I + K)(I - K)^(-1), valid while 1 is not in spectrum(K)."""
    n = K.shape[0]
    ImK = np.eye(n) - K
    return np.linalg.solve(ImK.T, (np.eye(n) + K).T).T

