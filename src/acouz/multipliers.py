"""Multiplication operators in the boundary eigenbasis.

A scalar phi (function, measure, or rougher distribution, known through its
eigenbasis coefficients c_k) acts on boundary functions by multiplication.
In the orthonormal basis {Y_n} the truncated operator has entries

    A[m, n] = integral( phi * Y_n * Y_m )  =  sum_k c_k G[k, m, n],

with G[k, m, n] = integral(Y_k Y_m Y_n) the fully symmetric triple-product
tensor.  On curves the products of trigonometric modes expand exactly by
product-to-sum identities, so G carries no quadrature error, and a Fourier
product is a convolution: each component's compression is a constant row
and column plus Toeplitz-plus-Hankel blocks in the real cos/sin basis,
built from the coefficients of phi in O(N^2) without any pairwise index
arithmetic.  On surfaces phi is P1, the integral of phi lambda_j lambda_k over
a triangle T is exactly |T|/60 (1 + delta_jk)(phi_1 + phi_2 + phi_3 + phi_j +
phi_k), and the compression is Y M_phi Y^T (see :class:`TripleProductTensor`).

All norm and compactness statements are about compressions P_N M_phi P_N:
the operator norm from H^{s1} to H^{-s2} of the compression is the largest
singular value of D(-s2) A D(-s1), with D(t) the diagonal of H^t weights,
and refinement in N stands in for the infinite-dimensional claims.

Every dense eigen- and singular-value solve of a compression runs once per
irreducible block (:func:`diagonal_blocks`), and the maths puts exact zeros
in these matrices from two sources: modes on different boundary components
multiply to zero, and a reflection-symmetric phi has sine coefficients that
are exactly 0, so its cos x sin blocks vanish and the compression splits by
parity (the Cantor measure on a circle, at even N: blocks of N/2 + 1 and
N/2 - 1).  An irreducible matrix is one block and takes one solve on the
whole matrix.  Every solve runs in its matrix's dtype: real unless some
kept entry is not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boundary import (
    KIND_CONST, KIND_COS, KIND_SIN,
    BoundarySpectrum, SpectralFunction, SpectrumError, assemble_p1, check_truncation,
    exact_dtype, ht_weights, triangle_areas,
)

PSD_TOL_FACTOR = 1e-10   # shared with the impedance module


def psd_tolerance(matrix_norm):
    """Positive-semidefiniteness slack: PSD_TOL_FACTOR * ||A||, floored at
    PSD_TOL_FACTOR."""
    return PSD_TOL_FACTOR * max(1.0, matrix_norm)


# ---------------------------------------------------------------------------
# triple products
# ---------------------------------------------------------------------------

class TripleProductTensor:
    """Access to G[k, m, n] = integral(Y_k Y_m Y_n) for a stored spectrum.

    On a curve component of length L, Y_m Y_n is exactly a sum of at most
    two modes, at the sum and the difference of the two frequencies, with
    coefficient +-1/sqrt(2L) on a cos/sin mode and 1/sqrt(L) on the
    constant.  So a compression is built one component at a time, from the
    coefficients g_kind[f] of phi along each kind (0 where a mode is not
    stored): the constant row and column, and three trigonometric blocks
    cos x cos, sin x sin and cos x sin, each a Hankel matrix g[p + q] plus
    a Toeplitz matrix g[|p - q|] (odd-signed for cos x sin), both views of
    one vector.  Modes on different components multiply to zero.  On a
    surface phi is P1 with vertex values c Y, and on a triangle T with
    barycentric coordinates lambda_j, integral_T phi lambda_j lambda_k =
    |T|/60 (1 + delta_jk) (phi_1 + phi_2 + phi_3 + phi_j + phi_k): the
    compression is Y M_phi Y^T for the assembled P1 matrix M_phi, with no
    quadrature error.  Immutable after construction.
    """

    def __init__(self, spec: BoundarySpectrum):
        self.spec = spec
        if spec.mode_comp is None:
            if spec.modes is None:
                raise SpectrumError("surface triple products need the modes: "
                                    "build the spectrum with store_modes=True")
        else:
            lengths = spec.geometry.component_lengths()
            self._a = 1.0 / np.sqrt(lengths)          # on the component constant
            self._b = 1.0 / np.sqrt(2.0 * lengths)    # on a cos/sin mode
            # (comp, kind, freq) -> mode index, -1 where a mode is not stored;
            # sum frequencies reach twice the largest stored one
            fmax = int(spec.mode_freq.max())
            self._index = np.full((lengths.size, 3, 2 * fmax + 1), -1, dtype=np.intp)
            self._index[spec.mode_comp, spec.mode_kind, spec.mode_freq] = \
                np.arange(spec.count)

    def contract(self, coeffs, N_trunc):
        """A[m, n] = sum_k coeffs[k] G[k, m, n] for m, n < N_trunc, in their dtype."""
        c = np.asarray(coeffs)
        if self.spec.mode_comp is None:
            v, t = self.spec.geometry.vertices, self.spec.geometry.triangles
            phi = (c @ self.spec.modes[:c.size])[t]            # (n_tri, 3)
            local = phi.sum(axis=1)[:, None, None] + phi[:, :, None] + phi[:, None, :]
            local *= (triangle_areas(v, t) / 60.0)[:, None, None] * (1.0 + np.eye(3))
            Y = self.spec.modes[:N_trunc]
            A = Y @ (assemble_p1(t, local, v.shape[0]) @ Y.T)
            return 0.5 * (A + A.T)      # symmetric as M_phi is, to the bit
        # zero past c and in slot -1: absent terms and modes past c add nothing
        c0 = np.zeros(self.spec.count + 1, dtype=c.dtype)
        c0[:c.size] = c
        A = np.zeros((N_trunc, N_trunc), dtype=c.dtype)
        for j in range(self._a.size):
            self._add_component(A, c0, j)
        return A

    def _add_component(self, A, c0, j):
        """Write the block of component j into A.

        Every entry is coef_s * c[k_s] + coef_d * c[k_d], the sum-frequency
        term first, as written out by product-to-sum:
        cos(p)cos(q) = [cos(p+q) + cos(p-q)]/2,
        sin(p)sin(q) = [cos(p-q) - cos(p+q)]/2,
        cos(p)sin(q) = [sin(q+p) + sin(q-p)]/2;
        at p = q the difference term lands on the constant mode (none for
        cos x sin, whose g_sin[0] is the absent 0).  An absent term adds the
        +0 that the coefficient times the zero slot of c0 gives.
        """
        N = A.shape[0]
        # mode indices grow with the frequency within a kind, so the modes
        # below N of a kind are its lowest frequencies, in order (1..P)
        const, cos, sin = (ix[(ix >= 0) & (ix < N)] for ix in self._index[j])
        a, b = self._a[j], self._b[j]
        if const.size:      # Y_const Y_n = a Y_n: the row holds a c[n]
            modes = np.concatenate([const, cos, sin])
            row = a * c0[modes] + 0.0
            A[const[0], modes] = row
            A[modes, const[0]] = row
        g_cos, g_sin = c0[self._index[j, KIND_COS]], c0[self._index[j, KIND_SIN]]
        bc, bs = b * g_cos, b * g_sin
        c_const = a * c0[self._index[j, KIND_CONST, :1]]
        for rows, cols, h, lower, upper in ((cos, cos, bc, bc, bc),
                                            (sin, sin, -b * g_cos, bc, bc),
                                            (cos, sin, bs, -b * g_sin, bs)):
            P, Q = rows.size, cols.size
            if not (P and Q):
                continue
            block = _hankel_plus_toeplitz(h, lower, upper, P, Q)
            if rows is cols:    # at p = q the difference term is c_const
                block.flat[::P + 1] = h[2:2 * P + 1:2] + c_const
                A[np.ix_(rows, rows)] = block
            else:
                A[np.ix_(rows, cols)] = block
                A[np.ix_(cols, rows)] = block.T


def _hankel_plus_toeplitz(h, lower, upper, P, Q):
    """B[p, q] = h[p + q] + t(q - p) for frequencies p = 1..P, q = 1..Q, with
    t(d) = upper[d] for d >= 0 and lower[-d] for d < 0; h, lower and upper
    are indexed by frequency.  Both terms are views of one vector each."""
    t = np.concatenate([lower[P - 1:0:-1], upper[:Q]])     # t(d) at d + P - 1
    return (sliding_window_view(h[2:P + Q + 1], Q)
            + sliding_window_view(t, Q)[::-1])


# ---------------------------------------------------------------------------
# multiplier matrices
# ---------------------------------------------------------------------------

def diagonal_blocks(X):
    """The irreducible diagonal blocks of the square X, as ascending index
    vectors ordered by their first index.

    A block is a connected component of the exact-nonzero pattern of X
    symmetrized with X^T: after one permutation of rows and columns alike,
    X is block diagonal, and its eigenvalues and singular values are those
    of the blocks together.  The symmetrization keeps a block-triangular
    pattern whole, which would not split singular values.  Found by a
    breadth-first search over the rows of the pattern, each row expanded
    once; an irreducible X is one block.
    """
    linked = X != 0
    linked = linked | linked.T
    np.fill_diagonal(linked, False)
    todo = linked.any(axis=1)
    blocks = [np.array([i]) for i in np.flatnonzero(~todo)]
    while todo.any():
        block = np.zeros_like(todo)
        block[np.argmax(todo)] = True
        frontier = block.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~block
            block |= frontier
        todo &= ~block
        blocks.append(np.flatnonzero(block))
    return sorted(blocks, key=lambda b: b[0])


def _values_by_block(X, solve, single):
    """``solve`` of each irreducible block of X larger than 1x1 (X itself
    when it is one block) and ``single`` of each 1x1 block's entry, read
    off the diagonal with no LAPACK call; all values, ascending."""
    n = X.shape[0]
    blocks = diagonal_blocks(X)
    ones = np.array([b[0] for b in blocks if b.size == 1], dtype=np.intp)
    parts = [solve(X if b.size == n else X[np.ix_(b, b)])
             for b in blocks if b.size > 1]
    return np.sort(np.concatenate([single(X[ones, ones]), *parts]))


def eigvalsh_by_block(X):
    """Eigenvalues of the Hermitian X, ascending: one ``eigvalsh`` per
    irreducible block (see :func:`diagonal_blocks`)."""
    return _values_by_block(X, np.linalg.eigvalsh, np.real)


def svdvals_by_block(X):
    """Singular values of X, descending: one SVD per irreducible block (see
    :func:`diagonal_blocks`)."""
    return _values_by_block(X, lambda B: np.linalg.svd(B, compute_uv=False),
                            np.abs)[::-1]


def _is_hermitian(X):
    """``np.array_equal(X, X.conj().T)`` without a conjugate copy of X: the
    real part symmetric and the imaginary part antisymmetric, exactly."""
    if not np.array_equal(X.real, X.real.T):
        return False
    return np.isrealobj(X) or np.array_equal(X.imag, -X.imag.T)


@dataclass(frozen=True, eq=False)
class MultiplierMatrix:
    """A compression P_N X P_N with Sobolev-exponent bookkeeping: the one
    type of every boundary operator, an impedance (multiplier, symbol, matrix
    or zero) with s1 = s2 = 0.

    ``matrix[m, n] = <X Y_n, Y_m>``, integral(phi Y_n Y_m) for X = M_phi,
    real unless some entry is not (``exact_dtype``, applied here).  The
    target mapping H^{s1} -> H^{-s2} only enters through the diagonal
    weights of :meth:`weighted`.  The singular values of the weighted
    matrix, which :func:`multiplier_norm` and :func:`compactness_profile`
    both read, are computed once per compression, by one solve per
    irreducible block of the weighted matrix (split by boundary component and
    by the parity of a reflection-symmetric phi), in the dtype of the
    compression, and from symmetric eigensolves when the weighted matrix is
    Hermitian.  Immutable, so that cache stays valid.
    """

    spectrum: BoundarySpectrum
    matrix: np.ndarray
    s1: float = 0.0
    s2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", exact_dtype(self.matrix))

    @property
    def N_trunc(self):
        return self.matrix.shape[0]

    def weighted(self):
        """D(-s2) A D(-s1), in the dtype of A."""
        d1 = ht_weights(self.spectrum, -self.s1)[:self.N_trunc]
        d2 = ht_weights(self.spectrum, -self.s2)[:self.N_trunc]
        W = d2[:, None] * self.matrix
        W *= d1[None, :]
        return W

    @functools.cached_property
    def singular_values(self):
        """Singular values of D(-s2) A D(-s1), in descending order.

        With s1 == s2 and A exactly Hermitian the weighted matrix is a
        congruence D A D, Hermitian too, and its singular values are the
        absolute eigenvalues: ``eigvalsh`` in place of an SVD, on each
        irreducible block.
        """
        W = self.weighted()
        if self.s1 == self.s2 and _is_hermitian(self.matrix):
            return np.sort(np.abs(eigvalsh_by_block(W)))[::-1]
        return svdvals_by_block(W)


def build_multiplier(phi, s1, s2, N_trunc, tensor=None):
    """Truncated matrix of multiplication by phi in the eigenbasis: real
    unless some kept entry is not (``MultiplierMatrix``), so a complex phi
    whose compression is real is solved in real arithmetic."""
    spec = phi.spectrum
    check_truncation(N_trunc, spec.count)
    tensor = tensor or TripleProductTensor(spec)
    return MultiplierMatrix(spec, tensor.contract(phi.coeffs, N_trunc), s1, s2)


def multiplier_norm(A: MultiplierMatrix):
    """Largest singular value of D(-s2) A D(-s1): the truncated operator
    norm H^{s1} -> H^{-s2}.  Shares the singular values of the compression,
    one solve per irreducible block, with :func:`compactness_profile` (see
    ``MultiplierMatrix.singular_values``)."""
    return float(A.singular_values[0])


def compactness_profile(A: MultiplierMatrix, ranks):
    """Singular values of the weighted matrix at the requested 1-based ranks.

    A numerically compact multiplier shows sigma_k -> 0 with growing k,
    stably under truncation refinement; an identity-weighted symbol stays
    bounded away from zero.  The singular values are those of
    ``A.singular_values``: one solve per irreducible block of the
    compression, shared with :func:`multiplier_norm`.
    """
    sv = A.singular_values
    check_ranks(ranks, sv.size)
    return [float(sv[k - 1]) for k in ranks]


def check_ranks(ranks, n):
    """Raise SpectrumError unless every rank lies in 1..n."""
    for k in ranks:
        if not 1 <= k <= n:
            raise SpectrumError(f"rank {k} outside 1..{n}")


def hermitian_check(X):
    """Herm(X) = (X + X*)/2 >= 0 up to the PSD slack: the one accretivity
    decision, shared by multiplier positivity, impedance accretivity and the
    self-adjointness criterion.

    Returns ``nonneg``, the extreme eigenvalues ``min_eig`` and ``max_eig``
    of Herm(X), ``tol`` = ``psd_tolerance(norm)`` and ``norm`` =
    ||X||_2.  Every solve runs once per irreducible block (exact zeros
    split a compression by boundary component and by the parity of a
    reflection-symmetric phi), in the dtype of X; a computed Herm(X) is
    real unless some entry is not (``exact_dtype``).  ||X||_2 is read from
    the eigenvalues of an exactly Hermitian X, which is its own Hermitian
    part and is not copied; only a non-Hermitian X takes singular values.
    """
    if _is_hermitian(X):
        eigs = eigvalsh_by_block(X)
        norm = float(np.abs(eigs).max())
    else:
        eigs = eigvalsh_by_block(exact_dtype(0.5 * (X + X.conj().T)))
        norm = float(svdvals_by_block(X)[0])
    tol = psd_tolerance(norm)
    return {"nonneg": bool(eigs[0] >= -tol), "min_eig": float(eigs[0]),
            "max_eig": float(eigs[-1]), "tol": tol, "norm": norm}


def positivity_test(A: MultiplierMatrix):
    """Multiplicative positivity of phi from its compression A = P_N M_phi P_N.

    phi >= 0 as a measure/distribution iff the Hermitian part of M_phi is
    positive semidefinite; at truncation this is :func:`hermitian_check` of
    ``A.matrix`` (the Sobolev weights of A play no part): one ``eigvalsh``
    per irreducible block.  A real phi has an exactly symmetric
    contraction, on a curve or a surface, so no singular value is taken.
    """
    return hermitian_check(A.matrix)


# ---------------------------------------------------------------------------
# Cantor-measure impedance coefficients
# ---------------------------------------------------------------------------

# cos(x) rounds to 1 in double precision below this argument
_RIESZ_TAIL = 1e-8


def cantor_exponential_moments(r, freqs):
    """E[exp(2 pi i k X)] for X distributed per the symmetric Cantor measure
    with dissection ratio r on [0, 1], exactly.

    X = (1-r) * sum_i eps_i r^i with i.i.d. fair bits eps_i, so the moment
    factors into the Riesz product

        E exp(2 pi i k X) = (-1)^k prod_{i>=0} cos(pi k (1-r) r^i)

    (Strichartz, Indiana Univ. Math. J. 39, 1990).  It is real, because the
    measure is symmetric about 1/2, and even in k.  The product stops at the
    first factor whose argument falls below ``_RIESZ_TAIL`` for the largest
    |k|: every later factor rounds to 1.
    """
    if not 0.0 < r < 0.5:
        raise ValueError("dissection ratio must lie in (0, 1/2)")
    absk = np.abs(np.asarray(freqs, dtype=int))
    top = np.pi * (1.0 - r) * max(1, int(absk.max(initial=0)))
    depth = max(0, math.ceil(math.log(_RIESZ_TAIL / top) / math.log(r))) + 1
    args = np.pi * (1.0 - r) * r ** np.arange(depth)
    prod = np.cos(np.multiply.outer(absk, args)).prod(axis=1)
    return np.where(absk % 2 == 1, -prod, prod)


def check_cantor_target(geom, component):
    """Raise SpectrumError unless a Cantor measure fits on ``component`` of
    the boundary ``geom``: a curve, with 0 <= component < b0."""
    if geom.dim_ambient != 2:
        raise SpectrumError("cantor_measure_coeffs needs a curve spectrum")
    if not 0 <= component < geom.n_components:
        raise SpectrumError(f"component {component} is not one of the "
                            f"{geom.n_components} boundary components")


def cantor_measure_coeffs(spec, r, target_component=0):
    """Eigenbasis coefficients of a Cantor measure pushed onto one component.

    The unit-mass measure on [0, 1] is transported by the arclength
    parametrization x -> s = x * L of the closed component, so that
    c_n = integral(Y_n dmu); the constant mode picks up measure^(-1/2), a
    cos mode sqrt(2/L) times the real moment, and a sin mode exactly 0.
    """
    check_cantor_target(spec.geometry, target_component)
    L = spec.geometry.component_lengths()[target_component]
    on = spec.mode_comp == target_component
    cos = on & (spec.mode_kind == KIND_COS)

    c = np.zeros(spec.count)
    c[cos] = math.sqrt(2.0 / L) * cantor_exponential_moments(r, spec.mode_freq[cos])
    c[on & (spec.mode_kind == KIND_CONST)] = 1.0 / math.sqrt(L)
    return SpectralFunction(spec, c)
