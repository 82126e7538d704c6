"""Entropies, divergences, and the mutual-information bound checks.

All quantities are reported in bits.  Relative entropies are +inf when the
support condition fails; support membership uses an eigenvalue tolerance
because the inputs are floating-point density matrices.  As in `matcore`,
the kernels take `(..., d, d)` stacks of densities (`(..., k)` stacks of
weights) and answer per entry; a single state gives Python scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .matcore import collapse, dagger
from .prob import SUM_ATOL, WEIGHT_FLOOR, ZERO_MASS

SUPPORT_TOL = 1e-10     # relative eigenvalue cut of sigma's support, and leak cut
ENTROPY_ATOL = 1e-8     # slack of the raz-lemma and chain-rule checks


def _entropy(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the positive entries of each row of w."""
    pos = np.where(w > 0.0, w, 1.0)
    return -(pos * np.log2(pos)).sum(-1)


def von_neumann_entropy(rho: np.ndarray):
    """Entropy -Tr rho log2 rho of a density matrix, in bits."""
    return collapse(_entropy(matcore.density_spectrum(rho)[1]))


def classical_relative_entropy(p: np.ndarray, q: np.ndarray):
    """D(p || q) in bits for probability vectors; +inf off q's support."""
    p, q = (np.asarray(x, dtype=np.float64) for x in (p, q))
    if p.shape != q.shape:
        raise ValueError("distributions must have the same length")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("distributions must have finite weights")
    if np.any(p < WEIGHT_FLOOR) or np.any(q < WEIGHT_FLOOR):
        raise ValueError("negative probability mass")
    if np.abs(np.stack([p.sum(-1), q.sum(-1)]) - 1.0).max(initial=0.0) > SUM_ATOL:
        raise ValueError("distributions must be normalized")
    p, q = np.clip(p, 0.0, None), np.clip(q, 0.0, None)
    mask = p > 0.0
    off = (mask & (q == 0.0)).any(-1)
    p1, q1 = np.where(mask, p, 1.0), np.where(mask & (q > 0.0), q, 1.0)
    return collapse(np.where(off, np.inf, (p * (np.log2(p1) - np.log2(q1))).sum(-1)))


def _validated_pair(rho, sigma):
    """(rho, rho's spectrum, sigma's clamped spectrum, its support mask, its
    eigenvectors), both densities validated."""
    rho, wr, _ = matcore.density_spectrum(rho)
    _, ws, vs = matcore.density_spectrum(sigma, vectors=True)
    ws = np.maximum(ws, 0.0)
    # a validated density has trace near 1, so its largest eigenvalue is positive
    keep = ws > SUPPORT_TOL * ws.max(-1, keepdims=True)
    return rho, wr, ws, keep, vs


def relative_entropy(rho: np.ndarray, sigma: np.ndarray):
    """Quantum relative entropy D(rho || sigma) in bits.

    Returns +inf when rho has weight outside sigma's support (eigenvalue
    tolerance SUPPORT_TOL relative to sigma's largest eigenvalue).
    Only rho's spectrum and sigma's eigenspaces enter, so the plain LAPACK
    decompositions of the density check serve.  Stacks broadcast, so one
    sigma serves a stack of rho.
    """
    rho, wr, ws, keep, vs = _validated_pair(rho, sigma)
    rho_vs = rho @ vs
    # the block of rho on sigma's kernel, in sigma's eigenbasis
    out = ~keep[..., :, None] & ~keep[..., None, :]
    block = np.where(out, dagger(vs) @ rho_vs, 0.0)
    leak = ((np.trace(block, axis1=-2, axis2=-1).real > SUPPORT_TOL)
            | (np.linalg.norm(block, axis=(-2, -1)) > SUPPORT_TOL))
    # Tr(rho log2 sigma) from the diagonal of rho in sigma's eigenbasis
    diag = np.real((vs.conj() * rho_vs).sum(axis=-2))
    cross = (np.log2(np.where(keep, ws, 1.0)) * diag).sum(-1)
    return collapse(np.where(leak, np.inf, -_entropy(wr) - cross))


def relative_min_entropy(rho: np.ndarray, sigma: np.ndarray):
    """D_inf(rho || sigma) = log2 of the least t with rho <= t sigma.

    Computed as log2 of the largest eigenvalue of
    sigma^(-1/2) rho sigma^(-1/2) on sigma's support; +inf when rho leaks
    outside that support.
    """
    rho, _, ws, keep, vs = _validated_pair(rho, sigma)
    diag = np.real((vs.conj() * (rho @ vs)).sum(axis=-2))
    leak = np.where(keep, 0.0, diag).sum(-1) > SUPPORT_TOL
    # same nonzero spectrum as sigma^(-1/2) rho sigma^(-1/2); the columns
    # off sigma's support are zero and add zero eigenvalues
    half = np.where(keep[..., None, :],
                    vs / np.sqrt(np.where(keep, ws, 1.0))[..., None, :], 0.0)
    mid = dagger(half) @ rho @ half
    top = np.maximum(np.linalg.eigvalsh((mid + dagger(mid)) / 2)[..., -1], 0.0)
    log_top = np.where(top > 0.0, np.log2(np.where(top > 0.0, top, 1.0)), -np.inf)
    return collapse(np.where(leak, np.inf, log_top))


@dataclass(frozen=True)
class CQState:
    """Classical-quantum state: weights p_z with conditional states rho_z.

    probs is (..., k) and states (..., k, d, d), a stack for leading axes.
    The states with weight above `prob.ZERO_MASS`, the ones the kernels read,
    are validated in one call, and `spectra` keeps the eigenvalues that
    check computed: one row per such state, in the order of
    `states[probs > ZERO_MASS]`.
    """

    probs: np.ndarray
    states: np.ndarray
    spectra: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        st = np.asarray(self.states, dtype=np.complex128)
        if p.ndim < 1 or st.ndim != p.ndim + 2 or st.shape[:-2] != p.shape:
            raise ValueError("probs must be (k,), states (k, d, d)")
        if not (np.all(p >= WEIGHT_FLOOR) and np.abs(p.sum(-1) - 1.0).max() <= SUM_ATOL):
            raise ValueError("weights must form a distribution")
        _, w, _ = matcore.density_spectrum(st[p > ZERO_MASS])
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))
        object.__setattr__(self, "states", st)
        object.__setattr__(self, "spectra", w)

    @property
    def k(self) -> int:
        return int(self.probs.shape[-1])

    @property
    def d(self) -> int:
        return int(self.states.shape[-1])

    def density(self) -> np.ndarray:
        """Joint block-diagonal density on the classical (x) quantum space."""
        k, d, lead = self.k, self.d, self.probs.shape[:-1]
        out = np.zeros(lead + (k, d, k, d), dtype=np.complex128)
        for z in range(k):
            out[..., z, :, z, :] = self.probs[..., z, None, None] * self.states[..., z, :, :]
        return out.reshape(lead + (k * d, k * d))

    def quantum_marginal(self) -> np.ndarray:
        lead, d = self.probs.shape[:-1], self.d
        # one (1, k) @ (k, d*d) product per state, the sum np.tensordot takes
        avg = self.probs[..., None, :] @ self.states.reshape(lead + (self.k, d * d))
        avg = avg.reshape(lead + (d, d))
        return (avg + dagger(avg)) / 2


def cq_mutual_information(cq: CQState):
    """I(Z ; Q) of a cq state, the Holevo quantity, in bits."""
    h_z = np.zeros(cq.probs.shape)
    h_z[cq.probs > ZERO_MASS] = _entropy(cq.spectra)
    inner = (cq.probs * h_z).sum(-1)
    return collapse(np.maximum(0.0, von_neumann_entropy(cq.quantum_marginal()) - inner))


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    violations: int
    max_slack: float
    details: str = ""

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _coordinate_cq(cq: CQState, shape: tuple, axis: int) -> CQState:
    """Collapse a multi-coordinate cq state onto one classical coordinate."""
    if cq.k != int(np.prod(shape)):
        raise ValueError("classical shape does not match the state")
    lead, d = cq.probs.shape[:-1], cq.d
    probs = cq.probs.reshape(lead + shape)
    states = cq.states.reshape(lead + shape + (d, d))
    other = tuple(len(lead) + ax for ax in range(len(shape)) if ax != axis)
    p_i = probs.sum(axis=other)
    summed = (probs[..., None, None] * states).sum(axis=other)
    live = (p_i > ZERO_MASS)[..., None, None]
    scale = np.where(live, p_i[..., None, None], 1.0)
    return CQState(p_i, np.where(live, summed / scale, np.eye(d) / d))


def _weighted_terms(probs, terms, read) -> np.ndarray:
    """sum_z probs_z terms_z over the entries in `read`, per cq state."""
    return (probs * np.where(read, terms, 0.0)).sum(-1)


def raz_lemma_check(cq: CQState, shape: tuple, sigma_parts,
                    sigma_a: np.ndarray) -> tuple:
    """Sum of per-coordinate informations against the product divergence.

    cq is classical on a tuple of coordinates with the given shape and
    quantum on one register.  The reference is a product distribution over
    the coordinates (sigma_parts, one vector per coordinate) tensored with
    one reference state sigma_a.  Returns (lhs, rhs, holds) with
    lhs = sum_i I(X_i ; A) and rhs the joint relative entropy.  For a stack
    of cq states, sigma_parts and sigma_a share its leading axes.
    """
    shape = tuple(int(v) for v in shape)
    lhs = sum(cq_mutual_information(_coordinate_cq(cq, shape, axis))
              for axis in range(len(shape)))
    q_joint = np.ones(cq.probs.shape[:-1] + (1,))
    for part in sigma_parts:
        part = np.asarray(part, dtype=float)
        q_joint = (q_joint[..., :, None] * part[..., None, :]).reshape(
            q_joint.shape[:-1] + (-1,))
    rhs = np.asarray(classical_relative_entropy(cq.probs, q_joint))
    # sigma_a is decomposed once per cq state; unread states are swapped for
    # sigma_a itself, whose divergence from sigma_a is finite
    sigma = np.asarray(sigma_a, dtype=np.complex128)[..., None, :, :]
    read = (cq.probs > ZERO_MASS) & np.isfinite(rhs)[..., None]
    rho = np.where(read[..., None, None], cq.states, sigma)
    rhs = rhs + _weighted_terms(cq.probs, relative_entropy(rho, sigma), read)
    holds = np.isinf(rhs) | (lhs <= rhs + ENTROPY_ATOL)
    return collapse(np.asarray(lhs, dtype=float)), collapse(rhs), collapse(holds)


def chain_rule_check(cq_prime: CQState, cq: CQState) -> tuple:
    """Split the cq relative entropy into classical plus conditional parts.

    Both states are classical on the same label set.  Returns
    (lhs, rhs, holds) where lhs is the relative entropy of the joint
    block-diagonal densities and rhs adds the classical divergence of the
    label laws to the expected conditional divergence under the first
    state's labels.  Two infinities count as agreement.
    """
    if cq_prime.probs.shape != cq.probs.shape or cq_prime.d != cq.d:
        raise ValueError("states must share classical and quantum shapes")
    lhs = np.asarray(relative_entropy(cq_prime.density(), cq.density()))
    rhs = np.asarray(classical_relative_entropy(cq_prime.probs, cq.probs))
    read = (cq_prime.probs > ZERO_MASS) & np.isfinite(rhs)[..., None]
    terms = np.zeros(read.shape)
    terms[read] = relative_entropy(cq_prime.states[read], cq.states[read])
    rhs = rhs + _weighted_terms(cq_prime.probs, terms, read)
    both = np.isfinite(lhs) & np.isfinite(rhs)
    gap = np.abs(np.where(both, lhs, 0.0) - np.where(both, rhs, 0.0))
    holds = np.where(both, gap <= ENTROPY_ATOL, np.isinf(lhs) == np.isinf(rhs))
    return collapse(lhs), collapse(rhs), collapse(holds)
