"""Entropies, divergences, and the mutual-information bound checks.

All quantities are reported in bits.  Relative entropies are +inf when the
support condition fails; support membership uses an eigenvalue tolerance
because the inputs are floating-point density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore

SUPPORT_TOL = 1e-10
LOG2_E = float(np.log2(np.e))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr rho log2 rho of a density matrix, in bits."""
    _, w, _ = matcore.density_spectrum(rho)
    pos = w[w > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def classical_relative_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) in bits for probability vectors; +inf off q's support."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError("distributions must have the same length")
    if np.any(p < -1e-12) or np.any(q < -1e-12):
        raise ValueError("negative probability mass")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("distributions must be normalized")
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return float("inf")
    return float((p[mask] * (np.log2(p[mask]) - np.log2(q[mask]))).sum())


def _support(ws: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues counted in sigma's support."""
    return ws > SUPPORT_TOL * max(float(ws.max()), 1e-300)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy D(rho || sigma) in bits.

    Returns +inf when rho has weight outside sigma's support (eigenvalue
    tolerance SUPPORT_TOL relative to sigma's largest eigenvalue).
    Only rho's spectrum and sigma's eigenspaces enter, so the plain LAPACK
    decompositions of the density check serve.
    """
    rho, wr, _ = matcore.density_spectrum(rho)
    _, ws, vs = matcore.density_spectrum(sigma, vectors=True)
    ws = np.maximum(ws, 0.0)
    keep = _support(ws)
    rho_vs = rho @ vs
    if not keep.all():
        block = vs[:, ~keep].conj().T @ rho_vs[:, ~keep]
        if (float(np.real(np.trace(block))) > SUPPORT_TOL
                or float(np.linalg.norm(block)) > SUPPORT_TOL):
            return float("inf")
    pos = wr[wr > 0.0]
    h_rho = float(-(pos * np.log2(pos)).sum())
    # Tr(rho log2 sigma) from the diagonal of rho in sigma's eigenbasis
    diag = np.real((vs.conj() * rho_vs).sum(axis=0))
    cross = float(np.log2(ws[keep]) @ diag[keep])
    return -h_rho - cross


def relative_min_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D_inf(rho || sigma) = log2 of the least t with rho <= t sigma.

    Computed as log2 of the largest eigenvalue of
    sigma^(-1/2) rho sigma^(-1/2) on sigma's support; +inf when rho leaks
    outside that support.
    """
    rho = matcore.check_density(rho)
    _, ws, vs = matcore.density_spectrum(sigma, vectors=True)
    ws = np.maximum(ws, 0.0)
    keep = _support(ws)
    if not keep.all():
        kernel = vs[:, ~keep]
        if float(np.real(np.trace(kernel.conj().T @ rho @ kernel))) > SUPPORT_TOL:
            return float("inf")
    # same nonzero spectrum as sigma^(-1/2) rho sigma^(-1/2)
    half = vs[:, keep] / np.sqrt(ws[keep])
    mid = half.conj().T @ rho @ half
    top = max(float(np.linalg.eigvalsh((mid + mid.conj().T) / 2)[-1]), 0.0)
    if top == 0.0:
        return float("-inf")
    return float(np.log2(top))


@dataclass(frozen=True)
class CQState:
    """Classical-quantum state: weights p_z with conditional states rho_z."""

    probs: np.ndarray
    states: np.ndarray        # shape (k, d, d)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        st = np.asarray(self.states, dtype=np.complex128)
        if p.ndim != 1 or st.ndim != 3 or st.shape[0] != p.shape[0]:
            raise ValueError("probs must be (k,), states (k, d, d)")
        if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("weights must form a distribution")
        for z in range(st.shape[0]):
            if p[z] > 1e-12:
                matcore.check_density(st[z])
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))
        object.__setattr__(self, "states", st)

    @property
    def k(self) -> int:
        return int(self.probs.shape[0])

    @property
    def d(self) -> int:
        return int(self.states.shape[1])

    def density(self) -> np.ndarray:
        """Joint block-diagonal density on the classical (x) quantum space."""
        k, d = self.k, self.d
        out = np.zeros((k * d, k * d), dtype=np.complex128)
        for z in range(k):
            if self.probs[z] > 0.0:
                out[z * d:(z + 1) * d, z * d:(z + 1) * d] = self.probs[z] * self.states[z]
        return out

    def quantum_marginal(self) -> np.ndarray:
        avg = np.tensordot(self.probs, self.states, axes=(0, 0))
        return (avg + avg.conj().T) / 2


def cq_mutual_information(cq: CQState) -> float:
    """I(Z ; Q) of a cq state, the Holevo quantity, in bits."""
    avg = cq.quantum_marginal()
    h_avg = von_neumann_entropy(avg)
    inner = 0.0
    for z in range(cq.k):
        if cq.probs[z] > 1e-15:
            inner += cq.probs[z] * von_neumann_entropy(cq.states[z])
    return max(0.0, h_avg - inner)


def mutual_information(joint: np.ndarray) -> float:
    """I(X ; Y) in bits from a joint probability table with two axes."""
    pxy = np.asarray(joint, dtype=np.float64)
    if pxy.ndim != 2:
        raise ValueError("joint table must have exactly two axes")
    if np.any(pxy < -1e-12) or abs(pxy.sum() - 1.0) > 1e-9:
        raise ValueError("joint table must be a normalized distribution")
    pxy = np.clip(pxy, 0.0, None)
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    mask = pxy > 0.0
    ref = np.outer(px, py)
    total = float((pxy[mask] * (np.log2(pxy[mask]) - np.log2(ref[mask]))).sum())
    return max(0.0, total)


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
    k = int(np.prod(shape))
    if cq.k != k:
        raise ValueError("classical shape does not match the state")
    probs = cq.probs.reshape(shape)
    d = cq.d
    states = cq.states.reshape(shape + (d, d))
    other = tuple(ax for ax in range(len(shape)) if ax != axis)
    p_i = probs.sum(axis=other)
    blocks = np.zeros((shape[axis], d, d), dtype=np.complex128)
    weighted = probs[..., None, None] * states
    summed = weighted.sum(axis=other)
    for v in range(shape[axis]):
        if p_i[v] > 1e-15:
            blocks[v] = summed[v] / p_i[v]
        else:
            blocks[v] = np.eye(d) / d
    return CQState(p_i, blocks)


def raz_lemma_check(cq: CQState, shape: tuple, sigma_parts,
                    sigma_a: np.ndarray, atol: float = 1e-8) -> tuple:
    """Sum of per-coordinate informations against the product divergence.

    cq is classical on a tuple of coordinates with the given shape and
    quantum on one register.  The reference is a product distribution over
    the coordinates (sigma_parts, one vector per coordinate) tensored with
    one reference state sigma_a.  Returns (lhs, rhs, holds) with
    lhs = sum_i I(X_i ; A) and rhs the joint relative entropy.
    """
    shape = tuple(int(v) for v in shape)
    lhs = 0.0
    for axis in range(len(shape)):
        lhs += cq_mutual_information(_coordinate_cq(cq, shape, axis))
    q_joint = np.ones(1)
    for part in sigma_parts:
        q_joint = np.multiply.outer(q_joint, np.asarray(part, dtype=float))
    q_flat = q_joint.ravel()
    rhs = classical_relative_entropy(cq.probs, q_flat)
    if not np.isinf(rhs):
        for z in range(cq.k):
            if cq.probs[z] > 1e-15:
                term = relative_entropy(cq.states[z], sigma_a)
                if np.isinf(term):
                    rhs = float("inf")
                    break
                rhs += cq.probs[z] * term
    holds = bool(np.isinf(rhs) or lhs <= rhs + atol)
    return float(lhs), float(rhs), holds


def chain_rule_check(cq_prime: CQState, cq: CQState,
                     atol: float = 1e-8) -> tuple:
    """Split the cq relative entropy into classical plus conditional parts.

    Both states are classical on the same label set.  Returns
    (lhs, rhs, holds) where lhs is the relative entropy of the joint
    block-diagonal densities and rhs adds the classical divergence of the
    label laws to the expected conditional divergence under the first
    state's labels.  Two infinities count as agreement.
    """
    if cq_prime.k != cq.k or cq_prime.d != cq.d:
        raise ValueError("states must share classical and quantum shapes")
    lhs = relative_entropy(cq_prime.density(), cq.density())
    rhs = classical_relative_entropy(cq_prime.probs, cq.probs)
    if not np.isinf(rhs):
        for z in range(cq.k):
            if cq_prime.probs[z] > 1e-15:
                term = relative_entropy(cq_prime.states[z], cq.states[z])
                if np.isinf(term):
                    rhs = float("inf")
                    break
                rhs += cq_prime.probs[z] * term
    if np.isinf(lhs) or np.isinf(rhs):
        return lhs, rhs, bool(np.isinf(lhs) == np.isinf(rhs))
    return lhs, rhs, bool(abs(lhs - rhs) <= atol)
