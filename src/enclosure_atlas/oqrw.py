"""Open quantum random walks and their classical Markov-chain counterparts.

A minimal walk (inner dimension one) encodes a continuous-time Markov chain;
its minimal enclosures are the closed communication classes and its extremal
invariant states carry the extremal invariant measures on the diagonal.

Index convention: the jump operator for a hop from state i to state j at rate
q[i, j] is sqrt(q[i, j]) |j><i|, matching the classical row convention
pi Q = 0. Transition operators of a general walk are keyed (destination,
source).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .decomposition import VerificationClause, _clause, decompose, enumerate_minimal_enclosures
from .linalg import DEFAULT_TOL, Tolerances, frob, kernel_basis
from .semigroup import KrausChannel, LindbladModel, _hermiticity_rule

OQRW_CONVENTION_NOTE = (
    "jump from i to j at rate q[i][j]; operator sqrt(q[i][j]) |j><i| (row convention pi Q = 0)"
)


@dataclass(frozen=True)
class RateMatrix:
    """Generator of a continuous-time Markov chain: rates q_ij >= 0, q_ii <= 0
    and row sums within residual_tol · |q_ii|, the same in every time unit."""

    q: np.ndarray

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @classmethod
    def create(cls, q, tol: Tolerances = DEFAULT_TOL) -> "RateMatrix":
        q = np.asarray(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"rate matrix must be square, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("rate matrix has non-finite entries")
        n = q.shape[0]
        for i in range(n):
            for j in range(n):
                if i != j and q[i, j] < 0:
                    raise ValueError(f"rates[{i}][{j}] = {q[i, j]} must be nonnegative")
            if q[i, i] > 0:
                raise ValueError(f"rates[{i}][{i}] = {q[i, i]} must be nonpositive")
            row_sum = float(q[i].sum())
            if abs(row_sum) > tol.residual_tol * abs(q[i, i]):
                raise ValueError(f"row {i} sums to {row_sum}, expected 0")
        return cls(q=q)


@dataclass(frozen=True)
class OqrwSpec:
    """Walk on a finite graph with an internal degree of freedom.

    transition_ops maps (destination, source) vertex pairs to operators on
    the inner space. The builder chosen is the time mode: ``general_oqrw``
    reads them as rate amplitudes of the continuous-time walk, with no
    normalization, and ``oqrw_channel`` as the Kraus operators of the
    discrete-time walk, whose source columns must satisfy sum_dest B†B = 1,
    the channel's trace rule. Local Hamiltonians drive only the
    continuous-time walk.
    """

    num_sites: int
    inner_dim: int
    transition_ops: Mapping
    local_hamiltonians: tuple[np.ndarray, ...] = field(default=())

    @classmethod
    def create(
        cls,
        num_sites: int,
        inner_dim: int,
        transition_ops: Mapping,
        local_hamiltonians: Sequence = (),
        tol: Tolerances = DEFAULT_TOL,
    ) -> "OqrwSpec":
        ops = {}
        for key, op in transition_ops.items():
            dest, src = key
            if not (0 <= dest < num_sites and 0 <= src < num_sites):
                raise ValueError(f"transition key {key} outside the vertex range")
            op = np.asarray(op, dtype=complex)
            if op.shape != (inner_dim, inner_dim):
                raise ValueError(
                    f"transition operator {key} has shape {op.shape}, "
                    f"expected {(inner_dim, inner_dim)}"
                )
            ops[(dest, src)] = op
        hams = tuple(np.asarray(h, dtype=complex) for h in local_hamiltonians)
        if hams and len(hams) != num_sites:
            raise ValueError(f"expected {num_sites} local Hamiltonians, got {len(hams)}")
        for i, h in enumerate(hams):
            if h.shape != (inner_dim, inner_dim):
                raise ValueError(f"local Hamiltonian {i} has shape {h.shape}")
            defect, bound = _hermiticity_rule(h, tol)
            if defect > bound:
                raise ValueError(f"local Hamiltonian {i} is not Hermitian: ‖H − H†‖_F = {defect:.3e}")
        return cls(
            num_sites=num_sites,
            inner_dim=inner_dim,
            transition_ops=ops,
            local_hamiltonians=hams,
        )


def minimal_oqrw(rate: RateMatrix) -> LindbladModel:
    """Lindblad model of the minimal walk: H = 0 and one jump
    sqrt(q_ij) |j><i| per active edge."""
    return general_oqrw(spec_from_rate_matrix(rate))


def _site_operator(op: np.ndarray, dest: int, src: int, num_sites: int) -> np.ndarray:
    hop = np.zeros((num_sites, num_sites), dtype=complex)
    hop[dest, src] = 1.0
    return np.kron(op, hop)


def general_oqrw(spec: OqrwSpec) -> LindbladModel:
    """Continuous-time walk on inner_space ⊗ C^num_sites.

    Jump operators are B ⊗ |dest><src| and the Hamiltonian is the block
    diagonal of the local terms.
    """
    dim = spec.inner_dim * spec.num_sites
    h = np.zeros((dim, dim), dtype=complex)
    for i, hi in enumerate(spec.local_hamiltonians):
        h += _site_operator(hi, i, i, spec.num_sites)
    jumps = [
        _site_operator(op, dest, src, spec.num_sites)
        for (dest, src), op in sorted(spec.transition_ops.items())
    ]
    return LindbladModel.create(h, jumps)


def oqrw_channel(spec: OqrwSpec, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Discrete-time walk as a Kraus channel with operators B ⊗ |dest><src|,
    validated by ``KrausChannel.create``. A channel has no Hamiltonian, so a
    spec with local Hamiltonians is rejected."""
    if spec.local_hamiltonians:
        raise ValueError("a discrete-time walk takes no local Hamiltonians; use general_oqrw")
    kraus = [
        _site_operator(op, dest, src, spec.num_sites)
        for (dest, src), op in sorted(spec.transition_ops.items())
    ]
    return KrausChannel.create(kraus, tol)


def spec_from_rate_matrix(rate: RateMatrix) -> OqrwSpec:
    """One-dimensional inner space encoding of a rate matrix."""
    ops = {}
    for i in range(rate.n):
        for j in range(rate.n):
            if i != j and rate.q[i, j] > 0:
                ops[(j, i)] = np.array([[np.sqrt(rate.q[i, j])]])
    return OqrwSpec.create(rate.n, 1, ops)


def closed_classes(rate: RateMatrix) -> list[list[int]]:
    """Closed communication classes of the chain.

    Reachability along positive rates is the boolean closure of the
    adjacency matrix, by ⌈log₂ n⌉ squarings. State i lies in a closed class
    iff every state it reaches reaches it back; its class is then everything
    it reaches. Each class is sorted ascending; the list is sorted by
    smallest member.
    """
    n = rate.n
    reach = (rate.q > 0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = (reach.astype(float) @ reach) > 0
    closed = ~np.any(reach & ~reach.T, axis=1)
    classes = {tuple(np.flatnonzero(reach[i]).tolist()) for i in np.flatnonzero(closed)}
    return [list(c) for c in sorted(classes)]


def invariant_measures(rate: RateMatrix, tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """One extremal invariant measure per closed class.

    Solves pi Q = 0 restricted to the class (the chain is irreducible there,
    so the solution is unique up to scale), normalized to a probability
    vector supported on the class. The kernel is decided on the class block
    divided by its largest rate, on unit scale in every time unit.
    """
    measures = []
    for cls in closed_classes(rate):
        sub = rate.q[np.ix_(cls, cls)]
        # pi sub = 0  <=>  sub^T pi^T = 0; an absorbing state's block is 0
        null = kernel_basis(sub.T / (np.abs(sub).max() or 1.0), tol)
        if len(null) != 1:
            raise ValueError(
                f"class {cls} yields a {len(null)}-dimensional balance kernel; "
                "class identification failed"
            )
        total = null[0].sum()
        if abs(total) < tol.rank_tol:
            raise ValueError(f"balance solution on class {cls} has zero mass")
        # dividing by the sum also removes the kernel vector's complex phase
        pi_local = (null[0] / total).real
        if pi_local.min() < -tol.residual_tol:
            raise ValueError(f"balance solution on class {cls} is not nonnegative")
        pi = np.zeros(rate.n)
        pi[cls] = np.clip(pi_local, 0.0, None)
        measures.append(pi / pi.sum())
    return measures


@dataclass(frozen=True)
class OqrwTheoremRecord:
    classes: tuple[tuple[int, ...], ...]
    measures: tuple[np.ndarray, ...]
    zero_diagonal_states: tuple[int, ...]
    clauses: tuple[VerificationClause, ...]
    passed: bool
    convention: str


def verify_oqrw_theorem(rate: RateMatrix, tol: Tolerances = DEFAULT_TOL) -> OqrwTheoremRecord:
    """Cross-validate the walk's decomposition against the classical chain.

    Checks that each minimal enclosure is the coordinate span of exactly one
    closed class, that each extremal state is diagonal with the matching
    invariant measure, and that no degenerate families appear. Every clause
    passes at residual_tol: ``enclosure_count`` reads
    |#enclosures − #classes| + (#classes − #matched classes), and
    ``no_degenerate_families`` the number of families. States with a
    zero diagonal rate are flagged (fully inactive pairs can merge quantum
    mechanically) but do not abort the comparison.
    """
    classes = closed_classes(rate)
    measures = invariant_measures(rate, tol)
    report = decompose(minimal_oqrw(rate), tol=tol)
    enclosures = enumerate_minimal_enclosures(report)
    clauses: list[VerificationClause] = []

    def add(name, residual):
        clauses.append(_clause(name, residual, tol))

    matched = set()
    for k, (cls, pi) in enumerate(zip(classes, measures)):
        target = np.zeros((rate.n, rate.n))
        target[cls, cls] = 1.0
        best = None
        for idx, (label, rec, _) in enumerate(enclosures):
            gap = frob(rec.projector - target)
            if best is None or gap < best[0]:
                best = (gap, idx, label, rec)
        gap, idx, label, rec = best if best else (np.inf, -1, "none", None)
        add(f"class{k}:projector_match:{label}", gap)
        if rec is not None:
            matched.add(idx)
            add(f"class{k}:state_match:{label}", frob(rec.extremal_state - np.diag(pi)))
    add("enclosure_count", abs(len(enclosures) - len(classes)) + len(classes) - len(matched))
    add("no_degenerate_families", len(report.families))

    zero_diag = tuple(i for i in range(rate.n) if rate.q[i, i] == 0.0)
    return OqrwTheoremRecord(
        classes=tuple(tuple(c) for c in classes),
        measures=tuple(measures),
        zero_diagonal_states=zero_diag,
        clauses=tuple(clauses),
        passed=all(c.ok for c in clauses),
        convention=OQRW_CONVENTION_NOTE,
    )
