"""Lindblad generators, quantum channels, and their dense superoperator forms.

Vectorization uses the column-stacking convention throughout:
vec(A X B) = (B^T ⊗ A) vec(X). A superoperator is the n² × n² matrix acting
on column-stacked n × n operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    dagger,
    frob,
    hermitian_part,
    hermiticity_defect,
    require_square,
)

VECTORIZATION_NOTE = "column-stacking: vec(A X B) = (B^T kron A) vec(X)"


def vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x).reshape(-1, order="F")

def unvec(v: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return np.asarray(v).reshape((n, n), order="F")


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus jump operators defining a Lindblad generator."""

    dim: int
    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...]

    @classmethod
    def create(cls, hamiltonian, jumps=(), tol: Tolerances = DEFAULT_TOL) -> "LindbladModel":
        """The model; ValueError unless H is Hermitian (``_input_rule``)."""
        h = require_square(hamiltonian)
        n = h.shape[0]
        ops = tuple(require_square(j) for j in jumps)
        for k, op in enumerate(ops):
            if op.shape != (n, n):
                raise ValueError(f"jump operator {k} has shape {op.shape}, expected {(n, n)}")
        return _require(cls(dim=n, hamiltonian=h, jumps=ops), tol)

    @cached_property
    def _drift(self) -> np.ndarray:
        """K = -iH - ½ Σ_j L_j†L_j, H the Hermitian part of the Hamiltonian
        (``create`` accepts a small anti-Hermitian part)."""
        return -1j * hermitian_part(self.hamiltonian) - 0.5 * _gram(self.jumps, self.dim)

    @cached_property
    def _stack(self) -> np.ndarray:
        return _stacked(self.jumps, self.dim)

    @cached_property
    def _weighted(self) -> np.ndarray:
        return _weighted_operators(self)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    dim: int
    kraus: tuple[np.ndarray, ...]

    @classmethod
    def create(cls, kraus: Sequence, tol: Tolerances = DEFAULT_TOL) -> "KrausChannel":
        """The channel; ValueError unless it preserves trace (``_input_rule``)."""
        ops = tuple(require_square(v) for v in kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        n = ops[0].shape[0]
        for k, op in enumerate(ops):
            if op.shape != (n, n):
                raise ValueError(f"Kraus operator {k} has shape {op.shape}, expected {(n, n)}")
        return _require(cls(dim=n, kraus=ops), tol)

    @cached_property
    def _drift(self) -> np.ndarray:
        # Phi - Id is the generator with H = 0, jumps V_i and K = -½·1: exactly
        # that, not -½ Σ V_i†V_i, whose roundoff would fill zeros of Phi - Id.
        return -0.5 * np.eye(self.dim)

    @cached_property
    def _stack(self) -> np.ndarray:
        return _stacked(self.kraus, self.dim)

    @cached_property
    def _weighted(self) -> np.ndarray:
        return _weighted_operators(self)


@dataclass(frozen=True)
class Superoperator:
    """Dense matrix representation of a linear map on n x n operators."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (self.dim**2, self.dim**2):
            raise ValueError(
                f"superoperator matrix has shape {m.shape}, expected {(self.dim**2,) * 2}"
            )


def _stacked(ops: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The operators as one k × n × n complex array."""
    return np.array(ops, dtype=complex).reshape(len(ops), n, n)


def _gram(ops: Sequence[np.ndarray], n: int) -> np.ndarray:
    """sum_j A_j†A_j over n × n operators."""
    return sum((dagger(op) @ op for op in ops), np.zeros((n, n), dtype=complex))


def _kind(obj, verb: str) -> str:
    """A model's kind, "lindblad" or "kraus"; TypeError "cannot {verb} …" otherwise."""
    if isinstance(obj, LindbladModel):
        return "lindblad"
    if isinstance(obj, KrausChannel):
        return "kraus"
    raise TypeError(f"cannot {verb} object of type {type(obj).__name__}")


def _scale(obj) -> float:
    """s = ‖K‖_F + g² with g² = Σ_j ‖L_j‖²_F (s = ½√n + n for a channel):
    L → cL multiplies s by c, and ‖L(ρ)‖_F <= 2s for a state ρ."""
    return frob(obj._drift) + frob(obj._stack) ** 2


def _weighted_operators(obj) -> np.ndarray:
    """The model's operators as one stack, weighted so that no residual built
    from it depends on scale: K/s and (g/s)·L_j (all zero for the zero
    generator, s = 0; K = -½·1 and L_j = V_j for a channel). The Frobenius
    norm of any stack X A Y over the weighted A is unchanged by L → cL and by
    reordering, splitting or unitarily mixing the jumps or Kraus operators.
    Built once per model, as its ``_weighted`` attribute."""
    s = _scale(obj)
    stack = np.concatenate([obj._drift[None], frob(obj._stack) * obj._stack])
    return stack / s if s > 0 else stack


def _trace_defect(obj) -> float:
    """‖L*(1)‖_F = ‖K + K† + Σ_j A_j†A_j‖_F, the rate at which L takes trace
    from states: ‖Σ_i V_i†V_i − 1‖_F for a channel (K = −½·1), and roundoff
    for a Lindblad model, whose K is built to make it zero."""
    ops = obj.jumps if isinstance(obj, LindbladModel) else obj.kraus
    return frob(obj._drift + dagger(obj._drift) + _gram(ops, obj.dim))


def _hermiticity_rule(h: np.ndarray, tol: Tolerances) -> tuple[float, float]:
    """(‖H − H†‖_F, 100 · residual_tol · ‖H‖_F): on H's own scale (H = 0 passes)."""
    return hermiticity_defect(h), 100 * tol.residual_tol * frob(h)


def _input_rule(obj, tol: Tolerances) -> tuple[float, bool, str, bool]:
    """(residual, verdict, message, overflow) of a model's one input rule,
    which holds when residual <= bound: ``create`` raises the message unless
    it holds, and ``validate`` reports the verdict as ``ok``. Each bound
    moves with its object, so H → cH, L_j → √c L_j keep the verdict:
    ``_hermiticity_rule`` of H, or a channel's trace defect
    (``_trace_defect``) against rank_tol · s (``_scale``), the most that
    stage 1's cut absorbs: the channel is analyzed as trace preserving
    (K = −½·1), and L†(1) is that defect. The rule fails when s or the bound
    overflows (``overflow``), or when s is below the smallest normal float
    while some operator is not zero: K/s overflows (``_weighted_operators``),
    or s rounds to 0 and the model would read as the zero generator, which
    passes. No residual is compared then."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = _scale(obj)
        if isinstance(obj, LindbladModel):
            residual, bound = _hermiticity_rule(obj.hamiltonian, tol)
            what, of = "hamiltonian is not Hermitian: ‖H − H†‖_F", "100 · residual_tol · ‖H‖_F"
        else:
            residual, bound = _trace_defect(obj), tol.rank_tol * s
            what = "Kraus operators are not trace preserving: normalization defect ‖Σ V†V − 1‖_F"
            of = "rank_tol · s"
    if not np.isfinite(s + bound):
        return residual, False, f"operator norms overflow: s = {s:.3e}, {of} = {bound:.3e}", True
    if s < np.finfo(float).tiny and (obj._drift.any() or obj._stack.any()):
        return residual, False, f"operator norms underflow: s = {s:.3e}", False
    return residual, bool(residual <= bound), f"{what} = {residual:.3e} > {of} = {bound:.3e}", False


def _require(obj, tol: Tolerances):
    """obj, or ValueError when its input rule fails (``_input_rule``)."""
    _, holds, message, _ = _input_rule(obj, tol)
    if not holds:
        raise ValueError(message)
    return obj


def _sandwich_sum(stack: np.ndarray) -> np.ndarray:
    """sum_a conj(A_a) ⊗ A_a, the matrix of Y -> sum_a A_a Y A_a†, written
    into its n² × n² output one row index i at a time.

    Entry [(i, k), (j, l)] is sum_a conj(A_a[i, j]) A_a[k, l]. With X the
    k × n² stack of the row-major A_a, the n × n² GEMM conj(A[:, i, :])ᵀ X
    holds these sums at [j, (k, l)], the rows (i, ·) once k and j swap. An
    entry is an exact zero wherever every term is.
    """
    k, n, _ = stack.shape
    x = stack.reshape(k, n * n)
    out = np.empty((n, n, n, n), dtype=complex)
    for i in range(n):
        out[i] = (dagger(stack[:, i, :]) @ x).reshape(n, n, n).transpose(1, 0, 2)
    return out.reshape(n * n, n * n)


def build_generator(model: LindbladModel | KrausChannel) -> Superoperator:
    """Schrödinger-picture generator rho -> -i[H,rho] + sum_j D[L_j](rho),
    assembled as 1 ⊗ K + conj(K) ⊗ 1 + sum_j conj(L_j) ⊗ L_j; for a channel
    (K = -½·1, jumps V_i) this is Phi - Id."""
    n, drift = model.dim, model._drift
    mat = _sandwich_sum(model._stack)
    # Entry [(i, k), (j, l)] of the (n, n, n, n) view: 1 ⊗ K fills i = j,
    # conj(K) ⊗ 1 fills k = l.
    quad, diag = mat.reshape(n, n, n, n), np.arange(n)
    quad[diag, :, diag, :] += drift
    quad[:, diag, :, diag] += drift.conj()
    return Superoperator(dim=n, matrix=mat)


def adjoint_generator(model: LindbladModel | KrausChannel) -> Superoperator:
    """Heisenberg-picture generator A -> i[H,A] + sum_j (L_j† A L_j - ½{L_j†L_j, A}),
    the Hilbert-Schmidt adjoint of ``build_generator``."""
    return Superoperator(dim=model.dim, matrix=dagger(build_generator(model).matrix))


def channel_superoperator(channel: KrausChannel, tol: Tolerances = DEFAULT_TOL) -> Superoperator:
    """Matrix sum_j conj(V_j) ⊗ V_j of the channel rho -> sum_j V_j rho V_j†,
    once the channel's input rule holds (``_input_rule``)."""
    _require(channel, tol)
    return Superoperator(dim=channel.dim, matrix=_sandwich_sum(channel._stack))


def generator_action(obj, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """The generator of a model applied to one operator, in O(k n³) and
    without a superoperator: L(x) = K x + x K† + sum_j L_j x L_j†, or with
    ``adjoint`` the Heisenberg picture L*(x) = K† x + x K + sum_j L_j† x L_j.
    For a channel (K = -½·1, jumps V_j) these are Phi(x) − x and
    Phi*(x) − x.

    K and the k × n × n stack of operators are computed once per model; the
    sum over operators is two GEMMs: the stacked A_j x, then its contraction
    with the stacked A_j†."""
    _kind(obj, "apply")
    drift = dagger(obj._drift) if adjoint else obj._drift
    out = drift @ x + x @ dagger(drift)
    ops = obj._stack.conj().transpose(0, 2, 1) if adjoint else obj._stack
    left = (ops.reshape(-1, obj.dim) @ x).reshape(ops.shape)
    return out + np.tensordot(left, ops.conj(), axes=([0, 2], [0, 2]))


def choi_min_eigenvalue(channel: KrausChannel) -> float:
    """Smallest eigenvalue of the Choi matrix C C†, C = [vec V_j], from the
    k × k Gram matrix C†C: C C† has rank at most k, so the value is 0 when
    k < n², and otherwise the n²-th largest eigenvalue of C†C."""
    n2, k = channel.dim**2, len(channel.kraus)
    if k < n2:
        return 0.0
    c = np.column_stack([vec(v) for v in channel.kraus])
    return float(np.linalg.eigvalsh(dagger(c) @ c)[k - n2])


@dataclass(frozen=True)
class ModelDiagnostics:
    kind: str
    dim: int
    hermiticity_residual: float
    trace_residual: float
    choi_min_eigenvalue: float | None
    ok: bool


def validate(obj, tol: Tolerances = DEFAULT_TOL) -> ModelDiagnostics:
    """Diagnostics for a model or channel; never raises on bad numbers.

    ``ok`` is ``create``'s rule (``_input_rule``), so it holds for every model
    that ``create`` accepts, in every time unit. The residuals are absolute:
    ‖H − H†‖_F (0 for a channel), the trace defect ‖L*(1)‖_F
    (``_trace_defect``) and, for a channel, the smallest Choi eigenvalue, at
    least 0 up to roundoff since Σ_i vec V_i vec V_i† ⪰ 0 for any V_i. A
    channel whose operator norms overflow has no Choi eigenvalue to read:
    None, as for a Lindblad model.
    """
    kind = _kind(obj, "validate")
    residual, ok, _, overflow = _input_rule(obj, tol)
    if kind == "lindblad":
        return ModelDiagnostics(kind, obj.dim, residual, _trace_defect(obj), None, ok)
    choi = None if overflow else choi_min_eigenvalue(obj)
    return ModelDiagnostics(kind, obj.dim, 0.0, residual, choi, ok)
