"""Recurrent/transient split and the decomposition of the recurrent subspace
into unique minimal enclosures and degenerate families of equivalent
enclosures.

The pipeline: the maximal-support invariant state gives the recurrent
projector P_R; with a faithful state on R, the fixed points of the evolution
compressed to R form the commutant F of the model's operators compressed to
R (Frigerio, Commun. Math. Phys. 63, 1978), checked on the compressed ker L†;
the eigenspaces of the Hermitian element E_F(D), the projection of
D = diag(0, 1, …, n−1) onto F, are its minimal projections, the minimal
enclosures, and the corners of one generic element group them into blocks of
equivalent enclosures and give the partial isometries (matrix units) linking
them. A projector P is an enclosure exactly when P⊥ A P = 0 for every
operator A of the model (Baumgartner & Narnhofer, J. Phys. A 41, 2008). Both
checks weigh the operators so that their residuals do not depend on the time
unit or on how the operators are listed (``_weighted_operators``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _eigh,
    _range_projector,
    check_projector,
    cluster_sorted_values,
    dagger,
    fix_phase,
    frob,
    gather_sectors,
    hermitian_part,
    hs_inner,
    kernel_basis,
    lex_key,
    orthonormal_hermitian_span,
    psd_project,
    real_null_spaces,
    require_square,
    support_projector,
)
from .semigroup import (
    VECTORIZATION_NOTE,
    _kind,
    _require,
    _scale,
    build_generator,
    generator_action,
    unvec,
    vec,
)


# Width of an E_F(D) eigenvalue cluster, and the corner norm that links two
# clusters (``_link_clusters``). E_F(D)'s spectrum lies in [0, n − 1] and the
# retry elements have unit-scale coefficients, in every time unit.
_CLUSTER_WIDTH = 1e-7


class DecompositionError(RuntimeError):
    """Pipeline failure tagged with the stage that produced it."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass(frozen=True)
class RecurrentSplit:
    recurrent: np.ndarray
    transient: np.ndarray
    dimension: int
    state: np.ndarray
    # Orthonormal bases (as columns) of ker L and ker L† from one
    # factorization of L (``real_null_spaces``).
    kernel: np.ndarray
    adjoint_kernel: np.ndarray


@dataclass(frozen=True)
class CentralBlock:
    projector: np.ndarray
    dimension: int
    multiplicity: int
    inner_dimension: int
    member_projectors: tuple[np.ndarray, ...]
    links: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class AlgebraStructure:
    recurrent_dimension: int
    fixed_point_dimension: int
    center_dimension: int
    blocks: tuple[CentralBlock, ...]
    fixed_point_basis: tuple[np.ndarray, ...]
    residuals: dict


@dataclass(frozen=True)
class EnclosureRecord:
    projector: np.ndarray
    dimension: int
    extremal_state: np.ndarray


@dataclass(frozen=True)
class DegenerateFamily:
    members: tuple[EnclosureRecord, ...]
    isometries: dict
    block_projector: np.ndarray


@dataclass(frozen=True)
class DecompositionReport:
    kind: str
    dim: int
    tolerances: Tolerances
    recurrent: np.ndarray
    transient: np.ndarray
    recurrent_dimension: int
    transient_dimension: int
    recurrent_method: str
    max_support_state: np.ndarray
    unique_enclosures: tuple[EnclosureRecord, ...]
    families: tuple[DegenerateFamily, ...]
    is_unique: bool
    residuals: dict
    conventions: dict
    # Orthonormal basis (as columns) of ker L (L = Phi - Id for a channel),
    # each vec of a Hermitian matrix; verification reuses it, so one analyze
    # factors L once. Not serialized.
    invariant_kernel: np.ndarray


def _leading_isometry(p: np.ndarray, rank: int) -> np.ndarray:
    """Eigenvectors of the ``rank`` largest eigenvalues of p's Hermitian part:
    the range isometry of a rank-``rank`` projector, defined for any p; a
    coordinate projector's is exactly its unit vectors (``_eigh``)."""
    return _eigh(hermitian_part(p))[1][:, max(len(p) - rank, 0) :]


def _kernel_stack(kernel: np.ndarray) -> np.ndarray:
    """A basis of ker L as columns, each vec of an n × n matrix, as a stack."""
    n = int(round(np.sqrt(kernel.shape[0])))
    return kernel.T.reshape(-1, n, n).swapaxes(1, 2)


def recurrent_projector(obj, tol: Tolerances = DEFAULT_TOL) -> RecurrentSplit:
    """Split the space of a Lindblad model or Kraus channel into recurrent
    and transient parts.

    The recurrent projector is the support of the maximal-support invariant
    state E(1/n), where E is the spectral projection at eigenvalue 0: the
    projection onto ker L along ran L. With orthonormal bases K of ker L and
    Y of ker L† from ``real_null_spaces``, E = K (Y†K)⁻¹ Y†. A channel is
    the generator with H = 0, K = -½·1 and jumps V_i, so L = Phi - Id (the
    ``build_generator`` matrix of either kind), and E is the Cesàro limit of
    the channel's powers. Eigenvalue 0 is semisimple for any
    trace-preserving semigroup or channel; a singular Y†K means it is not,
    and raises. Its rank cut is rank_tol · s on the operators' scale
    (``_scale``), so L → cL gives the same split at every c. The split keeps
    K and Y (as columns, each vec of a Hermitian matrix) for later stages.
    The complex n² × n² matrix of L is only the argument of
    ``gather_sectors``, so it is freed when the gather of its sectors' real
    blocks returns: the factorization works on those alone.
    """
    _kind(obj, "decompose")
    kern, left = real_null_spaces(gather_sectors(build_generator(obj).matrix), _scale(obj), tol)
    n = obj.dim
    if kern.shape[1] == 0:
        raise RuntimeError("the generator has no eigenvalue at zero")
    overlap = dagger(left) @ kern
    if float(np.linalg.svd(overlap, compute_uv=False)[-1]) <= tol.rank_tol:
        raise RuntimeError("eigenvalue 0 is not semisimple: ker L meets ran L")
    coeff = np.linalg.solve(overlap, dagger(left) @ vec(np.eye(n) / n))
    state = psd_project(hermitian_part(unvec(kern @ coeff)), tol)
    recurrent = support_projector(state, tol)
    return RecurrentSplit(
        recurrent=recurrent,
        transient=np.eye(n) - recurrent,
        dimension=int(round(np.trace(recurrent).real)),
        state=state,
        kernel=kern,
        adjoint_kernel=left,
    )


def cutoff_generator(obj, p_r: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map A -> P_R L*(P_R A P_R) P_R of a model, applied from its
    operators (``generator_action`` in the Heisenberg picture) in O(k n³).

    Its kernel, restricted to operators supported in the recurrent subspace,
    is the fixed-point set of the compressed Heisenberg evolution; for a
    channel L* = Phi* - Id. ``decompose`` does not call it:
    ``algebra_structure`` decides F from the operators.
    """
    _kind(obj, "decompose")
    p_r = require_square(p_r)
    if p_r.shape != (obj.dim, obj.dim):
        raise ValueError("projector dimension does not match the model")
    return lambda a: p_r @ generator_action(obj, p_r @ a @ p_r, adjoint=True) @ p_r


@dataclass(frozen=True)
class VerificationClause:
    name: str
    residual: float
    ok: bool


def _clause(name: str, residual: float, tol: Tolerances) -> VerificationClause:
    """A named residual, which passes at residual_tol."""
    return VerificationClause(
        name=name, residual=float(residual), ok=bool(residual <= tol.residual_tol)
    )


def is_enclosure(p_v: np.ndarray, obj, tol: Tolerances = DEFAULT_TOL) -> VerificationClause:
    """Check whether a projector P projects onto an enclosure of a model:
    P⊥ K P = 0 and P⊥ L_j P = 0 (P⊥ V_i P = 0 for a channel, whose K is
    -½·1). The residual δ is the Frobenius norm of the weighted stack of
    these leaks (``_weighted_operators``), so it reads the same at every
    time scale; the clause "enclosure" passes when δ <= residual_tol.
    """
    p_v = require_square(p_v)
    if p_v.shape != (obj.dim, obj.dim):
        raise ValueError("projector dimension does not match the model")
    return _clause("enclosure", frob((np.eye(obj.dim) - p_v) @ obj._weighted @ p_v), tol)


def _link_clusters(x: np.ndarray, parts: Sequence[slice]) -> list[list[tuple[slice, np.ndarray]]]:
    """Group eigenvalue clusters into the blocks of the algebra.

    ``x`` is a generic algebra element in the eigenbasis of a generic
    Hermitian one, whose clusters ``parts`` are minimal projections. A
    corner x[q, p] is zero between blocks and a nonzero multiple of the
    matrix unit p -> q inside one, so each cluster joins the first group
    whose head has its dimension and links to it, with the normalized
    corner as its link (the head's link is the identity), or starts a new
    group. A corner left between groups shows in ``_block_form_distance``.
    """
    groups: list[list[tuple[slice, np.ndarray]]] = []
    for part in parts:
        for group in groups:
            head = group[0][0]
            corner = x[part, head]
            scale = frob(corner) / np.sqrt(head.stop - head.start)
            if corner.shape[0] == corner.shape[1] and scale > _CLUSTER_WIDTH:
                group.append((part, corner / scale))
                break
        else:
            groups.append([(part, np.eye(part.stop - part.start))])
    return groups


def _block_form_distance(stack: np.ndarray, layout: Sequence[tuple[int, int]]) -> float:
    """Frobenius distance of a stack of r × r matrices from the algebra
    ⊕_b M_{m_b} ⊗ 1_{d_b}, its blocks laid along the diagonal in the order of
    ``layout`` = [(m_b, d_b)]: each d × d block of a group is replaced by
    (trace / d)·1_d and each block between groups by 0."""
    rest, start = stack.copy(), 0
    for m, d in layout:
        g = slice(start, start + m * d)
        traces = np.trace(rest[:, g, g].reshape(-1, m, d, m, d), axis1=2, axis2=4)
        rest[:, g, g] -= np.kron(traces / d, np.eye(d))
        start += m * d
    return frob(rest)


def algebra_structure(
    obj, p_r: np.ndarray, adjoint_kernel: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> AlgebraStructure:
    """Block structure of the fixed-point algebra of a model on its recurrent
    subspace.

    Restricted to the recurrent subspace, the fixed-point set is a unital
    †-closed algebra F ≅ ⊕_b M_{m_b} ⊗ 1_{d_b}. Blocks with m = 1 hold a
    unique minimal enclosure; blocks with m >= 2 hold a degenerate family of
    m equivalent enclosures of dimension d, linked by matrix units.

    One sample reads it all off two elements of F (Murota, Kanno, Kojima &
    Kojima, Japan J. Indust. Appl. Math. 27, 2010): the eigenspaces of a
    Hermitian one are the minimal projections, and the corners of a generic
    complex one group them into blocks and give the links
    (``_link_clusters``). The first Hermitian one is E_F(D), the HS projection
    of D = diag(0, 1, …, n−1) onto F: A_b ⊗ 1_d on block b, with A_b
    generically nondegenerate, so the members depend only on the dynamics and
    the input basis. It is solved from the compressed ker L† elements, so the
    zeros they share with D stay exact (``_eigh``), and a member on
    coordinates is their projector (``_range_projector``). Each member's
    eigenvectors turned by its link form a basis V in which the sample claims
    F = ⊕_b M_{m_b} ⊗ 1_{d_b}, block by block. The ``algebra_closure``
    residual is the distance of V† f V from that form over the orthonormal
    basis of F (``_block_form_distance``): it is 0 exactly when F lies in the
    claimed algebra, and since 1_R is in F and ‖link‖_F = √d, only when every
    link is unitary. A sample is accepted when Σ m_b² = dim F and the closure
    is at most residual_tol, which proves F equal to the claimed algebra;
    otherwise up to four samples with a generic Hermitian element from a fixed
    generator follow, then an error is raised.

    The fixed points are P_R Y P_R for Y in ker L† (``adjoint_kernel``, as
    columns): every invariant state lives in R, so compression to R is
    injective on ker L†. R carries a faithful invariant state, so F is the
    commutant of the compressed operators A_R (Frigerio, Commun. Math. Phys.
    63, 1978). The weighted commutators [A_R, f] (``_weighted_operators``)
    of an orthonormal Hermitian basis, one column per f, are folded one
    operator at a time into a dim F × dim F triangular factor whose kernel
    (``kernel_basis``) must have dimension dim ker L†; its norm ε_F is the
    ``algebra_commutant`` residual. At most dim F columns lie in that
    kernel, so a compression that is not injective (a stage-1 kernel that
    is too large) fails the same count, with dim F in its message.
    """
    rng = np.random.default_rng(0)
    iso_r = _leading_isometry(p_r, check_projector(p_r, tol))
    r = iso_r.shape[1]
    k = adjoint_kernel.shape[1]
    if k == 0:
        raise DecompositionError("algebra", "the fixed-point space is empty")
    compressed = dagger(iso_r) @ _kernel_stack(adjoint_kernel) @ iso_r
    fbasis = orthonormal_hermitian_span(list(compressed), tol)
    stack, dim_f = np.array(fbasis), len(fbasis)
    tri = np.zeros((0, dim_f))
    for a in dagger(iso_r) @ obj._weighted @ iso_r:
        block = (a @ stack - stack @ a).reshape(dim_f, r * r).T
        tri = np.linalg.qr(np.vstack([tri, block]), mode="r")
    fixed, commutant = len(kernel_basis(tri, tol)), frob(tri)
    if fixed != k:
        raise DecompositionError(
            "algebra",
            f"only {fixed} of {k} compressed ker L† elements commute with the model's "
            f"operators (dim F = {dim_f}, ε_F = {commutant:.3e})",
        )

    # E_F(D) = Σ c_i X_i, ⟨X_i, X_j⟩ c_j = ⟨X_i, D_R⟩ over the compressed ker L† basis X
    d_r = dagger(iso_r) @ (np.arange(len(p_r))[:, None] * iso_r)
    flat = compressed.reshape(k, -1)
    coeff = np.linalg.solve((flat.conj() @ flat.T).real, (flat.conj() @ d_r.ravel()).real)
    element = hermitian_part(np.tensordot(coeff, compressed, axes=1))
    for _ in range(5):
        c = rng.standard_normal(dim_f) + 1j * rng.standard_normal(dim_f)
        w, u = _eigh(element)
        x = dagger(u) @ np.tensordot(c, stack, axes=1) @ u
        groups = _link_clusters(x, cluster_sorted_values(w, _CLUSTER_WIDTH))
        # each member's eigenvectors turned by its link: F's claimed form in this basis
        v = np.hstack([u[:, part] @ link for group in groups for part, link in group])
        layout = [(len(group), group[0][0].stop - group[0][0].start) for group in groups]
        closure = _block_form_distance(dagger(v) @ stack @ v, layout)
        squares = sum(m * m for m, _ in layout)
        if squares == dim_f and closure <= tol.residual_tol:
            break
        element = np.tensordot(rng.standard_normal(dim_f), stack, axes=1)
    else:
        raise DecompositionError(
            "algebra",
            "eigenvalue clustering stayed ambiguous after 5 samples: "
            f"the last gave Σ m_b² = {squares} against dim F = {dim_f} "
            f"(closure {closure:.3e})",
        )

    blocks = []
    for group in groups:
        # n x d isometries onto the members; the first is the group's head
        lifts = [iso_r @ u[:, part] for part, _ in group]
        members = [_range_projector(lift) for lift in lifts]
        m, d = len(group), lifts[0].shape[1]
        blocks.append(
            CentralBlock(
                projector=sum(members),
                dimension=m * d,
                multiplicity=m,
                inner_dimension=d,
                member_projectors=tuple(members),
                # the turned lifts' products lift_a lift_0† (the head's link is 1)
                links=tuple(
                    lift @ link @ dagger(lifts[0]) for lift, (_, link) in zip(lifts, group)
                ),
            )
        )

    return AlgebraStructure(
        recurrent_dimension=r,
        fixed_point_dimension=dim_f,
        center_dimension=len(blocks),
        blocks=tuple(blocks),
        fixed_point_basis=tuple(iso_r @ f @ dagger(iso_r) for f in fbasis),
        residuals={"algebra_commutant": commutant, "algebra_closure": closure},
    )


def extremal_state(
    p_v: np.ndarray, kernel: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Unique invariant state supported in a minimal enclosure.

    Reads the basis ``kernel`` (columns) of ker L through the range isometry
    U of V: for a minimal enclosure, U† X U ∝ U† ρ_V U for every X in ker L
    (Baumgartner & Narnhofer, J. Phys. A 41, 2008), so the compressed basis
    has rank one; another rank signals that V is not a minimal enclosure.
    ρ_V is the compression of Π P_V, the projection of P_V onto ker L, whose
    trace ‖Π P_V‖² is at least 1/‖ρ_V‖² >= 1.
    """
    iso = _leading_isometry(p_v, check_projector(p_v, tol))
    blocks = dagger(iso) @ _kernel_stack(kernel) @ iso
    flat = blocks.reshape(len(blocks), -1)
    # the square triangular factor of its tall side has the basis's singular values
    tri = np.linalg.qr(flat if flat.shape[0] >= flat.shape[1] else flat.T, mode="r")
    rank = len(tri) - len(kernel_basis(tri, tol))
    if rank != 1:
        raise ValueError(f"compressed kernel dimension {rank} != 1: not a minimal enclosure")
    # Π P_V = Σ_i ⟨X_i, P_V⟩ X_i with ⟨X_i, P_V⟩ = conj(tr U† X_i U)
    weights = np.trace(blocks, axis1=1, axis2=2).conj()
    rho = psd_project(hermitian_part(np.tensordot(weights, blocks, axes=1)), tol)
    return iso @ rho @ dagger(iso)


def family_projector(
    q: np.ndarray,
    p_v1: np.ndarray,
    p_v2: np.ndarray,
    theta: float,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Projector cos²θ P_V1 + sin²θ P_V2 + sinθ cosθ (Q + Q†).

    Q must be a partial isometry from V1 onto V2; the result interpolates the
    continuum of equivalent enclosures spanned by a degenerate pair.
    """
    q = require_square(q)
    if (
        frob(dagger(q) @ q - p_v1) > 100 * tol.residual_tol
        or frob(q @ dagger(q) - p_v2) > 100 * tol.residual_tol
    ):
        raise ValueError("Q is not a partial isometry between the given subspaces")
    c, s = np.cos(theta), np.sin(theta)
    p_theta = c * c * p_v1 + s * s * p_v2 + s * c * (q + dagger(q))
    check_projector(p_theta, tol)
    return p_theta


def _prop_residual(
    blocks: np.ndarray, rho: np.ndarray, left: np.ndarray, right: np.ndarray
) -> float:
    """Frobenius norm of the distances of the matrices U B W† (B in a stack of
    blocks, U = ``left`` and W = ``right`` isometries) from the complex line
    spanned by rho: only U† rho W and the norm of rho's rest enter."""
    b = dagger(left) @ rho @ right
    rest = frob(rho - left @ b @ dagger(right))
    denom = hs_inner(b, b).real + rest**2
    if denom == 0.0:
        return frob(blocks)
    coeff = np.tensordot(blocks, b.conj(), axes=2) / denom
    return float(np.hypot(frob(blocks - coeff[:, None, None] * b), rest * frob(coeff)))


def enumerate_minimal_enclosures(report: DecompositionReport) -> list[tuple]:
    """Flat (label, record, group) list: unique enclosures then family members.

    Two records share a group exactly when they belong to the same degenerate
    family; cross-group blocks of invariant states vanish.
    """
    out = [(f"alpha{i}", rec, ("alpha", i)) for i, rec in enumerate(report.unique_enclosures)]
    for b, fam in enumerate(report.families):
        out += [(f"beta{b}.{g}", rec, ("beta", b)) for g, rec in enumerate(fam.members)]
    return out


def decompose(obj, tol: Tolerances = DEFAULT_TOL) -> DecompositionReport:
    """Full decomposition of a Lindblad model or Kraus channel.

    Returns the transient/recurrent projectors, unique minimal enclosures
    with their extremal invariant states, and degenerate families with the
    partial isometries linking their members. Identical inputs give
    byte-identical reports under one BLAS thread setting; family members are
    the eigenprojections of E_F(D) (``algebra_structure``).
    ``recurrent_method`` names the limit that defines the maximal-support
    state: "spectral" (t -> infinity of the semigroup) for Lindblad models,
    "cesaro" (average of the channel's powers) for Kraus channels.
    """
    kind, n = _kind(obj, "decompose"), obj.dim
    _require(obj, tol)  # the model's input rule, under these tolerances

    def stage(name, fn):
        try:
            return fn()
        except DecompositionError:
            raise
        except Exception as exc:
            raise DecompositionError(name, str(exc)) from exc

    # L is built inside stage 1 only: no n² x n² array outlives it.
    split = stage("recurrent", lambda: recurrent_projector(obj, tol))
    structure = stage(
        "algebra", lambda: algebra_structure(obj, split.recurrent, split.adjoint_kernel, tol)
    )

    unique: list[EnclosureRecord] = []
    families: list[DegenerateFamily] = []

    def build_record(projector, dimension):
        # extremal_state checks the projector; the block gives its rank
        state = extremal_state(projector, split.kernel, tol)
        check = is_enclosure(projector, obj, tol)
        if not check.ok:
            raise ValueError(
                f"reported projector failed the enclosure check (δ = {check.residual:.3e})"
            )
        return EnclosureRecord(projector=projector, dimension=dimension, extremal_state=state)

    def build_all():
        for block in structure.blocks:
            if block.multiplicity == 1:
                unique.append(build_record(block.projector, block.dimension))
                continue
            records = [build_record(p, block.inner_dimension) for p in block.member_projectors]
            order = sorted(range(len(records)), key=lambda i: lex_key(records[i].projector))
            records = [records[i] for i in order]
            links = [block.links[i] for i in order]
            isometries = {
                (a, b): fix_phase(links[b] @ dagger(links[a]))
                for a, b in permutations(range(len(records)), 2)
            }
            families.append(DegenerateFamily(tuple(records), isometries, block.projector))

    stage("enclosures", build_all)

    unique.sort(key=lambda rec: (-rec.dimension, lex_key(rec.projector)))
    families.sort(key=lambda fam: (-fam.members[0].dimension, lex_key(fam.block_projector)))

    return DecompositionReport(
        kind=kind,
        dim=n,
        tolerances=tol,
        recurrent=split.recurrent,
        transient=split.transient,
        recurrent_dimension=split.dimension,
        transient_dimension=n - split.dimension,
        recurrent_method="cesaro" if kind == "kraus" else "spectral",
        max_support_state=split.state,
        unique_enclosures=tuple(unique),
        families=tuple(families),
        is_unique=not families,
        residuals=structure.residuals,
        conventions={"vectorization": VECTORIZATION_NOTE},
        invariant_kernel=split.kernel,
    )


@dataclass(frozen=True)
class VerificationRecord:
    clauses: tuple[VerificationClause, ...]
    max_residual: float
    ok: bool


def verify_decomposition(
    report: DecompositionReport, obj, tol: Tolerances = DEFAULT_TOL
) -> VerificationRecord:
    """Re-check a report against its model; every clause passes at
    residual_tol. Diagnostics only: never raises on failed clauses.

    From the model's operators, in O(k n³) per clause and with no
    superoperator: the maximal-support and extremal states are invariant,
    ‖L(ρ)‖_F / s (``_scale``; L(ρ) = 0 exactly when s = 0), and R and each
    enclosure are enclosures, δ (``is_enclosure``). From the report: the
    minimal projectors are orthogonal and sum to P_R, each extremal state
    lies in its enclosure, and each family isometry is a partial isometry
    between its members that carries one extremal state to the other.

    Every invariant state lies in R, its diagonal blocks are proportional
    to the extremal states, its cross blocks between groups vanish, and in a
    family its off-diagonal block composed with the isometry is proportional
    to an extremal state (Baumgartner & Narnhofer, J. Phys. A 41, 2008;
    Carbone & Pautrat, Ann. Henri Poincaré 17, 2016). These conditions are
    linear and ker L is spanned by invariant states, so each is one clause:
    the Frobenius norm of its stack over the orthonormal Hermitian basis
    ``report.invariant_kernel``, the same for every orthonormal basis, read
    through each enclosure's range isometry U_a (U_a† X formed once).
    """
    kind = _kind(obj, "decompose")
    if kind != report.kind:
        raise ValueError(f"report kind {report.kind!r} does not match object kind {kind!r}")
    n, s = report.dim, _scale(obj)
    enclosures = enumerate_minimal_enclosures(report)
    minimal = [rec.projector for _, rec, _ in enclosures]
    basis = _kernel_stack(report.invariant_kernel)
    # U_a, the range isometry of enclosure a, and U_a† X for every X
    isos = {label: _leading_isometry(rec.projector, rec.dimension) for label, rec, _ in enclosures}
    rows = {label: dagger(u) @ basis for label, u in isos.items()}
    clauses: list[VerificationClause] = []

    def add(name, residual):
        clauses.append(_clause(name, residual, tol))

    def invariance(rho):
        return frob(generator_action(obj, rho)) / (s or 1.0)

    add("recurrent_invariance", invariance(report.max_support_state))
    add("recurrent_enclosure", is_enclosure(report.recurrent, obj, tol).residual)
    add("projector_sum", frob(sum(minimal, np.zeros((n, n))) - report.recurrent))
    add(
        "orthogonality",
        max((frob(p @ q) for i, p in enumerate(minimal) for q in minimal[i + 1 :]), default=0.0),
    )
    add("recurrent_support", frob(report.transient @ basis))
    for label, rec, _ in enclosures:
        p, rho, u = rec.projector, rec.extremal_state, isos[label]
        add(f"extremal_invariance:{label}", invariance(rho))
        add(f"extremal_support:{label}", frob((np.eye(n) - p) @ rho))
        add(f"enclosure:{label}", is_enclosure(p, obj, tol).residual)
        add(f"diag:{label}", _prop_residual(rows[label] @ u, rho, u, u))
    for i, (la, _, ga) in enumerate(enclosures):
        for lb, _, gb in enclosures[i + 1 :]:
            if ga != gb:
                add(f"cross:{la}|{lb}", frob(rows[la] @ isos[lb]))
    for fb, fam in enumerate(report.families):
        labels = [label for label, _, group in enclosures if group == ("beta", fb)]
        for a, b in permutations(range(len(fam.members)), 2):
            rec_a, rec_b, q = fam.members[a], fam.members[b], fam.isometries[(a, b)]
            p_a, p_b, rho_a = rec_a.projector, rec_b.projector, rec_a.extremal_state
            la, lb, name = labels[a], labels[b], f"family{fb}:{{}}:{a}->{b}"
            add(name.format("isometry"), max(frob(dagger(q) @ q - p_a), frob(q @ dagger(q) - p_b)))
            add(name.format("transport"), frob(q @ rho_a @ dagger(q) - rec_b.extremal_state))
            # P_a X P_b Q = U_a (U_a† X U_b)(U_b† Q)
            offdiag = rows[la] @ isos[lb] @ (dagger(isos[lb]) @ q)
            add(name.format("offdiag"), _prop_residual(offdiag, rho_a, isos[la], np.eye(n)))

    # np.max, not max: a NaN residual anywhere makes the maximum NaN.
    worst = float(np.max([c.residual for c in clauses], initial=0.0))
    return VerificationRecord(
        clauses=tuple(clauses), max_residual=worst, ok=all(c.ok for c in clauses)
    )
