"""Identifiability checks tying measurement statistics to uniqueness of the
enclosure decomposition.

Covers three regimes: nondemolition models (all operators diagonal in one
pointer basis) with the pairwise non-degeneracy condition, continuous-time
identifiability through jump-operator expectations, and discrete-time optimal
identifiability through outcome-word probabilities. Every mode builds a
real table with one row per probe (a channel signature, a jump expectation,
an outcome-word probability) and one column per state, and one rule reads
the verdicts off it (``_separation``): differences at or below residual_tol
times the probe's scale count as equality, a pair's witness is its first
probe that separates it, and its magnitude is its largest raw difference.

The discrete check closes the span of the tuples (V_w rho_a V_w†)_a that
outcome words w reach, as in the equivalence test for probabilistic automata
(Tzeng, SIAM J. Comput. 21, 1992; for quantum automata Li & Qiu, Theor.
Comput. Sci. 403, 2008). Words are tested in shortlex order and a word is
pruned only against earlier kept words, so the witness is the shortest,
lexicographically first separating word, and the search ends after at most
2·Σ_a d_a² kept words with a verdict on words of every length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    frob,
)
from .semigroup import KrausChannel, LindbladModel, _kind, unvec
from .decomposition import (
    DecompositionReport,
    _leading_isometry,
    decompose,
    enumerate_minimal_enclosures,
    is_enclosure,
)

TOLERANCE_POLICY_NOTE = (
    "separations at or below residual_tol times the probe's scale count as equality; "
    "magnitudes are raw"
)


@dataclass(frozen=True)
class QndModel:
    """Pointer-basis data of a nondemolition model.

    energies[a] is the pointer energy; amplitudes[j, a] the amplitude of
    channel j on pointer a. Channels with index <= split are diffusive
    (Wiener-type, compared through r = 2 Re c), the rest are jump
    (Poisson-type, compared through theta = |c|^2). split = -1 marks all
    channels as jump-type.
    """

    energies: np.ndarray
    amplitudes: np.ndarray
    split: int

    @property
    def num_pointers(self) -> int:
        return self.energies.size

    @property
    def num_channels(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def create(cls, energies, amplitudes, split: int) -> "QndModel":
        energies = np.asarray(energies, dtype=float)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if energies.ndim != 1:
            raise ValueError("energies must be a vector")
        if amplitudes.ndim != 2 or amplitudes.shape[1] != energies.size:
            raise ValueError(
                f"amplitudes must have shape (channels, {energies.size}), got {amplitudes.shape}"
            )
        if not (-1 <= split <= amplitudes.shape[0] - 1):
            raise ValueError(
                f"split {split} outside [-1, {amplitudes.shape[0] - 1}]"
            )
        if not (np.isfinite(energies).all() and np.isfinite(amplitudes).all()):
            raise ValueError("energies and amplitudes must be finite")
        # s of ``qnd_to_model``'s generator: |ω| <= 2s, and no signature gap overflows.
        with np.errstate(over="ignore"):
            theta = np.sum(np.abs(amplitudes) ** 2, axis=0)
            s = frob(np.hypot(energies, theta / 2)) + theta.sum()
            if not np.isfinite(2 * s):
                raise ValueError(f"operator norms overflow: s = {s:.3e}, 2s = {2 * s:.3e}")
        return cls(energies=energies, amplitudes=amplitudes, split=split)

    def r(self) -> np.ndarray:
        """Diffusive signatures r(j|a) = c + conj(c)."""
        return 2.0 * self.amplitudes.real

    def theta(self) -> np.ndarray:
        """Jump signatures theta(j|a) = |c|^2."""
        return np.abs(self.amplitudes) ** 2


def qnd_to_model(qnd: QndModel) -> LindbladModel:
    """Lindblad model with all operators diagonal in the pointer basis."""
    h = np.diag(qnd.energies.astype(complex))
    jumps = [np.diag(qnd.amplitudes[j]) for j in range(qnd.num_channels)]
    return LindbladModel.create(h, jumps)


@dataclass(frozen=True)
class PairVerdict:
    a: int
    b: int
    separated: bool
    witness: str | None
    magnitude: float


@dataclass(frozen=True)
class IdentifiabilityReport:
    mode: str
    labels: tuple[str, ...]
    pairs: tuple[PairVerdict, ...]
    overall: bool
    hypothesis_violated: bool
    policy: str = TOLERANCE_POLICY_NOTE


def _separation(mode, labels, values, probes, scales, none, hypothesis_violated, tol):
    """Pair verdicts from a real table with one row per probe, in witness
    order, and one column per label.

    ``scales`` bounds each probe's values (one number for all probes) and
    moves with the time unit as they do. A pair's witness is its first probe
    whose values differ by more than residual_tol · scale, ``none`` without
    one; its magnitude is its largest raw difference, 0.0 without probes.
    """
    first, second = np.triu_indices(len(labels), 1)
    values = np.asarray(values, dtype=float).reshape(len(probes), len(labels))
    gaps = np.abs(values[:, first] - values[:, second])
    cuts = tol.residual_tol * np.asarray(scales, dtype=float)
    pairs = []
    for a, b, gap in zip(first, second, gaps.T):
        hits = np.flatnonzero(gap > cuts)
        witness = probes[hits[0]] if hits.size else none
        magnitude = float(gap.max(initial=0.0))
        pairs.append(PairVerdict(int(a), int(b), bool(hits.size), witness, magnitude))
    overall = all(p.separated for p in pairs)
    return IdentifiabilityReport(mode, labels, tuple(pairs), overall, hypothesis_violated)


def nondegeneracy_check(qnd: QndModel, tol: Tolerances = DEFAULT_TOL) -> IdentifiabilityReport:
    """Pairwise pointer distinguishability: some diffusive channel separates
    the r signatures, or some jump channel separates the theta signatures.
    Channel j's scale is 2·max_a |c_ja| when diffusive, max_a |c_ja|² when
    jump-type: the largest |r| or theta it can take."""
    diffusive = np.arange(qnd.num_channels) <= qnd.split
    labels = tuple(f"pointer{a}" for a in range(qnd.num_pointers))
    values = np.where(diffusive[:, None], qnd.r(), qnd.theta())
    largest = np.abs(qnd.amplitudes).max(axis=1, initial=0.0)
    scales = np.where(diffusive, 2 * largest, largest**2)
    probes = [f"{'diffusive r' if d else 'jump theta'}[{j}]" for j, d in enumerate(diffusive)]
    return _separation("qnd-nondegeneracy", labels, values, probes, scales, None, False, tol)


def omega(qnd: QndModel, a: int, b: int) -> complex:
    """Decay/rotation coefficient of the (a, b) pointer coherence.

    omega = i (e_a - e_b) + sum_j (c_ja conj(c_jb) - theta_ja/2 - theta_jb/2).
    Re omega is taken in its sum-of-squares form -1/2 sum_j |c_ja - c_jb|²,
    free of cancellation in every time unit: 0 exactly for equal columns.
    """
    if a == b:
        raise ValueError("omega is defined for distinct pointers")
    c = qnd.amplitudes
    re = -0.5 * float(np.sum(np.abs(c[:, a] - c[:, b]) ** 2))
    im = qnd.energies[a] - qnd.energies[b] + np.sum(c[:, a] * c[:, b].conj()).imag
    return complex(re, im)


@dataclass(frozen=True)
class QndUniquenessRecord:
    nondegenerate: bool
    re_omega: dict
    omega_all_negative: bool
    decomposition_unique: bool
    pointer_enclosures: bool
    diagonal_fixed_points_residual: float
    consistent: bool


def qnd_uniqueness(qnd: QndModel, tol: Tolerances = DEFAULT_TOL) -> QndUniquenessRecord:
    """Check that non-degeneracy forces a unique decomposition.

    Under non-degeneracy every Re omega(a, b) is strictly negative (a
    separated pair has differing columns), the reconstructed model must
    decompose uniquely into the pointer spans, and every fixed point must be
    diagonal in the pointer basis.
    """
    nondeg = nondegeneracy_check(qnd, tol)
    re_omega = {(a, b): omega(qnd, a, b).real for a, b in permutations(range(qnd.num_pointers), 2)}
    all_negative = all(value < 0 for value in re_omega.values())

    model = qnd_to_model(qnd)
    report = decompose(model, tol=tol)
    basis = [unvec(v) for v in report.invariant_kernel.T]
    diag_residual = max(
        (frob(x - np.diag(np.diag(x))) for x in basis), default=0.0
    )
    pointer_enclosures = report.is_unique and all(
        rec.dimension == 1 for rec in report.unique_enclosures
    ) and len(report.unique_enclosures) == qnd.num_pointers

    consistent = bool(
        (not nondeg.overall)
        or (
            all_negative
            and report.is_unique
            and pointer_enclosures
            and diag_residual <= 100 * tol.residual_tol
        )
    )
    return QndUniquenessRecord(
        nondegenerate=nondeg.overall,
        re_omega=re_omega,
        omega_all_negative=all_negative,
        decomposition_unique=report.is_unique,
        pointer_enclosures=pointer_enclosures,
        diagonal_fixed_points_residual=float(diag_residual),
        consistent=consistent,
    )


def continuous_identifiability(
    model: LindbladModel,
    report: DecompositionReport,
    tol: Tolerances = DEFAULT_TOL,
) -> IdentifiabilityReport:
    """Pairwise separation of extremal states through tr((L_j + L_j†) rho),
    each probe on its scale 2·‖L_j‖₂, a bound on its value on any state.
    The bound is blind to the phase gauge L_j → e^{iφ} L_j, which leaves the
    dynamics unchanged, and on a nondemolition model it is the diffusive
    scale 2·max_a |c_ja| of ``nondegeneracy_check``.

    The underlying uniqueness statement assumes no transient part; with a
    transient present the check still runs but the report is marked as a
    hypothesis violation.
    """
    enclosures = enumerate_minimal_enclosures(report)
    labels = tuple(label for label, _, _ in enclosures)
    states = [rec.extremal_state for _, rec, _ in enclosures]
    values = [[np.trace((op + dagger(op)) @ rho).real for rho in states] for op in model.jumps]
    scales = [2 * np.linalg.norm(op, 2) for op in model.jumps]
    probes = [f"channel[{j}]" for j in range(len(model.jumps))]
    violated = report.transient_dimension > 0
    return _separation("continuous", labels, values, probes, scales, None, violated, tol)


def discrete_identifiability(
    channel: KrausChannel,
    report: DecompositionReport,
    max_len: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> IdentifiabilityReport:
    """Shortest outcome words separating extremal states, found by closing
    the reachable span.

    A word w = (s_1, ..., s_L) stands for the tuple (V_w rho_a V_w†)_a over
    the extremal states, with V_w = V_{s_L} ... V_{s_1}. It separates a and b
    when the traces of their entries differ by more than residual_tol. The
    search expands one level of words at a time and tests every child for a
    gap. It expands a child further only when the child's tuple is linearly
    independent (relative to rank_tol) of the tuples of the words kept
    before it. Children are tested in shortlex order and pruned only against
    earlier kept words, and shortlex order survives appending a symbol, so
    every tuple of length L lies in the span of kept words of length <= L
    that precede it. A trace gap is linear in the tuple, so in exact
    arithmetic the recorded witness is the shortest, lexicographically first
    separating word. The search stops when a level keeps no word, when every
    pair is separated, or after ``max_len`` levels if a cap is given. The
    tuples have 2·Σ_a d_a² real coordinates, so at most that many words are
    kept, and an unseparated pair without a cap is separated by no word of
    any length.

    The magnitude of a pair, separated or not, is the largest trace gap
    over the tested words, which are the children of kept words and not
    every word up to the last level.
    Raises ValueError when a Kraus operator maps an enclosure of the report
    out of itself (``is_enclosure``), as with a report taken from another
    model.
    """
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be at least 1")
    enclosures = enumerate_minimal_enclosures(report)
    labels = tuple(label for label, _, _ in enclosures)
    kraus = channel._stack
    blocks, level = [], []
    for label, rec, _ in enclosures:
        check = is_enclosure(rec.projector, channel, tol)
        if not check.ok:
            raise ValueError(
                f"a Kraus operator maps enclosure {label} out of itself "
                f"(δ = {check.residual:.3e}); is the report from another model?"
            )
        # Each enclosure evolves on its own range, so compress to it.
        u = _leading_isometry(rec.projector, rec.dimension)
        w = dagger(u) @ kraus @ u
        blocks.append((w, w.conj().transpose(0, 2, 1)))
        level.append((dagger(u) @ rec.extremal_state @ u)[None])
    first, second = np.triu_indices(len(labels), 1)
    separated = np.zeros(len(first), dtype=bool)
    # Probability rows of every tested word, in shortlex order.
    tested, rows = [], [np.empty((0, len(labels)))]

    words = [()]
    root = _coordinates(level)
    span = root / np.linalg.norm(root)
    while words and not separated.all() and (max_len is None or len(words[0]) < max_len):
        # Children parent by parent, symbol by symbol: shortlex order.
        level = [
            (w[None] @ x[:, None] @ w_dag[None]).reshape(-1, *x.shape[1:])
            for (w, w_dag), x in zip(blocks, level)
        ]
        words = [word + (s,) for word in words for s in range(len(kraus))]
        traces = np.array([np.trace(x, axis1=1, axis2=2).real for x in level]).T
        separated |= (np.abs(traces[:, first] - traces[:, second]) > tol.residual_tol).any(axis=0)
        tested += words
        rows.append(traces)
        keep, span = _extend_span(_coordinates(level), span, tol)
        words = [words[j] for j in keep]
        level = [x[keep] for x in level]

    probes = ["word" + str(list(word)) for word in tested]
    none = f"none up to {max_len}" if max_len is not None else "none of any length"
    violated = report.transient_dimension > 0
    # a word probability lies in [0, 1]: scale 1
    return _separation("discrete", labels, np.vstack(rows), probes, 1.0, none, violated, tol)


def _coordinates(level: list) -> np.ndarray:
    """Real coordinates of a level of tuples, one row per word."""
    return np.hstack([x.reshape(len(x), -1) for x in level]).view(np.float64)


def _extend_span(rows: np.ndarray, span: np.ndarray, tol: Tolerances):
    """Indices of the rows independent of ``span`` and of the rows before
    them, and ``span`` with orthonormal rows added to cover them.

    The rows are projected off the orthonormal rows of ``span`` twice, all
    at once. Gram-Schmidt then takes the residuals in row order: each is
    projected twice off the residuals kept before it in this call, and is
    kept, normalized, when its norm exceeds rank_tol times the norm of its
    row. A residual already below that after the projection off ``span``
    only shrinks further, so it is not visited.
    """
    scale = tol.rank_tol * np.linalg.norm(rows, axis=1)
    rest = rows - (rows @ span.T) @ span
    rest -= (rest @ span.T) @ span
    keep = []
    for j in np.flatnonzero(np.linalg.norm(rest, axis=1) > scale):
        kept, row = rest[keep], rest[j]
        for _ in range(2):
            row = row - (kept @ row) @ kept
        norm = np.linalg.norm(row)
        if norm > scale[j]:
            rest[j] = row / norm
            keep.append(j)
    return keep, np.vstack([span, rest[keep]])


@dataclass(frozen=True)
class UniquenessCrossCheck:
    kind: str
    identifiability: IdentifiabilityReport
    transient_free: bool
    theorem_applicable: bool
    is_unique: bool
    commutation_residuals: tuple[float, ...]
    commutation_checked: bool
    converse_counterexample: bool


def uniqueness_cross_check(
    obj,
    tol: Tolerances = DEFAULT_TOL,
    max_len: int | None = None,
    report: DecompositionReport | None = None,
) -> UniquenessCrossCheck:
    """Consistency between identifiability and uniqueness of the decomposition.

    When identifiability passes on a transient-free model the decomposition
    must be unique; a violation raises, since it contradicts the theory and
    signals a numerical or logic fault. For every degenerate family the
    partial isometries must commute with the unraveling operators
    (transient-free case). The converse failing (unique decomposition with
    failing identifiability) is recorded, not an error.
    """
    kind = _kind(obj, "cross-check")
    if report is None:
        report = decompose(obj, tol=tol)
    if kind == "lindblad":
        ident = continuous_identifiability(obj, report, tol)
        unraveling = obj.jumps
    else:
        ident = discrete_identifiability(obj, report, max_len, tol)
        unraveling = obj.kraus

    transient_free = report.transient_dimension == 0
    applicable = ident.overall and transient_free
    if applicable and not report.is_unique:
        raise RuntimeError(
            "identifiability passed on a transient-free model but the decomposition "
            "is not unique; this contradicts the uniqueness theorem"
        )

    residuals = []
    checked = transient_free
    if transient_free:
        for fam in report.families:
            for q in fam.isometries.values():
                for op in unraveling:
                    residuals.append(frob(q @ op - op @ q))
    worst = tuple(residuals)
    converse = (
        report.is_unique
        and not ident.overall
        and len(enumerate_minimal_enclosures(report)) >= 2
    )
    return UniquenessCrossCheck(
        kind=report.kind,
        identifiability=ident,
        transient_free=transient_free,
        theorem_applicable=applicable,
        is_unique=report.is_unique,
        commutation_residuals=worst,
        commutation_checked=checked,
        converse_counterexample=converse,
    )
