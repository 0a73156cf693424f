import numpy as np
import pytest

from enclosure_atlas.decomposition import decompose, enumerate_minimal_enclosures
from enclosure_atlas.fixtures import (
    faithful_2d,
    rotation_channel,
    two_enclosures_2d,
    zero_generator_2d,
)
from enclosure_atlas.identifiability import (
    QndModel,
    _extend_span,
    continuous_identifiability,
    discrete_identifiability,
    nondegeneracy_check,
    omega,
    qnd_diagonalize,
    qnd_to_model,
    qnd_uniqueness,
    uniqueness_cross_check,
)
from enclosure_atlas.linalg import DEFAULT_TOL
from enclosure_atlas.semigroup import KrausChannel, LindbladModel

from helpers import (
    PAULI_X,
    block_diag_model,
    conjugated_pair_channel,
    conjugated_pair_model,
    fixed_points,
    leaky_model,
    random_unitary,
    renewal_pair_channel,
    unit,
)


def random_qnd(rng, pointers, channels):
    energies = rng.standard_normal(pointers)
    amplitudes = rng.standard_normal((channels, pointers)) + 1j * rng.standard_normal(
        (channels, pointers)
    )
    split = int(rng.integers(-1, channels))
    return QndModel.create(energies, amplitudes, split)


def test_qnd_model_validation():
    with pytest.raises(ValueError, match="split"):
        QndModel.create([0.0, 1.0], [[1.0, 0.0]], split=1)
    with pytest.raises(ValueError, match="shape"):
        QndModel.create([0.0, 1.0], [[1.0]], split=0)
    q = QndModel.create([0.0, 0.0], [[1.0 + 1j, -2j]], split=0)
    assert np.allclose(q.r(), [[2.0, 0.0]])
    assert np.allclose(q.theta(), [[2.0, 4.0]])


def test_qnd_diagonalize_diagonal_model():
    diag = qnd_diagonalize(two_enclosures_2d())
    assert diag.is_qnd
    c = sorted(np.abs(diag.model.amplitudes[0]))
    assert np.allclose(c, [0.0, 1.0], atol=1e-10)
    assert np.allclose(diag.model.energies, 0.0, atol=1e-12)


def test_qnd_diagonalize_rejects_noncommuting():
    diag = qnd_diagonalize(faithful_2d())
    assert not diag.is_qnd
    # [L1, L2] = diag(1, -1), normalized by the operator norms
    assert diag.max_commutator_residual > 0.5


def test_qnd_diagonalize_pure_hamiltonian():
    model = LindbladModel.create(np.diag([1.0, 2.0]), [])
    diag = qnd_diagonalize(model)
    assert diag.is_qnd
    assert sorted(diag.model.energies.tolist()) == pytest.approx([1.0, 2.0])


def test_nondegeneracy_witness_and_failure():
    passing = QndModel.create([0.0, 0.0], [[1.0, 0.0]], split=0)
    report = nondegeneracy_check(passing)
    assert report.overall
    assert report.pairs[0].witness == "diffusive r[0]"
    assert report.pairs[0].magnitude == pytest.approx(2.0)

    # purely imaginary amplitudes coincide in r even though they differ in c
    failing = QndModel.create([0.0, 0.0], [[1j, -1j]], split=0)
    report = nondegeneracy_check(failing)
    assert not report.overall
    assert report.pairs[0].magnitude == pytest.approx(0.0)

    single = QndModel.create([0.5], np.zeros((0, 1)), split=-1)
    assert nondegeneracy_check(single).overall  # vacuous


def test_nondegeneracy_jump_channel_side():
    # same r, different theta: only a jump-type channel separates
    q_jump = QndModel.create([0.0, 0.0], [[1j, 2j]], split=-1)
    assert nondegeneracy_check(q_jump).overall
    q_diff = QndModel.create([0.0, 0.0], [[1j, 2j]], split=0)
    assert not nondegeneracy_check(q_diff).overall
    # diffusive channel 0 ties (r = 2 on both), jump channel 1 separates
    q_mixed = QndModel.create([0.0, 0.0], [[1.0, 1.0 + 1j], [1j, 2j]], split=0)
    (pair,) = nondegeneracy_check(q_mixed).pairs
    assert pair.separated and pair.witness == "jump theta[1]"
    assert pair.magnitude == pytest.approx(3.0)


def test_omega_values():
    q = QndModel.create([0.0, 0.0], [[1.0, 0.0]], split=0)
    assert omega(q, 0, 1) == pytest.approx(-0.5)

    same = QndModel.create([1.0, 1.0], [[0.3 + 0.1j, 0.3 + 0.1j]], split=0)
    assert omega(same, 0, 1) == pytest.approx(0.0)

    pure_h = QndModel.create([1.0, 0.0], np.zeros((0, 2)), split=-1)
    assert omega(pure_h, 0, 1) == pytest.approx(1j)
    with pytest.raises(ValueError):
        omega(pure_h, 1, 1)


def test_omega_hamiltonian_antisymmetry():
    rng = np.random.default_rng(8)
    c_col = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    # every pointer carries the same amplitudes: only the energies separate
    amplitudes = np.tile(c_col[:, None], (1, 3))
    q = QndModel.create(rng.standard_normal(3), amplitudes, split=1)
    for a in range(3):
        for b in range(3):
            if a != b:
                assert omega(q, a, b).imag == pytest.approx(-omega(q, b, a).imag)
                assert omega(q, a, b).real == pytest.approx(0.0, abs=1e-12)


def test_omega_real_part_nonpositive():
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = random_qnd(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        for a in range(q.num_pointers):
            for b in range(q.num_pointers):
                if a != b:
                    assert omega(q, a, b).real <= 1e-12


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e8, 1e12])
def test_omega_real_part_is_its_sum_of_squares_in_every_time_unit(c):
    # energies × c and amplitudes × √c multiply ω by c; equal columns give
    # Re ω = 0 exactly, where the expanded form cancels to c·eps.
    rng = np.random.default_rng(9)
    for _ in range(5):
        q = random_qnd(rng, 3, 2)
        amps = q.amplitudes.copy()
        amps[:, 1] = amps[:, 0]
        scaled = QndModel.create(c * q.energies, np.sqrt(c) * amps, q.split)
        assert omega(scaled, 0, 1).real == 0.0
        for a, b in ((0, 2), (2, 1)):
            expected = -0.5 * c * np.sum(np.abs(amps[:, a] - amps[:, b]) ** 2)
            assert omega(scaled, a, b).real == pytest.approx(expected, rel=1e-12)
        record = qnd_uniqueness(scaled)
        assert not record.nondegenerate and not record.omega_all_negative
        assert record.re_omega[(1, 0)] == 0.0 and record.consistent


def test_qnd_uniqueness_nondegenerate():
    q = QndModel.create([0.0, 0.0], [[1.0, 0.0]], split=0)
    record = qnd_uniqueness(q)
    assert record.nondegenerate and record.omega_all_negative
    assert record.decomposition_unique and record.pointer_enclosures
    assert record.consistent


@pytest.mark.parametrize("gap", [1e-3, 1e-4])
def test_qnd_uniqueness_small_amplitude_gaps(gap):
    # Re ω = −gap²/2 lies above −residual_tol, yet the columns differ, so it
    # is strictly negative and the model is consistent, not an error.
    q = QndModel.create([0.0, 0.0], [[0.5, 0.5 + gap]], split=0)
    record = qnd_uniqueness(q)
    assert record.nondegenerate and record.omega_all_negative and record.consistent
    assert record.re_omega[(0, 1)] == pytest.approx(-0.5 * gap**2, rel=1e-6)


def test_qnd_uniqueness_rotating_coherence():
    # identical amplitude rows but distinct energies: omega purely imaginary,
    # decomposition still unique, non-degeneracy fails
    q = QndModel.create([1.0, 0.0], [[0.5, 0.5]], split=0)
    record = qnd_uniqueness(q)
    assert not record.nondegenerate
    assert not record.omega_all_negative
    assert record.decomposition_unique
    assert record.re_omega[(0, 1)] == pytest.approx(0.0, abs=1e-12)


def test_qnd_uniqueness_degenerate_pair():
    # identical rows and equal energies: the pointer pair forms a family
    q = QndModel.create([1.0, 1.0, 0.0], [[0.5, 0.5, 2.0]], split=0)
    record = qnd_uniqueness(q)
    assert not record.nondegenerate
    assert not record.decomposition_unique
    report = decompose(qnd_to_model(q))
    assert len(report.families) == 1
    assert len(report.families[0].members) == 2


def test_qnd_fixed_points_diagonal_under_nondegeneracy():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(10):
        q = random_qnd(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        if not nondegeneracy_check(q).overall:
            continue
        checked += 1
        for x in fixed_points(qnd_to_model(q)):
            assert np.linalg.norm(x - np.diag(np.diag(x))) < 1e-8
    assert checked >= 5  # generic draws are almost always non-degenerate


def test_continuous_identifiability_two_enclosures():
    model = two_enclosures_2d()
    report = decompose(model)
    ident = continuous_identifiability(model, report)
    assert ident.overall and not ident.hypothesis_violated
    assert ident.pairs[0].witness == "channel[0]"
    assert ident.pairs[0].magnitude == pytest.approx(2.0)

    # jump 0 = I/2 gives 1 on every state; jump 1 projects onto |0>
    tied_first = LindbladModel.create(np.zeros((2, 2)), [0.5 * np.eye(2), unit(0, 0)])
    report = decompose(tied_first)
    ident = continuous_identifiability(tied_first, report)
    assert ident.overall
    (pair,) = ident.pairs
    assert pair.witness == "channel[1]"
    assert pair.magnitude == pytest.approx(2.0)


def _qnd_loop_verdicts(qnd, tol):
    """The per-pair loop nondegeneracy_check used before the shared rule."""
    r, theta = qnd.r(), qnd.theta()
    out = []
    for a in range(qnd.num_pointers):
        for b in range(a + 1, qnd.num_pointers):
            witness, magnitude = None, 0.0
            for j in range(qnd.num_channels):
                diffusive = j <= qnd.split
                gap = abs(r[j, a] - r[j, b]) if diffusive else abs(theta[j, a] - theta[j, b])
                magnitude = max(magnitude, gap)
                if witness is None and gap > tol.residual_tol:
                    witness = f"{'diffusive r' if diffusive else 'jump theta'}[{j}]"
            out.append((a, b, witness is not None, witness, magnitude))
    return out


def _continuous_loop_verdicts(model, report, tol):
    """The per-pair loop continuous_identifiability used before the shared rule."""
    states = [rec.extremal_state for _, rec, _ in enumerate_minimal_enclosures(report)]
    out = []
    for a in range(len(states)):
        for b in range(a + 1, len(states)):
            witness, magnitude = None, 0.0
            for j, op in enumerate(model.jumps):
                gap = abs(np.trace((op + op.conj().T) @ (states[a] - states[b])).real)
                magnitude = max(magnitude, gap)
                if witness is None and gap > tol.residual_tol:
                    witness = f"channel[{j}]"
            out.append((a, b, witness is not None, witness, magnitude))
    return out


def _assert_same_verdicts(report, expected):
    assert len(report.pairs) == len(expected)
    for pair, (a, b, separated, witness, magnitude) in zip(report.pairs, expected):
        assert (pair.a, pair.b, pair.separated, pair.witness) == (a, b, separated, witness)
        assert abs(pair.magnitude - magnitude) <= 1e-12
    assert report.overall == all(e[2] for e in expected)


def test_separation_matches_per_mode_loops():
    tol = DEFAULT_TOL
    rng = np.random.default_rng(104729)
    splits = set()
    for _ in range(30):
        q = random_qnd(rng, int(rng.integers(2, 6)), int(rng.integers(0, 5)))
        amplitudes = q.amplitudes.copy()
        # Tie some channels between pointers: equal entries tie both r and
        # theta, a phase flip c -> -conj(c) ties theta only.
        for j in range(q.num_channels):
            a, b = rng.choice(q.num_pointers, size=2, replace=False)
            if rng.random() < 0.5:
                amplitudes[j, b] = amplitudes[j, a]
            elif rng.random() < 0.5:
                amplitudes[j, b] = -amplitudes[j, a].conj()
        q = QndModel.create(q.energies, amplitudes, q.split)
        splits.add(q.split)
        _assert_same_verdicts(nondegeneracy_check(q, tol), _qnd_loop_verdicts(q, tol))
    assert {-1, 0, 1} <= splits

    models = [
        two_enclosures_2d(),
        zero_generator_2d(),
        LindbladModel.create(np.zeros((2, 2)), [0.5 * np.eye(2), unit(0, 0)]),
        conjugated_pair_model(np.random.default_rng(11), 2, 2)[0],
        block_diag_model(np.random.default_rng(3), (2, 3), 2),
        block_diag_model(np.random.default_rng(4), (1, 1, 2), 3),
        leaky_model(np.random.default_rng(5), 4, 2),
        qnd_to_model(QndModel.create([0.0, 1.0, 2.0], [[1.0, 1.0, 0.0], [0.0, 1j, 2j]], 0)),
    ]
    for model in models:
        report = decompose(model)
        _assert_same_verdicts(
            continuous_identifiability(model, report, tol),
            _continuous_loop_verdicts(model, report, tol),
        )


def test_continuous_identifiability_no_channels_fails():
    model = zero_generator_2d()
    report = decompose(model)
    ident = continuous_identifiability(model, report)
    assert not ident.overall
    assert ident.pairs[0].magnitude == 0.0


def test_continuous_identifiability_degenerate_family_fails():
    rng = np.random.default_rng(11)
    model, _ = conjugated_pair_model(rng, 2, 2)
    report = decompose(model)
    assert not report.is_unique
    ident = continuous_identifiability(model, report)
    # family members are statistically indistinguishable
    fam_pairs = [p for p in ident.pairs if not p.separated]
    assert fam_pairs and not ident.overall
    for p in fam_pairs:
        assert p.magnitude < 1e-9


def test_continuous_identifiability_hypothesis_flag():
    from enclosure_atlas.fixtures import unfaithful_2d

    model = unfaithful_2d()
    report = decompose(model)
    ident = continuous_identifiability(model, report)
    assert ident.hypothesis_violated  # transient part present
    assert ident.overall  # vacuous: single enclosure


def test_discrete_identifiability_rotation_counterexample():
    ch = rotation_channel()
    report = decompose(ch)
    for max_len in (1, 3, 6):
        ident = discrete_identifiability(ch, report, max_len=max_len)
        assert not ident.overall
        (pair,) = ident.pairs
        assert pair.witness == f"none up to {max_len}"
        assert pair.magnitude <= 1e-12


def test_discrete_identifiability_dephasing_witness():
    ch = KrausChannel.create([unit(0, 0), unit(1, 1)])
    report = decompose(ch)
    ident = discrete_identifiability(ch, report, max_len=4)
    assert ident.overall
    (pair,) = ident.pairs
    assert pair.witness == "word[0]"
    assert pair.magnitude == pytest.approx(1.0)


def test_discrete_identifiability_monotone_in_max_len():
    ch = KrausChannel.create([unit(0, 0), unit(1, 1)])
    report = decompose(ch)
    first = discrete_identifiability(ch, report, max_len=1)
    later = discrete_identifiability(ch, report, max_len=3)
    assert first.overall and later.overall
    assert first.pairs[0].witness == later.pairs[0].witness


def _amplitude_damping_channel(p):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]])
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])
    return KrausChannel.create([k0, k1])


def test_discrete_identifiability_single_enclosure_vacuous():
    # amplitude damping: unique one-dimensional enclosure, transient level
    ch = _amplitude_damping_channel(0.4)
    report = decompose(ch)
    assert len(report.unique_enclosures) == 1
    assert report.transient_dimension == 1
    ident = discrete_identifiability(ch, report, max_len=3)
    assert ident.overall and not ident.pairs  # no pairs to separate
    assert ident.hypothesis_violated


def test_discrete_identifiability_word_guard():
    # 2^25 words of length 25: closing the span needs no guard on that count
    ch = KrausChannel.create([unit(0, 0), unit(1, 1)])
    report = decompose(ch)
    capped = discrete_identifiability(ch, report, max_len=25)
    uncapped = discrete_identifiability(ch, report)
    assert capped.overall == uncapped.overall
    assert [p.witness for p in capped.pairs] == [p.witness for p in uncapped.pairs]


def test_discrete_identifiability_rejects_a_report_of_another_model():
    # the bit flip mixes the two enclosures of the dephasing channel
    report = decompose(KrausChannel.create([unit(0, 0), unit(1, 1)]))
    bit_flip = KrausChannel.create([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * PAULI_X])
    with pytest.raises(ValueError, match="out of itself"):
        discrete_identifiability(bit_flip, report)


def test_discrete_identifiability_long_witness_needs_no_cap():
    ch = renewal_pair_channel()
    report = decompose(ch)
    assert sorted(rec.dimension for rec in report.unique_enclosures) == [8, 16]
    (pair,) = discrete_identifiability(ch, report).pairs
    assert pair.separated and pair.witness == "word[0, 0, 0, 0, 0, 0, 0, 0]"
    assert pair.magnitude == pytest.approx(0.0625)
    (capped,) = discrete_identifiability(ch, report, max_len=7).pairs
    assert not capped.separated and capped.witness == "none up to 7"


def test_discrete_identifiability_terminates_without_cap():
    channel = conjugated_pair_channel(np.random.default_rng(14), 12, 2)
    report = decompose(channel)
    ident = discrete_identifiability(channel, report)
    assert not ident.overall
    (pair,) = ident.pairs
    assert pair.witness == "none of any length"
    assert pair.magnitude <= 1e-12


def test_uniqueness_cross_check_contradiction_is_hard_error():
    # a mismatched report (degenerate family) paired with a model whose
    # channels separate the reported states must trip the consistency check
    report = decompose(zero_generator_2d())
    with pytest.raises(RuntimeError, match="contradicts"):
        uniqueness_cross_check(two_enclosures_2d(), report=report)


def test_uniqueness_cross_check_rejects_unknown_type():
    with pytest.raises(TypeError):
        uniqueness_cross_check(np.eye(2))


def test_uniqueness_cross_check_two_enclosures():
    record = uniqueness_cross_check(two_enclosures_2d())
    assert record.theorem_applicable and record.is_unique
    assert not record.converse_counterexample


def test_uniqueness_cross_check_zero_generator():
    record = uniqueness_cross_check(zero_generator_2d())
    assert not record.identifiability.overall
    assert not record.is_unique
    assert record.commutation_checked
    assert record.commutation_residuals == ()  # no jump operators to commute with


def test_uniqueness_cross_check_rotation_converse():
    record = uniqueness_cross_check(rotation_channel())
    assert record.is_unique and not record.identifiability.overall
    assert record.converse_counterexample
    assert not record.theorem_applicable


def test_uniqueness_cross_check_family_commutation():
    rng = np.random.default_rng(12)
    model, _ = conjugated_pair_model(rng, 3, 2)
    record = uniqueness_cross_check(model)
    assert not record.is_unique
    assert record.commutation_checked and record.commutation_residuals
    assert max(record.commutation_residuals) < 1e-8


def _conjugated_pair_channel(rng, d, num_kraus):
    """Kraus channel that is a direct sum of an irreducible block and its
    conjugation by a random unitary: forces a degenerate family."""
    raw = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(num_kraus)
    ]
    gram = sum(g.conj().T @ g for g in raw)
    w_g, u_g = np.linalg.eigh(gram)
    inv_sqrt = (u_g * (1.0 / np.sqrt(w_g))) @ u_g.conj().T
    base = [g @ inv_sqrt for g in raw]
    w = random_unitary(rng, d)
    zero = np.zeros((d, d))
    kraus = [np.block([[v, zero], [zero, w @ v @ w.conj().T]]) for v in base]
    return KrausChannel.create(kraus)


def test_uniqueness_cross_check_discrete_family_commutation():
    rng = np.random.default_rng(13)
    channel = _conjugated_pair_channel(rng, 2, 2)
    report = decompose(channel)
    assert not report.is_unique and len(report.families) == 1
    assert all(rec.dimension == 2 for rec in report.families[0].members)
    ident = discrete_identifiability(channel, report, max_len=4)
    assert not ident.overall  # equivalent enclosures cannot be told apart
    record = uniqueness_cross_check(channel, report=report)
    assert record.commutation_checked and record.commutation_residuals
    assert max(record.commutation_residuals) < 1e-8
    assert not record.converse_counterexample


def _breadth_first_oracle(channel, report, max_len, tol=DEFAULT_TOL):
    """The exhaustive search over all k^max_len words that the span closure
    replaced: separated flags and canonical shortest witnesses."""
    states = [rec.extremal_state for _, rec, _ in enumerate_minimal_enclosures(report)]
    npairs = [(a, b) for a in range(len(states)) for b in range(a + 1, len(states))]
    witness = {}
    frontier = [((), states)]
    for _ in range(max_len):
        if len(witness) == len(npairs):
            break
        next_frontier = []
        for word, mats in frontier:
            for s, v in enumerate(channel.kraus):
                evolved = [v @ m @ v.conj().T for m in mats]
                traces = [np.trace(m).real for m in evolved]
                for a, b in npairs:
                    if (a, b) not in witness and abs(traces[a] - traces[b]) > tol.residual_tol:
                        witness[(a, b)] = "word" + str(list(word + (s,)))
                next_frontier.append((word + (s,), evolved))
        frontier = next_frontier
    return [(pair in witness, witness.get(pair)) for pair in npairs]


def _direct_sum_channel(rng, dims, num_kraus):
    """Kraus channel on a direct sum of random blocks, one per entry of dims."""
    n = sum(dims)
    kraus = np.zeros((num_kraus, n, n), dtype=complex)
    at = 0
    for d in dims:
        g = rng.standard_normal((num_kraus * d, d)) + 1j * rng.standard_normal((num_kraus * d, d))
        q, _ = np.linalg.qr(g)
        kraus[:, at : at + d, at : at + d] = q.reshape(num_kraus, d, d)
        at += d
    return KrausChannel.create(list(kraus))


def _cycle_pair_channel():
    """Two 3-cycles emitting 0, 1, 2 and 0, 2, 1: equal symbol frequencies,
    first told apart by word[0, 1]; word[1, 0] is the earlier separating word
    when words are ordered by their last symbol first."""
    kraus = np.zeros((3, 6, 6))
    for offset, pattern in ((0, (0, 1, 2)), (3, (0, 2, 1))):
        for i, s in enumerate(pattern):
            kraus[s, offset + (i + 1) % 3, offset + i] = 1.0
    return KrausChannel.create(list(kraus))


def _many_diagonal_kraus_channel():
    """Eight diagonal Kraus operators on three 1-dimensional enclosures: the
    first six outcome distributions p_s differ only along (1, -1, 0), the
    last two carry the direction (1, 1, -2)."""
    t = (0.02, -0.02, 0.04, -0.04, 0.06, -0.06)
    probs = [0.1 + ts * np.array([1.0, -1.0, 0.0]) for ts in t]
    probs += [0.2 + sign * 0.1 * np.array([1.0, 1.0, -2.0]) for sign in (1, -1)]
    return KrausChannel.create([np.diag(np.sqrt(p)) for p in probs])


def test_extend_span_tests_rows_after_dependent_ones():
    # six dependent rows, as many as there are coordinates, come before two
    # independent ones; every row is measured against all kept before it
    coords = np.eye(6)
    rows = np.vstack(
        [(1 + j) * coords[1] + 0.5 * coords[0] for j in range(6)]
        + [coords[2], coords[3] + coords[1]]
    )
    keep, span = _extend_span(rows, coords[:1], DEFAULT_TOL)
    assert list(keep) == [0, 6, 7]
    assert np.allclose(span @ span.T, np.eye(4))
    assert np.allclose(span, coords[:4])


def test_discrete_identifiability_matches_breadth_first_oracle():
    rng = np.random.default_rng(15)
    cases = [
        (rotation_channel(), 6),
        (KrausChannel.create([unit(0, 0), unit(1, 1)]), 6),
        (_amplitude_damping_channel(0.4), 6),
        (_conjugated_pair_channel(rng, 2, 2), 6),
        (_conjugated_pair_channel(rng, 3, 2), 6),
        (conjugated_pair_channel(rng, 3, 2), 6),
        (renewal_pair_channel(), 8),
        # symbols swapped: the witness is no longer the first word of its length
        (KrausChannel.create(renewal_pair_channel().kraus[::-1]), 8),
        (_cycle_pair_channel(), 4),
        (_many_diagonal_kraus_channel(), 4),
    ]
    for num_kraus in (6, 7, 8):
        cases.append((_direct_sum_channel(rng, (1, 2), num_kraus), 4))
    for _ in range(6):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(2, 4))))
        cases.append((_direct_sum_channel(rng, dims, int(rng.integers(2, 4))), 5))
    for channel, max_len in cases:
        report = decompose(channel)
        expected = _breadth_first_oracle(channel, report, max_len)
        ident = discrete_identifiability(channel, report, max_len=max_len)
        got = [(p.separated, p.witness if p.separated else None) for p in ident.pairs]
        assert got == expected
        assert ident.overall == all(sep for sep, _ in expected)
        for pair in ident.pairs:
            if not pair.separated:
                assert pair.witness == f"none up to {max_len}"
                assert pair.magnitude <= 1e-12
