import numpy as np
import pytest

from enclosure_atlas.decomposition import decompose
from enclosure_atlas.oqrw import (
    OqrwSpec,
    RateMatrix,
    closed_classes,
    general_oqrw,
    invariant_measures,
    minimal_oqrw,
    oqrw_channel,
    verify_oqrw_theorem,
)
from enclosure_atlas.semigroup import LindbladModel, build_generator

from helpers import PAULI_X, apply, fixed_points, random_rate_matrix


TWO_STATE = [[-1.0, 1.0], [2.0, -2.0]]
ABSORBING = [[0.0, 0.0], [1.0, -1.0]]


def test_rate_matrix_validation():
    with pytest.raises(ValueError, match=r"rates\[0\]\[1\]"):
        RateMatrix.create([[1.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="row 0"):
        RateMatrix.create([[-1.0, 2.0], [0.0, 0.0]])
    # row sums are judged against |q_ii|: 1e-12 is too much for rates of 1e-6
    with pytest.raises(ValueError, match="row 0"):
        RateMatrix.create([[-1e-6, 1e-6 + 1e-12], [0.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        RateMatrix.create([[0.0, 0.0]])


def test_rate_matrix_positive_diagonal_has_one_message_at_every_scale():
    # q_ii > 0 is checked before the row sum, so no scale reads it as a row error.
    for q in ([[5e-9]], [[2e-8]], [[-1.0, 1.0], [1.0, 1e-20]]):
        with pytest.raises(ValueError, match=r"rates\[\d\]\[\d\] = .* must be nonpositive"):
            RateMatrix.create(q)


def test_discrete_oqrw_spec_takes_the_channel_trace_rule():
    # Each column's Σ B†B = 1 is checked as the channel's trace rule,
    # ‖Σ V†V − 1‖_F <= rank_tol · s, when oqrw_channel builds the channel.
    ops = {(0, 0): np.eye(1) * np.sqrt(0.5), (1, 0): np.eye(1) * np.sqrt(0.5)}
    for defect, ok in ((1e-10, True), (1e-7, False)):
        spec = OqrwSpec.create(2, 1, {**ops, (1, 1): np.eye(1) * np.sqrt(1 + defect)})
        if ok:
            assert oqrw_channel(spec).dim == 2
        else:
            with pytest.raises(ValueError, match="rank_tol · s"):
                oqrw_channel(spec)


def test_oqrw_channel_rejects_local_hamiltonians():
    # A channel has no Hamiltonian: local terms would be dropped without a word.
    ops = {(0, 0): np.eye(1) * np.sqrt(0.5), (1, 0): np.eye(1) * np.sqrt(0.5), (1, 1): np.eye(1)}
    spec = OqrwSpec.create(2, 1, ops, local_hamiltonians=[3 * np.eye(1), 5 * np.eye(1)])
    with pytest.raises(ValueError, match="local Hamiltonians"):
        oqrw_channel(spec)
    assert general_oqrw(spec).hamiltonian.diagonal().tolist() == [3, 5]
    assert len(oqrw_channel(OqrwSpec.create(2, 1, ops)).kraus) == 3


def test_minimal_oqrw_two_state_kernel():
    model = minimal_oqrw(RateMatrix.create(TWO_STATE))
    basis = fixed_points(model)
    assert len(basis) == 1
    state = basis[0] / np.trace(basis[0]).real
    assert np.allclose(state, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-10)


def test_minimal_oqrw_absorbing_state():
    model = minimal_oqrw(RateMatrix.create(ABSORBING))
    report = decompose(model)
    assert np.allclose(report.recurrent, np.diag([1.0, 0.0]), atol=1e-10)


def test_minimal_oqrw_zero_rates():
    model = minimal_oqrw(RateMatrix.create(np.zeros((3, 3))))
    assert not model.jumps
    assert np.allclose(build_generator(model).matrix, 0.0)


def test_minimal_oqrw_matches_displayed_lindbladian():
    # L(rho) = sum_{i!=j} q_ij |j><i| rho |i><j| - 1/2 sum_i (-q_ii){|i><i|, rho}
    rate = RateMatrix.create(TWO_STATE)
    gen = build_generator(minimal_oqrw(rate))
    rng = np.random.default_rng(2)
    rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            if i != j:
                e_ij = np.zeros((2, 2))
                e_ij[j, i] = 1.0
                expected += rate.q[i, j] * e_ij @ rho @ e_ij.T
        e_ii = np.zeros((2, 2))
        e_ii[i, i] = 1.0
        expected -= 0.5 * (-rate.q[i, i]) * (e_ii @ rho + rho @ e_ii)
    assert np.allclose(apply(gen, rho), expected, atol=1e-12)


def test_general_oqrw_specializes_to_minimal():
    # minimal_oqrw is general_oqrw on a one-dimensional inner space; the
    # oracle builds the walk's jumps sqrt(q_ij) |j><i| one edge at a time.
    # The jumps come in (destination, source) order, exactly: a report's
    # bytes depend on their order, which a generator comparison cannot see.
    for rate in (RateMatrix.create(TWO_STATE), random_rate_matrix(np.random.default_rng(4), 5)):
        n = rate.n
        jumps = []
        for j, i in zip(*np.nonzero(rate.q.T > 0)):  # (destination, source); q_ii <= 0
            jumps.append(np.zeros((n, n), dtype=complex))
            jumps[-1][j, i] = np.sqrt(rate.q[i, j])
        oracle = build_generator(LindbladModel.create(np.zeros((n, n)), jumps))
        model = minimal_oqrw(rate)
        assert np.array_equal(model.jumps, jumps)
        assert np.allclose(build_generator(model).matrix, oracle.matrix, atol=1e-12)


def test_oqrw_channel_takes_the_continuous_walks_operators():
    # Both builders list B ⊗ |dest><src| from one helper, in one order.
    c, s = np.cos(0.3), np.sin(0.3)
    ops = {(0, 0): c * np.eye(2), (1, 0): s * PAULI_X, (0, 1): s * np.eye(2), (1, 1): c * PAULI_X}
    spec = OqrwSpec.create(2, 2, ops)
    assert np.array_equal(oqrw_channel(spec).kraus, general_oqrw(spec).jumps)


def test_general_oqrw_single_vertex_is_plain_model():
    l_op = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = OqrwSpec.create(1, 2, {(0, 0): l_op})
    model = general_oqrw(spec)
    assert model.dim == 2
    assert np.allclose(model.jumps[0], l_op)


def test_general_oqrw_inner_flip_hop():
    # hop 0 -> 1 at rate r while flipping the inner qubit
    r = 0.7
    spec = OqrwSpec.create(2, 2, {(1, 0): np.sqrt(r) * PAULI_X})
    model = general_oqrw(spec)
    gen = build_generator(model)
    rng = np.random.default_rng(3)
    inner = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    inner = inner @ inner.conj().T
    inner = inner / np.trace(inner).real
    site0 = np.zeros((2, 2))
    site0[0, 0] = 1.0
    rho = np.kron(inner, site0)
    out = apply(gen, rho)
    site1 = np.zeros((2, 2))
    site1[1, 1] = 1.0
    expected = r * (np.kron(PAULI_X @ inner @ PAULI_X, site1) - np.kron(inner, site0))
    assert np.allclose(out, expected, atol=1e-12)


def test_general_oqrw_block_hamiltonian():
    h0 = np.diag([1.0, -1.0])
    h1 = np.diag([0.5, 0.25])
    spec = OqrwSpec.create(2, 2, {}, local_hamiltonians=[h0, h1])
    model = general_oqrw(spec)
    site = lambda i: np.diag([1.0 if k == i else 0.0 for k in range(2)])
    expected = np.kron(h0, site(0)) + np.kron(h1, site(1))
    assert np.allclose(model.hamiltonian, expected)


def test_oqrw_spec_validation():
    with pytest.raises(ValueError, match="vertex range"):
        OqrwSpec.create(2, 1, {(2, 0): np.eye(1)})
    with pytest.raises(ValueError, match="Kraus"):
        oqrw_channel(OqrwSpec.create(2, 1, {(0, 0): np.eye(1) * 0.5}))
    with pytest.raises(ValueError, match="shape"):
        OqrwSpec.create(2, 2, {(0, 1): np.eye(3)})
    with pytest.raises(ValueError, match="local Hamiltonians"):
        OqrwSpec.create(2, 1, {}, local_hamiltonians=[np.eye(1)])
    with pytest.raises(ValueError, match="not Hermitian"):
        OqrwSpec.create(1, 2, {}, local_hamiltonians=[np.array([[0, 1], [0, 0]])])
    spec = OqrwSpec.create(
        2,
        1,
        {(0, 0): np.eye(1) * np.sqrt(0.5), (1, 0): np.eye(1) * np.sqrt(0.5), (1, 1): np.eye(1)},
    )
    # the builder is the time mode: the same spec as a channel and as a generator
    assert oqrw_channel(spec).dim == 2
    assert general_oqrw(spec).dim == 2


def test_closed_classes_examples():
    assert closed_classes(RateMatrix.create(TWO_STATE)) == [[0, 1]]
    assert closed_classes(RateMatrix.create(ABSORBING)) == [[0]]
    assert closed_classes(RateMatrix.create(np.zeros((4, 4)))) == [[0], [1], [2], [3]]


def test_closed_classes_two_blocks():
    q = np.zeros((4, 4))
    q[0, 1] = q[1, 0] = 1.0
    q[2, 3] = q[3, 2] = 2.0
    np.fill_diagonal(q, -q.sum(axis=1))
    assert closed_classes(RateMatrix.create(q)) == [[0, 1], [2, 3]]


def _reachability_closed_classes(q):
    """Independent oracle: boolean reachability by matrix powers."""
    n = q.shape[0]
    adj = (q > 0) & ~np.eye(n, dtype=bool)
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    classes = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        comp = [j for j in range(n) if reach[i, j] and reach[j, i]]
        seen.update(comp)
        # closed iff nothing reachable outside the component
        if all(not reach[v, w] for v in comp for w in range(n) if w not in comp):
            classes.append(sorted(comp))
    return sorted(classes, key=lambda c: c[0])


def test_closed_classes_against_reachability_oracle():
    rng = np.random.default_rng(55)
    for trial in range(25):
        rate = random_rate_matrix(rng, int(rng.integers(2, 7)), density=rng.uniform(0.15, 0.9))
        classes = closed_classes(rate)
        assert classes == _reachability_closed_classes(rate.q), trial
        assert all(type(state) is int for cls in classes for state in cls)


def test_invariant_measures_examples():
    (pi,) = invariant_measures(RateMatrix.create(TWO_STATE))
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    (pi,) = invariant_measures(RateMatrix.create(ABSORBING))
    assert np.allclose(pi, [1.0, 0.0], atol=1e-12)
    pis = invariant_measures(RateMatrix.create(np.zeros((2, 2))))
    assert np.allclose(pis[0], [1.0, 0.0]) and np.allclose(pis[1], [0.0, 1.0])


def test_invariant_measures_properties():
    rng = np.random.default_rng(56)
    for _ in range(15):
        rate = random_rate_matrix(rng, int(rng.integers(2, 7)), density=rng.uniform(0.2, 0.9))
        measures = invariant_measures(rate)
        assert len(measures) == len(closed_classes(rate))
        for pi in measures:
            assert pi.min() >= -1e-12
            assert abs(pi.sum() - 1.0) < 1e-12
            assert np.linalg.norm(pi @ rate.q, np.inf) < 1e-8


def test_verify_oqrw_theorem_golden():
    record = verify_oqrw_theorem(RateMatrix.create(TWO_STATE))
    assert record.passed
    assert record.classes == ((0, 1),)
    assert np.allclose(record.measures[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)

    record = verify_oqrw_theorem(RateMatrix.create(ABSORBING))
    assert record.passed
    assert record.zero_diagonal_states == (0,)

    q = np.zeros((4, 4))
    q[0, 1] = q[1, 0] = 1.0
    q[2, 3] = 0.5
    q[3, 2] = 2.0
    np.fill_diagonal(q, -q.sum(axis=1))
    record = verify_oqrw_theorem(RateMatrix.create(q))
    assert record.passed and len(record.classes) == 2


def test_verify_oqrw_theorem_random_chains():
    rng = np.random.default_rng(57)
    for trial in range(10):
        rate = random_rate_matrix(rng, int(rng.integers(2, 6)), density=rng.uniform(0.25, 0.9))
        record = verify_oqrw_theorem(rate)
        failures = [c.name for c in record.clauses if not c.ok]
        assert record.passed, (trial, failures)
        assert all(c.residual <= 1e-8 or not c.ok for c in record.clauses)


@pytest.mark.parametrize("c", [1e-12, 1e8, 1e10])
def test_verify_oqrw_theorem_reads_the_same_in_every_time_unit(c):
    # Q -> cQ: the row-sum rule, the balance kernels and the decomposition
    # all decide on the chain's own scale, so the classes and measures of
    # c = 1 pass again.
    rate = random_rate_matrix(np.random.default_rng(1), 8, 0.3)
    unit = verify_oqrw_theorem(rate)
    record = verify_oqrw_theorem(RateMatrix.create(c * rate.q))
    assert unit.passed and record.passed
    assert record.classes == unit.classes and len(record.classes) > 1
    for pi, base in zip(record.measures, unit.measures):
        assert np.linalg.norm(pi - base) <= 1e-10
