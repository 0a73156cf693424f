import numpy as np
import pytest

from enclosure_atlas.linalg import DEFAULT_TOL
from enclosure_atlas.semigroup import (
    KrausChannel,
    LindbladModel,
    Superoperator,
    adjoint_generator,
    build_generator,
    channel_superoperator,
    choi_min_eigenvalue,
    generator_action,
    unvec,
    validate,
    vec,
)

from enclosure_atlas.oqrw import minimal_oqrw
from enclosure_atlas.fixtures import (
    faithful_2d,
    rotation_channel,
    two_enclosures_2d,
    unfaithful_2d,
    zero_generator_2d,
)

from helpers import (
    PAULI_Y,
    PAULI_Z,
    apply,
    block_diag_model,
    choi_matrix,
    conjugated_pair_channel,
    conjugated_pair_model,
    evolve,
    expm,
    fixed_points,
    leaky_model,
    random_density,
    random_model,
    random_rate_matrix,
    tilted_hamiltonian_model,
    unit,
)


def generic_density(rng):
    a = rng.uniform(0.2, 0.8)
    b = rng.standard_normal() * 0.1 + 1j * rng.standard_normal() * 0.1
    return np.array([[a, b], [b.conjugate(), 1 - a]])


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(unvec(vec(x)), x)
    # column stacking: first n entries are the first column
    assert np.array_equal(vec(x)[:3], x[:, 0])


def test_generator_two_sided_exchange():
    # H = 0, L1 = |e0><e1|, L2 = |e1><e0| sends [[a,b],[b*,c]] to [[c-a,-b],[-b*,a-c]]
    model = LindbladModel.create(np.zeros((2, 2)), [unit(0, 1), unit(1, 0)])
    gen = build_generator(model)
    rng = np.random.default_rng(7)
    for _ in range(3):
        rho = generic_density(rng)
        a, b, c = rho[0, 0], rho[0, 1], rho[1, 1]
        expected = np.array([[c - a, -b], [-b.conjugate(), a - c]])
        assert np.allclose(apply(gen, rho), expected, atol=1e-12)


def test_generator_single_decay():
    # dropping the second jump gives [[c, -b/2], [-b*/2, -c]]
    model = LindbladModel.create(np.zeros((2, 2)), [unit(0, 1)])
    gen = build_generator(model)
    rng = np.random.default_rng(8)
    rho = generic_density(rng)
    a, b, c = rho[0, 0], rho[0, 1], rho[1, 1]
    expected = np.array([[c, -b / 2], [-b.conjugate() / 2, -c]])
    assert np.allclose(apply(gen, rho), expected, atol=1e-12)


def test_generator_dephasing_projector_jump():
    model = LindbladModel.create(np.zeros((2, 2)), [unit(0, 0)])
    gen = build_generator(model)
    rng = np.random.default_rng(9)
    rho = generic_density(rng)
    b = rho[0, 1]
    expected = np.array([[0.0, -b / 2], [-b.conjugate() / 2, 0.0]])
    assert np.allclose(apply(gen, rho), expected, atol=1e-12)


def test_generator_no_jumps_is_zero():
    gen = build_generator(LindbladModel.create(np.zeros((2, 2)), []))
    assert np.allclose(gen.matrix, 0.0)


def test_adjoint_unitality():
    rng = np.random.default_rng(12)
    model = random_model(rng, 3, 2)
    adj = adjoint_generator(model)
    assert np.linalg.norm(apply(adj, np.eye(3))) < 1e-12


def test_adjoint_annihilates_commuting_observable():
    # L = |e0><e0| commutes with sigma_z, and H = 0
    model = LindbladModel.create(np.zeros((2, 2)), [unit(0, 0)])
    adj = adjoint_generator(model)
    assert np.linalg.norm(apply(adj, PAULI_Z)) < 1e-14


def test_adjoint_is_hs_adjoint_of_generator():
    rng = np.random.default_rng(13)
    model = random_model(rng, 3, 2)
    gen = build_generator(model)
    adj = adjoint_generator(model)
    assert np.linalg.norm(adj.matrix - gen.matrix.conj().T) < 1e-10
    for _ in range(5):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.vdot(apply(adj, a), b)
        rhs = np.vdot(a, apply(gen, b))
        assert abs(lhs - rhs) < 1e-10


def test_channel_superoperator_identity():
    ch = KrausChannel.create([np.eye(2)])
    s = channel_superoperator(ch)
    assert np.allclose(s.matrix, np.eye(4), atol=1e-14)


def test_channel_rotation_invariant_family():
    theta = np.pi / 4
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    s = channel_superoperator(KrausChannel.create([u]))
    for x in (0.1, -0.3, 0.49):
        rho = np.array([[0.5, 1j * x], [-1j * x, 0.5]])
        assert np.allclose(apply(s, rho), rho, atol=1e-12)


def test_channel_dephasing():
    ch = KrausChannel.create([unit(0, 0), unit(1, 1)])
    s = channel_superoperator(ch)
    rng = np.random.default_rng(5)
    rho = generic_density(rng)
    assert np.allclose(apply(s, rho), np.diag(np.diag(rho)), atol=1e-13)


def test_channel_trace_preservation_enforced():
    with pytest.raises(ValueError):
        KrausChannel.create([np.eye(2) / 2])
    bad = KrausChannel(dim=2, kraus=(np.eye(2) / 2,))
    with pytest.raises(ValueError, match="normalization"):
        channel_superoperator(bad)


def test_apply_identity_and_zero():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(apply(Superoperator(2, np.eye(4)), a), a)
    assert np.allclose(apply(Superoperator(2, np.zeros((4, 4))), a), 0.0)


def test_propagate_time_zero():
    rng = np.random.default_rng(3)
    model = random_model(rng, 2, 1)
    rho = random_density(rng, 2)
    assert np.allclose(evolve(model, 0.0, rho), rho, atol=1e-10)


def test_propagate_relaxes_to_maximally_mixed():
    model = LindbladModel.create(np.zeros((2, 2)), [unit(0, 1), unit(1, 0)])
    rng = np.random.default_rng(4)
    out = evolve(model, 50.0, random_density(rng, 2))
    assert np.linalg.norm(out - np.eye(2) / 2) < 1e-8


def test_propagate_absorbs_into_ground_level():
    model = LindbladModel.create(np.zeros((2, 2)), [unit(0, 1)])
    out = evolve(model, 50.0, np.diag([0.0, 1.0]))
    assert np.linalg.norm(out - np.diag([1.0, 0.0])) < 1e-8


def test_validate_lindblad_and_kraus():
    model = LindbladModel.create(np.zeros((2, 2)), [unit(0, 1), unit(1, 0)])
    diag = validate(model)
    assert diag.ok and diag.hermiticity_residual <= 1e-12 and diag.trace_residual <= 1e-12

    bad = KrausChannel(dim=2, kraus=(np.eye(2) / 2,))
    diag = validate(bad)
    assert not diag.ok and diag.trace_residual > 0.1

    theta = np.pi / 4
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    diag = validate(KrausChannel.create([u]))
    assert diag.ok
    # unitary channel has a rank-one Choi matrix: smallest eigenvalue ~ 0
    assert abs(diag.choi_min_eigenvalue) < 1e-12
    w = np.linalg.eigvalsh(choi_matrix(KrausChannel.create([u])))
    assert abs(w[-1] - 2.0) < 1e-12


def test_fixed_point_basis_unique_state():
    model = LindbladModel.create(np.zeros((2, 2)), [unit(0, 1), unit(1, 0)])
    basis = fixed_points(model)
    assert len(basis) == 1
    assert np.allclose(np.abs(basis[0]), np.eye(2) / np.sqrt(2), atol=1e-10)


def test_fixed_point_basis_two_dimensional():
    model = LindbladModel.create(np.zeros((2, 2)), [unit(0, 0)])
    basis = fixed_points(model)
    assert len(basis) == 2
    for x in basis:
        assert np.linalg.norm(x - np.diag(np.diag(x))) < 1e-10


def test_fixed_point_basis_channel_mode():
    theta = np.pi / 4
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    basis = fixed_points(KrausChannel.create([u]))
    assert len(basis) == 2
    flat = np.array([b.ravel() for b in basis])
    for target in (np.eye(2) / np.sqrt(2), PAULI_Y / np.sqrt(2)):
        t = target.ravel()
        assert np.linalg.norm(t - flat.T @ (flat.conj() @ t)) < 1e-9


def test_generator_properties_random_models():
    rng = np.random.default_rng(21)
    for trial in range(5):
        n = int(rng.integers(2, 5))
        model = random_model(rng, n, int(rng.integers(1, 4)))
        gen = build_generator(model)
        for _ in range(3):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            out = apply(gen, a)
            # trace annihilation
            assert abs(np.trace(out)) <= 1e-10 * max(1.0, np.linalg.norm(a))
            # Hermiticity preservation
            assert (
                np.linalg.norm(apply(gen, a.conj().T) - out.conj().T)
                <= 1e-10 * max(1.0, np.linalg.norm(a))
            )
        # semigroup property of the matrix exponential
        s, t = rng.uniform(0, 10, 2)
        lhs = expm((s + t) * gen.matrix)
        rhs = expm(s * gen.matrix) @ expm(t * gen.matrix)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(rhs))
        # fixed points are annihilated
        for x in fixed_points(model):
            assert np.linalg.norm(apply(gen, x)) <= 10 * DEFAULT_TOL.rank_tol * max(
                1.0, np.linalg.norm(gen.matrix, 2)
            )


def test_model_creation_errors():
    with pytest.raises(ValueError, match="Hermitian"):
        LindbladModel.create(unit(0, 1), [])
    with pytest.raises(ValueError, match="shape"):
        LindbladModel.create(np.zeros((2, 2)), [np.zeros((3, 3))])
    with pytest.raises(ValueError, match="at least one"):
        KrausChannel.create([])


def test_shape_and_type_guards():
    with pytest.raises(ValueError, match="vectorized"):
        unvec(np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        Superoperator(2, np.eye(3))
    with pytest.raises(TypeError):
        validate("nope")


def _sandwich_generator(model):
    """The generator assembled term by term, -i(1⊗H - Hᵀ⊗1) plus, per jump,
    conj(L)⊗L - ½(1⊗L†L + (L†L)ᵀ⊗1): 2 + 3k Kronecker products."""
    n = model.dim
    eye = np.eye(n)
    h = model.hamiltonian
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op in model.jumps:
        gram = op.conj().T @ op
        mat += np.kron(op.conj(), op)
        mat -= 0.5 * (np.kron(eye, gram) + np.kron(gram.T, eye))
    return mat


def test_build_generator_matches_term_by_term_assembly():
    rng = np.random.default_rng(17)
    models = [faithful_2d(), unfaithful_2d(), two_enclosures_2d(), zero_generator_2d()]
    for n in (3, 5, 8):
        models += [random_model(rng, n, 2), leaky_model(rng, n, 2)]
    models += [block_diag_model(rng, (2, 3, 3), 2), conjugated_pair_model(rng, 4, 2)[0]]
    models += [minimal_oqrw(random_rate_matrix(rng, 6)), minimal_oqrw(random_rate_matrix(rng, 9))]
    channels = [rotation_channel(), conjugated_pair_channel(rng, 3, 2)]
    channels += [conjugated_pair_channel(rng, 2, 5)]
    for model in models:
        expected = _sandwich_generator(model)
        actual = build_generator(model).matrix
        diff = np.linalg.norm(actual - expected)
        assert diff <= 1e-12 * max(1.0, np.linalg.norm(expected))
        # the sectors of stage 1 are read off exact zeros
        assert np.array_equal(actual != 0, expected != 0)
        assert validate(model).trace_residual <= 1e-12 * max(1.0, np.linalg.norm(expected))
    for channel in channels:
        expected = sum(np.kron(v.conj(), v) for v in channel.kraus)
        actual = channel_superoperator(channel).matrix
        assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.array_equal(actual != 0, expected != 0)


def test_generator_action_matches_dense_superoperator():
    rng = np.random.default_rng(23)
    models = [faithful_2d(), zero_generator_2d(), leaky_model(rng, 5, 2)]
    models += [minimal_oqrw(random_rate_matrix(rng, 5)), rotation_channel()]
    models += [conjugated_pair_channel(rng, 3, 2)]
    for model in models:
        n = model.dim
        if isinstance(model, LindbladModel):
            mat = _sandwich_generator(model)
        else:
            mat = sum(np.kron(v.conj(), v) for v in model.kraus) - np.eye(n * n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        # adjoint=True applies the Heisenberg picture, the matrix L†
        for adjoint, dense in ((False, mat), (True, mat.conj().T)):
            expected = unvec(dense @ vec(x))
            diff = np.linalg.norm(generator_action(model, x, adjoint=adjoint) - expected)
            assert diff <= 1e-12 * max(1.0, np.linalg.norm(mat)) * np.linalg.norm(x)
    with pytest.raises(TypeError):
        generator_action(np.eye(2), np.eye(2))


def test_generator_action_builds_the_drift_once_per_model(monkeypatch):
    # K = -iH - ½ Σ L_j†L_j (k Gram products) is built on the first call only
    import enclosure_atlas.semigroup as semigroup_module

    calls = []
    drift_and_gram = semigroup_module._drift_and_gram

    def spy(model):
        calls.append(model.dim)
        return drift_and_gram(model)

    monkeypatch.setattr(semigroup_module, "_drift_and_gram", spy)
    rng = np.random.default_rng(29)
    model = LindbladModel.create(random_density(rng, 4), [random_density(rng, 4)] * 3)
    x = random_density(rng, 4)
    first = generator_action(model, x)
    for adjoint in (False, True, False, True):
        generator_action(model, x, adjoint=adjoint)
    assert calls == [4]
    assert np.array_equal(generator_action(model, x), first)


def test_fixed_point_basis_takes_one_real_factorization(monkeypatch):
    # ker L comes from the Hermitian-coordinate factorization of L: real
    # sector LUs, and SVDs of the sectors they cannot decide, only. The one
    # complex factorization is of the k x k overlap of ker L† and ker L.
    calls = []

    def spy(factor):
        def wrapped(a, *args, **kwargs):
            calls.append((np.iscomplexobj(a), np.shape(a)[-1]))
            return factor(a, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "svd", spy(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "solve", spy(np.linalg.solve))
    model = leaky_model(np.random.default_rng(31), 4, 2)
    (rho,) = fixed_points(model)
    assert any(not is_complex for is_complex, _ in calls)
    assert all(size == 1 for is_complex, size in calls if is_complex)
    assert np.linalg.norm(rho - rho.conj().T) == 0.0
    assert abs(np.linalg.norm(rho) - 1.0) < 1e-12


def test_choi_min_eigenvalue_matches_choi_spectrum():
    rng = np.random.default_rng(19)
    # five Kraus operators on C²: k = 5 >= n² = 4, so the Gram path decides
    q, _ = np.linalg.qr(rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2)))
    wide = KrausChannel.create([q[2 * j : 2 * j + 2] for j in range(5)])
    channels = [rotation_channel(), rotation_channel(0.3), wide]
    channels += [conjugated_pair_channel(rng, 3, 2), conjugated_pair_channel(rng, 2, 5)]
    for channel in channels:
        expected = float(np.linalg.eigvalsh(choi_matrix(channel))[0])
        assert abs(choi_min_eigenvalue(channel) - expected) <= 1e-12
        assert validate(channel).choi_min_eigenvalue == choi_min_eigenvalue(channel)
    assert len(wide.kraus) >= wide.dim**2
    assert choi_min_eigenvalue(wide) > 1e-3


def test_validate_reports_the_hamiltonian_defect_but_not_as_lost_trace():
    # The dynamics use the Hermitian part of H, so L*(1) = 0 up to roundoff;
    # the Hermiticity residual is still H's own.
    model, _ = tilted_hamiltonian_model(1e-8)
    diag = validate(model)
    defect = np.linalg.norm(model.hamiltonian - model.hamiltonian.conj().T)
    assert defect > 1e-8 and diag.hermiticity_residual == defect
    assert diag.trace_residual <= 1e-14 and diag.ok


def _time_scaled(model, c):
    return LindbladModel.create(c * model.hamiltonian, [np.sqrt(c) * j for j in model.jumps])


@pytest.mark.parametrize("c", [1e-12, 1e-8, 1.0, 1e4, 1e8, 1e12])
def test_validate_ok_is_the_create_rule_in_every_time_unit(c):
    # Accepted models are ok, with their residuals kept absolute; a model
    # built past create is ok exactly when create would accept it.
    rng = np.random.default_rng(13)
    accepted = [faithful_2d(), zero_generator_2d(), tilted_hamiltonian_model(5e-7)[0]]
    accepted += [random_model(rng, 4, 2), leaky_model(rng, 5, 2)]
    for model in accepted:
        h = _time_scaled(model, c).hamiltonian
        diag = validate(_time_scaled(model, c))
        assert diag.ok and diag.hermiticity_residual == np.linalg.norm(h - h.conj().T)
    skew = LindbladModel(2, c * np.array([[0, 1], [-1, 0]], dtype=complex), ())
    with pytest.raises(ValueError, match="not Hermitian"):
        LindbladModel.create(skew.hamiltonian, skew.jumps)
    assert not validate(skew).ok
    # A channel has no time unit: its bound rank_tol · s is fixed by n and the V_i.
    channel = rotation_channel()
    for factor, ok in ((1 + 1e-10, True), (1 + 1e-8, False)):
        scaled = KrausChannel(2, tuple(factor * v for v in channel.kraus))
        assert validate(scaled).ok is ok
        if not ok:
            with pytest.raises(ValueError, match="rank_tol · s"):
                KrausChannel.create(scaled.kraus)

