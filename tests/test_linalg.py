import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enclosure_atlas.linalg as linalg_module
from enclosure_atlas.linalg import (
    DEFAULT_TOL,
    Tolerances,
    cluster_sorted_values,
    frob,
    hermitian_basis,
    hermitian_part,
    kernel_basis,
    matrix_exponential,
    psd_project,
    support_projector,
)
from enclosure_atlas.semigroup import build_generator

from helpers import (
    PAULI_X,
    PAULI_Y,
    gather_models,
    search_sector_roots,
    unblocked_gather,
    unit,
)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rank_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(rank_tol=1.5)
    with pytest.raises(ValueError):
        Tolerances(residual_tol=-1e-9)
    # a bool is not a number here, as in a model file
    with pytest.raises(ValueError):
        Tolerances(residual_tol=True)
    with pytest.raises(ValueError):
        Tolerances(residual_tol=np.True_)
    assert dataclasses.replace(Tolerances(), rank_tol=1e-6).rank_tol == 1e-6
    # two knobs: a state's noise is the rank cut, the cluster width a constant
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["rank_tol", "residual_tol"]
    assert not hasattr(Tolerances, "replace")


def test_cluster_sorted_values_splits_at_gaps_wider_than_the_width():
    assert cluster_sorted_values(np.array([]), 0.1) == []
    assert cluster_sorted_values(np.array([1.0]), 0.1) == [slice(0, 1)]
    values = np.array([0.0, 0.05, 0.1, 0.3, 0.3, 1.0])
    assert cluster_sorted_values(values, 0.1) == [slice(0, 3), slice(3, 5), slice(5, 6)]
    # the same slices as a loop over neighbouring gaps
    rng = np.random.default_rng(0)
    for size in range(1, 30):
        values = np.sort(rng.standard_normal(size))
        edges = [0] + [i for i in range(1, size) if values[i] - values[i - 1] > 0.1] + [size]
        expected = [slice(a, b) for a, b in zip(edges, edges[1:])]
        assert cluster_sorted_values(values, 0.1) == expected


def test_support_projector_faithful_state():
    # support of the maximally mixed qubit state is everything
    p = support_projector(np.diag([0.5, 0.5]))
    assert np.allclose(p, np.eye(2), atol=1e-12)


def test_support_projector_zero_matrix():
    # also zero up to roundoff: nothing to keep, no λ_max to read a PSD defect on
    for a in (np.zeros((3, 3)), np.diag([0.0, -1e-20]), np.diag([-1e-20, -1e-20])):
        assert np.array_equal(support_projector(a), np.zeros_like(a))


def test_support_projector_diagonal():
    p = support_projector(np.diag([0.7, 0.3, 0.0]))
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_support_projector_reproduces_input():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        a = g @ g.conj().T  # rank <= 3 PSD
        p = support_projector(a)
        assert np.linalg.norm(p @ a @ p - a) < 1e-10
        assert abs(np.trace(p).real - 3) < 1e-9


def test_support_projector_rejects_non_psd():
    with pytest.raises(ValueError):
        support_projector(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        support_projector(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_kernel_basis_trivial_and_full():
    assert kernel_basis(np.eye(2)) == []
    vectors = kernel_basis(np.zeros((3, 3)))
    assert len(vectors) == 3
    gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    assert np.allclose(gram, np.eye(3), atol=1e-12)


def test_kernel_basis_dephasing_superoperator():
    # column-stacked matrix of rho -> [[0, -b/2], [-conj(b)/2, 0]]:
    # coherences decay at rate 1/2, populations are conserved
    m = np.diag([0.0, -0.5, -0.5, 0.0])
    vectors = kernel_basis(m)
    assert len(vectors) == 2
    for v in vectors:
        # kernel is spanned by vectorized diagonal matrices
        assert abs(v[1]) < 1e-12 and abs(v[2]) < 1e-12
        assert np.linalg.norm(m @ v) < 1e-12


def test_kernel_basis_vectors_annihilate():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        killer = np.eye(6)
        killer[:, 4:] = 0.0  # explicit 2-dim null space
        m = g @ killer
        vectors = kernel_basis(m)
        assert len(vectors) == 2
        sigma_max = np.linalg.norm(m, 2)
        for v in vectors:
            assert np.linalg.norm(m @ v) <= 10 * DEFAULT_TOL.rank_tol * sigma_max


def test_kernel_basis_wide_matrix_keeps_every_null_direction():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    vectors = kernel_basis(m)
    assert len(vectors) == 3
    for v in vectors:
        assert np.linalg.norm(m @ v) < 1e-12


def test_hermitian_basis_off_diagonal_pair():
    basis = hermitian_basis([unit(0, 1), unit(1, 0)])
    assert len(basis) == 2
    # spans {sigma_x, sigma_y} / sqrt(2) up to ordering and sign
    flat = np.array([b.ravel() for b in basis])
    for target in (PAULI_X / np.sqrt(2), PAULI_Y / np.sqrt(2)):
        t = target.ravel()
        residual = np.linalg.norm(t - flat.T @ (flat.conj() @ t))
        assert residual < 1e-10


def test_hermitian_basis_identity():
    (b,) = hermitian_basis([np.eye(3)])
    assert np.allclose(b, np.eye(3) / np.sqrt(3), atol=1e-12) or np.allclose(
        b, -np.eye(3) / np.sqrt(3), atol=1e-12
    )


def test_hermitian_basis_already_hermitian():
    basis = hermitian_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert len(basis) == 2
    for b in basis:
        assert np.linalg.norm(b - b.conj().T) < 1e-12
        assert np.linalg.norm(b - np.diag(np.diag(b))) < 1e-12
    # An element below rank_tol · σ_max is noise to the rank count, as it is
    # to orthonormal_hermitian_span: one element, and no adjoint failure.
    (b,) = hermitian_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1e-10])])
    assert np.allclose(np.abs(b), np.diag([1.0, 0.0]), atol=1e-12)


def test_hermitian_basis_spans_input():
    rng = np.random.default_rng(23)
    mats = []
    for _ in range(3):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mats.extend([x, x.conj().T])
    basis = hermitian_basis(mats)
    flat = np.array([b.ravel() for b in basis])
    for x in mats:
        t = x.ravel()
        residual = np.linalg.norm(t - flat.T @ (flat.conj() @ t))
        assert residual < DEFAULT_TOL.residual_tol * max(1.0, np.linalg.norm(x))


def test_hermitian_basis_rejects_unclosed_span():
    with pytest.raises(ValueError, match="adjoint"):
        hermitian_basis([unit(0, 1)])
    rng = np.random.default_rng(29)
    generic = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    with pytest.raises(ValueError, match="adjoint"):
        hermitian_basis(list(generic))


def test_matrix_exponential_basics():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-14)
    assert np.allclose(
        matrix_exponential(np.diag([1.0, -2.0])), np.diag([np.e, np.exp(-2.0)]), atol=1e-12
    )


def test_matrix_exponential_rotation():
    theta = 0.731
    m = np.array([[0.0, -theta], [theta, 0.0]])
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.allclose(matrix_exponential(m), expected, atol=1e-12)


def test_matrix_exponential_commuting_sum():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # polynomials in one matrix commute
        m1 = a @ a + 0.3 * a
        m2 = 2.0 * a - a @ a @ a / 5.0
        lhs = matrix_exponential(m1 + m2)
        rhs = matrix_exponential(m1) @ matrix_exponential(m2)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(rhs))


def test_psd_project_examples():
    assert np.allclose(psd_project(np.diag([0.5, 0.5])), np.diag([0.5, 0.5]), atol=1e-14)
    assert np.allclose(psd_project(np.diag([1.0, -1e-14])), np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(psd_project(np.diag([2.0, 2.0])), np.diag([0.5, 0.5]), atol=1e-14)


def test_psd_project_and_support_projector_share_one_noise_rule():
    # An eigenvalue at most rank_tol · λ_max is noise to both: psd_project
    # zeroes it and support_projector drops it, so ρ lies in its support.
    for k in (0.5, 2, 5, 20):
        rho = psd_project(np.diag([1.0, k * 1e-10, 0.3]))
        p = support_projector(rho)
        assert np.linalg.norm((np.eye(3) - p) @ rho) <= 1e-15, k
        assert round(np.trace(p).real) == (3 if k == 20 else 2), k


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(1, 12),
    st.booleans(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.integers(0, 2**16),
)
def test_split_eigh_agrees_with_numpy_and_keeps_each_eigenvector_in_one_component(
    n, real, split, sparse, seed
):
    # A random Hermitian matrix, zero between random diagonal blocks and at
    # random entries inside them, under a random coordinate permutation.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + (0 if real else 1j) * rng.standard_normal((n, n))
    block = np.cumsum(rng.random(n) < split)
    a[(block[:, None] != block) | (rng.random((n, n)) < sparse)] = 0
    perm = rng.permutation(n)
    a = (a + a.conj().T)[perm][:, perm]
    w, v = linalg_module._eigh(a)
    scale = np.linalg.norm(a, 2)
    assert v.dtype == np.linalg.eigh(a)[1].dtype
    assert np.all(np.diff(w) >= 0)
    assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-12 * scale
    assert np.abs(a @ v - v * w).max() <= 1e-12 * scale
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-12
    roots = linalg_module._sector_roots(a)
    assert all(np.unique(roots[col != 0]).size == 1 for col in v.T)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(0, 7),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from(["hub", "near", "mixed", "free"]),
    st.floats(0.0, 0.8),
    st.integers(0, 2**16),
)
def test_sector_roots_match_a_breadth_first_search(size, count, real, plant, density, seed):
    # Stacks of random exact-zero patterns, real or complex (an entry whose
    # real or imaginary half alone is zero still counts), with coordinate 0
    # planted as a hub (row 0 or column 0 nonzero at every other coordinate)
    # in every matrix, in none, or in some; "near" hubs lack one edge, and
    # half of those lose every edge of that coordinate, so they split.
    rng = np.random.default_rng(seed)
    shape = (count, size, size)
    m = rng.standard_normal(shape) * (rng.random(shape) < density)
    if not real:
        m = m * (rng.random(shape) < 0.7) + 1j * m * (rng.random(shape) < 0.7)
    kinds = {"hub": [1] * count, "near": [2] * count, "free": [0] * count}
    for b, kind in enumerate(kinds.get(plant, rng.integers(0, 3, count))):
        if kind and size > 1:
            side = rng.random(size) < 0.5
            m[b, 0, 1:][side[1:]] = 1 + rng.random(np.count_nonzero(side[1:]))
            m[b, 1:, 0][~side[1:]] = 1 + rng.random(np.count_nonzero(~side[1:]))
        if kind == 2 and size > 1:
            j = rng.integers(1, size)
            m[b, 0, j] = m[b, j, 0] = 0
            if rng.random() < 0.5:
                m[b, j], m[b, :, j] = 0, 0
    roots = linalg_module._sector_roots(m)
    assert roots.shape == (count, size) and roots.dtype.kind == "i"
    assert np.array_equal(roots, search_sector_roots(m))
    assert np.array_equal(linalg_module._sector_roots(m[0]), search_sector_roots(m[0]))


def test_range_projector_is_exact_only_on_as_many_coordinates_as_its_rank():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q = np.linalg.qr(g)[0]
    for cols in (3, 2):
        v = np.zeros((6, cols), dtype=complex)
        v[[0, 2, 5]] = q[:, :cols]
        p = linalg_module._range_projector(v)
        if cols == 3:  # three columns on three coordinates: exactly their projector
            assert np.array_equal(p, np.diag([1, 0, 1, 0, 0, 1]).astype(complex))
        else:  # two columns on three coordinates: v v†, zero outside them
            assert np.array_equal(p, v @ v.conj().T)
            assert not np.isin(p, [0, 1]).all()
    # a faithful state's support is exactly 1; a block state's, its coordinates
    rho = psd_project(g @ g.conj().T)
    assert np.array_equal(support_projector(rho), np.eye(3))
    state = np.zeros((5, 5), dtype=complex)
    state[np.ix_([0, 3, 4], [0, 3, 4])] = rho
    assert np.array_equal(support_projector(state), np.diag([1, 0, 0, 1, 1]).astype(complex))


def test_psd_project_errors():
    with pytest.raises(ValueError, match="trace"):
        psd_project(np.diag([1e-12, -1e-12]))
    with pytest.raises(ValueError, match="clipped"):
        psd_project(np.diag([1.0, -0.5]))


def test_hermitian_part_is_projection():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = hermitian_part(x)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(hermitian_part(h), h)


def test_gather_real_equals_the_unblocked_gather_bit_for_bit(monkeypatch):
    # Each coarse sector's block must be the reference M's block, entry for
    # entry, whatever the row blocks: one pair per block, four pairs per
    # block (the last block is short at n = 3 and 7, with 3 and 21 pairs),
    # and the default size, which at n = 24 splits 276 pairs into 19 blocks
    # of 14 and one of 10. The stacks cover every coordinate once, and M has
    # no nonzero outside their blocks.
    default = linalg_module._GATHER_BYTES
    many_jumps, stacked = 0, 0
    for model in gather_models():
        m = build_generator(model).matrix
        n2 = m.shape[0]
        ref, imag = unblocked_gather(m)
        # L(X)† = L(X†): Im T† m T is roundoff, which gather_real drops unread
        assert imag <= DEFAULT_TOL.residual_tol * max(1.0, frob(ref))
        many_jumps = max(many_jumps, len(getattr(model, "jumps", ())))
        for gather_bytes in (32 * n2, 4 * 32 * n2, default):
            monkeypatch.setattr(linalg_module, "_GATHER_BYTES", gather_bytes)
            stacks = linalg_module.gather_sectors(m)
            coords = np.concatenate([c.ravel() for c, _ in stacks])
            assert np.array_equal(np.sort(coords), np.arange(n2))
            outside = ref.copy()
            for at, blocks in stacks:
                assert blocks.dtype == np.float64 and blocks.shape == (*at.shape, at.shape[1])
                assert np.all(np.diff(at, axis=1) > 0)
                sub = (at[:, :, None], at[:, None, :])
                assert blocks.tobytes() == ref[sub].tobytes()
                outside[sub] = 0
                stacked = max(stacked, len(at))
            assert not outside.any()
    assert many_jumps >= 20 and stacked > 1
