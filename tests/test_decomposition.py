import dataclasses
import tracemalloc
from math import isqrt

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.sparse.csgraph

from enclosure_atlas.linalg import (
    DEFAULT_TOL,
    cluster_sorted_values,
    frob,
    kernel_basis,
    orthonormal_hermitian_span,
    psd_project,
    support_projector,
)
from enclosure_atlas.semigroup import (
    KrausChannel,
    LindbladModel,
    Superoperator,
    _scale,
    _weighted_operators,
    adjoint_generator,
    build_generator,
    channel_superoperator,
    generator_action,
    unvec,
    vec,
)
from enclosure_atlas.decomposition import (
    DecompositionError,
    algebra_structure,
    cutoff_generator,
    decompose,
    enumerate_minimal_enclosures,
    extremal_state,
    family_projector,
    is_enclosure,
    recurrent_projector,
    verify_decomposition,
)
import enclosure_atlas.decomposition as decomposition_module
import enclosure_atlas.semigroup as semigroup_module
import enclosure_atlas.linalg as linalg_module
import helpers as helpers_module
from enclosure_atlas.io import decomposition_report_to_dict, serialize_report
from enclosure_atlas.oqrw import minimal_oqrw
from enclosure_atlas.fixtures import (
    faithful_2d,
    rotation_channel,
    two_enclosures_2d,
    unfaithful_2d,
    zero_generator_2d,
)

from helpers import (
    apply,
    assembled,
    block_diag_model,
    conjugated_pair_channel,
    conjugated_pair_model,
    expm,
    flow_channel,
    gather_models,
    leaky_model,
    null_spaces,
    random_channel,
    random_density,
    random_hermitian,
    random_model,
    random_rate_matrix,
    random_unitary,
    renewal_pair_channel,
    search_sector_roots,
    tilted_hamiltonian_model,
    unblocked_gather,
    unit,
    weak_drain,
)


def test_recurrent_projector_faithful():
    split = recurrent_projector(faithful_2d())
    assert np.allclose(split.recurrent, np.eye(2), atol=1e-10)
    assert split.dimension == 2
    assert decompose(faithful_2d()).recurrent_method == "spectral"
    assert decompose(rotation_channel()).recurrent_method == "cesaro"


def test_recurrent_projector_unfaithful():
    split = recurrent_projector(unfaithful_2d())
    assert np.allclose(split.recurrent, np.diag([1.0, 0.0]), atol=1e-10)
    assert np.allclose(split.transient, np.diag([0.0, 1.0]), atol=1e-10)


def test_recurrent_projector_zero_generator():
    split = recurrent_projector(zero_generator_2d())
    assert np.allclose(split.recurrent, np.eye(2), atol=1e-12)


def _schur_sylvester_state(mat):
    """Spectral projection at 0 applied to the maximally mixed state, from a
    sorted Schur form completed by a Sylvester solve: an independent oracle
    for recurrent_projector."""
    n2 = mat.shape[0]
    n = int(round(np.sqrt(n2)))
    thr = 1e-9 * max(1.0, float(np.linalg.norm(mat, 2)))
    t, z, sdim = scipy.linalg.schur(mat, output="complex", sort=lambda lam: abs(lam) <= thr)
    proj = np.eye(n2, dtype=complex)
    if sdim < n2:
        x = scipy.linalg.solve_sylvester(t[:sdim, :sdim], -t[sdim:, sdim:], t[:sdim, sdim:])
        proj = np.zeros((n2, n2), dtype=complex)
        proj[:sdim, :sdim] = np.eye(sdim)
        proj[:sdim, sdim:] = x
        proj = z @ proj @ z.conj().T
    rho = unvec(proj @ vec(np.eye(n) / n))
    return psd_project((rho + rho.conj().T) / 2)


def _agreement_models():
    rng = np.random.default_rng(47)
    yield from (faithful_2d(), unfaithful_2d(), two_enclosures_2d(), zero_generator_2d())
    yield rotation_channel()
    for n in (3, 5, 8):
        yield random_model(rng, n, 2)
        yield leaky_model(rng, n, 2)
    yield block_diag_model(rng, (2, 3, 3), 2)
    yield conjugated_pair_model(rng, 4, 2)[0]
    yield conjugated_pair_channel(rng, 3, 2)


def test_recurrent_projector_matches_schur_sylvester_oracle():
    for model in _agreement_models():
        split = recurrent_projector(model)
        oracle = _schur_sylvester_state(build_generator(model).matrix)
        assert np.linalg.norm(split.state - oracle) < 1e-9
        assert np.linalg.norm(split.recurrent - support_projector(oracle)) < 1e-10


def _crafted_generator(monkeypatch, mat):
    """Make stage 1 of every Lindblad model on C^2 see the matrix ``mat``."""
    monkeypatch.setattr(
        decomposition_module, "build_generator", lambda model: Superoperator(dim=2, matrix=mat)
    )


def test_recurrent_projector_rejects_jordan_block_at_zero(monkeypatch):
    # L(E00) = 0 and L(E11) = E00, with the coherences decaying: L preserves
    # Hermiticity, and ker L lies inside ran L, so no projection onto ker L
    # along ran L exists.
    mat = np.diag([0.0, -1.0, -1.0, 0.0]).astype(complex)
    mat[0, 3] = 1.0
    _crafted_generator(monkeypatch, mat)
    with pytest.raises(RuntimeError, match="not semisimple"):
        recurrent_projector(faithful_2d())


def test_recurrent_projector_rejects_a_rotated_jordan_block(monkeypatch):
    # M = P (J ⊕ A) Pᵀ with the Jordan block J = [[0, 1], [0, 0]], a random
    # A and a random rotation P: one dense sector whose kernel lies in its
    # range. Its sketch finds the kernel direction, but the border by a
    # vector of ran S is singular, so the certificate rejects it; the SVD
    # finds a one-dimensional kernel and Y†K = 0.
    rng = np.random.default_rng(1)
    core = scipy.linalg.block_diag([[0.0, 1.0], [0.0, 0.0]], rng.standard_normal((2, 2)))
    p = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    t = _hermitian_coordinates(2)
    _crafted_generator(monkeypatch, t @ p @ core @ p.T @ t.conj().T)
    calls = _factor_spy(monkeypatch)
    stages = _stage_one_spy(monkeypatch, calls)
    with pytest.raises(RuntimeError, match="not semisimple"):
        recurrent_projector(faithful_2d())
    # stage 1 ends with the SVD after the rank-d certificate
    (stage,), widths = stages, []
    assert _sector_decisions(stage, 4, widths) == [(4, "svd")]
    assert [w.tolist() for w in widths] == [[1]]


def test_recurrent_projector_rejects_kernel_free_map(monkeypatch):
    # L = -Id is not trace annihilating: it has no fixed point at all
    _crafted_generator(monkeypatch, -np.eye(4, dtype=complex))
    with pytest.raises(RuntimeError, match="no eigenvalue at zero"):
        recurrent_projector(faithful_2d())


def test_recurrent_projector_takes_lindblad_models_and_channels():
    # Stage 1 on the model equals stage 1 on its generator matrix, bit for
    # bit; a channel's is that of H = 0, K = -½·1 and jumps V_i.
    for model in _agreement_models():
        n = model.dim
        kern, left = null_spaces(build_generator(model).matrix)
        overlap = left.conj().T @ kern
        coeff = np.linalg.solve(overlap, left.conj().T @ vec(np.eye(n) / n))
        rho = unvec(kern @ coeff)
        state = psd_project((rho + rho.conj().T) / 2)
        split = recurrent_projector(model)
        assert np.array_equal(split.kernel, kern)
        assert np.array_equal(split.adjoint_kernel, left)
        assert np.array_equal(split.state, state)
        assert np.array_equal(split.recurrent, support_projector(state))
        if isinstance(model, KrausChannel):
            # The independent oracle Phi - Id spans the same kernels; their
            # bases may rotate inside a degenerate kernel, so compare K K†.
            oracle = null_spaces(channel_superoperator(model).matrix - np.eye(n * n))
            for ours, theirs in zip((kern, left), oracle):
                assert ours.shape == theirs.shape
                assert np.linalg.norm(ours @ ours.conj().T - theirs @ theirs.conj().T) <= 1e-13
        # ‖L(ρ)‖_F / s of the state, the verification clause (s = 0 only for
        # the zero generator, whose L(ρ) is exactly 0)
        s, residual = _scale(model), frob(generator_action(model, state))
        record = verify_decomposition(decompose(model), model)
        clauses = {c.name: c.residual for c in record.clauses}
        assert clauses["recurrent_invariance"] == (residual / s if s else residual)
    for other in (build_generator(faithful_2d()), np.zeros((4, 4)), None):
        with pytest.raises(TypeError, match="cannot decompose"):
            recurrent_projector(other)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.tuples(
        st.sampled_from([random_channel, conjugated_pair_channel]),
        st.integers(2, 4),
        st.integers(0, 2**16),
    )
)
@example(rotation_channel())
@example(renewal_pair_channel())
def test_a_channel_decomposes_as_its_generator_and_as_its_lazy_channel(case):
    # Phi - Id is the generator with H = 0, K = -½ Σ V†V and jumps V_i, and
    # the lazy channel {V_i/√2, 1/√2} has the generator ½(Phi - Id): all
    # three have the same invariant states, enclosures and isometries.
    if isinstance(case, KrausChannel):
        channel = case
    else:
        make, size, seed = case
        channel = make(np.random.default_rng(seed), size, 2)
    n = channel.dim
    base = decompose(channel)
    assert verify_decomposition(base, channel).ok
    lazy = [v / np.sqrt(2) for v in channel.kraus] + [np.eye(n) / np.sqrt(2)]
    for model in (LindbladModel.create(np.zeros((n, n)), channel.kraus), KrausChannel.create(lazy)):
        report = decompose(model)
        assert _sorted_shape(report) == _sorted_shape(base)
        assert verify_decomposition(report, model).ok
        for a, b in zip(_report_operators(base), _report_operators(report), strict=True):
            assert np.abs(a - b).max() <= 1e-12


def _svd_spy(monkeypatch):
    """Record (shape, is_complex, full_matrices, compute_uv) of every SVD."""
    svd = np.linalg.svd
    calls = []

    def spy(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((np.shape(a), np.iscomplexobj(a), full_matrices, compute_uv))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def _forbid_superoperator_builds(monkeypatch):
    """Make every n² × n² build fail: the generator as ``decomposition`` binds
    it, and every builder in ``semigroup``, down to their shared sum."""
    def forbidden(*args, **kwargs):
        raise AssertionError("superoperator rebuilt")

    monkeypatch.setattr(decomposition_module, "build_generator", forbidden)
    for name in ("build_generator", "adjoint_generator", "channel_superoperator", "_sandwich_sum"):
        monkeypatch.setattr(semigroup_module, name, forbidden)


def _factor_spy(monkeypatch):
    """Record every factorization as (kind, shape, is_complex): "svd" for
    np.linalg.svd, "lu" for np.linalg.solve (one LU per matrix), "zero pivot"
    after a solve that raised LinAlgError. Stage 1 adds three records: as
    ``real_null_spaces`` starts on the coarse blocks of M, ("stage", M's
    shape, (cut, M, coords)) with its cut, M (``assembled`` from the
    blocks) and the coordinates of each coarse stack, in order; after the
    probe LU of a stack of sectors, ("probe", its shape, (bounds, solves));
    after each bordered certificate of k sectors, ("border", (k, N, N),
    (sectors, d, left_known, certified)), sectors indexing its stack of
    same-size sectors."""
    svd, solve = np.linalg.svd, np.linalg.solve
    factor, bound = linalg_module.real_null_spaces, linalg_module._sigma_min_bound
    border = linalg_module._bordered_kernels
    calls = []

    def svd_spy(a, *args, **kwargs):
        calls.append(("svd", np.shape(a), np.iscomplexobj(a)))
        return svd(a, *args, **kwargs)

    def solve_spy(a, b):
        calls.append(("lu", np.shape(a), np.iscomplexobj(a)))
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            calls.append(("zero pivot", np.shape(a), False))
            raise

    def stage_spy(stacks, scale, tol=DEFAULT_TOL):
        cut = max(tol.rank_tol * scale, np.finfo(float).tiny)
        real = assembled(stacks)
        calls.append(("stage", real.shape, (cut, real, [at for at, _ in stacks])))
        return factor(stacks, scale, tol)

    def bound_spy(a, rng, width):
        out = bound(a, rng, width)
        if width == 0:
            calls.append(("probe", a.shape, out))
        return out

    def border_spy(s, sectors, xh, cut, rng, left_known):
        out = border(s, sectors, xh, cut, rng, left_known)
        record = (sectors, xh.shape[2], left_known, out[0])
        calls.append(("border", (len(sectors), *s.shape[1:]), record))
        return out

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    for module in (decomposition_module, helpers_module):
        monkeypatch.setattr(module, "real_null_spaces", stage_spy)
    monkeypatch.setattr(linalg_module, "_sigma_min_bound", bound_spy)
    monkeypatch.setattr(linalg_module, "_bordered_kernels", border_spy)
    return calls


def _lu_sizes(records):
    """The size of every matrix that ``_factor_spy`` records show factored by
    LU, in call order: a stacked LU that met a zero pivot is retried matrix
    by matrix, and only the retries count."""
    assert {kind for kind, _, _ in records} <= {"lu", "zero pivot"}
    sizes = []
    for (kind, shape, _), (after, _, _) in zip(records, [*records[1:], ("", (), False)]):
        if kind == "lu" and not (after == "zero pivot" and shape[0] > 1):
            assert shape[1] == shape[2]
            sizes += [shape[1]] * shape[0]
    return sizes


# np.linalg.svd as numpy defines it, for checks made while ``_factor_spy``
# records every call.
_SVD = np.linalg.svd


def _sector_decisions(stage, n2, widths=None):
    """Check that one null_spaces run (its ``_factor_spy`` records) decided
    every sector exactly once, in stage 1's order: coarse stack by coarse
    stack, in the gather's order, and in each, size by size ascending. Per
    stack of same-size sectors, sector roots ascending: at most one bordered
    LU of each sector that holds a diagonal coordinate, the certificate with
    the trace functional y as its known left border, of exactly the sectors
    S with ‖Sᵀy‖ <= cut, which decides a one-dimensional kernel or nothing;
    one probe LU of every sector still open, traced or coherence (no
    diagonal coordinate), kernel-free where the probe bound exceeds the cut.
    The probe solves of the sectors still undecided, their sketches, are
    finite and take one small SVD, and the sectors whose sketch finds
    0 < d < 10 directions past 1/cut one LU of their rank-d border and one
    of its transpose, one certificate per d, d ascending. One SVD factors
    exactly the sectors left. Every factorization is real and the sectors
    cover n2 coordinates.
    Returns (size, decision) per sector: 0 or 1 from a probe or the trace
    functional's border, ("sketch", d) from a rank-d border, or "svd".
    ``widths``, if given, gets the sketch's d of each undecided sector, an
    array per stack of same-size sectors."""
    probes = linalg_module._PROBES
    assert not any(c[2] for c in stage if c[0] in ("svd", "lu"))
    (first, _, (cut, real, stacks)), pos = stage[0], 1
    roots = linalg_module._sector_roots(real)
    assert first == "stage" and roots.size == n2

    def ahead():
        """Position of the next record that is not an LU's."""
        rest = range(pos, len(stage))
        return next((i for i in rest if stage[i][0] not in ("lu", "zero pivot")), len(stage))

    def take(kind):
        """The LU sizes up to the next record, a ``kind`` one, and its payload."""
        nonlocal pos
        end = ahead()
        assert stage[end][0] == kind
        lus, pos = _lu_sizes(stage[pos:end]), end + 1
        return lus, stage[end][2]

    decisions = []
    for at in stacks:
        labels, counts = np.unique(roots[at], return_counts=True)
        for size in sorted(set(counts.tolist())):
            idx = np.array([np.flatnonzero(roots == r) for r in labels[counts == size]])
            diagonal = idx < isqrt(n2)
            traced = diagonal.any(axis=1)
            y = diagonal / np.sqrt(np.maximum(diagonal.sum(axis=1, keepdims=True), 1))
            sty = np.einsum("cji,cj->ci", real[idx[:, :, None], idx[:, None, :]], y)
            bordered = np.flatnonzero(traced & (np.linalg.norm(sty, axis=1) <= cut))
            dims = np.full(traced.size, -1)
            if bordered.size:
                lus, (sectors, d, left_known, ok) = take("border")
                assert left_known and d == 1 and np.array_equal(sectors, bordered)
                assert lus == [size + 1] * sectors.size
                dims[sectors[ok]] = 1
            probed = np.flatnonzero(dims < 0)
            if probed.size:
                lus, (bound, sketch) = take("probe")
                assert lus == [size] * probed.size
                dims[probed[bound > cut]] = 0
            decided = [int(d) if d >= 0 else "svd" for d in dims]
            undecided = np.flatnonzero(dims < 0)
            if undecided.size:
                assert stage[pos][:2] == ("svd", (undecided.size, min(size, probes), probes))
                pos += 1
                sketched = sketch[dims[probed] < 0]
                assert np.isfinite(sketched).all()
                found = np.count_nonzero(_SVD(np.linalg.qr(sketched)[1])[1] > 1 / cut, axis=1)
                for d in sorted(set(found[(found > 0) & (found < probes)].tolist())):
                    lus, (sectors, width, left_known, ok) = take("border")
                    assert not left_known and width == d and lus == [size + d] * (2 * sectors.size)
                    assert np.array_equal(sectors, undecided[found == d])
                    for i in sectors[ok]:
                        decided[i] = ("sketch", d)
                undecided = undecided[[decided[i] == "svd" for i in undecided]]
                if widths is not None:
                    widths.append(found)
            svds = []
            while pos < len(stage) and stage[pos][0] == "svd":
                svds.append(stage[pos][1])
                pos += 1
            assert svds == ([(undecided.size, size, size)] if undecided.size else [])
            decisions += [(size, d) for d in decided]
    assert pos == len(stage)
    assert sum(size for size, _ in decisions) == n2
    return decisions


def _stage_one_spy(monkeypatch, calls):
    """Per stage-1 factorization (the ``real_null_spaces`` half of
    ``null_spaces`` that ``recurrent_projector`` calls), the slice of
    ``calls`` (a ``_factor_spy`` list) that it made."""
    stages = []
    factor = decomposition_module.real_null_spaces

    def spy(stacks, scale, tol=DEFAULT_TOL):
        start = len(calls)
        out = factor(stacks, scale, tol)
        stages.append(calls[start:])
        return out

    monkeypatch.setattr(decomposition_module, "real_null_spaces", spy)
    return stages


def test_decompose_and_verify_factor_the_generator_once(monkeypatch):
    model = leaky_model(np.random.default_rng(5), 4, 2)
    n2 = model.dim**2
    calls = _factor_spy(monkeypatch)
    stages = _stage_one_spy(monkeypatch, calls)
    report = decompose(model)
    assert report.recurrent_dimension == 3
    # L is factored once: every real sector block is decided once, by the LU
    # certificate or by the SVD, and the sectors cover n² coordinates
    (stage,) = stages
    _sector_decisions(stage, n2)
    # the report keeps ker L but not L itself
    assert not hasattr(report, "generator")
    # verification reuses the kernel stored on the report and builds no L
    calls.clear()
    _forbid_superoperator_builds(monkeypatch)
    assert verify_decomposition(report, model).ok
    assert calls == [] and len(stages) == 1


def test_decompose_and_verify_weigh_the_operators_once_per_model(monkeypatch):
    # algebra_structure and every is_enclosure call, in decompose and in
    # verify_decomposition, read the model's one cached weighted stack.
    built = []

    def spy(obj):
        built.append(obj)
        return _weighted_operators(obj)

    monkeypatch.setattr(semigroup_module, "_weighted_operators", spy)
    rng = np.random.default_rng(3)
    for model in (block_diag_model(rng, (2, 3), 2), conjugated_pair_channel(rng, 2, 2)):
        built.clear()
        report = decompose(model)
        assert len(enumerate_minimal_enclosures(report)) == 2
        assert verify_decomposition(report, model).ok
        assert len(built) == 1 and built[0] is model


def test_decompose_builds_one_superoperator(monkeypatch):
    # L (Phi - Id for a channel) is the only n² x n² array decompose builds:
    # the cut-off is applied from the model's operators.
    built = []
    post_init = Superoperator.__post_init__

    def spy(self):
        built.append(self.dim)
        post_init(self)

    monkeypatch.setattr(Superoperator, "__post_init__", spy)
    rng = np.random.default_rng(61)
    for model in (leaky_model(rng, 4, 2), conjugated_pair_channel(rng, 2, 2)):
        built.clear()
        report = decompose(model)
        assert report.unique_enclosures or report.families
        assert built == [model.dim]


def test_decompose_holds_one_complex_superoperator_at_a_time():
    # Stage 1's working set at n = 24: the complex n² x n² L (16 n⁴ bytes)
    # while its pattern is folded onto Hermitian pairs and the coarse
    # sectors' real blocks are gathered, in cache-sized row blocks; then the
    # blocks for the LU (LAPACK's work copy is allocated outside
    # tracemalloc's view). A stack whose every block the trace functional
    # borders is factored in the gather's own buffer, whose spare row and
    # column take the border, so no bordered copy of it exists; every other
    # B is a copy. L is freed when the gather returns, before any sector is
    # refined or factored. A model that does not split gathers the whole
    # real M (8 n⁴) next to L, so the traced peak of decompose stays within
    # two complex superoperators; holding L through the LU, as before,
    # traced about three. In a random basis, two enclosures and a conjugated
    # pair leave their one sector to the rank-d certificate, whose stack of
    # B and Bᵀ is copied from M: copying the sector, then B, then the pair
    # traced about 2.6 times. In their own basis, three blocks, a conjugated
    # pair and a minimal walk split into many sectors, and no real M sits
    # next to L: within 1.3 superoperators.
    n = 24
    rng = np.random.default_rng(97)
    # (model, recurrent dimension, enclosures, bound in units of 16 n⁴)
    models = [(random_model(rng, n, 2), n, 1, 2), (random_channel(rng, n, 2), n, 1, 2)]
    rotated = (block_diag_model(rng, (12, 12), 2), conjugated_pair_model(rng, 12, 2)[0])
    models += [(_rotated(model, random_unitary(rng, n)), n, 2, 2) for model in rotated]
    models += [(block_diag_model(rng, (8, 8, 8), 2), n, 3, 1.3)]
    models += [(conjugated_pair_model(rng, 12, 2)[0], n, 2, 1.3)]
    # one closed class of 23 sites; site 23 is transient
    models += [(minimal_oqrw(random_rate_matrix(rng, n, 0.1)), 23, 1, 1.3)]
    for model, dimension, count, bound in models:
        tracemalloc.start()
        try:
            report = decompose(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.recurrent_dimension == dimension
        assert len(enumerate_minimal_enclosures(report)) == count
        assert peak <= bound * 16 * n**4


def _traced_peak(call, *args):
    """The peak of tracemalloc's traced memory while ``call(*args)`` runs,
    above what was allocated before it."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_bordered_sectors_are_factored_in_the_gathered_buffer(monkeypatch):
    # A dense model, a dense channel and a leaky model at n = 24: the traced
    # sector is one undivided block, and the trace functional borders it.
    # Its bordered LU reads the gather's own buffer, so stage 1 adds no copy
    # of M next to it: such a copy alone is 8 n⁴ bytes, 0.5 of 16 n⁴.
    n = 24
    rng = np.random.default_rng(97)
    bound = linalg_module._sigma_min_bound
    bordered = []

    def bound_spy(a, rng, width):
        bordered.extend([a] if width == 1 else [])
        return bound(a, rng, width)

    monkeypatch.setattr(linalg_module, "_sigma_min_bound", bound_spy)
    for model in (random_model(rng, n, 2), random_channel(rng, n, 2), leaky_model(rng, n, 2)):
        stacks = linalg_module.gather_sectors(build_generator(model).matrix)
        traced = [blocks for coords, blocks in stacks if (coords < n).any()]
        bordered.clear()
        peak = _traced_peak(linalg_module.real_null_spaces, stacks, _scale(model))
        assert len(traced) == len(bordered) == 1
        assert np.shares_memory(bordered[0], traced[0])
        assert peak <= 0.2 * 16 * n**4


def test_pattern_fold_holds_no_pattern_of_the_superoperator():
    # The fold ORs L's rows block of nodes by block of nodes into one
    # node x node array (node = diagonal or Hermitian pair, (n² + n) / 2 of
    # them), so it holds no N x 2N or N x N bool pattern of L (N = n²):
    # those two alone are 3 n⁴ bytes, 0.19 of 16 n⁴.
    n = 24
    rng = np.random.default_rng(98)
    for model in (random_model(rng, n, 2), minimal_oqrw(random_rate_matrix(rng, n, 0.1))):
        m = build_generator(model).matrix
        assert _traced_peak(linalg_module._pair_roots, m, n) <= 0.08 * 16 * n**4


def test_an_unsplit_model_is_labelled_from_one_row_and_one_column():
    # In a dense model coordinate 0 touches every other coordinate, in L's
    # fold and in M, so neither stage-1 labelling forms a pattern: M's alone
    # is n⁴ bytes, 0.0625 of 16 n⁴, and the blocked fold peaks at 0.057.
    n = 24
    m = build_generator(random_model(np.random.default_rng(99), n, 2)).matrix
    ((_, blocks),) = linalg_module.gather_sectors(m)
    assert blocks.shape == (1, n * n, n * n)
    assert _traced_peak(linalg_module._pair_roots, m, n) <= 0.005 * 16 * n**4
    assert _traced_peak(linalg_module._sector_roots, blocks) <= 0.005 * 16 * n**4


def test_pair_roots_are_the_labels_of_the_whole_fold():
    # The fold of the whole pattern at once, labelled by a breadth-first
    # search: node 0 touches every node for a dense model and channel, not
    # for a leaky model (the drained level's coherences split off) or a walk.
    rng = np.random.default_rng(100)
    models = [(random_model(rng, 7, 2), True), (random_channel(rng, 7, 2), True)]
    models += [(leaky_model(rng, 7, 2), False)]
    models += [(minimal_oqrw(random_rate_matrix(rng, 6, 0.5)), False)]
    for model, hub in models:
        m, n = build_generator(model).matrix, model.dim
        diag, p, q = linalg_module._hermitian_pairs(n)
        at_p, at_q = np.concatenate([diag, p]), np.concatenate([diag, q])
        rows = (m[at_p] != 0) | (m[at_q] != 0)
        folded = rows[:, at_p] | rows[:, at_q]
        assert (folded[0, 1:] | folded[1:, 0]).all() == hub
        assert np.array_equal(linalg_module._pair_roots(m, n), search_sector_roots(folded))


def test_verify_builds_no_channel_superoperator(monkeypatch):
    channel = conjugated_pair_channel(np.random.default_rng(5), 2, 2)
    report = decompose(channel)
    _forbid_superoperator_builds(monkeypatch)
    assert verify_decomposition(report, channel).ok
    with pytest.raises(ValueError, match="does not match"):
        verify_decomposition(report, faithful_2d())


def test_no_full_svd_of_a_tall_matrix_after_stage_one(monkeypatch):
    # Stage 1 factors square sector blocks; kernel_basis on the tall n² x k
    # matrices of the algebra and enclosure stages takes a thin SVD. No SVD
    # anywhere forms the full left factor of a tall matrix.
    rng = np.random.default_rng(9)
    models = [leaky_model(rng, 5, 2), conjugated_pair_model(rng, 3, 2)[0]]
    models += [block_diag_model(rng, (2, 3), 2), conjugated_pair_channel(rng, 3, 2)]
    calls = _svd_spy(monkeypatch)
    for model in models:
        report = decompose(model)
        verify_decomposition(report, model)
    full_tall = [shape for shape, _, full, uv in calls if full and uv and shape[-2] > shape[-1]]
    assert full_tall == []


def _sector_models():
    rng = np.random.default_rng(53)
    yield minimal_oqrw(random_rate_matrix(rng, 6))
    yield zero_generator_2d()
    yield rotation_channel()
    yield block_diag_model(rng, (3, 1, 2), 2)


def _stack_sectors(model):
    """Each coordinate's sector root in the whole reference M
    (``unblocked_gather``) and the number of coarse blocks, once stage 1 has
    been checked to decide exactly those sectors, coarse stack by coarse
    stack (``_sector_decisions``)."""
    m = build_generator(model).matrix
    with pytest.MonkeyPatch.context() as patch:
        calls = _factor_spy(patch)
        null_spaces(m)
    _, real, coords = calls[0][2]
    roots = linalg_module._sector_roots(unblocked_gather(m)[0])
    assert np.array_equal(linalg_module._sector_roots(real), roots)
    _sector_decisions(calls, m.shape[0])
    return roots, sum(len(at) for at in coords)


def test_refined_sectors_are_the_sectors_of_the_reference_gather():
    # Stage 1 labels L's pattern folded onto Hermitian pairs, gathers only
    # those coarse blocks and splits each stack of them by ``_sector_roots``:
    # every coordinate gets its root in the whole reference M, and a real
    # model (the minimal walks, a real channel) still splits sym from anti.
    rng = np.random.default_rng(29)
    walks = [minimal_oqrw(random_rate_matrix(rng, n, p)) for n, p in ((5, 0.3), (9, 0.5), (24, 0.1))]
    q = np.linalg.qr(rng.standard_normal((8, 4)))[0]
    real_channel = KrausChannel.create([q[:4], q[4:]])
    split = 0
    for model in (*gather_models(), *_sector_models(), *walks, real_channel):
        roots, blocks = _stack_sectors(model)
        split += np.unique(roots).size > blocks
    assert split >= 4


def _sparse_model(kraus, real, n, density, seed):
    """A model with random exact zeros: a Lindblad model whose Hamiltonian
    and two jumps keep each entry with probability ``density``, or a channel
    of two Kraus operators, the blocks of a 2n × n isometry whose rows each
    hold at most one nonzero (so its columns are orthogonal whatever the
    pattern), real or complex."""
    rng = np.random.default_rng(seed)

    def entries(shape):
        values = rng.standard_normal(shape)
        return values if real else values + 1j * rng.standard_normal(shape)

    if kraus:
        owner = np.where(rng.random(2 * n) < density, rng.integers(0, n, 2 * n), -1)
        owner[rng.permutation(2 * n)[:n]] = np.arange(n)  # every column is used
        g = np.zeros((2 * n, n), dtype=float if real else complex)
        rows = np.flatnonzero(owner >= 0)
        g[rows, owner[rows]] = entries(rows.size)
        g /= np.linalg.norm(g, axis=0)
        return KrausChannel.create([g[:n], g[n:]])
    h, *jumps = (entries((n, n)) * (rng.random((n, n)) < density) for _ in range(3))
    return LindbladModel.create((h + h.conj().T) / 2, jumps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.booleans(), st.booleans(), st.integers(1, 5), st.floats(0.05, 0.6), st.integers(0, 2**16))
def test_stack_sectors_of_sparse_models_are_the_sectors_of_the_reference_gather(
    kraus, real, n, density, seed
):
    # The same split on random exact-zero patterns.
    _stack_sectors(_sparse_model(kraus, real, n, density, seed))


def test_null_spaces_match_complex_svd_oracle(monkeypatch):
    # Oracle: the complex SVD of L itself, with the same rank rule on the
    # scale ‖L‖_F = ‖M‖_F. The sector blocks' singular values together are
    # the singular values of L. Every probe bound lies below σ_N of its
    # sector, and for every sector a bordered certificate decided to have a
    # d-dimensional kernel, rank-d borders included, the cut and its bound
    # bracket the sector's singular values: σ_{N-d+1} <= cut < bound <= σ_{N-d}.
    svd = np.linalg.svd
    bound, border = linalg_module._sigma_min_bound, linalg_module._bordered_kernels
    probed, bordered = [], []

    def bound_spy(a, rng, width):
        out = bound(a, rng, width)
        if width == 0:
            probed.append((a.copy(), out[0]))
        return out

    def border_spy(s, sectors, xh, cut, rng, left_known):
        out = border(s, sectors, xh, cut, rng, left_known)
        bordered.append((s[sectors], xh.shape[2], cut, *out[:2]))
        return out

    monkeypatch.setattr(linalg_module, "_sigma_min_bound", bound_spy)
    monkeypatch.setattr(linalg_module, "_bordered_kernels", border_spy)
    dims = set()
    for model in (*_agreement_models(), *_sector_models()):
        gen, n = build_generator(model).matrix, model.dim
        u, s, vh = svd(gen)
        cut = DEFAULT_TOL.rank_tol * max(np.linalg.norm(gen), 1.0)
        rank = int(np.count_nonzero(s > cut))
        real = unblocked_gather(gen)[0]
        roots = linalg_module._sector_roots(real)
        blocks = [real[np.ix_(roots == r, roots == r)] for r in np.unique(roots)]
        values = np.sort(np.concatenate([svd(b, compute_uv=False) for b in blocks]))
        assert np.max(np.abs(values[::-1] - s)) <= 1e-12 * max(s[0], 1.0)
        probed.clear()
        bordered.clear()
        kern, left = null_spaces(gen)
        for blocks, bounds in probed:
            assert not np.any(bounds > svd(blocks, compute_uv=False)[:, -1])
        for blocks, d, sector_cut, ok, bounds in bordered:
            assert abs(sector_cut - cut) <= 1e-12 * cut
            sigma = svd(blocks[ok], compute_uv=False)
            assert np.all((sigma[:, -d] <= cut) & (cut < bounds[ok]))
            if blocks.shape[-1] > d:
                assert np.all(bounds[ok] <= sigma[:, -d - 1])
            dims.update([d] if ok.any() else [])
        assert kern.shape[1] == left.shape[1] == n * n - rank
        for basis, oracle in ((kern, vh[rank:].conj().T), (left, u[:, rank:])):
            assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
            proj = basis @ basis.conj().T
            assert np.linalg.norm(proj - oracle @ oracle.conj().T) < 1e-10
            for v in basis.T:
                x = unvec(v)
                assert np.array_equal(x, x.conj().T)
    # the grid certifies one-dimensional kernels and rank-d ones
    assert max(dims) > 1


def test_null_spaces_factor_a_dense_model_as_one_sector(monkeypatch):
    model = random_model(np.random.default_rng(3), 4, 2)
    calls = _factor_spy(monkeypatch)
    null_spaces(build_generator(model).matrix)
    # one 16-coordinate sector with a certified one-dimensional kernel: one LU
    # of the bordered matrix, and no SVD
    assert _sector_decisions(calls, 16) == [(16, 1)]
    assert [c[1] for c in calls if c[0] == "lu"] == [(1, 17, 17)]


def test_null_spaces_split_only_at_exact_zeros(monkeypatch):
    base = block_diag_model(np.random.default_rng(1), (3, 3), 2)
    calls = _factor_spy(monkeypatch)
    kern, _ = null_spaces(build_generator(base).matrix)
    assert len(_sector_decisions(calls, 36)) > 1 and kern.shape[1] == 2
    # kernel columns come sector by sector, each supported in one block
    first, second = (unvec(v) for v in kern.T)
    assert np.count_nonzero(first[3:, :]) == np.count_nonzero(first[:, 3:]) == 0
    assert np.count_nonzero(second[:3, :]) == np.count_nonzero(second[:, :3]) == 0
    h = base.hamiltonian.copy()
    h[0, 3] = h[3, 0] = 1e-300
    coupled = LindbladModel.create(h, base.jumps)
    calls.clear()
    null_spaces(build_generator(coupled).matrix)
    # one 36-coordinate sector whose two-dimensional kernel only the rank-d
    # certificate decides
    assert _sector_decisions(calls, 36) == [(36, ("sketch", 2))]


def _hermitian_coordinates(n):
    """The unitary T whose columns are vec of the orthonormal Hermitian basis:
    diagonal units, then (E_ij + E_ji)/√2 and i(E_ij - E_ji)/√2 for i < j."""
    iu = np.triu_indices(n, k=1)
    basis = [unit(i, i, n) for i in range(n)]
    basis += [(unit(i, j, n) + unit(j, i, n)) / np.sqrt(2) for i, j in zip(*iu)]
    basis += [1j * (unit(i, j, n) - unit(j, i, n)) / np.sqrt(2) for i, j in zip(*iu)]
    return np.column_stack([vec(b) for b in basis])


def _sector_svd_oracle(mat, tol=DEFAULT_TOL):
    """Projectors onto ker L and ker L† from one SVD per connected component
    of the nonzero pattern of M = T† L T, with the cut rank_tol·max(‖L‖_F, 1):
    the factorization null_spaces falls back to, written out directly."""
    n = isqrt(mat.shape[0])
    t = _hermitian_coordinates(n)
    m = (t.conj().T @ mat @ t).real
    cut = tol.rank_tol * max(np.linalg.norm(mat), 1.0)
    count, labels = scipy.sparse.csgraph.connected_components(m != 0, directed=False)
    kernels = [np.zeros((n * n, 0)), np.zeros((n * n, 0))]
    for c in range(count):
        at = np.flatnonzero(labels == c)
        u, s, vt = np.linalg.svd(m[np.ix_(at, at)])
        drop = s <= cut
        for side, vecs in enumerate((vt[drop].T, u[:, drop])):
            embedded = np.zeros((n * n, vecs.shape[1]))
            embedded[at] = vecs
            kernels[side] = np.hstack([kernels[side], embedded])
    return [t @ b @ (t @ b).conj().T for b in kernels]


def _real_pair_model(rng, d=3, num_jumps=2):
    """H = 0 and jumps 1₂ ⊗ A_j with real d x d A_j: L is 1 ⊗ L_A, and L_A
    maps real matrices to real ones, so the real and the imaginary parts of
    the coherences between the two copies form two d²-coordinate sectors,
    each holding one of the two intertwiners of the copies' steady state."""
    jumps = [np.kron(np.eye(2), rng.standard_normal((d, d))) for _ in range(num_jumps)]
    return LindbladModel.create(np.zeros((2 * d, 2 * d)), jumps)


def _oracle_grid():
    rng = np.random.default_rng(71)
    for n in (2, 3, 5, 8):
        yield random_model(rng, n, 2)
        yield leaky_model(rng, n, 2)
        yield random_channel(rng, n, 2)
    for dims in ((1, 2), (2, 3), (3, 3, 2), (4, 4)):
        yield block_diag_model(rng, dims, 2)
    yield _real_pair_model(rng)


def _assert_matches_sector_svd_oracle(mat):
    kern, left = null_spaces(mat)
    oracle = _sector_svd_oracle(mat)
    for basis, proj in zip((kern, left), oracle):
        assert basis.shape[1] == round(np.trace(proj).real)
        assert np.linalg.norm(basis @ basis.conj().T - proj) < 1e-10


def test_null_spaces_match_per_sector_svd_oracle():
    models = (*_agreement_models(), *_sector_models(), *_oracle_grid())
    for model in models:
        _assert_matches_sector_svd_oracle(build_generator(model).matrix)


def test_null_spaces_near_threshold_falls_back_to_svd(monkeypatch):
    # Two 3-level blocks coupled at g = 1e-4: the slow mode σ_{N-1} ~ g²
    # lies below the cut, so the bordered bound cannot exceed it. The LU of
    # the sector for its sketch meets an exact zero pivot, so no rank-d
    # border is tried and the SVD decides.
    base = block_diag_model(np.random.default_rng(1), (3, 3), 2)
    h = base.hamiltonian.copy()
    h[0, 3] = h[3, 0] = 1e-4
    mat = build_generator(LindbladModel.create(h, base.jumps)).matrix
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, _ = null_spaces(mat)
    assert _sector_decisions(calls, 36) == [(36, "svd")] and kern.shape[1] == 2
    assert [c[1] for c in calls if c[0] == "zero pivot"] == [(1, 36, 36)]


def test_null_spaces_zero_generator_meets_exact_zero_pivots(monkeypatch):
    mat = build_generator(zero_generator_2d()).matrix
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, _ = null_spaces(mat)
    # the populations' bordered matrices [[0, 1], [1, 0]] certify them; the
    # coherences' stacked LU fails, then each one's own LU, so their sketches
    # are not finite and the SVD decides them
    assert _sector_decisions(calls, 4) == [(1, 1), (1, 1), (1, "svd"), (1, "svd")]
    assert kern.shape[1] == 4
    pivots = [c[1] for c in calls if c[0] == "zero pivot"]
    assert pivots == [(2, 1, 1)] + [(1, 1, 1)] * 2


def test_null_spaces_conjugated_pair_cross_sector_needs_svd(monkeypatch):
    # the two blocks are certified by one bordered LU each; the coherences
    # between them carry the intertwiner and its adjoint, a two-dimensional
    # kernel, so their one LU fails the kernel-free bound. Its probe solves
    # find two directions, and the border by them and its transpose, one
    # stacked LU pair, certify that kernel without an SVD of the sector.
    model, _ = conjugated_pair_model(np.random.default_rng(2), 3, 2)
    mat = build_generator(model).matrix
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, _ = null_spaces(mat)
    decisions = _sector_decisions(calls, 36)
    assert decisions == [(9, 1), (9, 1), (18, ("sketch", 2))] and kern.shape[1] == 4
    assert [c[1] for c in calls if c[0] == "lu"] == [(2, 10, 10), (1, 18, 18), (2, 20, 20)]
    assert not any(c[0] == "svd" and c[1][-1] == 18 for c in calls)


def test_null_spaces_leaky_coherences_certified_kernel_free(monkeypatch):
    # the drained level's coherences form a sector with no kernel
    model = leaky_model(np.random.default_rng(2), 4, 2)
    mat = build_generator(model).matrix
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, _ = null_spaces(mat)
    assert _sector_decisions(calls, 16) == [(6, 0), (10, 1)] and kern.shape[1] == 1
    assert not any(kind == "svd" for kind, _, _ in calls)


def test_null_spaces_coherence_sector_kernels_go_to_svd(monkeypatch):
    # the two 9-coordinate cross-coherence sectors of the real pair model have
    # a one-dimensional kernel but no diagonal coordinate: their one LU meets
    # an exact zero pivot at this seed, so it gives no finite sketch and the
    # SVD decides them (``test_null_spaces_certify_the_real_pair_coherences``
    # has a seed without one). The copies' populations are certified by their
    # bordered LU, their imaginary parts kernel-free.
    mat = build_generator(_real_pair_model(np.random.default_rng(97))).matrix
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, left = null_spaces(mat)
    decisions = _sector_decisions(calls, 36)
    assert decisions == [(3, 0), (3, 0), (6, 1), (6, 1), (9, "svd"), (9, "svd")]
    assert kern.shape[1] == left.shape[1] == 4
    assert [c[1] for c in calls if c[0] == "zero pivot"] == [(2, 9, 9)] + [(1, 9, 9)] * 2


def test_null_spaces_certified_left_vectors_are_the_trace_functional(monkeypatch):
    # L†(1) = 0, so on each sector of M = T† L T that holds a diagonal
    # coordinate, the normalized restriction of y₀ = T† vec(1) is a left
    # kernel vector: the certificate returns it exactly, and the bordered
    # solve's yᵀx = 1 gives the right kernel vector a positive trace.
    calls = _factor_spy(monkeypatch)
    for model in (*_agreement_models(), *_sector_models(), *_oracle_grid()):
        mat = build_generator(model).matrix
        n = model.dim
        calls.clear()
        kern, left = null_spaces(mat)
        _sector_decisions(calls, n * n)
        t = _hermitian_coordinates(n)
        labels = scipy.sparse.csgraph.connected_components(
            (t.conj().T @ mat @ t).real != 0, directed=False
        )[1]
        # every sector with a diagonal coordinate is certified by the border
        # with the trace functional
        borders = [out for kind, _, out in calls if kind == "border" and out[2]]
        assert all(ok.all() for *_, ok in borders)
        assert sum(ok.size for *_, ok in borders) == len(set(labels[:n]))
        traced = 0
        for x, y in zip(kern.T, left.T):
            label = labels[np.flatnonzero((t.conj().T @ y).real)[0]]
            if label in labels[:n]:
                diagonal = labels[:n] == label
                assert np.array_equal(unvec(y), np.diag(diagonal / np.sqrt(diagonal.sum())))
                assert np.trace(unvec(x)).real > 0
                traced += 1
        assert traced == len(set(labels[:n]))


def test_null_spaces_decide_values_next_to_the_cut(monkeypatch):
    # L dephases every coherence at rate 1 and maps populations by a real
    # block-diagonal matrix with sectors A, B (1 x 1) and C, D (2 x 2) whose
    # smallest singular values are cut/2, 3·cut, cut/1000 and 3·cut. The map
    # does not preserve the trace: in C and D the normalized y₀ = (1, 1)/√2
    # is the left singular vector of the smallest value, so ‖Sᵀy₀‖ is that
    # value. Only A and C have a kernel. The certificate takes A and C by
    # their bordered LU. B and D, with ‖Sᵀy₀‖ = 3·cut, get a sketch LU; a
    # border by the direction of 3·cut, if their sketch finds it, has
    # ‖S x‖ = 3·cut, so they go to the SVD.
    n = 6
    cut = DEFAULT_TOL.rank_tol * np.sqrt(n * (n - 1) + 2)
    rng = np.random.default_rng(79)
    mat = -np.eye(n * n, dtype=complex)
    pops = np.arange(n) * (n + 1)
    mat[np.ix_(pops, pops)] = 0.0
    blocks = [np.array([[cut / 2]]), np.array([[3 * cut]])]
    q1 = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
    for smallest in (cut / 1000, 3 * cut):
        q2 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        blocks.append(q1 @ np.diag([1.0, smallest]) @ q2.T)
    mat[np.ix_(pops, pops)] = scipy.linalg.block_diag(*blocks)
    assert abs(np.linalg.norm(mat) * DEFAULT_TOL.rank_tol / cut - 1) < 1e-12
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, left = null_spaces(mat)
    decisions = _sector_decisions(calls, n * n)
    assert decisions == [(1, 1), (1, "svd")] + [(1, 0)] * n * (n - 1) + [(2, 1), (2, "svd")]
    assert kern.shape[1] == left.shape[1] == 2


def test_null_spaces_left_kernel_off_the_trace_functional_needs_svd(monkeypatch):
    # n = 2, coherences dephased at rate 1, populations mapped by
    # diag(1, cut/1000) q2ᵀ: a one-dimensional kernel whose left vector is
    # the second population, not y₀ = (1, 1)/√2. The map does not preserve
    # the trace and ‖Sᵀy₀‖ ≈ 0.7 exceeds the cut, so no bordered LU by y₀
    # runs. The sector's sketch LU finds one direction, and the rank-1 border
    # and its transpose certify the kernel, with the second population as its
    # left vector.
    cut = DEFAULT_TOL.rank_tol * np.sqrt(3)
    q2 = np.linalg.qr(np.random.default_rng(101).standard_normal((2, 2)))[0]
    mat = -np.eye(4, dtype=complex)
    mat[np.ix_([0, 3], [0, 3])] = np.diag([1.0, cut / 1000]) @ q2.T
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, left = null_spaces(mat)
    assert _sector_decisions(calls, 4) == [(1, 0), (1, 0), (2, ("sketch", 1))]
    assert [c[1] for c in calls if c[0] == "lu"] == [(2, 1, 1), (1, 2, 2), (2, 3, 3)]
    assert np.allclose(np.abs(unvec(left[:, 0])), unit(1, 1), atol=1e-12)


def test_null_spaces_probe_traced_and_coherence_sectors_of_one_size_together(monkeypatch):
    # n = 3, M = T† L T real and block-diagonal in the Hermitian coordinates
    # (diag 0..2, sym (0,1) (0,2) (1,2), anti (0,1) (0,2) (1,2)). Diag 0,
    # pairs (1,2) and (0,2) form one coarse stack of width 5 with sectors
    # {diag 0, sym(1,2)}, {anti(0,2), anti(1,2)} and {sym(0,2)}: one traced
    # and one coherence sector of size 2. Diag 0's row is zero, so y is an
    # exact left kernel and the border certifies that sector first; then one
    # probe LU takes the coherence sector, kernel-free. Diag 1 is a traced
    # sector with ‖Sᵀy‖ = 1: no border, and its probe bound makes it
    # kernel-free like any coherence sector.
    blocks = {
        (0, 5): [[0.0, 0.0], [1.0, 2.0]],
        (7, 8): [[2.0, 1.0], [-1.0, 3.0]],
        (4,): [[-1.5]],
        (1,): [[-1.0]],
        (2,): [[0.0]],
        (3, 6): [[-1.0, 0.5], [0.5, -1.0]],
    }
    real = np.zeros((9, 9))
    for at, block in blocks.items():
        real[np.ix_(at, at)] = block
    t = _hermitian_coordinates(3)
    mat = t @ real @ t.conj().T
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, left = null_spaces(mat)
    decisions = _sector_decisions(calls, 9)
    assert decisions == [(1, 0), (1, 1), (2, 0), (1, 0), (2, 1), (2, 0)]
    # in the width-5 stack's size-2 group, the bordered LU comes before the
    # one probe LU of every sector it left open
    assert [c[1] for c in calls if c[0] == "lu"] == [
        (1, 2, 2), (1, 1, 1), (1, 2, 2), (1, 1, 1), (1, 3, 3), (1, 2, 2)
    ]
    assert kern.shape[1] == left.shape[1] == 2
    assert np.array_equal(unvec(left[:, 0]), np.diag([1.0, 0.0, 0.0]).astype(complex))


def test_null_spaces_bordered_bound_rules_out_a_second_small_value(monkeypatch):
    # One dense 36-coordinate sector with singular values 1 (34 times),
    # cut/2 and cut/1000: a two-dimensional kernel. The normalized y₀ is the
    # left singular vector of cut/1000, so ‖Mᵀy₀‖ <= cut and the bordered LU
    # runs; its bound, at most σ_{N-1} = cut/2, leaves the sector undecided.
    # The sketch LU finds both small directions. The right and left kernels
    # are far from parallel, so the rank-2 border's solve meets S X = −X̂Λ
    # with ‖Λ‖ several times cut/2, above the cut: the SVD decides.
    n = 6
    cut = DEFAULT_TOL.rank_tol * np.sqrt(34)
    rng = np.random.default_rng(83)
    y0 = np.r_[np.ones(n), np.zeros(n * n - n)] / np.sqrt(n)
    q1 = np.linalg.qr(np.column_stack([y0, rng.standard_normal((n * n, n * n - 1))]))[0][:, ::-1]
    q2 = np.linalg.qr(rng.standard_normal((n * n, n * n)))[0]
    t = _hermitian_coordinates(n)
    mat = t @ (q1 * np.r_[np.ones(34), cut / 2, cut / 1000]) @ q2.T @ t.conj().T
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, _ = null_spaces(mat)
    assert _sector_decisions(calls, n * n) == [(36, "svd")] and kern.shape[1] == 2
    assert [c[1] for c in calls if c[0] == "lu"] == [(1, 37, 37), (1, 36, 36), (2, 38, 38)]


def _rotated(model, u):
    """The Lindblad model conjugated by the unitary u."""
    jumps = [u @ j @ u.conj().T for j in model.jumps]
    return LindbladModel.create(u @ model.hamiltonian @ u.conj().T, jumps)


def test_null_spaces_certify_several_enclosures_in_a_generic_basis(monkeypatch):
    # In a random basis, two enclosures and a conjugated pair (one family of
    # two) fill one sector each, with kernels of dimension 2 and 4. The
    # bordered LU by y₀ cannot certify them. The sector's sketch LU finds d
    # directions, and one stacked LU of the rank-d border and its transpose
    # certifies the kernel: no SVD of an N x N matrix.
    rng = np.random.default_rng(107)
    calls = _factor_spy(monkeypatch)
    for model, d in ((block_diag_model(rng, (2, 3), 2), 2), (conjugated_pair_model(rng, 3, 2)[0], 4)):
        size = model.dim**2
        mat = build_generator(_rotated(model, random_unitary(rng, model.dim))).matrix
        _assert_matches_sector_svd_oracle(mat)
        calls.clear()
        kern, left = null_spaces(mat)
        assert _sector_decisions(calls, size) == [(size, ("sketch", d))]
        assert kern.shape[1] == left.shape[1] == d
        assert [c[1] for c in calls if c[0] in ("lu", "svd")] == [
            (1, size + 1, size + 1), (1, size, size), (1, 10, 10), (2, size + d, size + d)
        ]


def test_null_spaces_certify_the_real_pair_coherences(monkeypatch):
    # the real pair model's 9-coordinate cross-coherence sectors, each with a
    # one-dimensional kernel and no diagonal coordinate: the probe solves of
    # their kernel-free LU are their sketches, and the rank-1 border and its
    # transpose certify both, stacked in one LU call
    mat = build_generator(_real_pair_model(np.random.default_rng(3))).matrix
    _assert_matches_sector_svd_oracle(mat)
    calls = _factor_spy(monkeypatch)
    kern, left = null_spaces(mat)
    decisions = _sector_decisions(calls, 36)
    assert decisions == [(3, 0), (3, 0), (6, 1), (6, 1)] + [(9, ("sketch", 1))] * 2
    assert kern.shape[1] == left.shape[1] == 4
    assert not any(kind == "svd" and shape[-1] == 9 for kind, shape, _ in calls)
    assert [c[1] for c in calls if c[0] == "lu" and c[1][-1] >= 9] == [(2, 9, 9), (4, 10, 10)]


def _dense_sector_generator(values, rng, n=6):
    """A superoperator on C^n whose M = T† L T is one dense sector with the
    given singular values, ascending at the end, and random singular vectors."""
    q1, q2 = (np.linalg.qr(rng.standard_normal((n * n, n * n)))[0] for _ in range(2))
    t = _hermitian_coordinates(n)
    return t @ (q1 * values) @ q2.T @ t.conj().T


def test_null_spaces_sketch_that_counts_a_value_above_the_cut_needs_svd(monkeypatch):
    # singular values 1 (34 times), 1.2·cut and cut/1000: a one-dimensional
    # kernel. The sketch grows past 1/cut along both small directions, so it
    # finds d = 2, and the rank-2 border's ‖S X‖ is about 1.2·cut: the
    # certificate rejects d and the SVD gives its answer, one dimension. The
    # kernel lies 1.2·cut from the next singular vector, so rank_tol = 1e-4
    # keeps its roundoff below the oracle's 1e-10.
    tol = dataclasses.replace(DEFAULT_TOL, rank_tol=1e-4)
    cut = tol.rank_tol * np.sqrt(34)
    mat = _dense_sector_generator(np.r_[np.ones(34), 1.2 * cut, cut / 1000], np.random.default_rng(109))
    calls, widths = _factor_spy(monkeypatch), []
    kern, left = null_spaces(mat, tol)
    assert _sector_decisions(calls, 36, widths) == [(36, "svd")]
    assert [w.tolist() for w in widths] == [[2]]
    for basis, proj in zip((kern, left), _sector_svd_oracle(mat, tol)):
        assert basis.shape[1] == round(np.trace(proj).real) == 1
        assert np.linalg.norm(basis @ basis.conj().T - proj) < 1e-10


def test_null_spaces_kernel_of_ten_dimensions_needs_svd(monkeypatch):
    # ten singular values cut/1000 and 26 of size 1: all ten sketch
    # directions grow past 1/cut, so the sketch cannot see the whole kernel
    # and the SVD decides
    cut = DEFAULT_TOL.rank_tol * np.sqrt(26)
    mat = _dense_sector_generator(np.r_[np.ones(26), np.full(10, cut / 1000)], np.random.default_rng(113))
    _assert_matches_sector_svd_oracle(mat)
    calls, widths = _factor_spy(monkeypatch), []
    kern, left = null_spaces(mat)
    assert _sector_decisions(calls, 36, widths) == [(36, "svd")]
    assert [w.tolist() for w in widths] == [[10]]
    assert kern.shape[1] == left.shape[1] == 10


def _planted_block(rng, values, left=None):
    """A real square matrix with the given singular values and random
    singular vectors; ``left``, if given, is the left singular vector of the
    last value."""
    size = len(values)
    first = rng.standard_normal((size, size))
    if left is not None:
        first[:, 0] = left
    q1 = np.linalg.qr(first)[0][:, ::-1]
    q2 = np.linalg.qr(rng.standard_normal((size, size)))[0]
    return (q1 * values) @ q2.T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([(True, 4), (True, 5), (True, 6), (False, 5), (False, 6)]),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
def test_null_spaces_decide_a_planted_dense_sector_as_the_svd(form, k, seed):
    # One dense sector of N = 16 to 36 coordinates whose singular values are
    # k values <= cut/100 and others in [1e-6, 1], at least 100·cut, in two
    # forms. Trace-preserving: the sector spans all n² coordinates, with one
    # more value 0 whose left singular vector is y₀, so y is exact. Coherence:
    # the sector holds the n² − n coherence coordinates, beside a population
    # block with y₀ as its left kernel vector. Before the sketches' SVD every
    # sector takes at most one probe LU, and a diagonal-bearing one at most
    # one LU bordered by y. The kernel dimensions are the per-sector SVD's.
    # A certified basis X is exact only up to its residual: by Wedin's
    # theorem it lies within the angle ‖M X‖₂ / gap of the SVD's kernel, gap
    # the smallest value kept, and the oracle's basis within (largest small
    # value + roundoff) / gap; the projectors agree within the sum, which is
    # far above 1e-10 when a small value is near cut/100 and the gap 1e-6.
    traced, n = form
    rng = np.random.default_rng(seed)
    size = n * n if traced else n * n - n
    large = np.exp(rng.uniform(np.log(1e-6), 0.0, size - k - traced))
    large[0] = 1.0
    population = np.r_[np.exp(rng.uniform(np.log(1e-6), 0.0, n - 1)), 0.0]
    y0 = np.r_[np.ones(n), np.zeros(size - n)] / np.sqrt(n) if traced else np.ones(n) / np.sqrt(n)
    norm = np.sqrt(np.sum(large**2) + (0 if traced else np.sum(population**2)))
    cut = DEFAULT_TOL.rank_tol * max(norm, 1.0)
    small = rng.uniform(0.0, cut / 100, k)
    if traced:
        m, gap = _planted_block(rng, np.r_[large, small, 0.0], y0), large.min()
    else:
        blocks = (_planted_block(rng, population, y0), _planted_block(rng, np.r_[large, small]))
        m, gap = scipy.linalg.block_diag(*blocks), min(large.min(), population[:-1].min())
    t = _hermitian_coordinates(n)
    mat = t @ m @ t.conj().T
    with pytest.MonkeyPatch.context() as patch:
        calls = _factor_spy(patch)
        kern, left = null_spaces(mat)
        decisions = _sector_decisions(calls, n * n)
    first_svd = next((i for i, c in enumerate(calls) if c[0] == "svd"), len(calls))
    lus = _lu_sizes([c for c in calls[:first_svd] if c[0] in ("lu", "zero pivot")])
    assert lus.count(size) <= 1 and lus.count(size + 1) <= traced
    (planted,) = [d for at, d in decisions if at == size]
    assert planted in (k + traced, ("sketch", k + traced), "svd")
    dim = k + 1
    for basis, proj, op in zip((kern, left), _sector_svd_oracle(mat), (mat, mat.conj().T)):
        assert basis.shape[1] == round(np.trace(proj).real) == dim
        angle = (np.linalg.norm(op @ basis, 2) + max(small, default=0) + 1e-14 * norm) / gap
        error = np.linalg.norm(basis @ basis.conj().T - proj)
        assert error <= 1e-10 + np.sqrt(2 * dim) * angle


def test_null_spaces_kernel_dimension_is_basis_invariant():
    # X -> U X U† is L -> (Ū ⊗ U) L (Ū ⊗ U)†, which keeps ‖L‖_F and so the
    # cut; reordering the jump operators leaves L unchanged
    rng = np.random.default_rng(73)
    models = [block_diag_model(rng, (2, 3), 2), leaky_model(rng, 5, 3), random_model(rng, 4, 2)]
    models += [conjugated_pair_model(rng, 2, 3)[0], conjugated_pair_channel(rng, 2, 3)]
    for model in models:
        kern, _ = null_spaces(build_generator(model).matrix)
        u = random_unitary(rng, model.dim)
        if isinstance(model, LindbladModel):
            jumps = [u @ j @ u.conj().T for j in model.jumps][::-1]
            moved = LindbladModel.create(u @ model.hamiltonian @ u.conj().T, jumps)
        else:
            moved = KrausChannel.create([u @ v @ u.conj().T for v in model.kraus][::-1])
        moved_kern, _ = null_spaces(build_generator(moved).matrix)
        assert moved_kern.shape[1] == kern.shape[1] > 0


def test_decompose_generators_zero_up_to_roundoff():
    # H = U(0.7·1)U† with the jump U(0.3·1)U†, and the channel with Kraus
    # operators k, k for k = U(1/√2)U†, are the zero generator up to
    # roundoff (‖L‖_F ~ 1e-15): every mode lies below the stage-1 cut
    # rank_tol · s, for operators whose scale s is of order one, so such
    # noise does not decide ranks. The answer is the zero generator's: one
    # family of n one-dimensional members.
    rng = np.random.default_rng(89)
    for n in (2, 3, 4):
        u = random_unitary(rng, n)
        h, jump, k = (u @ (c * np.eye(n)) @ u.conj().T for c in (0.7, 0.3, np.sqrt(0.5)))
        for model in (LindbladModel.create(h, [jump]), KrausChannel.create([k, k])):
            assert 0 < np.linalg.norm(build_generator(model).matrix) < 1e-13
            report = decompose(model)
            assert report.recurrent_dimension == n and not report.unique_enclosures
            (family,) = report.families
            assert [member.dimension for member in family.members] == [1] * n
            assert verify_decomposition(report, model).ok


def test_decompose_runs_one_svd_larger_than_twice_the_kernel(monkeypatch):
    # The algebra and the extremal states come from the kernels of stage 1;
    # the remaining SVDs and LUs act on matrices with at most 2 dim ker L
    # columns (coefficient spaces, Hermitian re-orthonormalization). So every
    # factorization larger than that is stage 1's: an LU of sector blocks or
    # of blocks bordered by y₀ or by sketch directions, or the SVD of the
    # sectors neither certificate decided.
    rng = np.random.default_rng(5)
    models = [leaky_model(rng, 4, 2), conjugated_pair_model(rng, 3, 2)[0]]
    models += [block_diag_model(rng, (3, 4), 2)]
    calls = _factor_spy(monkeypatch)
    stages = _stage_one_spy(monkeypatch, calls)
    for model in models:
        calls.clear()
        stages.clear()
        report = decompose(model)
        k = report.invariant_kernel.shape[1]

        def large(seq):
            return [c for c in seq if c[0] in ("svd", "lu") and min(c[1][-2:]) > 2 * k]

        (stage,) = stages
        assert large(calls) == large(stage)
        _sector_decisions(stage, model.dim**2)


def _compress_superop(mat, iso):
    """Superoperator of A -> V† S(V A V†) V for an isometry V."""
    return np.kron(iso.T, iso.conj().T) @ mat @ np.kron(iso.conj(), iso)


def _range_of(p):
    w, u = np.linalg.eigh((p + p.conj().T) / 2)
    return u[:, w > 0.5]


def _compressed_svd_oracle(model, seed=0):
    """Fixed-point span projector, central-block projectors and extremal
    states from SVDs of the compressed cut-off and compressed generators:
    an independent oracle for algebra_structure and extremal_state."""
    gen = build_generator(model).matrix
    split = recurrent_projector(model)
    iso = _range_of(split.recurrent)
    cut = _dense_cutoff(model, split.recurrent)
    fixed = [unvec(v) for v in kernel_basis(_compress_superop(cut.matrix, iso))]
    span = np.column_stack([vec(iso @ f @ iso.conj().T) for f in fixed])
    # Center: combinations of the fixed points commuting with all of them.
    commutators = np.column_stack(
        [np.concatenate([(a @ b - b @ a).ravel() for b in fixed]) for a in fixed]
    )
    center = [sum(c * f for c, f in zip(coeff, fixed)) for coeff in kernel_basis(commutators)]
    rng = np.random.default_rng(seed)
    generic = sum(rng.standard_normal() * (z + z.conj().T) for z in center)
    generic = generic + sum(rng.standard_normal() * 1j * (z - z.conj().T) for z in center)
    w, u = np.linalg.eigh(generic)
    cuts = np.sort(np.argsort(np.diff(w))[len(w) - len(center) :]) + 1
    blocks = [iso @ b @ b.conj().T @ iso.conj().T for b in np.split(u, cuts, axis=1)]

    def state(p_v):
        iso_v = _range_of(p_v)
        (x,) = [unvec(v) for v in kernel_basis(_compress_superop(gen, iso_v))]
        y = x / np.trace(x)
        rho = psd_project((y + y.conj().T) / 2)
        return iso_v @ rho @ iso_v.conj().T

    return span @ span.conj().T, blocks, state


def test_kernel_algebra_and_states_match_compressed_svd_oracle():
    for model in _agreement_models():
        report = decompose(model)
        split = recurrent_projector(model)
        structure = algebra_structure(model, split.recurrent, split.adjoint_kernel)
        span_oracle, blocks_oracle, state_oracle = _compressed_svd_oracle(model)

        span = np.column_stack([vec(f) for f in structure.fixed_point_basis])
        assert np.linalg.norm(span @ span.conj().T - span_oracle) < 1e-10

        blocks = [block.projector for block in structure.blocks]
        assert len(blocks) == len(blocks_oracle)
        for p in blocks_oracle:
            assert min(np.linalg.norm(p - q) for q in blocks) < 1e-10

        for _, rec, _ in enumerate_minimal_enclosures(report):
            assert np.linalg.norm(rec.extremal_state - state_oracle(rec.projector)) < 1e-10


def _family_model(rng, m, d, num_jumps=2):
    """m copies of one dense d-dimensional block, each conjugated by its own
    random unitary: a degenerate family of m equivalent enclosures."""
    h0 = random_hermitian(rng, d)
    ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(num_jumps)]
    units = [np.eye(d)] + [random_unitary(rng, d) for _ in range(m - 1)]
    h = scipy.linalg.block_diag(*[w @ h0 @ w.conj().T for w in units])
    jumps = [scipy.linalg.block_diag(*[w @ op @ w.conj().T for w in units]) for op in ops]
    return LindbladModel.create(h, jumps)


def _family_unique_drain_model(rng):
    """A family (m = 2, d = 2) ⊕ a unique 3-dimensional block ⊕ one transient
    level drained into the unique block."""
    family = _family_model(rng, 2, 2)
    block = block_diag_model(rng, (3,), 2)
    h = scipy.linalg.block_diag(family.hamiltonian, block.hamiltonian, np.zeros((1, 1)))
    jumps = [
        scipy.linalg.block_diag(a, b, np.zeros((1, 1)))
        for a, b in zip(family.jumps, block.jumps)
    ]
    drain = np.zeros((8, 8), dtype=complex)
    drain[4, 7] = 1.0
    return LindbladModel.create(h, [*jumps, drain])


def _central_path_oracle(structure, p_r, seed=0, tol=DEFAULT_TOL, retries=5):
    """The block step through the center: a Hermitian basis of the center
    from an SVD of the commutator matrix, the eigenvalue clusters of a
    generic central element, then per block the perfect-square rule on the
    restricted algebra's dimension and the eigenvalue clusters of a generic
    block element. Returns (m, d, block projector, member projectors) per
    block."""
    iso = _range_of(p_r)
    fbasis = [iso.conj().T @ f @ iso for f in structure.fixed_point_basis]
    commutators = np.column_stack(
        [np.concatenate([(a @ b - b @ a).ravel() for b in fbasis]) for a in fbasis]
    )
    _, s, vh = np.linalg.svd(np.vstack([commutators.real, commutators.imag]), full_matrices=False)
    cut = max(tol.rank_tol * s[0], tol.residual_tol)
    center = [sum(c * f for c, f in zip(row, fbasis)) for row, sv in zip(vh, s) if sv <= cut]
    rng = np.random.default_rng(seed)

    def clusters(elements, accept):
        for _ in range(retries):
            w, u = np.linalg.eigh(sum(rng.standard_normal() * e for e in elements))
            parts = cluster_sorted_values(w, decomposition_module._CLUSTER_WIDTH)
            if accept(parts):
                return u, parts
        raise AssertionError("oracle clustering stayed ambiguous")

    u, parts = clusters(center, lambda parts: len(parts) == len(center))
    out = []
    for part in parts:
        block = u[:, part]
        basis = orthonormal_hermitian_span([block.conj().T @ f @ block for f in fbasis], tol)
        m = int(round(np.sqrt(len(basis))))
        assert m * m == len(basis)
        d, rem = divmod(block.shape[1], m)
        assert rem == 0
        inner, members = clusters(
            basis, lambda parts: len(parts) == m and all(p.stop - p.start == d for p in parts)
        )
        lift = iso @ block
        out.append(
            (
                m,
                d,
                lift @ lift.conj().T,
                [lift @ inner[:, p] @ inner[:, p].conj().T @ lift.conj().T for p in members],
            )
        )
    return out


def test_algebra_blocks_match_central_path_oracle():
    rng = np.random.default_rng(71)
    models = [*_agreement_models(), _family_model(rng, 3, 3), _family_unique_drain_model(rng)]
    model_shapes = []
    for model in models:
        split = recurrent_projector(model)
        structure = algebra_structure(model, split.recurrent, split.adjoint_kernel)
        oracle = _central_path_oracle(structure, split.recurrent)
        shapes = sorted((b.multiplicity, b.inner_dimension) for b in structure.blocks)
        assert shapes == sorted((m, d) for m, d, _, _ in oracle)
        model_shapes.append(shapes)
        assert structure.center_dimension == len(oracle)
        for m, d, projector, members in oracle:
            (block,) = [
                b for b in structure.blocks if np.linalg.norm(b.projector - projector) < 1e-12
            ]
            assert (block.multiplicity, block.inner_dimension) == (m, d)
            assert np.linalg.norm(sum(members) - projector) < 1e-12
            # the members may be another choice of minimal projections of the
            # block: rank-d projectors that sum to it, hence mutually orthogonal
            assert np.linalg.norm(sum(block.member_projectors) - projector) < 1e-12
            for p in block.member_projectors:
                assert abs(np.trace(p).real - d) < 1e-12
                assert np.linalg.norm(p @ p - p) < 1e-12
    # the last two models: a three-member family; a family, a unique block and a drain
    assert model_shapes[-2:] == [[(3, 3)], [(1, 3), (2, 2)]]


def test_algebra_structure_factors_nothing_larger_than_its_inputs(monkeypatch):
    # The center of F needed an SVD of a 2 k r² x k commutator matrix; two
    # generic elements of F need factorizations of at most max(n², k) rows,
    # and the commutator stack is folded one operator's r² x k block at a time.
    n = 6
    pair, _ = conjugated_pair_model(np.random.default_rng(3), n // 2, 2)
    models = [(LindbladModel.create(np.zeros((n, n)), []), (n, 1)), (pair, (2, n // 2))]
    rows = {"svd": [], "eigh": [], "qr": []}
    for name in ("svd", "eigh", "qr"):
        def spy(a, *args, _name=name, _factor=getattr(np.linalg, name), **kwargs):
            rows[_name].append(np.shape(a)[-2])
            return _factor(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    for model, shape in models:
        split = recurrent_projector(model)
        k = split.adjoint_kernel.shape[1]
        rows.update(svd=[], eigh=[], qr=[])
        structure = algebra_structure(model, split.recurrent, split.adjoint_kernel)
        (block,) = structure.blocks
        assert (block.multiplicity, block.inner_dimension) == shape
        assert rows["svd"] and max(rows["svd"] + rows["eigh"]) <= max(n * n, k)
        assert len(rows["qr"]) == 1 + len(model.jumps)
        assert max(rows["qr"]) <= n * n + k


def test_e_f_d_from_the_kernel_basis_is_the_projection_onto_the_fixed_point_algebra(
    monkeypatch,
):
    # algebra_structure solves the normal equations of the compressed ker L†
    # elements X_i for E_F(D), so the zeros the X_i and D_R share stay
    # exact; it is the HS projection Σ ⟨f_i, D_R⟩ f_i over an orthonormal
    # basis f of F, on models with and without a transient part.
    eigh, decomposed = decomposition_module._eigh, []

    def spy(a):
        decomposed.append(a)
        return eigh(a)

    monkeypatch.setattr(decomposition_module, "_eigh", spy)
    for model in (*_agreement_models(), weak_drain(1e-3)):
        split = recurrent_projector(model)
        decomposed.clear()
        algebra_structure(model, split.recurrent, split.adjoint_kernel)
        # the first call reads P_R's range isometry, the second E_F(D)
        rank = round(np.trace(split.recurrent).real)
        iso = decomposition_module._leading_isometry(split.recurrent, rank)
        basis = iso.conj().T @ decomposition_module._kernel_stack(split.adjoint_kernel) @ iso
        d_r = iso.conj().T @ np.diag(np.arange(model.dim)) @ iso
        expected = sum(np.vdot(f, d_r).real * f for f in orthonormal_hermitian_span(list(basis)))
        assert np.linalg.norm(decomposed[1] - expected) <= 1e-12


def _permuted(model, perm):
    """The model with its coordinates permuted: coordinate i is the input's perm[i]."""
    move = lambda a: a[perm][:, perm]  # noqa: E731
    if isinstance(model, KrausChannel):
        return KrausChannel.create([move(v) for v in model.kraus])
    return LindbladModel.create(move(model.hamiltonian), [move(j) for j in model.jumps])


def _outside(a, rows, cols):
    """The entries of a outside the rows ``rows`` and columns ``cols``."""
    inside = np.zeros(a.shape, dtype=bool)
    inside[np.ix_(rows, cols)] = True
    return a[~inside]


def test_a_faithful_model_reports_an_exact_recurrent_projector():
    report = decompose(random_model(np.random.default_rng(71), 6, 2))
    assert np.array_equal(report.recurrent, np.eye(6))
    # every entry of the transient projector is +0.0, real and imaginary
    assert not report.transient.view(float).any()
    assert not np.signbit(report.transient.view(float)).any()


def test_a_block_model_reports_exact_zeros_between_its_blocks():
    # Blocks of 3, 4 and 5 coordinates under a coordinate permutation. Each
    # n × n eigendecomposition splits on exact zeros, as stage 1 does, so
    # nothing in the report mixes two blocks: the projectors and states are
    # bitwise zero outside their blocks' coordinates, and each enclosure's
    # projector is its coordinates' projector, with entries 0 and 1.
    rng = np.random.default_rng(61)
    dims = (3, 4, 5)
    perm = rng.permutation(sum(dims))
    label = np.repeat(np.arange(len(dims)), dims)[perm]
    model = _permuted(block_diag_model(rng, dims, 2), perm)
    report = decompose(model)
    assert verify_decomposition(report, model).ok
    between = label[:, None] != label
    for a in (report.recurrent, report.transient, report.max_support_state):
        assert not a[between].any()
    assert sorted(rec.dimension for rec in report.unique_enclosures) == sorted(dims)
    for rec in report.unique_enclosures:
        block = label == label[np.argmax(np.diag(rec.projector).real)]
        assert np.array_equal(rec.projector, np.diag(block).astype(complex))
        assert not _outside(rec.extremal_state, block, block).any()


def test_a_family_reports_exact_zeros_outside_its_members():
    # conjugated_pair_channel's family of two 3-dimensional members beside a
    # dense 2-level channel, under a coordinate permutation: E_F(D) from the
    # kernel basis has exact zeros between the members, so each member is
    # its coordinates' projector, the block projector is zero outside the
    # pair, and the isometry a -> b outside member b's rows and a's columns.
    rng = np.random.default_rng(67)
    pair, other = conjugated_pair_channel(rng, 3, 2), random_channel(rng, 2, 2)
    perm = rng.permutation(8)
    kraus = [scipy.linalg.block_diag(v, u) for v, u in zip(pair.kraus, other.kraus)]
    channel = _permuted(KrausChannel.create(kraus), perm)
    report = decompose(channel)
    assert verify_decomposition(report, channel).ok
    (family,) = report.families
    in_pair = perm < 6
    assert not _outside(family.block_projector, in_pair, in_pair).any()
    members = [np.diag(rec.projector).real == 1 for rec in family.members]
    assert sorted(map(tuple, members)) == sorted([tuple(perm < 3), tuple(in_pair & (perm >= 3))])
    for rec, member in zip(family.members, members):
        assert np.array_equal(rec.projector, np.diag(member).astype(complex))
    for (a, b), q in family.isometries.items():
        assert not _outside(q, members[b], members[a]).any()


def _dense_cutoff(model, p_r):
    """Oracle: the dense cut-off superoperator kron(P_Rᵀ, P_R) L† kron(P_Rᵀ, P_R),
    with L from Kronecker products."""
    sandwich = np.kron(p_r.T, p_r)
    return Superoperator(model.dim, sandwich @ _kron_generator(model).conj().T @ sandwich)


def test_cutoff_generator_matches_dense_oracle():
    # The map applied to every matrix unit tabulates its superoperator.
    models = [*_agreement_models(), minimal_oqrw(random_rate_matrix(np.random.default_rng(59), 6))]
    for model in models:
        n = model.dim
        p_r = recurrent_projector(model).recurrent
        cut = cutoff_generator(model, p_r)
        units = np.eye(n * n).reshape(n * n, n, n, order="F")
        mat = np.column_stack([vec(cut(e)) for e in units])
        oracle = _dense_cutoff(model, p_r).matrix
        assert np.linalg.norm(mat - oracle) <= 1e-12 * max(1.0, np.linalg.norm(oracle))


def test_cutoff_generator_full_projector_is_adjoint():
    model = two_enclosures_2d()
    adj = adjoint_generator(model)
    cut = _dense_cutoff(model, np.eye(2))
    assert np.allclose(cut.matrix, adj.matrix, atol=1e-14)


def test_cutoff_generator_compressed_block():
    model = unfaithful_2d()
    split = recurrent_projector(model)
    cut = _dense_cutoff(model, split.recurrent)
    # the surviving one-dimensional block is stationary
    assert np.linalg.norm(apply(cut, np.diag([1.0, 0.0]))) < 1e-12


def test_cutoff_generator_zero():
    cut = _dense_cutoff(zero_generator_2d(), np.diag([1.0, 0.0]))
    assert np.allclose(cut.matrix, 0.0)


def test_is_enclosure_coordinate_spans():
    check = is_enclosure(np.diag([1.0, 0.0]), two_enclosures_2d())
    assert check.ok and check.residual < 1e-12


def test_is_enclosure_superposition_fails():
    plus = np.full((2, 2), 0.5)
    check = is_enclosure(plus, two_enclosures_2d())
    assert not check.ok
    # K = -|0><0|/2 and L = |0><0| leak 1/4 and 1/2 out of |+>; s = 3/2, g = 1
    assert abs(check.residual - np.sqrt(5) / 6) < 1e-12


def test_is_enclosure_zero_generator_everything():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    check = is_enclosure(np.outer(v, v.conj()), zero_generator_2d())
    assert check.ok


def test_is_enclosure_transient_level_is_not_enclosed():
    # L = |0><1| takes the transient level |1> to |0>: leak 1, weight g/s = 2/3
    check = is_enclosure(np.diag([0.0, 1.0]), unfaithful_2d())
    assert not check.ok
    assert abs(check.residual - 2 / 3) < 1e-12


def _algebra(model):
    split = recurrent_projector(model)
    return algebra_structure(model, split.recurrent, split.adjoint_kernel)


def test_algebra_structure_two_singleton_blocks():
    structure = _algebra(two_enclosures_2d())
    assert structure.fixed_point_dimension == 2
    assert structure.center_dimension == 2
    assert all(b.multiplicity == 1 and b.inner_dimension == 1 for b in structure.blocks)


def test_algebra_structure_zero_generator_factor():
    structure = _algebra(zero_generator_2d())
    assert structure.fixed_point_dimension == 4
    assert structure.center_dimension == 1
    (block,) = structure.blocks
    assert block.multiplicity == 2 and block.inner_dimension == 1


def test_algebra_structure_scalar_fixed_points():
    structure = _algebra(faithful_2d())
    assert structure.fixed_point_dimension == 1
    (block,) = structure.blocks
    assert block.multiplicity == 1 and block.inner_dimension == 2


def test_algebra_structure_names_dim_f_when_compression_to_r_loses_fixed_points():
    # ker L† = span{1} padded with σ_z/√2 and σ_x/√2, as a stage-1 kernel that
    # is too large would give: R = span{e0} is one-dimensional, so
    # compression to R keeps dim F = 1 of the three, and the commutant count
    # names it.
    model = unfaithful_2d()
    split = recurrent_projector(model)
    extra = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    padded = np.column_stack([split.adjoint_kernel, *(vec(x / np.sqrt(2)) for x in extra)])
    assert np.allclose(padded.conj().T @ padded, np.eye(3), atol=1e-14)
    with pytest.raises(DecompositionError, match=r"^\[algebra\] only 1 of 3 .*\(dim F = 1, ε_F"):
        algebra_structure(model, split.recurrent, padded)


def test_block_form_distance_is_the_distance_to_the_matrix_units():
    # An orthonormal Hermitian basis of M_2 ⊗ 1_2 ⊕ M_1 ⊗ 1_1 on C^5 in block
    # form lies in the algebra; rotated by exp(iθG) with a G that mixes the
    # blocks, its distance is the least-squares distance to the matrix units.
    layout = [(2, 2), (1, 1)]
    units = []
    for a in range(2):
        for b in range(2):
            unit_ab = np.zeros((5, 5), dtype=complex)
            unit_ab[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = np.eye(2)
            units.append(unit_ab)
    units.append(np.diag([0, 0, 0, 0, 1.0]).astype(complex))
    e00, e01, e10, e11, e22 = units
    basis = np.array(
        [e00 / np.sqrt(2), e11 / np.sqrt(2), (e01 + e10) / 2, 1j * (e01 - e10) / 2, e22]
    )
    gram = np.tensordot(basis.conj(), basis, axes=([1, 2], [1, 2]))
    assert np.allclose(gram, np.eye(5), atol=1e-15)
    assert decomposition_module._block_form_distance(basis, layout) <= 1e-14

    theta = 1e-3
    rot = scipy.linalg.expm(1j * theta * random_hermitian(np.random.default_rng(0), 5))
    rotated = rot @ basis @ rot.conj().T
    span = np.array([u.ravel() for u in units]).T
    coeffs = np.linalg.lstsq(span, rotated.reshape(5, -1).T, rcond=None)[0]
    oracle = np.linalg.norm(rotated.reshape(5, -1).T - span @ coeffs)
    value = decomposition_module._block_form_distance(rotated, layout)
    assert abs(value - oracle) <= 1e-12
    assert value >= theta / 10


def test_extremal_state_coordinate_enclosure():
    model = two_enclosures_2d()
    split = recurrent_projector(model)
    rho = extremal_state(np.diag([1.0, 0.0]), split.kernel)
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


def test_extremal_state_faithful_block():
    model = faithful_2d()
    split = recurrent_projector(model)
    rho = extremal_state(np.eye(2), split.kernel)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-10)


def test_extremal_state_rotation_eigenvector():
    ch = rotation_channel()
    report = decompose(ch)
    psi = np.array([1.0, 1j]) / np.sqrt(2)
    target = np.outer(psi, psi.conj())
    best = min(
        np.linalg.norm(rec.extremal_state - target) for rec in report.unique_enclosures
    )
    assert best < 1e-9


def test_extremal_state_rejects_non_minimal():
    model = zero_generator_2d()
    split = recurrent_projector(model)
    with pytest.raises(ValueError, match="kernel dimension"):
        extremal_state(np.eye(2), split.kernel)


def test_family_projector_endpoints_and_midpoint():
    p1, p2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    q = unit(1, 0)
    assert np.allclose(family_projector(q, p1, p2, 0.0), p1, atol=1e-12)
    assert np.allclose(family_projector(q, p1, p2, np.pi / 2), p2, atol=1e-12)
    plus = np.full((2, 2), 0.5)
    assert np.allclose(family_projector(q, p1, p2, np.pi / 4), plus, atol=1e-12)
    with pytest.raises(ValueError, match="partial isometry"):
        family_projector(0.5 * q, p1, p2, 0.3)


def test_decompose_unfaithful_golden():
    report = decompose(unfaithful_2d())
    assert report.transient_dimension == 1
    assert np.allclose(report.transient, np.diag([0.0, 1.0]), atol=1e-10)
    assert len(report.unique_enclosures) == 1 and report.is_unique
    assert np.allclose(report.unique_enclosures[0].projector, np.diag([1.0, 0.0]), atol=1e-10)


def test_decompose_two_enclosures_golden():
    report = decompose(two_enclosures_2d())
    assert report.transient_dimension == 0
    assert len(report.unique_enclosures) == 2 and report.is_unique
    projs = sorted(
        (np.round(rec.projector.real, 9).tolist() for rec in report.unique_enclosures)
    )
    assert projs == [
        [[0.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, 0.0]],
    ]


def test_decompose_zero_generator_golden():
    report = decompose(zero_generator_2d())
    assert not report.is_unique
    assert len(report.families) == 1
    fam = report.families[0]
    assert len(fam.members) == 2
    assert all(rec.dimension == 1 for rec in fam.members)
    q = fam.isometries[(0, 1)]
    assert np.linalg.norm(q.conj().T @ q - fam.members[0].projector) < 1e-10
    assert np.linalg.norm(q @ q.conj().T - fam.members[1].projector) < 1e-10
    # canonical members: the eigenprojections of E_F(D) = D = diag(0, 1),
    # in lex order, linked by the matrix units
    assert np.linalg.norm(fam.members[0].projector - np.diag([0.0, 1.0])) < 1e-12
    assert np.linalg.norm(fam.members[1].projector - np.diag([1.0, 0.0])) < 1e-12
    assert np.linalg.norm(fam.isometries[(1, 0)] - unit(1, 0)) < 1e-12
    assert np.linalg.norm(q - unit(0, 1)) < 1e-12


def test_decompose_family_projector_continuum_is_enclosed():
    model = zero_generator_2d()
    report = decompose(model)
    fam = report.families[0]
    q = fam.isometries[(0, 1)]
    for theta in (0.0, np.pi / 6, np.pi / 4, np.pi / 2, 1.1):
        p_theta = family_projector(
            q, fam.members[0].projector, fam.members[1].projector, theta
        )
        check = is_enclosure(p_theta, model)
        assert check.ok and check.residual < 1e-9


def test_decompose_reports_every_enclosure_enclosed():
    rng = np.random.default_rng(17)
    model = block_diag_model(rng, (2, 3), 2)
    report = decompose(model)
    for label, rec, _ in enumerate_minimal_enclosures(report):
        check = is_enclosure(rec.projector, model)
        assert check.ok, label


def test_decompose_projector_algebra_invariants():
    rng = np.random.default_rng(40)
    for trial in range(4):
        model = block_diag_model(rng, (2, 2), 2) if trial % 2 else random_model(rng, 4, 2)
        report = decompose(model)
        assert np.allclose(report.transient + report.recurrent, np.eye(4), atol=1e-12)
        projs = [rec.projector for _, rec, _ in enumerate_minimal_enclosures(report)]
        total = sum(projs)
        assert np.linalg.norm(total - report.recurrent) < 1e-8
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                assert np.linalg.norm(projs[i] @ projs[j]) < 1e-8


def test_decompose_distinct_supports():
    rng = np.random.default_rng(41)
    model = block_diag_model(rng, (2, 2), 2)
    report = decompose(model)
    encl = enumerate_minimal_enclosures(report)
    assert len(encl) == 2
    from enclosure_atlas.linalg import support_projector

    supports = [support_projector(rec.extremal_state) for _, rec, _ in encl]
    assert np.linalg.norm(supports[0] - supports[1]) >= 0.5


def test_decompose_block_by_block_action():
    rng = np.random.default_rng(42)
    model = block_diag_model(rng, (2, 2), 2)
    report = decompose(model)
    gen = build_generator(model)
    pairs = enumerate_minimal_enclosures(report)
    iso = report.recurrent  # full recurrent here
    for _ in range(3):
        rho = random_density(rng, 4)
        rho = iso @ rho @ iso
        rho = rho / np.trace(rho).real
        t = rng.uniform(0.0, 5.0)
        prop = expm(t * gen.matrix)
        evolved = unvec(prop @ vec(rho))
        for a in range(len(pairs)):
            for b in range(len(pairs)):
                p_v = pairs[a][1].projector
                p_w = pairs[b][1].projector
                lhs = p_v @ evolved @ p_w
                rhs = unvec(prop @ vec(p_v @ rho @ p_w))
                assert np.linalg.norm(lhs - rhs) < 1e-7


def test_decompose_degenerate_pair_model():
    rng = np.random.default_rng(43)
    model, w = conjugated_pair_model(rng, 2, 2)
    report = decompose(model)
    assert not report.is_unique and len(report.families) == 1
    fam = report.families[0]
    assert len(fam.members) == 2
    assert all(rec.dimension == 2 for rec in fam.members)
    q = fam.isometries[(0, 1)]
    rho0, rho1 = fam.members[0].extremal_state, fam.members[1].extremal_state
    assert np.linalg.norm(q @ rho0 @ q.conj().T - rho1) < 1e-8
    for op in model.jumps:
        assert np.linalg.norm(q @ op - op @ q) < 1e-8


def _canonical_members_oracle(model, m):
    """The m members of the one family of a transient-free model whose
    family block is the whole space, without ``algebra_structure``: ker L†
    from a dense complex SVD of the adjoint of ``_kron_generator``, E_F(D)
    as the orthogonal projection of vec(D), D = diag(0, 1, …, n−1), onto it,
    and the eigenprojections of E_F(D), taken d = n/m eigenvalues at a time."""
    n = model.dim
    _, s, vh = np.linalg.svd(_kron_generator(model).conj().T)
    null = vh[s <= 1e-9 * max(s[0], 1.0)].conj().T
    e_d = unvec(null @ (null.conj().T @ vec(np.diag(np.arange(n, dtype=complex)))))
    w, u = np.linalg.eigh((e_d + e_d.conj().T) / 2)
    d = n // m
    groups = w.reshape(m, d)
    # E_F(D) is A ⊗ 1_d on the block, and A is nondegenerate
    assert np.ptp(groups, axis=1).max() < 1e-9 and np.diff(groups[:, 0]).min() > 1e-3
    return [u[:, k * d : (k + 1) * d] @ u[:, k * d : (k + 1) * d].conj().T for k in range(m)]


def test_family_members_match_canonical_oracle():
    # the members are the eigenprojections of E_F(D): they depend on the
    # dynamics and the input basis alone
    rng = np.random.default_rng(83)
    models = [conjugated_pair_model(rng, d, 2)[0] for d in (2, 3, 5)]
    models += [conjugated_pair_channel(rng, d, 2) for d in (2, 4)]
    models.append(_family_model(rng, 3, 2))
    for model in models:
        (fam,) = decompose(model).families
        assert np.linalg.norm(fam.block_projector - np.eye(model.dim)) < 1e-9
        oracle = _canonical_members_oracle(model, len(fam.members))
        for rec in fam.members:
            assert min(np.linalg.norm(rec.projector - p) for p in oracle) < 1e-8


def _report_operators(report):
    """Every projector, extremal state and isometry of a report, in report order."""
    out = [report.recurrent]
    for rec in report.unique_enclosures:
        out += [rec.projector, rec.extremal_state]
    for fam in report.families:
        out.append(fam.block_projector)
        for rec in fam.members:
            out += [rec.projector, rec.extremal_state]
        out += [fam.isometries[key] for key in sorted(fam.isometries)]
    return out


def test_reports_do_not_depend_on_jump_order_or_splitting():
    # Permuting the jumps (Kraus operators), or splitting one A into
    # (A/√2, A/√2), leaves the dynamics unchanged, and so every projector and
    # isometry of the report, family members included.
    rng = np.random.default_rng(29)
    models = [conjugated_pair_model(rng, d, 3)[0] for d in (2, 3)]
    models += [conjugated_pair_channel(rng, d, 3) for d in (2, 3)]
    models.append(block_diag_model(rng, (2, 3), 3))
    models += [random_model(rng, n, 3) for n in (3, 5)]
    models += [leaky_model(rng, n, 3) for n in (4, 5)]
    models += [random_channel(rng, n, 3) for n in (3, 4)]
    models += [minimal_oqrw(random_rate_matrix(rng, n)) for n in (6, 8)]
    for model in models:
        lindblad = isinstance(model, LindbladModel)
        ops = list(model.jumps if lindblad else model.kraus)
        base = _report_operators(decompose(model))
        r = np.sqrt(0.5)
        for variant in (ops[::-1], ops[1:] + ops[:1], [r * ops[0], r * ops[0], *ops[1:]]):
            if lindblad:
                variant = LindbladModel.create(model.hamiltonian, variant)
            else:
                variant = KrausChannel.create(variant)
            other = _report_operators(decompose(variant))
            assert len(other) == len(base)
            for a, b in zip(base, other):
                assert np.linalg.norm(a - b) <= 1e-9


# Changes of a model that leave its dynamics unchanged up to the time unit:
# H -> cH with L_j -> √c L_j (Lindblad models only), the operators reversed,
# one operator A split into (A/√2, A/√2), or the operators mixed by a unitary.
_LOG_SCALES = st.floats(-14.0, 8.0).map(lambda e: ("scale", 10.0**e))
_RELABELINGS = st.tuples(st.sampled_from(["reverse", "split", "mix"]), st.integers(0, 2**16))


def _relabeled(model, change):
    kind, arg = change
    lindblad = isinstance(model, LindbladModel)
    h, ops = (model.hamiltonian, list(model.jumps)) if lindblad else (None, list(model.kraus))
    if kind == "scale":
        h, ops = arg * h, [np.sqrt(arg) * a for a in ops]
    elif kind == "reverse":
        ops = ops[::-1]
    elif kind == "split":
        i = arg % len(ops)
        ops = [*ops[:i], ops[i] / np.sqrt(2), ops[i] / np.sqrt(2), *ops[i + 1 :]]
    else:
        ops = list(np.tensordot(random_unitary(np.random.default_rng(arg), len(ops)), ops, 1))
    return LindbladModel.create(h, ops) if lindblad else KrausChannel.create(ops)


def _weighted_commutator(model, f):
    ops = _weighted_operators(model)
    return np.linalg.norm(ops @ f - f @ ops)


_SCALE_FREE_RNG = np.random.default_rng(83)
_SCALE_FREE_MODELS = [
    leaky_model(_SCALE_FREE_RNG, 5, 3),
    random_channel(_SCALE_FREE_RNG, 4, 3),
]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(st.just(0), st.one_of(_LOG_SCALES, _RELABELINGS)),
        st.tuples(st.just(1), _RELABELINGS),
    )
)
def test_enclosure_leak_and_commutator_norms_do_not_depend_on_time_unit_or_labels(case):
    # A fixed projector that is not an enclosure and a fixed Hermitian f.
    model, change = _SCALE_FREE_MODELS[case[0]], case[1]
    rng = np.random.default_rng(5)
    g = rng.standard_normal((model.dim, 2)) + 1j * rng.standard_normal((model.dim, 2))
    iso = np.linalg.qr(g)[0]
    p, f = iso @ iso.conj().T, random_hermitian(rng, model.dim)
    other = _relabeled(model, change)
    base, moved = is_enclosure(p, model), is_enclosure(p, other)
    assert not base.ok
    assert abs(moved.residual - base.residual) <= 1e-9 * base.residual
    a, b = _weighted_commutator(model, f), _weighted_commutator(other, f)
    assert a > 0.1 and abs(b - a) <= 1e-9 * a


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.one_of(_LOG_SCALES, _RELABELINGS))
def test_weakly_coupled_blocks_fail_the_commutant_check_under_every_relabeling(change):
    # The ε_F that the error reports comes from stage 1's near-threshold
    # kernel basis and moves with the change; only the stage is pinned.
    base = block_diag_model(np.random.default_rng(1), (3, 3), 2)
    h = base.hamiltonian.copy()
    h[0, 3] = h[3, 0] = 1e-4
    with pytest.raises(DecompositionError, match=r"^\[algebra\] .*ε_F"):
        decompose(_relabeled(LindbladModel.create(h, base.jumps), change))


def test_decompose_three_member_family():
    # null generator on C^3: every one-dimensional subspace is an enclosure,
    # realized as a single family of three equivalent members
    model = LindbladModel.create(np.zeros((3, 3)), [])
    report = decompose(model)
    assert not report.is_unique
    (fam,) = report.families
    assert len(fam.members) == 3
    assert all(rec.dimension == 1 for rec in fam.members)
    assert len(fam.isometries) == 6  # all ordered pairs
    for (a, b), q in fam.isometries.items():
        assert np.linalg.norm(q.conj().T @ q - fam.members[a].projector) < 1e-10
        assert np.linalg.norm(q @ q.conj().T - fam.members[b].projector) < 1e-10
        rho_a, rho_b = fam.members[a].extremal_state, fam.members[b].extremal_state
        assert np.linalg.norm(q @ rho_a @ q.conj().T - rho_b) < 1e-10


def test_decompose_family_with_transient_part():
    # degenerate pair plus a draining level: the family must still be found
    # from the fixed points compressed to R, not from the plain adjoint kernel
    rng = np.random.default_rng(99)
    core, _ = conjugated_pair_model(rng, 2, 2)
    n = 5
    h = np.zeros((n, n), dtype=complex)
    h[:4, :4] = core.hamiltonian
    jumps = []
    for op in core.jumps:
        big = np.zeros((n, n), dtype=complex)
        big[:4, :4] = op
        jumps.append(big)
    drain = np.zeros((n, n), dtype=complex)
    drain[0, 4] = 1.3
    jumps.append(drain)
    model = LindbladModel.create(h, jumps)

    report = decompose(model)
    assert report.transient_dimension == 1
    assert len(report.families) == 1 and not report.unique_enclosures
    assert all(rec.dimension == 2 for rec in report.families[0].members)
    assert verify_decomposition(report, model).ok


def test_decompose_transient_feeding_two_blocks():
    def e(i, j):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j] = 1.0
        return m

    model = LindbladModel.create(np.zeros((3, 3)), [e(0, 0), e(0, 2), e(1, 2)])
    report = decompose(model)
    assert report.transient_dimension == 1
    assert [rec.dimension for rec in report.unique_enclosures] == [1, 1]
    assert report.is_unique
    assert verify_decomposition(report, model).ok


def test_decompose_one_dimensional_space():
    model = LindbladModel.create(np.array([[0.5]]), [np.array([[1.0]])])
    report = decompose(model)
    assert report.is_unique and report.transient_dimension == 0
    assert len(report.unique_enclosures) == 1
    assert np.allclose(report.unique_enclosures[0].extremal_state, [[1.0]])


def test_reported_isometries_have_canonical_phase():
    rng = np.random.default_rng(45)
    model, _ = conjugated_pair_model(rng, 3, 2)
    report = decompose(model)
    for fam in report.families:
        for q in fam.isometries.values():
            pivot = q.ravel()[np.argmax(np.abs(q.ravel()))]
            assert abs(pivot.imag) < 1e-10
            assert pivot.real > 0


def test_decompose_is_deterministic():
    rng = np.random.default_rng(44)
    model = block_diag_model(rng, (2, 2), 2)
    a = serialize_report(decomposition_report_to_dict(decompose(model)))
    b = serialize_report(decomposition_report_to_dict(decompose(model)))
    assert a == b


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        decompose(LindbladModel(dim=2, hamiltonian=unit(0, 1), jumps=()))
    with pytest.raises(TypeError):
        decompose("not a model")


def test_decompose_error_carries_stage():
    err = DecompositionError("algebra", "boom")
    assert err.stage == "algebra" and "[algebra]" in str(err)


def test_decompose_ambiguous_clustering_is_an_error(monkeypatch):
    # a cluster width wider than every eigenvalue gap leaves the two central
    # blocks indistinguishable; after the retry budget this must fail loudly
    monkeypatch.setattr(decomposition_module, "_CLUSTER_WIDTH", 1e6)
    with pytest.raises(DecompositionError, match="ambiguous") as excinfo:
        decompose(two_enclosures_2d())
    assert excinfo.value.stage == "algebra"


def test_decompose_ambiguous_clustering_reports_the_dimension_count(monkeypatch):
    # one cluster spans both blocks: one group of one member against dim F = 2
    monkeypatch.setattr(decomposition_module, "_CLUSTER_WIDTH", 1e6)
    with pytest.raises(DecompositionError, match="Σ m_b² = 1 against dim F = 2"):
        decompose(two_enclosures_2d())


def test_cutoff_generator_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        cutoff_generator(faithful_2d(), np.eye(3))


def test_verify_decomposition_two_enclosures():
    model = two_enclosures_2d()
    report = decompose(model)
    record = verify_decomposition(report, model)
    assert record.ok and record.max_residual < 1e-10


def test_verify_decomposition_family_offdiagonal():
    # every state of the null generator is invariant; the plus state has
    # nonzero off-diagonal blocks yet satisfies the family proportionality
    model = zero_generator_2d()
    report = decompose(model)
    record = verify_decomposition(report, model)
    assert record.ok
    fam = report.families[0]
    q = fam.isometries[(0, 1)]
    plus = np.full((2, 2), 0.5)
    block = fam.members[0].projector @ plus @ fam.members[1].projector @ q
    rho0 = fam.members[0].extremal_state
    coeff = np.vdot(rho0, block) / np.vdot(rho0, rho0)
    assert np.linalg.norm(block - coeff * rho0) < 1e-10
    assert abs(coeff) > 0.1  # genuinely nonzero off-diagonal content


def test_verify_decomposition_single_enclosure_vacuous():
    model = faithful_2d()
    report = decompose(model)
    record = verify_decomposition(report, model)
    assert record.ok
    assert not any("cross" in c.name for c in record.clauses)


def _kron_generator(model):
    """Dense L (Phi - Id for channels) from Kronecker products."""
    n = model.dim
    eye = np.eye(n)
    if isinstance(model, LindbladModel):
        drift = -1j * model.hamiltonian - 0.5 * sum(j.conj().T @ j for j in model.jumps)
        mat = np.kron(eye, drift) + np.kron(drift.conj(), eye)
        return mat + sum(np.kron(j.conj(), j) for j in model.jumps)
    return sum(np.kron(v.conj(), v) for v in model.kraus) - np.eye(n * n)


def test_extremal_invariance_matches_dense_generator():
    # verify applies L to each extremal state from the model; the relative
    # residual ‖L(ρ)‖_F / s agrees with the dense L applied to vec(rho).
    for model in (*_agreement_models(), *_sector_models()):
        report = decompose(model)
        mat = _kron_generator(model)
        scale = 1e-12 * max(1.0, np.linalg.norm(mat))
        s = _scale(model) or 1.0  # s = 0 only for the zero generator, mat = 0
        clauses = {c.name: c.residual for c in verify_decomposition(report, model).clauses}
        for label, rec, _ in enumerate_minimal_enclosures(report):
            expected = np.linalg.norm(mat @ vec(rec.extremal_state))
            assert abs(clauses[f"extremal_invariance:{label}"] - expected / s) <= scale / s


def test_verify_decomposition_kind_mismatch():
    report = decompose(faithful_2d())
    with pytest.raises(ValueError, match="kind"):
        verify_decomposition(report, rotation_channel())


def test_verification_clauses_and_report_residuals_of_one_enclosure():
    # decompose keeps only the algebra's own margins; every re-check of the
    # report is a verification clause, one per condition, none per state.
    model = faithful_2d()
    report = decompose(model)
    assert set(report.residuals) == {"algebra_commutant", "algebra_closure"}
    assert [c.name for c in verify_decomposition(report, model).clauses] == [
        "recurrent_invariance",
        "recurrent_enclosure",
        "projector_sum",
        "orthogonality",
        "recurrent_support",
        "extremal_invariance:alpha0",
        "extremal_support:alpha0",
        "enclosure:alpha0",
        "diag:alpha0",
    ]


def _failed_clauses(report, model):
    return {c.name for c in verify_decomposition(report, model).clauses if not c.ok}


def test_verification_fails_an_enclosure_that_swallows_the_transient_level():
    model = unfaithful_2d()
    report = decompose(model)
    (rec,) = report.unique_enclosures
    swallowed = dataclasses.replace(rec, projector=np.eye(2))
    tampered = dataclasses.replace(report, unique_enclosures=(swallowed,))
    assert _failed_clauses(tampered, model) == {"projector_sum"}


@pytest.mark.parametrize(
    "make",
    [zero_generator_2d, lambda: conjugated_pair_model(np.random.default_rng(11), 2, 2)[0]],
    ids=["zero-generator-2d", "pair"],
)
def test_verification_fails_scaled_family_isometries(make):
    # 2Q is no partial isometry and carries ρ_a to 4ρ_b; the off-diagonal
    # blocks stay proportional, so only these two clauses can see it.
    model = make()
    report = decompose(model)
    families = tuple(
        dataclasses.replace(fam, isometries={k: 2 * q for k, q in fam.isometries.items()})
        for fam in report.families
    )
    expected = {
        f"family{b}:{kind}:{i}->{j}"
        for b, fam in enumerate(report.families)
        for i, j in fam.isometries
        for kind in ("isometry", "transport")
    }
    assert _failed_clauses(dataclasses.replace(report, families=families), model) == expected


def test_verification_max_residual_keeps_a_nan_clause():
    # max() drops a NaN unless it comes first; the record's maximum must not.
    model = two_enclosures_2d()
    report = decompose(model)
    a, b = report.unique_enclosures
    state = b.extremal_state.copy()
    state[0, 0] = np.nan
    tampered = dataclasses.replace(
        report, unique_enclosures=(a, dataclasses.replace(b, extremal_state=state))
    )
    with np.errstate(invalid="ignore"):
        record = verify_decomposition(tampered, model)
    nan = {c.name for c in record.clauses if np.isnan(c.residual)}
    assert nan == {"extremal_invariance:alpha1", "extremal_support:alpha1", "diag:alpha1"}
    assert not record.ok and np.isnan(record.max_residual)
    assert not any(c.ok for c in record.clauses if c.name in nan)


def test_verification_fails_swapped_extremal_states():
    model = two_enclosures_2d()
    report = decompose(model)
    a, b = report.unique_enclosures
    swapped = (
        dataclasses.replace(a, extremal_state=b.extremal_state),
        dataclasses.replace(b, extremal_state=a.extremal_state),
    )
    tampered = dataclasses.replace(report, unique_enclosures=swapped)
    assert _failed_clauses(tampered, model) == {
        "extremal_support:alpha0",
        "extremal_support:alpha1",
        "diag:alpha0",
        "diag:alpha1",
    }


_VERIFY_RNG = np.random.default_rng(29)
_TIME_UNIT_MODELS = [
    leaky_model(_VERIFY_RNG, 5, 2),
    block_diag_model(_VERIFY_RNG, (2, 3, 3), 2),
    conjugated_pair_model(_VERIFY_RNG, 3, 2)[0],
]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, len(_TIME_UNIT_MODELS) - 1), _LOG_SCALES)
def test_verification_reads_the_same_at_every_time_unit(index, change):
    # L -> cL, c in [1e-14, 1e8]: the same projectors and clauses, every one
    # passing.
    model = _TIME_UNIT_MODELS[index]
    scaled = _relabeled(model, change)
    unit, report = decompose(model), decompose(scaled)
    base, record = verify_decomposition(unit, model), verify_decomposition(report, scaled)
    assert [c.name for c in record.clauses] == [c.name for c in base.clauses]
    assert record.ok and record.max_residual <= 1e-12
    _assert_same_projectors(unit, report)


_KERNEL_BASIS_MODELS = [
    zero_generator_2d(),
    two_enclosures_2d(),
    LindbladModel.create(np.zeros((4, 4)), []),
    _TIME_UNIT_MODELS[1],
    _TIME_UNIT_MODELS[2],
    conjugated_pair_channel(_VERIFY_RNG, 3, 2),
]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, len(_KERNEL_BASIS_MODELS) - 1), st.integers(0, 2**16))
def test_verification_does_not_depend_on_the_kernel_basis(index, seed):
    # The stacked clauses are norms of linear maps over an orthonormal basis
    # of ker L: K -> K O for a real orthogonal O leaves them unchanged.
    model = _KERNEL_BASIS_MODELS[index]
    report = decompose(model)
    kern = report.invariant_kernel
    o = np.linalg.qr(np.random.default_rng(seed).standard_normal((kern.shape[1],) * 2))[0]
    rotated = dataclasses.replace(report, invariant_kernel=kern @ o)
    base = verify_decomposition(report, model).clauses
    moved = verify_decomposition(rotated, model).clauses
    assert [c.name for c in moved] == [c.name for c in base]
    assert max(abs(c.residual - d.residual) for c, d in zip(base, moved)) <= 1e-13


def test_decompose_rotation_channel():
    report = decompose(rotation_channel())
    assert report.kind == "kraus" and report.is_unique
    assert report.recurrent_dimension == 2
    assert len(report.unique_enclosures) == 2
    psi_a = np.array([1.0, 1j]) / np.sqrt(2)
    psi_b = np.array([1.0, -1j]) / np.sqrt(2)
    targets = [np.outer(v, v.conj()) for v in (psi_a, psi_b)]
    for target in targets:
        best = min(
            np.linalg.norm(rec.projector - target) for rec in report.unique_enclosures
        )
        assert best < 1e-9


def test_extremal_state_reads_ker_l_through_the_isometry(monkeypatch):
    # The rank-one test sees ker L compressed to V, d² rows, and no n² × dim
    # ker L leak stack; the state equals the report's.
    rows = []

    def spy(m, tol=DEFAULT_TOL):
        rows.append(np.shape(m)[0])
        return kernel_basis(m, tol)

    rng = np.random.default_rng(3)
    models = (
        block_diag_model(rng, (2, 3, 3), 2),
        conjugated_pair_model(rng, 3, 2)[0],
        LindbladModel.create(np.zeros((4, 4)), []),
    )
    reports = [decompose(model) for model in models]
    monkeypatch.setattr(decomposition_module, "kernel_basis", spy)
    for report in reports:
        for _, rec, _ in enumerate_minimal_enclosures(report):
            rows.clear()
            rho = extremal_state(rec.projector, report.invariant_kernel)
            assert rows and max(rows) <= rec.dimension**2
            assert np.linalg.norm(rho - rec.extremal_state) <= 1e-12


def test_verification_reads_a_halved_projector_without_raising():
    # P/2 is no projector; its leading eigenvectors still span P's range.
    model = two_enclosures_2d()
    report = decompose(model)
    a, b = report.unique_enclosures
    halved = (dataclasses.replace(a, projector=a.projector / 2), b)
    tampered = dataclasses.replace(report, unique_enclosures=halved)
    assert _failed_clauses(tampered, model) == {"projector_sum", "extremal_support:alpha0"}


@pytest.mark.parametrize("eps", [1e-8, 1e-7, 5e-7])
def test_only_the_hermitian_part_of_the_hamiltonian_drives_the_dynamics(eps):
    # create accepts an anti-Hermitian part up to 100·residual_tol·‖H‖_F;
    # the dynamics, and so the report, are those of the Hermitian part.
    model, hermitian = tilted_hamiltonian_model(eps)
    report = decompose(model)
    assert verify_decomposition(report, model).ok
    assert report.transient_dimension == 0 and report.is_unique
    assert [rec.dimension for rec in report.unique_enclosures] == [4]
    assert np.array_equal(report.max_support_state, decompose(hermitian).max_support_state)


def _sorted_shape(report):
    return (
        report.recurrent_dimension,
        sorted(rec.dimension for rec in report.unique_enclosures),
        sorted((len(fam.members), fam.members[0].dimension) for fam in report.families),
    )


def _assert_same_projectors(report, other, conj=lambda p: p):
    # recurrent, unique-enclosure and family-block projectors, matched up to
    # the report's lexicographic order
    assert _sorted_shape(other) == _sorted_shape(report)
    assert np.linalg.norm(other.recurrent - conj(report.recurrent)) <= 1e-9
    for get in (
        lambda r: [rec.projector for rec in r.unique_enclosures],
        lambda r: [fam.block_projector for fam in r.families],
    ):
        moved = get(other)
        for p in get(report):
            assert min(np.linalg.norm(q - conj(p)) for q in moved) <= 1e-9


_COVARIANCE_RNG = np.random.default_rng(47)
_GAUGE_MODELS = [
    leaky_model(_COVARIANCE_RNG, 5, 2),
    block_diag_model(_COVARIANCE_RNG, (2, 3), 2),
    conjugated_pair_model(_COVARIANCE_RNG, 2, 2)[0],
    random_model(_COVARIANCE_RNG, 4, 2),
]
_COVARIANCE_MODELS = [
    *_GAUGE_MODELS,
    random_channel(_COVARIANCE_RNG, 3, 2),
    conjugated_pair_channel(_COVARIANCE_RNG, 2, 2),
]


@settings(max_examples=96, deadline=None, derandomize=True)
@given(st.integers(0, len(_GAUGE_MODELS) - 1), st.integers(0, 2**16), st.floats(0.0, 3.0))
def test_reports_do_not_depend_on_the_lindblad_gauge(index, seed, size):
    # L_j -> L_j + a_j·1 with H -> H − (i/2) Σ_j (ā_j L_j − a_j L_j†) leaves
    # the generator unchanged (Breuer & Petruccione, §3.2).
    model = _GAUGE_MODELS[index]
    rng, k = np.random.default_rng(seed), len(model.jumps)
    shifts = size * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    eye = np.eye(model.dim)
    h = model.hamiltonian - 0.5j * sum(
        np.conj(a) * op - a * op.conj().T for a, op in zip(shifts, model.jumps)
    )
    shifted = LindbladModel.create(h, [op + a * eye for a, op in zip(shifts, model.jumps)])
    report = decompose(shifted)
    assert verify_decomposition(report, shifted).ok
    _assert_same_projectors(decompose(model), report)


@settings(max_examples=48, deadline=None, derandomize=True)
@given(st.integers(0, len(_COVARIANCE_MODELS) - 1), st.integers(0, 2**16))
def test_reports_are_covariant_under_a_change_of_basis(index, seed):
    # L -> U L U†: every projector moves to U P U†. Family members are tied to
    # the input basis through E_F(D), so they are not compared.
    model = _COVARIANCE_MODELS[index]
    u = random_unitary(np.random.default_rng(seed), model.dim)
    conj = lambda a: u @ a @ u.conj().T  # noqa: E731
    if isinstance(model, LindbladModel):
        rotated = _rotated(model, u)
    else:
        rotated = KrausChannel.create([conj(v) for v in model.kraus])
    report = decompose(rotated)
    assert verify_decomposition(report, rotated).ok
    _assert_same_projectors(decompose(model), report, conj)


def test_every_channel_that_create_accepts_decomposes_and_verifies():
    # Scaling V_0 or every V_i by 1 + k·1e-9 gives a trace defect that create
    # accepts while it is at most rank_tol · s; an accepted channel has the
    # shape of the unscaled one and verifies.
    accepted = 0
    for seed in range(24):
        rng = np.random.default_rng(seed)
        channel = random_channel(rng, 2 + seed % 5, 1 + seed % 3)
        reference = decompose(channel)
        shape = (reference.transient_dimension, len(reference.unique_enclosures))
        for k in range(1, 21):
            factor = 1 + k * 1e-9
            for every in (False, True):
                ops = [factor * v if every or i == 0 else v for i, v in enumerate(channel.kraus)]
                try:
                    scaled = KrausChannel.create(ops)
                except ValueError as exc:
                    assert "rank_tol · s" in str(exc)
                    continue
                accepted += 1
                report = decompose(scaled)
                assert (report.transient_dimension, len(report.unique_enclosures)) == shape
                assert verify_decomposition(report, scaled).ok
    assert accepted >= 50


@pytest.mark.parametrize(
    "make",
    [
        faithful_2d,
        lambda: leaky_model(np.random.default_rng(1), 5, 2),
        lambda: block_diag_model(np.random.default_rng(3), (3, 4), 2),
        lambda: conjugated_pair_model(np.random.default_rng(5), 3, 2)[0],
    ],
    ids=["faithful-2d", "leaky-5", "blocks-3-4", "pair-3"],
)
def test_flow_as_a_kraus_channel_has_the_generators_decomposition(make):
    # exp(L) has the invariant states of L, so the channel taken from its
    # Choi matrix has L's transient part, family shapes and enclosures.
    model = make()
    channel = flow_channel(model)
    expected, report = decompose(model), decompose(channel)
    assert verify_decomposition(report, channel).ok
    assert report.transient_dimension == expected.transient_dimension
    assert [[m.dimension for m in fam.members] for fam in report.families] == [
        [m.dimension for m in fam.members] for fam in expected.families
    ]
    assert np.linalg.norm(report.recurrent - expected.recurrent) <= 1e-10
    pairs = zip(enumerate_minimal_enclosures(report), enumerate_minimal_enclosures(expected))
    for (label, rec, _), (expected_label, expected_rec, _) in pairs:
        assert label == expected_label
        assert np.linalg.norm(rec.projector - expected_rec.projector) <= 1e-10
    assert len(enumerate_minimal_enclosures(report)) == len(enumerate_minimal_enclosures(expected))
