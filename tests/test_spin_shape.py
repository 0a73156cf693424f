"""The spin-shape oracle (``helpers.spin_shape``) against ``decompose``.

The oracle reads the transient dimension, the minimal enclosures and the
families off the common invariant subspaces of the operators, without
forming L. Wherever ``decompose`` verifies, the two shapes must agree.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from enclosure_atlas.decomposition import DecompositionError, decompose, verify_decomposition
from enclosure_atlas.fixtures import (
    faithful_2d,
    rotation_channel,
    two_enclosures_2d,
    unfaithful_2d,
    zero_generator_2d,
)
from enclosure_atlas.io import load_model_file
from enclosure_atlas.oqrw import RateMatrix, minimal_oqrw
from enclosure_atlas.semigroup import KrausChannel, LindbladModel

from helpers import (
    _minimal_subspace,
    block_diag_model,
    conjugated_pair_channel,
    conjugated_pair_model,
    gather_models,
    leaky_model,
    random_channel,
    random_rate_matrix,
    random_unitary,
    spin_shape,
    weak_drain,
)


def _report_shape(report):
    return (
        report.transient_dimension,
        sorted((rec.dimension for rec in report.unique_enclosures), reverse=True),
        sorted(((len(f.members), f.members[0].dimension) for f in report.families), reverse=True),
    )


def _verified_shape(obj):
    """``decompose``'s shape, or None when it fails or does not verify."""
    try:
        report = decompose(obj)
    except DecompositionError:
        return None
    return _report_shape(report) if verify_decomposition(report, obj).ok else None


def _rotated(obj, u):
    """The model or channel conjugated by the unitary u: no exact zeros left."""
    turn = lambda a: u @ a @ u.conj().T  # noqa: E731
    if isinstance(obj, KrausChannel):
        return KrausChannel.create([turn(v) for v in obj.kraus])
    return LindbladModel.create(turn(obj.hamiltonian), [turn(j) for j in obj.jumps])


def _structured_n24_models(tmp_path, monkeypatch, seed=104729):
    """One model of each ``structured-n24`` benchmark kind, as its op files hold them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    bench = importlib.import_module("workloads").WORKLOADS["structured-n24"]
    for index in range(len(bench.kinds)):
        obj = load_model_file(bench.op(seed, index, tmp_path).argv[1]).obj
        yield minimal_oqrw(obj) if isinstance(obj, RateMatrix) else obj


def _grid(tmp_path, monkeypatch):
    rng = np.random.default_rng(211)
    yield from (faithful_2d(), unfaithful_2d(), two_enclosures_2d(), zero_generator_2d())
    yield rotation_channel()
    yield from gather_models()
    built = []
    for n in (3, 4, 5, 6, 7):
        built.append(leaky_model(rng, n, 2))
        built.append(random_channel(rng, n, 2))
        built.append(minimal_oqrw(random_rate_matrix(rng, n + 3, density=0.3)))
    for dims in ((2, 3), (1, 2, 2), (3, 3, 2), (1, 4)):
        built.append(block_diag_model(rng, dims, 2))
    for d in (2, 3, 4):
        built.append(conjugated_pair_model(rng, d, 2)[0])
        built.append(conjugated_pair_channel(rng, d, 2))
    for k, obj in enumerate(built):
        yield _rotated(obj, random_unitary(rng, obj.dim)) if k % 2 else obj
    yield from _structured_n24_models(tmp_path, monkeypatch)


def test_spin_shape_matches_every_verified_decomposition(tmp_path, monkeypatch):
    checked = 0
    for obj in _grid(tmp_path, monkeypatch):
        shape = _verified_shape(obj)
        if shape is not None:
            assert spin_shape(obj) == shape, shape
            checked += 1
    assert checked >= 55


def test_minimal_subspace_cuts_the_whole_space_to_one_enclosure():
    # Started from all of C^n, Norton's test must recurse down to a minimal
    # enclosure: the recurrent levels of a leaky model, one block, one member
    # of a pair (each rotated, so that no exact zero helps), or one closed
    # class of a minimal walk, whose many rank-one jumps leave the most
    # isolated eigenvalue on the transient sites, where only the dual spin
    # is proper.
    rng = np.random.default_rng(5)
    models = [
        _rotated(leaky_model(rng, 5, 2), random_unitary(rng, 5)),
        _rotated(block_diag_model(rng, (2, 3), 2), random_unitary(rng, 5)),
        _rotated(conjugated_pair_model(rng, 3, 2)[0], random_unitary(rng, 6)),
        minimal_oqrw(random_rate_matrix(np.random.default_rng(0), 8, density=0.15)),
    ]
    for model in models:
        report = decompose(model)
        dims = {rec.dimension for rec in report.unique_enclosures}
        dims |= {f.members[0].dimension for f in report.families}
        ops = [model._drift, *model.jumps]
        for seed in range(4):
            u = _minimal_subspace(np.eye(model.dim), ops, np.random.default_rng(seed), 1e-9)
            assert u.shape[1] in dims
            for a in ops:
                assert np.linalg.norm(a @ u - u @ (u.conj().T @ a @ u)) < 1e-10


@pytest.mark.parametrize(
    "model, decomposed, oracle",
    [
        # Drain rate 1e-12: stage 1's second singular value, a², falls under
        # its cut and the algebra stage fails, where the drain itself is a
        # first-order operator the spins see.
        pytest.param(weak_drain(1e-6), "[algebra]", (1, [4], []), id="weak-drain-1e-6"),
        # Decay |0><1| against a pump √u |1><0| at u = 1e-12: the pumped
        # level's weight falls under the noise cut of the maximal-support state.
        pytest.param(
            LindbladModel.create(
                np.zeros((2, 2)),
                [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1e-6, 0.0]])],
            ),
            "[enclosures]",
            (0, [2], []),
            id="weak-pump-1e-12",
        ),
    ],
)
def test_spin_shape_records_the_first_order_shape_where_decompose_fails(
    model, decomposed, oracle
):
    with pytest.raises(DecompositionError, match=decomposed.replace("[", r"\[")):
        decompose(model)
    assert spin_shape(model) == oracle
