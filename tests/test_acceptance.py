"""Acceptance suite: golden examples, cross-validation against classical
chains, degenerate-family recovery, pointer-model checks, structural
properties, and the uniqueness consistency sweep.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them)
and enforces its runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from enclosure_atlas.decomposition import (
    decompose,
    enumerate_minimal_enclosures,
    family_projector,
    is_enclosure,
)
from enclosure_atlas.fixtures import (
    faithful_2d,
    rotation_channel,
    two_enclosures_2d,
    unfaithful_2d,
    zero_generator_2d,
)
from enclosure_atlas.identifiability import (
    QndModel,
    nondegeneracy_check,
    omega,
    qnd_to_model,
    uniqueness_cross_check,
)
from enclosure_atlas.io import decomposition_report_to_dict, serialize_report
from enclosure_atlas.linalg import DEFAULT_TOL
from enclosure_atlas.oqrw import minimal_oqrw, verify_oqrw_theorem
from enclosure_atlas.semigroup import (
    build_generator,
    unvec,
    vec,
)

from helpers import (
    PAULI_Y,
    block_diag_model,
    conjugated_pair_model,
    expm,
    fixed_points,
    leaky_model,
    random_density,
    random_model,
    random_rate_matrix,
)


@contextmanager
def criterion(cid, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {cid}: FAIL [{elapsed:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    ok = budget_seconds is None or elapsed <= budget_seconds
    budget = "no budget" if budget_seconds is None else f"budget {budget_seconds:.0f}s"
    print(f"criterion {cid}: {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s, {budget}]")
    assert ok, f"criterion {cid} exceeded its runtime budget: {elapsed:.2f}s"


def _span_residual(target, basis):
    flat = np.array([b.ravel() for b in basis])
    t = target.ravel()
    return float(np.linalg.norm(t - flat.T @ (flat.conj() @ t)))


def test_criterion_1a_faithful():
    with criterion("1a", 1.0):
        report = decompose(faithful_2d())
        assert np.linalg.norm(report.recurrent - np.eye(2)) <= 1e-9
        assert report.is_unique and len(report.unique_enclosures) == 1
        rec = report.unique_enclosures[0]
        assert rec.dimension == 2
        assert np.linalg.norm(rec.extremal_state - np.eye(2) / 2) <= 1e-9


def test_criterion_1b_unfaithful():
    with criterion("1b", 1.0):
        report = decompose(unfaithful_2d())
        assert np.linalg.norm(report.transient - np.diag([0.0, 1.0])) <= 1e-9
        assert report.is_unique and len(report.unique_enclosures) == 1
        rec = report.unique_enclosures[0]
        assert np.linalg.norm(rec.projector - np.diag([1.0, 0.0])) <= 1e-9


def test_criterion_1c_two_enclosures():
    with criterion("1c", 1.0):
        report = decompose(two_enclosures_2d())
        assert report.is_unique and len(report.unique_enclosures) == 2
        targets = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        for target in targets:
            best = min(
                np.linalg.norm(rec.projector - target)
                for rec in report.unique_enclosures
            )
            assert best <= 1e-9


def test_criterion_1d_zero_generator_family():
    with criterion("1d", 1.0):
        model = zero_generator_2d()
        report = decompose(model)
        assert not report.is_unique
        assert len(report.families) == 1 and not report.unique_enclosures
        fam = report.families[0]
        assert len(fam.members) == 2
        assert all(rec.dimension == 1 for rec in fam.members)
        q = fam.isometries[(0, 1)]
        for theta in (0.0, np.pi / 6, np.pi / 4, np.pi / 2):
            p_theta = family_projector(
                q, fam.members[0].projector, fam.members[1].projector, theta
            )
            check = is_enclosure(p_theta, model)
            assert check.ok and check.residual <= 1e-9


def test_criterion_2_rotation_channel():
    with criterion("2", 5.0):
        channel = rotation_channel()
        report = decompose(channel)
        assert report.is_unique and len(report.unique_enclosures) == 2
        psi_a = np.array([1.0, 1j]) / np.sqrt(2)
        psi_b = np.array([1.0, -1j]) / np.sqrt(2)
        for psi in (psi_a, psi_b):
            target = np.outer(psi, psi.conj())
            best = min(
                np.linalg.norm(rec.projector - target)
                for rec in report.unique_enclosures
            )
            assert best <= 1e-9
        # invariant states are exactly the family [[1/2, ix], [-ix, 1/2]]
        basis = fixed_points(channel)
        assert len(basis) == 2
        assert _span_residual(np.eye(2) / np.sqrt(2), basis) <= 1e-9
        assert _span_residual(PAULI_Y / np.sqrt(2), basis) <= 1e-9
        for b in basis:
            assert _span_residual(b, [np.eye(2) / np.sqrt(2), PAULI_Y / np.sqrt(2)]) <= 1e-9
        from enclosure_atlas.identifiability import discrete_identifiability

        ident = discrete_identifiability(channel, report, max_len=6)
        assert not ident.overall
        for pair in ident.pairs:
            assert pair.magnitude <= 1e-12


def test_criterion_3_oqrw_oracle_equivalence():
    with criterion("3", 60.0):
        rng = np.random.default_rng(1234)
        densities = (0.2, 0.45, 0.7, 0.95)
        for case in range(50):
            n = 2 + case % 5
            rate = random_rate_matrix(rng, n, density=densities[case % 4])
            record = verify_oqrw_theorem(rate)
            assert record.passed, (case, [c.name for c in record.clauses if not c.ok])
            for clause in record.clauses:
                assert clause.residual <= 1e-8, (case, clause.name, clause.residual)
            # enclosure/class counts agree exactly
            report = decompose(minimal_oqrw(rate))
            assert len(enumerate_minimal_enclosures(report)) == len(record.classes)


def test_criterion_4_forced_degenerate_family():
    with criterion("4", 10.0):
        rng = np.random.default_rng(4242)
        model, _ = conjugated_pair_model(rng, 3, 2)
        # the base block must itself be irreducible for the family to be forced
        base = random_model(np.random.default_rng(4242), 3, 2)
        base_report = decompose(base)
        assert base_report.is_unique and len(base_report.unique_enclosures) == 1
        assert base_report.unique_enclosures[0].dimension == 3

        report = decompose(model)
        assert len(report.families) == 1 and not report.unique_enclosures
        fam = report.families[0]
        assert len(fam.members) == 2
        assert all(rec.dimension == 3 for rec in fam.members)
        q = fam.isometries[(0, 1)]
        p0, p1 = fam.members[0].projector, fam.members[1].projector
        assert np.linalg.norm(q.conj().T @ q - p0) <= 1e-8
        assert np.linalg.norm(q @ q.conj().T - p1) <= 1e-8
        rho0, rho1 = fam.members[0].extremal_state, fam.members[1].extremal_state
        assert np.linalg.norm(q @ rho0 @ q.conj().T - rho1) <= 1e-8
        for op in model.jumps:
            assert np.linalg.norm(q @ op - op @ q) <= 1e-8


def _random_qnd(rng):
    pointers = int(rng.integers(2, 6))
    channels = int(rng.integers(1, 5))
    energies = rng.standard_normal(pointers)
    amplitudes = rng.standard_normal((channels, pointers)) + 1j * rng.standard_normal(
        (channels, pointers)
    )
    split = int(rng.integers(-1, channels))
    return QndModel.create(energies, amplitudes, split)


def test_criterion_5_qnd_suite():
    with criterion("5", 30.0):
        rng = np.random.default_rng(555)
        nondegenerate_seen = 0
        for case in range(25):
            qnd = _random_qnd(rng)
            passes = nondegeneracy_check(qnd).overall
            c = qnd.amplitudes
            for a in range(qnd.num_pointers):
                for b in range(qnd.num_pointers):
                    if a == b:
                        continue
                    value = omega(qnd, a, b)
                    expected_real = -0.5 * float(np.sum(np.abs(c[:, a] - c[:, b]) ** 2))
                    assert abs(value.real - expected_real) <= 1e-10
                    if passes:
                        assert value.real < -1e-10
            if passes:
                nondegenerate_seen += 1
                for x in fixed_points(qnd_to_model(qnd)):
                    assert np.linalg.norm(x - np.diag(np.diag(x))) <= 1e-8
        assert nondegenerate_seen >= 10  # generic draws are rarely degenerate


def _structural_model(rng, case):
    shape = case % 3
    if shape == 0:
        n = int(rng.integers(2, 7))
        return random_model(rng, n, int(rng.integers(1, 5)))
    if shape == 1:
        total = int(rng.integers(4, 7))
        d1 = int(rng.integers(2, total - 1))
        return block_diag_model(rng, (d1, total - d1), int(rng.integers(1, 4)))
    n = int(rng.integers(3, 7))
    return leaky_model(rng, n, int(rng.integers(1, 4)))


def test_criterion_6_structural_properties():
    with criterion("6", 120.0):
        rng = np.random.default_rng(666)
        for case in range(25):
            model = _structural_model(rng, case)
            n = model.dim
            report = decompose(model)
            gen = build_generator(model)

            assert np.linalg.norm(report.transient + report.recurrent - np.eye(n)) <= 1e-8
            projectors = [
                rec.projector for _, rec, _ in enumerate_minimal_enclosures(report)
            ]
            assert np.linalg.norm(sum(projectors) - report.recurrent) <= 1e-8
            for i in range(len(projectors)):
                for j in range(i + 1, len(projectors)):
                    assert np.linalg.norm(projectors[i] @ projectors[j]) <= 1e-8

            # trace preservation of the propagated flow
            t = float(rng.uniform(0.1, 5.0))
            rho = random_density(rng, n)
            prop = expm(t * gen.matrix)
            evolved = unvec(prop @ vec(rho))
            assert abs(np.trace(evolved) - 1.0) <= 1e-9

            # block-by-block action on states supported in the recurrent part
            r_state = report.recurrent @ random_density(rng, n) @ report.recurrent
            r_state = r_state / np.trace(r_state).real
            evolved = unvec(prop @ vec(r_state))
            for i in range(len(projectors)):
                for j in range(len(projectors)):
                    lhs = projectors[i] @ evolved @ projectors[j]
                    rhs = unvec(prop @ vec(projectors[i] @ r_state @ projectors[j]))
                    assert np.linalg.norm(lhs - rhs) <= 1e-7

            # bit-identical rerun
            first = serialize_report(decomposition_report_to_dict(report))
            second = serialize_report(
                decomposition_report_to_dict(decompose(model))
            )
            assert first == second


def test_criterion_7_uniqueness_consistency_sweep():
    with criterion("7", None):
        models = [
            faithful_2d(),
            unfaithful_2d(),
            two_enclosures_2d(),
            zero_generator_2d(),
            rotation_channel(),
        ]
        rng = np.random.default_rng(1234)
        densities = (0.2, 0.45, 0.7, 0.95)
        for case in range(50):
            n = 2 + case % 5
            models.append(minimal_oqrw(random_rate_matrix(rng, n, densities[case % 4])))
        models.append(conjugated_pair_model(np.random.default_rng(4242), 3, 2)[0])
        qnd_rng = np.random.default_rng(555)
        for _ in range(25):
            models.append(qnd_to_model(_random_qnd(qnd_rng)))
        structural_rng = np.random.default_rng(666)
        for case in range(25):
            models.append(_structural_model(structural_rng, case))

        applicable = 0
        for model in models:
            # raises if identifiability passes on a transient-free model whose
            # decomposition is not unique
            record = uniqueness_cross_check(model, tol=DEFAULT_TOL)
            if record.theorem_applicable:
                applicable += 1
                assert record.is_unique
        assert applicable >= 20  # the sweep genuinely exercises the theorem
