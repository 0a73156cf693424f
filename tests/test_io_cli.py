import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enclosure_atlas.cli as cli
from enclosure_atlas.cli import main
from enclosure_atlas.decomposition import decompose, verify_decomposition
from enclosure_atlas.fixtures import (
    FIXTURES,
    _model_doc,
    faithful_2d,
    fixture_document,
    two_enclosures_2d,
    unfaithful_2d,
)
from enclosure_atlas.io import (
    ModelFileError,
    ValidationError,
    _json,
    _parse_rows,
    complex_matrix_to_json,
    decomposition_report_to_dict,
    load_model_file,
    parse_complex_matrix,
    parse_model_document,
    parse_real_matrix,
    serialize_report,
    tolerances_to_dict,
    verification_record_to_dict,
)
from enclosure_atlas.identifiability import QndModel
from enclosure_atlas.linalg import Tolerances
from enclosure_atlas.oqrw import RateMatrix, minimal_oqrw
from enclosure_atlas.semigroup import KrausChannel, LindbladModel, validate

from helpers import (
    block_diag_model,
    conjugated_pair_model,
    leaky_model,
    random_channel,
    random_model,
    random_rate_matrix,
    read_rows,
    renewal_pair_channel,
    tilted_hamiltonian_model,
    weak_drain,
)


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_report(fixture_document(name)))
    return str(path)


def test_fixture_documents_parse_to_models():
    for name in FIXTURES:
        parsed = parse_model_document(fixture_document(name))
        assert parsed.mode in ("lindblad", "kraus", "rates")
        assert isinstance(parsed.obj, (LindbladModel, KrausChannel, RateMatrix))


def test_parse_rejects_malformed_complex_pair():
    doc = fixture_document("unfaithful-2d")
    doc["jumps"][0][0][1] = [1]
    with pytest.raises(ModelFileError, match=r"jumps\[0\]\[0\]\[1\]"):
        parse_model_document(doc)


def test_parse_names_a_bad_entry_behind_a_well_formed_array():
    # a bool, a string or a too-short pair passes np.array's float conversion
    # or shape, but not the leaf-type scan: the error names the entry
    for bad, what in (([True, 0.0], "pair"), (["1", 0.0], "pair"), ([1.0], "pair")):
        doc = fixture_document("unfaithful-2d")
        doc["hamiltonian"][1][0] = bad
        with pytest.raises(ModelFileError, match=rf"field hamiltonian\[1\]\[0\]: expected a \[re, im\] {what}"):
            parse_model_document(doc)
    doc = fixture_document("two-state-chain")
    doc["rates"][0][1] = True
    with pytest.raises(ModelFileError, match=r"field rates\[0\]\[1\]: expected a number, got True"):
        parse_model_document(doc)


def test_parse_reads_the_same_values_as_entry_by_entry():
    rng = np.random.default_rng(131)
    rows = [[[float(v) for v in rng.standard_normal(2)] for _ in range(3)] for _ in range(3)]
    rows[0][0] = [-0.0, 2**53 + 1]
    rows[1][2] = [3, -(10**300)]
    expected = np.array([[complex(*pair) for pair in row] for row in rows])
    parsed = parse_complex_matrix(rows, "m")
    assert parsed.dtype == complex and parsed.view(float).tobytes() == expected.view(float).tobytes()
    reals = [[0.5, -0.0], [2**63, 7]]
    assert parse_real_matrix(reals, "q").tobytes() == np.array(reals, dtype=float).tobytes()


_FLOATS = st.one_of(st.integers(), st.floats(), st.sampled_from([-0.0, 2**53 + 1]))
_HUGE = st.sampled_from([10**400, -(10**400), 2**1024])
_NUMBERS = st.one_of(_FLOATS, _HUGE)
_BAD = st.sampled_from([True, False, None, "1", {}, [], [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
_LEAVES = st.one_of(
    _NUMBERS,
    _BAD,
    st.text(max_size=2),
    st.dictionaries(st.text(max_size=1), _NUMBERS, max_size=2),
    st.lists(_NUMBERS, max_size=3),
    st.lists(_NUMBERS, min_size=2, max_size=2),
    st.lists(st.lists(_NUMBERS, max_size=2), max_size=2),
)


@st.composite
def _nested_arrays(draw, pairs):
    """Arrays of numbers, or of [re, im] pairs if ``pairs``, rows of no
    entries included. One entry in sixteen is a leaf that is no number, one
    any leaf and one out of float range; two rows in sixteen have any
    length, one is a leaf, and one array in ten is a leaf."""
    if not draw(st.integers(0, 9)):
        return draw(_LEAVES)
    good = st.lists(_FLOATS, min_size=2, max_size=2) if pairs else _FLOATS
    huge = _HUGE
    if pairs:
        huge = st.one_of(st.tuples(_HUGE, _FLOATS), st.tuples(_FLOATS, _HUGE)).map(list)
    entries = (_BAD, _LEAVES, huge) + (good,) * 13
    width, rows = draw(st.integers(0, 3)), []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.integers(0, 15))
        length = draw(st.integers(0, 4)) if shape in (1, 2) else width
        row = [draw(entries[draw(st.integers(0, 15))]) for _ in range(length)]
        rows.append(draw(_LEAVES) if shape == 0 else row)
    return rows


def _read(reader, data, pairs):
    try:
        array = reader(data, "m", pairs)
    except ModelFileError as exc:
        return "ModelFileError", str(exc)
    return array.dtype, array.shape, array.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_parse_rows_matches_the_entry_by_entry_reference(data):
    # Same dtype, shape and bytes, or the same message naming the first bad
    # row or entry: -0.0, 2**53 + 1 and NaN keep their bits, 10**400 is out
    # of float range, and a bool, None, string, object or list of the wrong
    # length is not a number or a pair.
    for pairs in (False, True):
        doc = data.draw(_nested_arrays(pairs))
        assert _read(_parse_rows, doc, pairs) == _read(read_rows, doc, pairs)


def test_parse_rejects_unknown_mode_and_missing_fields():
    with pytest.raises(ModelFileError, match="mode"):
        parse_model_document({"mode": "other", "dim": 2})
    with pytest.raises(ModelFileError, match="missing field hamiltonian"):
        parse_model_document({"mode": "lindblad", "dim": 2})
    with pytest.raises(ModelFileError, match="dim"):
        parse_model_document({"mode": "lindblad", "dim": -1})


def test_parse_validation_errors():
    doc = fixture_document("two-state-chain")
    doc["rates"][0][0] = 5.0
    with pytest.raises(ValidationError, match=r"rates\[0\]\[0\]"):
        parse_model_document(doc)
    doc = fixture_document("rotation-channel")
    doc["kraus"][0][0][0] = [3.0, 0.0]
    with pytest.raises(ValidationError, match="trace preserving"):
        parse_model_document(doc)


def test_parse_dimension_mismatch():
    doc = fixture_document("unfaithful-2d")
    doc["dim"] = 3
    with pytest.raises(ValidationError, match="shape"):
        parse_model_document(doc)


def test_parse_tolerances_and_seed():
    doc = fixture_document("unfaithful-2d")
    doc["tolerances"] = {"rank_tol": 1e-8}
    doc["seed"] = 11  # a top-level "seed" is ignored, as any unknown key
    parsed = parse_model_document(doc)
    assert parsed.tolerances.rank_tol == 1e-8
    assert not hasattr(parsed, "seed")
    doc["tolerances"] = {"bogus": 1.0}
    with pytest.raises(ModelFileError, match="bogus"):
        parse_model_document(doc)
    # tolerances are JSON numbers, not strings or booleans
    for bad in ({"rank_tol": "1e-9"}, {"residual_tol": True}, {"residual_tol": None}):
        doc["tolerances"] = bad
        with pytest.raises(ModelFileError, match=f"tolerances.{next(iter(bad))}"):
            parse_model_document(doc)
    doc["tolerances"] = {"rank_tol": 2}
    with pytest.raises(ValidationError, match="rank_tol must be < 1"):
        parse_model_document(doc)


def test_parse_qnd_document():
    doc = {
        "mode": "qnd",
        "dim": 2,
        "qnd": {
            "energies": [0.0, 1.0],
            "amplitudes": [[[1.0, 0.0], [0.0, 0.0]]],
            "split": 0,
        },
    }
    parsed = parse_model_document(doc)
    assert isinstance(parsed.obj, QndModel)
    assert parsed.obj.split == 0


def test_report_roundtrip_bit_exact():
    doc = {"a": [0.1 + 0.2, 1e-17, -3.5], "b": {"nested": [[1.25, -0.75]]}, "c": "x"}
    text = serialize_report(doc)
    assert json.loads(text) == doc
    assert serialize_report(json.loads(text)) == text


def test_cli_examples_roundtrip(tmp_path, capsys):
    out = tmp_path / "fixture.json"
    assert main(["examples", "two-enclosures-2d", "-o", str(out)]) == 0
    parsed = load_model_file(str(out))
    assert isinstance(parsed.obj, LindbladModel)
    assert main(["examples", "nope"]) == 2
    known = ", ".join(sorted(FIXTURES))
    assert capsys.readouterr().err == f"validation error: unknown example 'nope'; available: {known}\n"


def test_cli_analyze_unfaithful(tmp_path, capsys):
    path = write_fixture(tmp_path, "unfaithful-2d")
    assert main(["analyze", path, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    dec = doc["decomposition"]
    assert dec["transient"]["dimension"] == 1
    assert len(dec["unique_enclosures"]) == 1
    assert dec["is_unique"] is True
    assert doc["verification"]["ok"] is True


def test_cli_analyze_zero_generator(tmp_path, capsys):
    path = write_fixture(tmp_path, "zero-generator-2d")
    assert main(["analyze", path, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    dec = doc["decomposition"]
    assert dec["is_unique"] is False
    assert len(dec["families"]) == 1
    assert len(dec["families"][0]["members"]) == 2


def test_cli_analyze_text_shape_line(tmp_path, capsys):
    path = write_fixture(tmp_path, "unfaithful-2d")
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "H(2) = D(1) (+) V0(1)" in out


def test_cli_analyze_deterministic_output(tmp_path, capsys):
    path = write_fixture(tmp_path, "two-enclosures-2d")
    assert main(["analyze", path, "--format", "structured", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path, "--format", "structured", "--seed", "6"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["analyze", missing]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 1

    doc = fixture_document("unfaithful-2d")
    doc["jumps"][0][0][0] = [1]
    broken = tmp_path / "pair.json"
    broken.write_text(json.dumps(doc))
    assert main(["analyze", str(broken)]) == 1

    chain = fixture_document("two-state-chain")
    chain["rates"][0][1] = -1.0
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(chain))
    assert main(["oqrw", str(invalid)]) == 2
    assert "rates[0]" in capsys.readouterr().err

    # mode mismatches are validation failures
    rates_path = write_fixture(tmp_path, "two-state-chain")
    assert main(["analyze", rates_path]) == 2
    assert main(["identifiability", rates_path]) == 2


def test_cli_analyze_failed_verification_exits_3(tmp_path, capsys, monkeypatch):
    verify = cli.verify_decomposition
    monkeypatch.setattr(
        cli, "verify_decomposition", lambda *a, **k: dataclasses.replace(verify(*a, **k), ok=False)
    )
    path = write_fixture(tmp_path, "unfaithful-2d")
    assert main(["analyze", path]) == 3
    assert "verification: FAILED" in capsys.readouterr().out
    other = write_fixture(tmp_path, "two-enclosures-2d")
    assert main(["analyze", path, other, "--batch"]) == 3


def test_cli_analyze_weak_block_coupling_never_exits_0_unverified(tmp_path, capsys):
    # Two 3-level blocks joined by a 1e-4 Hamiltonian coupling: a slow mode
    # sits near the rank threshold. The analysis may fail cleanly or verify;
    # it must not report a failed verification with exit 0.
    base = block_diag_model(np.random.default_rng(1), (3, 3), 2)
    h = base.hamiltonian.copy()
    h[0, 3] = h[3, 0] = 1e-4
    doc = {
        "mode": "lindblad",
        "dim": 6,
        "hamiltonian": complex_matrix_to_json(h),
        "jumps": [complex_matrix_to_json(j) for j in base.jumps],
    }
    path = tmp_path / "weak-coupling.json"
    path.write_text(serialize_report(doc))
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == 3
    assert "verification: ok" not in out


def test_cli_analyze_weak_drain_reports_its_transient_level(tmp_path, capsys):
    # A 4-level generic block drained from a fifth level at rate 1e-6. Stage
    # 1 factors the drained level's coherences as a sector of their own, and
    # the kernel vector from the remaining sector leaks about 3e-10 into the
    # transient level: verification's recurrent_support clause, well inside
    # residual_tol. extremal_state reads ker L compressed to the enclosure.
    model = weak_drain(1e-3)
    doc = {
        "mode": "lindblad",
        "dim": 5,
        "hamiltonian": complex_matrix_to_json(model.hamiltonian),
        "jumps": [complex_matrix_to_json(j) for j in model.jumps],
    }
    path = tmp_path / "weak-drain.json"
    path.write_text(serialize_report(doc))
    assert main(["analyze", str(path), "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    dec = report["decomposition"]
    assert dec["transient"]["dimension"] == 1
    assert [rec["dimension"] for rec in dec["unique_enclosures"]] == [4]
    assert dec["families"] == []
    assert report["verification"]["ok"] is True


@pytest.mark.parametrize("u", [1e-12, 5e-11, 1.5e-10, 3e-10, 9e-10, 2e-9, 1e-8])
def test_cli_weak_pump_sweep(tmp_path, capsys, u):
    # Decay |0><1| against a pump √u |1><0|: one enclosure of dimension 2 at
    # every u > 0. Below 2e-9 the pumped level's weight u falls under the
    # noise cut rank_tol · λ_max of the maximal-support state and the
    # enclosure check fails; from 2e-9 up the report verifies.
    doc = {
        "mode": "lindblad",
        "dim": 2,
        "hamiltonian": complex_matrix_to_json(np.zeros((2, 2))),
        "jumps": [
            complex_matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])),
            complex_matrix_to_json(np.sqrt(u) * np.array([[0.0, 0.0], [1.0, 0.0]])),
        ],
    }
    path = tmp_path / "pump.json"
    path.write_text(serialize_report(doc))
    code = main(["analyze", str(path), "--format", "structured"])
    out, err = capsys.readouterr()
    if u < 2e-9:
        assert code == 3 and "[enclosures]" in err
    else:
        assert code == 0 and _shape(json.loads(out)) == (0, [2], [])


def _coupled_blocks(g):
    """Two 3-level blocks joined by a Hamiltonian coupling g."""
    base = block_diag_model(np.random.default_rng(1), (3, 3), 2)
    h = base.hamiltonian.copy()
    h[0, 3] = h[3, 0] = g
    return LindbladModel.create(h, base.jumps)


# The analysis of these verifies at the unit time scale.
VERIFIED_AT_UNIT_SCALE = {
    "faithful-2d": faithful_2d,
    "unfaithful-2d": unfaithful_2d,
    "two-enclosures-2d": two_enclosures_2d,
    "leaky-5": lambda: leaky_model(np.random.default_rng(1), 5, 2),
}
# Ill-conditioned at every time scale: the weak coupling g or drain rate puts
# a second singular value of L, second order in it, under stage 1's cut.
ILL_CONDITIONED_MODELS = {
    "coupled-1e-6": lambda: _coupled_blocks(1e-6),
    "coupled-1e-8": lambda: _coupled_blocks(1e-8),
    "drain-1e-8": lambda: weak_drain(1e-4),
}


def _time_scaled_file(tmp_path, model, c):
    """The model with H -> cH and L_j -> √c L_j, written as a model file."""
    doc = {
        "mode": "lindblad",
        "dim": model.dim,
        "hamiltonian": complex_matrix_to_json(c * model.hamiltonian),
        "jumps": [complex_matrix_to_json(np.sqrt(c) * j) for j in model.jumps],
    }
    path = tmp_path / f"scaled-{c:g}.json"
    path.write_text(serialize_report(doc))
    return str(path)


def _analyze_time_scaled(tmp_path, capsys, model, c):
    """``analyze`` of the model with H -> cH and L_j -> √c L_j: (exit code,
    structured report or None, stderr)."""
    code = main(["analyze", _time_scaled_file(tmp_path, model, c), "--format", "structured"])
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err


def _shape(report):
    dec = report["decomposition"]
    return (
        dec["transient"]["dimension"],
        [rec["dimension"] for rec in dec["unique_enclosures"]],
        [[m["dimension"] for m in fam["members"]] for fam in dec["families"]],
    )


@pytest.mark.parametrize("c", [1e-14, 1e-12, 1e-10, 1e-9, 1e6, 1e8, 1e-306])
@pytest.mark.parametrize("name", list(VERIFIED_AT_UNIT_SCALE))
def test_cli_sped_up_time_scale_gives_the_unit_scale_report(tmp_path, capsys, name, c):
    # Stage 1 cuts at rank_tol · s, on the operators' scale s, which L -> cL
    # multiplies by c: slowed or sped up, the report has the c = 1 shape.
    model = VERIFIED_AT_UNIT_SCALE[name]()
    code, unit_report, _ = _analyze_time_scaled(tmp_path, capsys, model, 1.0)
    assert code == 0
    code, report, _ = _analyze_time_scaled(tmp_path, capsys, model, c)
    assert code == 0
    assert _shape(report) == _shape(unit_report)
    assert report["verification"]["ok"] is True


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("c, jump_scale", [(1e-308, 1.0), (1e-310, 1.0), (1.0, 1e-163)])
def test_cli_subnormal_operator_norms_are_a_validation_error(
    tmp_path, capsys, c, jump_scale, fmt
):
    # faithful-2d has s = 2c: below np.finfo(float).tiny, K/s would overflow.
    # At c = 1e-306 it verifies (test_cli_sped_up_time_scale_gives_the_unit_scale_report).
    # With its jumps scaled by 1e-163, s = 2e-326 rounds to 0, but the model
    # is not the zero generator, whose report it would otherwise get.
    base = faithful_2d()
    model = LindbladModel(2, base.hamiltonian, tuple(jump_scale * j for j in base.jumps))
    path = _time_scaled_file(tmp_path, model, c)
    assert main(["analyze", path, "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("validation error: operator norms underflow: s = ")


@pytest.mark.parametrize("c", [1e-14, 1e-12, 1e-10, 1.0, 1e6, 1e8])
def test_cli_weakly_coupled_blocks_are_an_algebra_error_at_every_time_scale(
    tmp_path, capsys, c
):
    # Stage 1 counts two fixed points, but the second misses commuting with
    # the model's operators by ε_F ≈ 1.1e-7 at g = 1e-6, 1.1e-9 at g = 1e-8
    # and 1.2e-5 at drain rate 1e-8, at every scale.
    for name, make in ILL_CONDITIONED_MODELS.items():
        code, report, err = _analyze_time_scaled(tmp_path, capsys, make(), c)
        assert code == 3 and report is None, name
        assert "[algebra]" in err and "ε_F" in err, name


# Each input rule reads on its own object's scale: H -> cH and L_j -> √c L_j,
# amplitudes -> √c c_ja and energies -> c e_a give the c = 1 verdict.
TIME_UNITS = [1e-12, 1e-8, 1.0, 1e4, 1e8, 1e12]


def _tilted(model, eps):
    """The model with an anti-Hermitian part of relative size eps added to H."""
    a = np.random.default_rng(7).standard_normal((model.dim, model.dim))
    a = a - a.T
    h = model.hamiltonian
    return LindbladModel.create(h + eps * np.linalg.norm(h) * a / np.linalg.norm(a), model.jumps)


@pytest.mark.parametrize("c", TIME_UNITS)
def test_cli_anti_hermitian_hamiltonian_is_a_validation_error_at_every_time_scale(
    tmp_path, capsys, c
):
    # ‖H − H†‖_F = 2‖H‖_F against 100 · residual_tol · ‖H‖_F: no max(1, ‖H‖_F)
    # floor lets a slow anti-Hermitian H through.
    base = faithful_2d()
    model = LindbladModel(2, np.array([[0, 1], [-1, 0]], dtype=complex), base.jumps)
    code, report, err = _analyze_time_scaled(tmp_path, capsys, model, c)
    assert code == 2 and report is None
    assert "not Hermitian" in err and "100 · residual_tol · ‖H‖_F" in err


@pytest.mark.parametrize("c", TIME_UNITS)
def test_cli_model_diagnostics_ok_reads_the_same_at_every_time_scale(tmp_path, capsys, c):
    # The Hermiticity residual grows with c and so does its bound; the trace
    # residual (roundoff, 4e-4 at c = 1e12) is reported but is no input rule.
    model = _tilted(random_model(np.random.default_rng(1), 4, 2), 1e-9)
    code, report, _ = _analyze_time_scaled(tmp_path, capsys, model, c)
    assert code == 0 and report["verification"]["ok"] is True
    assert report["model_diagnostics"]["ok"] is True
    assert _shape(report) == (0, [4], [])


def _time_scaled_qnd_document(c):
    """Three pointers; amplitude columns 0 and 1 are equal. Channel 0 is
    diffusive, channel 1 jump-type."""
    energies = c * np.array([0.3, 0.3, -0.7])
    amplitudes = np.sqrt(c) * np.array([[0.5 + 0.2j, 0.5 + 0.2j, -0.4 + 0.1j], [0.3, 0.3, 0.9]])
    return {
        "mode": "qnd",
        "dim": 3,
        "qnd": {
            "energies": energies.tolist(),
            "amplitudes": [[[z.real, z.imag] for z in row] for row in amplitudes],
            "split": 0,
        },
    }


@pytest.mark.parametrize("c", TIME_UNITS)
def test_cli_qnd_verdicts_read_the_same_at_every_time_scale(tmp_path, capsys, c):
    # Re ω is the sum of squares -½ Σ_j |c_ja - c_jb|²: exactly 0 for the
    # equal columns at every c, with no self-check to trip on cancellation.
    path = tmp_path / "qnd.json"
    path.write_text(json.dumps(_time_scaled_qnd_document(c)))
    assert main(["identifiability", str(path), "--format", "structured"]) == 3
    out = json.loads(capsys.readouterr().out)
    pairs = [(p["a"], p["b"], p["separated"]) for p in out["identifiability"]["pairs"]]
    assert pairs == [(0, 1, False), (0, 2, True), (1, 2, True)]
    witnesses = [p["witness"] for p in out["identifiability"]["pairs"]]
    assert witnesses == [None, "diffusive r[0]", "diffusive r[0]"]
    record = out["qnd_uniqueness"]
    assert record["consistent"] is True and record["omega_all_negative"] is False


def _scaled_channel_document(factor):
    channel = random_channel(np.random.default_rng(3), 4, 2)
    return {
        "mode": "kraus",
        "dim": 4,
        "kraus": [complex_matrix_to_json(factor * v) for v in channel.kraus],
    }


@pytest.mark.parametrize("k, defect", [(1, None), (5, "2.000e-08"), (10, "4.000e-08")])
def test_cli_kraus_trace_defect_is_judged_by_what_stage_1_absorbs(tmp_path, capsys, k, defect):
    # V_i -> (1 + k·1e-9) V_i: ‖Σ V†V − 1‖_F = 4k·1e-9 against rank_tol · s = 5e-9,
    # the defect stage 1 absorbs. Accepting k = 5 and 10 led to `[recurrent]
    # the generator has no eigenvalue at zero`, exit 3.
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(_scaled_channel_document(1 + k * 1e-9)))
    code = main(["analyze", str(path), "--format", "structured"])
    out, err = capsys.readouterr()
    if defect is None:
        report = json.loads(out)
        assert code == 0 and report["model_diagnostics"]["ok"] is True
        assert report["verification"]["ok"] is True
    else:
        assert code == 2 and "not trace preserving" in err
        assert f"‖Σ V†V − 1‖_F = {defect}" in err and "rank_tol · s = 5.000e-09" in err


def test_cli_oqrw_pass_and_report(tmp_path, capsys):
    path = write_fixture(tmp_path, "two-state-chain")
    assert main(["oqrw", path, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oqrw"]["passed"] is True
    assert doc["oqrw"]["classes"] == [[0, 1]]
    pi = doc["oqrw"]["invariant_measures"][0]
    assert abs(pi[0] - 2.0 / 3.0) < 1e-10


def test_cli_oqrw_two_block_chain(tmp_path, capsys):
    doc = {
        "mode": "rates",
        "dim": 4,
        "rates": [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -0.5, 0.5],
            [0.0, 0.0, 2.0, -2.0],
        ],
    }
    path = tmp_path / "two-block.json"
    path.write_text(json.dumps(doc))
    assert main(["oqrw", str(path), "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oqrw"]["classes"] == [[0, 1], [2, 3]]
    assert len(out["oqrw"]["invariant_measures"]) == 2


def test_cli_identifiability_continuous(tmp_path, capsys):
    path = write_fixture(tmp_path, "two-enclosures-2d")
    assert main(["identifiability", path, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identifiability"]["mode"] == "continuous"
    assert doc["identifiability"]["overall"] is True
    assert doc["uniqueness_cross_check"]["theorem_applicable"] is True


def test_cli_identifiability_rotation_fails(tmp_path, capsys):
    path = write_fixture(tmp_path, "rotation-channel")
    assert main(["identifiability", path, "--max-len", "6", "--format", "structured"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["identifiability"]["overall"] is False
    (pair,) = doc["identifiability"]["pairs"]
    assert pair["witness"] == "none up to 6"
    assert pair["magnitude"] <= 1e-12
    assert doc["uniqueness_cross_check"]["converse_counterexample"] is True


def test_cli_max_len_applies_to_discrete_mode_only(tmp_path, capsys):
    # The continuous criterion searches no words, so --max-len leaves its
    # output unchanged, byte for byte; it stays accepted there.
    path = write_fixture(tmp_path, "two-enclosures-2d")
    outputs = []
    for extra in ([], ["--max-len", "6"]):
        for fmt in ("text", "structured"):
            argv = ["identifiability", path, "--mode", "continuous", "--format", fmt, *extra]
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
    assert outputs[:2] == outputs[2:]
    with pytest.raises(SystemExit):
        main(["identifiability", "--help"])
    assert "discrete mode only" in capsys.readouterr().out


def test_cli_identifiability_long_witness_without_cap(tmp_path, capsys):
    channel = renewal_pair_channel()
    doc = {
        "mode": "kraus",
        "dim": channel.dim,
        "kraus": [complex_matrix_to_json(v) for v in channel.kraus],
    }
    path = tmp_path / "renewal-pair.json"
    path.write_text(serialize_report(doc))
    assert main(["identifiability", str(path), "--format", "structured"]) == 0
    (pair,) = json.loads(capsys.readouterr().out)["identifiability"]["pairs"]
    assert pair["witness"] == "word[0, 0, 0, 0, 0, 0, 0, 0]"


def test_cli_identifiability_qnd_mode(tmp_path, capsys):
    doc = {
        "mode": "qnd",
        "dim": 2,
        "qnd": {
            "energies": [0.0, 0.0],
            "amplitudes": [[[0.0, 1.0], [0.0, -1.0]]],
            "split": 0,
        },
    }
    path = tmp_path / "qnd.json"
    path.write_text(json.dumps(doc))
    assert main(["identifiability", str(path), "--format", "structured"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["identifiability"]["mode"] == "qnd-nondegeneracy"
    assert out["identifiability"]["overall"] is False
    assert out["qnd_uniqueness"]["decomposition_unique"] is True


@pytest.mark.parametrize("gap", [1e-3, 1e-4])
def test_cli_identifiability_qnd_small_amplitude_gap(tmp_path, capsys, gap):
    doc = {
        "mode": "qnd",
        "dim": 2,
        "qnd": {"energies": [0, 0], "amplitudes": [[[0.5, 0], [0.5 + gap, 0]]], "split": 0},
    }
    path = tmp_path / "qnd-gap.json"
    path.write_text(json.dumps(doc))
    assert main(["identifiability", str(path), "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["qnd_uniqueness"]["consistent"] is True
    assert out["qnd_uniqueness"]["omega_all_negative"] is True


@pytest.mark.parametrize("eps", [1e-8, 1e-7, 5e-7])
def test_cli_analyze_hamiltonian_with_a_small_anti_hermitian_part(tmp_path, capsys, eps):
    model, _ = tilted_hamiltonian_model(eps)
    doc = {
        "mode": "lindblad",
        "dim": model.dim,
        "hamiltonian": complex_matrix_to_json(model.hamiltonian),
        "jumps": [complex_matrix_to_json(j) for j in model.jumps],
    }
    path = tmp_path / "tilted.json"
    path.write_text(serialize_report(doc))
    assert main(["analyze", str(path), "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["ok"] is True
    assert _shape(report) == (0, [4], [])


def test_cli_batch_analyze(tmp_path, capsys):
    a = write_fixture(tmp_path, "unfaithful-2d")
    b = write_fixture(tmp_path, "two-enclosures-2d")
    assert main(["analyze", a, b, "--batch", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["reports"]) == {a, b}
    assert main(["analyze", a, b]) == 2  # multiple files without --batch


def test_cli_batch_rejects_a_path_given_twice(tmp_path, capsys, monkeypatch):
    # A report is keyed by its path, so a repeated path would print two text
    # reports but write one structured one. It is a validation error that
    # names the path, raised before any model file is read.
    a = write_fixture(tmp_path, "unfaithful-2d")
    b = write_fixture(tmp_path, "two-enclosures-2d")

    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_model_file", unread)
    for fmt in ("text", "structured"):
        assert main(["analyze", a, b, a, "--batch", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: model file {a} is given more than once\n"


def test_cli_batch_mixed_failures(tmp_path, capsys):
    good = write_fixture(tmp_path, "unfaithful-2d")
    missing = str(tmp_path / "gone.json")
    code = main(["analyze", good, missing, "--batch", "--format", "structured"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert "error" in doc["reports"][missing]


def test_cli_reports_ignore_every_former_seed_input(tmp_path, capsys, monkeypatch):
    # Reports take no seed. The hidden --seed flag (any value), the
    # ENCLOSURE_ATLAS_SEED variable and a file's "seed" key are ignored, so
    # every fixture gives one structured report, in each command that reads it.
    commands = {
        "lindblad": ["analyze", "identifiability"],
        "kraus": ["analyze", "identifiability"],
        "rates": ["oqrw"],
    }
    for name in FIXTURES:
        doc = fixture_document(name)
        plain = tmp_path / f"{name}.json"
        plain.write_text(json.dumps(doc))
        seeded = tmp_path / f"{name}.seeded.json"
        seeded.write_text(json.dumps({**doc, "seed": -1}))
        for command in commands[doc["mode"]]:
            outputs = []
            for path, extra, env in (
                (plain, [], None),
                (plain, ["--seed", "1"], None),
                (plain, ["--seed", "-3"], None),
                (plain, [], "7"),
                (plain, [], "oops"),
                (seeded, [], None),
            ):
                if env is None:
                    monkeypatch.delenv("ENCLOSURE_ATLAS_SEED", raising=False)
                else:
                    monkeypatch.setenv("ENCLOSURE_ATLAS_SEED", env)
                code = main([command, str(path), "--format", "structured", *extra])
                outputs.append((code, capsys.readouterr().out))
            assert all(out == outputs[0] for out in outputs[1:]), (name, command)
            assert outputs[0][0] in (0, 3) and '"seed"' not in outputs[0][1]


def test_cli_tolerance_flags(tmp_path, capsys):
    path = write_fixture(tmp_path, "unfaithful-2d")
    assert main(["analyze", path, "--tol-rank", "1e-7", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decomposition"]["tolerances"]["rank_tol"] == 1e-7
    assert main(["analyze", path, "--tol-residual", "1e-6", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decomposition"]["tolerances"] == {"rank_tol": 1e-9, "residual_tol": 1e-6}


@pytest.mark.parametrize("key", ["psd_tol", "eig_cluster_tol"])
def test_cli_removed_tolerance_keys_are_file_errors(tmp_path, capsys, key):
    # A state's noise is rank_tol · λ_max, and the cluster width a constant.
    doc = fixture_document("faithful-2d")
    doc["tolerances"] = {key: 1e-10}
    path = tmp_path / "removed.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    assert key in capsys.readouterr().err


def test_cli_output_file_and_file_seed(tmp_path, capsys):
    doc = fixture_document("two-enclosures-2d")
    doc["seed"] = 23
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--format", "structured", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""  # -o writes the file, not stdout
    report = json.loads(out.read_text())
    assert report["verification"]["ok"] is True
    # the file's "seed" is ignored: the report is the one of the file without it
    plain = write_fixture(tmp_path, "two-enclosures-2d")
    assert main(["analyze", plain, "--format", "structured"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_cli_explicit_mode_mismatch(tmp_path, capsys):
    kraus_path = write_fixture(tmp_path, "rotation-channel")
    lind_path = write_fixture(tmp_path, "unfaithful-2d")
    rates_path = write_fixture(tmp_path, "two-state-chain")
    for path, mode, message in [
        (kraus_path, "continuous", "continuous identifiability expects a lindblad model file"),
        (lind_path, "discrete", "discrete identifiability expects a kraus model file"),
        (lind_path, "qnd", "qnd identifiability expects a qnd model file"),
        (rates_path, "auto", "no identifiability mode for a 'rates' model"),
    ]:
        assert main(["identifiability", path, "--mode", mode]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"


def test_cli_batch_text_format(tmp_path, capsys):
    a = write_fixture(tmp_path, "unfaithful-2d")
    b = write_fixture(tmp_path, "faithful-2d")
    assert main(["analyze", a, b, "--batch"]) == 0
    out = capsys.readouterr().out
    assert f"== {a} ==" in out and f"== {b} ==" in out


def test_golden_fixture_reingestion(tmp_path, capsys):
    # every emitted fixture reproduces its documented result end to end
    expectations = {
        "faithful-2d": lambda d: d["recurrent"]["dimension"] == 2
        and len(d["unique_enclosures"]) == 1,
        "unfaithful-2d": lambda d: d["transient"]["dimension"] == 1,
        "two-enclosures-2d": lambda d: len(d["unique_enclosures"]) == 2 and d["is_unique"],
        "zero-generator-2d": lambda d: not d["is_unique"] and len(d["families"]) == 1,
        "rotation-channel": lambda d: d["is_unique"] and len(d["unique_enclosures"]) == 2,
    }
    for name, check in expectations.items():
        path = write_fixture(tmp_path, name)
        assert main(["analyze", path, "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert check(doc["decomposition"]), name


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only matrix_exponential, which no CLI command calls.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, enclosure_atlas.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_calls_in_one_process_match_fresh_interpreters(tmp_path, capsys):
    # main builds its parser once per process: each call, after any other,
    # gives the exit code and the bytes a fresh interpreter gives, a usage
    # error (argparse exits 2) and a validation error included.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    chain = write_fixture(tmp_path, "two-state-chain")
    two = write_fixture(tmp_path, "two-enclosures-2d")
    calls = [
        ["examples", "faithful-2d"],
        ["analyze", chain, "--format", "structured"],
        ["analyze", "--format", "yaml", two],
        ["analyze", two, "--format", "structured"],
        ["identifiability", two, "--mode", "continuous"],
    ]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "enclosure_atlas.cli", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes == [0, 2, 2, 0, 0]
    assert cli.build_parser() is cli.build_parser()


def test_cli_analyze_leaves_scipy_unloaded(tmp_path):
    # Stage 1 factors with numpy alone, so analyze, not only the import,
    # starts no scipy. The leaky model has a kernel-free sector and a
    # certified one-dimensional kernel; the zero generator falls back to the SVD.
    model = leaky_model(np.random.default_rng(2), 4, 2)
    doc = {
        "mode": "lindblad",
        "dim": 4,
        "hamiltonian": complex_matrix_to_json(model.hamiltonian),
        "jumps": [complex_matrix_to_json(j) for j in model.jumps],
    }
    leaky = tmp_path / "leaky.json"
    leaky.write_text(serialize_report(doc))
    zero = write_fixture(tmp_path, "zero-generator-2d")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; from enclosure_atlas.cli import main; "
        f"codes = [main(['analyze', p, '-o', {os.devnull!r}]) for p in sys.argv[1:]]; "
        "print(codes, 'scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(leaky), zero],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[0, 0] False"


def _report_leaves(doc, path=()):
    """(path, value) of every leaf of a parsed report, depth first."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _report_leaves(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _report_leaves(value, (*path, i))
    else:
        yield path, doc


def test_reports_agree_across_blas_thread_counts(tmp_path):
    # Reports are byte-identical for one BLAS build and thread setting, not
    # across thread counts: stage 1's stacked LU solves round differently.
    # Two child processes, with OPENBLAS_NUM_THREADS=1 and =2, analyze a
    # dense n = 24 model, a leaky n = 12 model, a conjugated pair with
    # d = 8, a channel with n = 12 and a minimal walk with n = 24. They
    # give the same exit codes, shapes and verification. Every float that
    # is not a residual agrees within 1e-12 of the largest entry of its
    # object (the value of its innermost key), and each side's residuals
    # are at most residual_tol.
    rng = np.random.default_rng(1)
    models = [
        random_model(rng, 24, 2),
        leaky_model(rng, 12, 2),
        conjugated_pair_model(rng, 8, 2)[0],
        random_channel(rng, 12, 2),
        minimal_oqrw(random_rate_matrix(rng, 24)),
    ]
    paths = []
    for i, model in enumerate(models):
        paths.append(tmp_path / f"model-{i}.json")
        paths[-1].write_text(serialize_report(_model_doc(model)))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; from enclosure_atlas.cli import main; "
        "print([main(['analyze', p, '--format', 'structured', '-o', f'{p}.{sys.argv[1]}']) "
        "for p in sys.argv[2:]])"
    )
    codes = []
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code, threads, *map(str, paths)],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            check=True,
        )
        codes.append(out.stdout.strip())
    assert codes == ["[0, 0, 0, 0, 0]"] * 2
    for p in paths:
        one, two = (json.loads(p.with_name(f"{p.name}.{t}").read_text()) for t in "12")
        assert one["verification"]["ok"] and two["verification"]["ok"], p.name
        tol = one["decomposition"]["tolerances"]["residual_tol"]
        leaves = [list(_report_leaves(doc)) for doc in (one, two)]
        assert [at for at, _ in leaves[0]] == [at for at, _ in leaves[1]], p.name
        keys = [[k for k in at if isinstance(k, str)] for at, _ in leaves[0]]
        objects = [
            at[: max(i for i, k in enumerate(at) if isinstance(k, str)) + 1] for at, _ in leaves[0]
        ]
        scale = {}
        for obj, (_, x), (_, y) in zip(objects, *leaves):
            if isinstance(x, float):
                scale[obj] = max(scale.get(obj, 0.0), abs(x), abs(y))
        for obj, names, (at, x), (_, y) in zip(objects, keys, *leaves):
            if not isinstance(x, float):
                assert x == y, (p.name, at)
            elif any("residual" in k for k in names):
                assert max(x, y) <= tol, (p.name, at)
            else:
                assert abs(x - y) <= 1e-12 * scale[obj], (p.name, at, x, y)


# -- report writer: the standard encoder on one line ---------------------------

def _oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


_COMMANDS = {
    "lindblad": ("analyze", "identifiability"),
    "kraus": ("analyze", "identifiability"),
    "rates": ("oqrw",),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_cli_structured_outputs_match_the_json_oracle(tmp_path, name):
    model = tmp_path / "model.json"
    assert main(["examples", name, "-o", str(model)]) == 0
    outputs = [model]
    for command in _COMMANDS[fixture_document(name)["mode"]]:
        out = tmp_path / f"{command}.json"
        main([command, str(model), "--format", "structured", "-o", str(out)])
        outputs.append(out)
    for out in outputs:
        text = out.read_text()
        assert text == _oracle(json.loads(text)), out.name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: x,
        lambda x: {"a": x},
        lambda x: [1, x],
        lambda x: [1.0, x],
        lambda x: {"a": [[[0.0, 1.0]], [[x, 0.0]]]},
        lambda x: {"a": {"b": [[0.5, "s"], [{"c": x}]]}},
    ],
    ids=["top", "dict", "mixed-list", "float-list", "float-block", "deep"],
)
def test_serialize_report_rejects_non_finite_floats(place, bad):
    doc = place(bad)
    with pytest.raises(ValueError):
        _oracle(doc)
    with pytest.raises(ValueError):
        serialize_report(doc)


def test_serialize_report_rejects_keys_that_are_not_str():
    # a pair key that _json did not convert
    with pytest.raises(TypeError):
        serialize_report({"a": {(0, 1): 0.5}})


# -- integers too large for a float --------------------------------------------

def _qnd_document():
    return {
        "mode": "qnd",
        "dim": 2,
        "qnd": {"energies": [0.0, 1.0], "amplitudes": [[[1.0, 0.0], [0.0, 0.0]]], "split": 0},
    }


@pytest.mark.parametrize(
    "document, path, argv, field",
    [
        (lambda: fixture_document("unfaithful-2d"), ("hamiltonian", 0, 0, 0), ["analyze"],
         "hamiltonian[0][0]"),
        (lambda: fixture_document("two-state-chain"), ("rates", 0, 0), ["oqrw"], "rates[0][0]"),
        (lambda: dict(fixture_document("two-state-chain"), tolerances={"rank_tol": 1e-10}),
         ("tolerances", "rank_tol"), ["oqrw"], "tolerances.rank_tol"),
        (_qnd_document, ("qnd", "energies", 1), ["identifiability", "--mode", "qnd"],
         "qnd.energies[1]"),
    ],
    ids=["hamiltonian", "rate", "rank-tol", "qnd-energy"],
)
def test_cli_huge_integer_is_a_file_error(tmp_path, capsys, document, path, argv, field):
    doc = document()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 10**400
    model = tmp_path / "huge.json"
    model.write_text(json.dumps(doc))
    assert main([argv[0], str(model), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: field {field}: number out of float range\n"


def _qnd_with(**fields):
    doc = _qnd_document()
    doc["qnd"].update(fields)
    return doc


_QND = ["identifiability", "--mode", "qnd"]


@pytest.mark.parametrize(
    "document, argv, code, message",
    [
        ("[1, 2]", ["analyze"], 1, "error: model document must be a JSON object"),
        (lambda: dict(fixture_document("faithful-2d"), tolerances=[1e-9]), ["analyze"], 1,
         "error: tolerances must be an object"),
        (lambda: dict(fixture_document("faithful-2d"), jumps={}), ["analyze"], 1,
         "error: jumps must be an array of matrices"),
        (lambda: dict(fixture_document("rotation-channel"), kraus=[]), ["analyze"], 1,
         "error: kraus must be a non-empty array of matrices"),
        (lambda: dict(fixture_document("two-state-chain"), dim=3), ["oqrw"], 2,
         "validation error: rates has shape (2, 2), expected (3, 3)"),
        (lambda: dict(_qnd_document(), qnd=[]), _QND, 1, "error: qnd must be an object"),
        (lambda: _qnd_with(energies=[0.0]), _QND, 1,
         "error: qnd.energies must be an array of length 2"),
        (lambda: _qnd_with(amplitudes={}), _QND, 1,
         "error: qnd.amplitudes must be an array of channel rows"),
        (lambda: _qnd_with(amplitudes=[]), _QND, 2, "validation error: split 0 outside [-1, -1]"),
        (lambda: _qnd_with(split=0.5), _QND, 1, "error: qnd.split must be an integer, got 0.5"),
        (lambda: dict(fixture_document("faithful-2d"), hamiltonian=[0.0, 0.0]),
         ["analyze"], 1, "error: field hamiltonian: expected a nested array of [re, im] pairs"),
        (lambda: dict(fixture_document("faithful-2d"), hamiltonian=[[[0, 0], [0, 0]], [[0, 0]]]),
         ["analyze"], 1, "error: field hamiltonian: row 1 has length 1, expected 2"),
        (lambda: fixture_document("faithful-2d"), ["oqrw"], 2,
         "validation error: oqrw expects a rates model, got 'lindblad'"),
        (lambda: fixture_document("rotation-channel"),
         ["identifiability", "--mode", "discrete", "--max-len", "0"], 2,
         "validation error: max_len must be at least 1"),
        ('{"mode": "lindblad", "dim": 1, "hamiltonian": [[[NaN, 0.0]]]}', ["analyze"], 2,
         "validation error: matrix has non-finite entries"),
        ('{"mode": "lindblad", "dim": 1, "hamiltonian": [[[0.0, Infinity]]]}', ["analyze"], 2,
         "validation error: matrix has non-finite entries"),
        ('{"mode": "rates", "dim": 2, "rates": [[NaN, 1.0], [2.0, -2.0]]}', ["oqrw"], 2,
         "validation error: rate matrix has non-finite entries"),
        ('{"mode": "rates", "dim": 2, "rates": [[-Infinity, 1.0], [2.0, -2.0]]}', ["oqrw"], 2,
         "validation error: rate matrix has non-finite entries"),
        (b'{"mode": "lindblad", \xff}', ["analyze"], 1,
         "error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 21: "
         "invalid start byte"),
        (b'{"mode": "rates", \xff}', ["oqrw"], 1,
         "error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 18: "
         "invalid start byte"),
        ('{"mode": "lindblad", "dim": 1, "hamiltonian": %s}' % ("[" * 10**5 + "]" * 10**5),
         ["analyze"], 1, "error: {path} nests arrays or objects too deeply to read"),
        ('{"mode": "lindblad", "dim": 1, "jumps": %s}' % ("[" * 5000 + "]" * 5000),
         ["identifiability", "--mode", "continuous"], 1,
         "error: {path} nests arrays or objects too deeply to read"),
        (lambda: {"mode": "lindblad", "dim": 1, "hamiltonian": [[[[0.5, 0.0]] * 10**5]]},
         ["analyze"], 1, "error: field hamiltonian[0][0]: expected a [re, im] pair, got "
         "[[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], ...]"),
        ('{"mode": "lindblad", "dim": 1, "hamiltonian": %s}' % ("[" * 950 + "]" * 950),
         ["analyze"], 1, "error: field hamiltonian[0][0]: expected a [re, im] pair, got [[[...]]]"),
        (lambda: {"mode": "x" * 10**5, "dim": 1}, ["analyze"], 1,
         "error: unknown mode 'xxxxxxxxxxxx...xxxxxxxxxxxxx'; "
         "expected one of ('lindblad', 'kraus', 'rates', 'qnd')"),
        (lambda: dict(fixture_document("faithful-2d"), hamiltonian=[[]]), ["analyze"], 2,
         "validation error: field hamiltonian has shape (1, 0), expected (2, 2)"),
        (lambda: dict(fixture_document("faithful-2d"), jumps=[[[]]]), ["analyze"], 2,
         "validation error: field jumps[0] has shape (1, 0), expected (2, 2)"),
        (lambda: dict(fixture_document("rotation-channel"), kraus=[[[], []]]), ["analyze"], 2,
         "validation error: field kraus[0] has shape (2, 0), expected (2, 2)"),
        (lambda: dict(fixture_document("two-state-chain"), rates=[[], []]), ["oqrw"], 2,
         "validation error: rates has shape (2, 0), expected (2, 2)"),
        (lambda: _qnd_with(amplitudes=[[]]), _QND, 2,
         "validation error: amplitudes must have shape (channels, 2), got (1, 0)"),
    ],
    ids=[
        "not-an-object", "tolerances", "jumps", "empty-kraus", "rates-shape", "qnd-object",
        "qnd-energies", "qnd-amplitudes", "qnd-empty-amplitudes", "qnd-split", "flat-array",
        "ragged-row", "oqrw-on-lindblad", "max-len-0", "nan-pair", "infinity-pair", "nan-rate",
        "infinity-rate", "not-utf-8", "rates-not-utf-8", "deep-hamiltonian", "deep-jumps",
        "long-entry", "nested-entry", "long-mode", "empty-hamiltonian-rows", "empty-jump-rows",
        "empty-kraus-rows", "empty-rate-rows", "empty-amplitude-rows",
    ],
)
def test_cli_input_checks_exit_with_their_message(tmp_path, capsys, document, argv, code, message):
    # json.loads reads NaN and Infinity literals; the model checks reject them.
    # A file that is not UTF-8, or that nests past the JSON reader's
    # recursion limit, is a file error that names the file. A bad entry is
    # echoed within a short line however long or deep it is. Rows that hold
    # no entries are well formed, and fail the model's shape check.
    model = tmp_path / "model.json"
    if isinstance(document, bytes):
        model.write_bytes(document)
    else:
        model.write_text(document if isinstance(document, str) else json.dumps(document()))
    assert main([argv[0], str(model), *argv[1:]]) == code
    err = capsys.readouterr().err
    assert err == message.replace("{path}", str(model)) + "\n"
    assert len(err) <= 200 + len(str(model))


# Operators whose norms overflow: an anti-Hermitian H, a 1 x 1 channel, and a
# Hermitian H with entries 2e154, whose squares overflow, plus one jump.
_OVERFLOWING = {
    "anti-hermitian": {"mode": "lindblad", "dim": 2,
                       "hamiltonian": [[[0, 0], [1e308, 0]], [[-1e308, 0], [0, 0]]]},
    "kraus": {"mode": "kraus", "dim": 1, "kraus": [[[[1e200, 0]]]]},
    "hermitian": {"mode": "lindblad", "dim": 2, "hamiltonian": [[[2e154, 0]] * 2] * 2,
                  "jumps": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]]},
}


# Nondemolition files, read by ``identifiability``: an infinite amplitude, and
# amplitudes 1e200 or energies ±1e308, whose squares or gap overflow.
_OVERFLOWING_QND = {
    f"qnd-{name}": (
        {"mode": "qnd", "dim": 2, "qnd": {"energies": e, "amplitudes": [a], "split": 0}}, message
    )
    for name, e, a, message in [
        ("infinite", [0, 0], [[math.inf, 0], [0.5, 0]], "energies and amplitudes must be finite"),
        ("amplitudes-1e200", [0, 0], [[1e200, 0], [0.5, 0]], "operator norms overflow: s = "),
        ("energies-1e308", [1e308, -1e308], [[1, 0], [0.5, 0]], "operator norms overflow: s = "),
    ]
}


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("name", [*_OVERFLOWING, *_OVERFLOWING_QND])
def test_cli_overflowing_operator_norms_are_a_validation_error(tmp_path, capsys, name, fmt):
    model = tmp_path / "model.json"
    command, message = "analyze", "operator norms overflow: s = "
    if name in _OVERFLOWING:
        model.write_text(json.dumps(_OVERFLOWING[name]))
    else:
        document, message = _OVERFLOWING_QND[name]
        model.write_text(json.dumps(document))
        command = "identifiability"
    assert main([command, str(model), "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("validation error: " + message)


def _overflowing_model(name):
    """The ``_OVERFLOWING`` document as a model built without ``create``."""
    doc = _OVERFLOWING[name]
    mats = lambda key: tuple(parse_complex_matrix(m, key) for m in doc.get(key, []))  # noqa: E731
    if doc["mode"] == "kraus":
        return KrausChannel(doc["dim"], mats("kraus"))
    return LindbladModel(doc["dim"], parse_complex_matrix(doc["hamiltonian"], "h"), mats("jumps"))


@pytest.mark.parametrize("name", list(_OVERFLOWING))
def test_validate_is_not_ok_when_operator_norms_overflow(name):
    with np.errstate(over="ignore", invalid="ignore"):  # the diagnostics are inf or NaN
        assert not validate(_overflowing_model(name)).ok


@pytest.mark.parametrize("name", list(_OVERFLOWING))
def test_validate_of_overflowing_operators_raises_no_warning(name):
    # The rule fails without comparing, and a channel's Choi eigenvalue is
    # not read (None): its Gram matrix V†V overflows as the norms do.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagnostics = validate(_overflowing_model(name))
    assert not diagnostics.ok and diagnostics.choi_min_eigenvalue is None


def test_cli_integer_past_the_digit_limit_is_a_file_error(tmp_path, capsys):
    # json.loads refuses integer literals longer than the interpreter's
    # int-to-str digit limit (4300 by default) with a plain ValueError.
    model = tmp_path / "long.json"
    model.write_text('{"mode": "rates", "dim": 2, "rates": [[-1' + "0" * 5000 + ", 1.0], [2.0, -2.0]]}")
    assert main(["oqrw", str(model)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# -- report keys: each record's field names ------------------------------------

def _key_paths(value, path=""):
    """Every key of a document as a dotted path; the items of a list share "[]"."""
    if isinstance(value, dict):
        return set().union(*({path + k} | _key_paths(v, f"{path}{k}.") for k, v in value.items()))
    if isinstance(value, list):
        return set().union(*(_key_paths(v, f"{path}[].") for v in value))
    return set()


def _at(key, inner=()):
    return {key} | {f"{key}.{k}" for k in inner}


_TOLERANCES = _at("tolerances", {"rank_tol", "residual_tol"})
_ENCLOSURES = {"[].dimension", "[].extremal_state", "[].projector"}
_DECOMPOSITION = {
    "dim", "families", "is_unique", "kind", "max_support_state", "recurrent_method",
    "unique_enclosures", *_TOLERANCES, *_at("conventions", {"vectorization"}),
    *_at("recurrent", {"dimension", "projector"}), *_at("transient", {"dimension", "projector"}),
    *_at("residuals", {"algebra_closure", "algebra_commutant"}),
}
_UNIQUE = _at("unique_enclosures", _ENCLOSURES)
_FAMILIES = _at("families", {
    "[].block_projector", *_at("[].isometries", {"0->1", "1->0"}), *_at("[].members", _ENCLOSURES),
})
_LINDBLAD_DIAGNOSTICS = {"dim", "hermiticity_residual", "kind", "ok", "trace_residual"}
_VERIFICATION = {"max_residual", "ok", *_at("clauses", {"[].name", "[].ok", "[].residual"})}
_IDENTIFIABILITY = {
    "hypothesis_violated", "labels", "mode", "overall", "policy",
    *_at("pairs", {"[].a", "[].b", "[].magnitude", "[].separated", "[].witness"}),
}
_CROSS_CHECK = {
    "commutation_checked", "commutation_residuals", "converse_counterexample", "is_unique",
    "kind", "theorem_applicable", "transient_free", *_at("identifiability", _IDENTIFIABILITY),
}


def _analyze_keys(decomposition, diagnostics):
    return (
        _at("decomposition", decomposition)
        | _at("model_diagnostics", diagnostics)
        | _at("verification", _VERIFICATION)
    )


_LINDBLAD_REPORT = _analyze_keys(_DECOMPOSITION | _UNIQUE, _LINDBLAD_DIAGNOSTICS)
_KRAUS_REPORT = _analyze_keys(
    _DECOMPOSITION | _UNIQUE, _LINDBLAD_DIAGNOSTICS | {"choi_min_eigenvalue"}
)


@pytest.mark.parametrize(
    "argv, code, keys",
    [
        (["analyze", "two-enclosures-2d"], 0, _LINDBLAD_REPORT),
        (["analyze", "zero-generator-2d"], 0,
         _analyze_keys(_DECOMPOSITION | _FAMILIES, _LINDBLAD_DIAGNOSTICS)),
        (["analyze", "rotation-channel"], 0, _KRAUS_REPORT),
        (["oqrw", "two-state-chain"], 0, _TOLERANCES | _at("oqrw", {
            "classes", "convention", "invariant_measures", "passed", "zero_diagonal_states",
            *_at("clauses", {"[].name", "[].ok", "[].residual"}),
        })),
        (["identifiability", "two-enclosures-2d"], 0,
         _at("identifiability", _IDENTIFIABILITY) | _at("uniqueness_cross_check", _CROSS_CHECK)),
        (["identifiability", "rotation-channel"], 3,
         _at("identifiability", _IDENTIFIABILITY) | _at("uniqueness_cross_check", _CROSS_CHECK)),
        (["identifiability", "qnd"], 0, _at("identifiability", _IDENTIFIABILITY) | _at(
            "qnd_uniqueness", {
                "consistent", "decomposition_unique", "diagonal_fixed_points_residual",
                "nondegenerate", "omega_all_negative", "pointer_enclosures",
                *_at("re_omega", {"0->1", "1->0"}),
            })),
    ],
    ids=["analyze-lindblad", "analyze-family", "analyze-kraus", "oqrw", "continuous",
         "discrete", "qnd"],
)
def test_structured_report_keys_are_the_record_fields(tmp_path, argv, code, keys):
    command, name = argv
    if name == "qnd":
        model = tmp_path / "qnd.json"
        model.write_text(json.dumps(_qnd_document()))
    else:
        model = write_fixture(tmp_path, name)
    out = tmp_path / "report.json"
    assert main([command, str(model), "--format", "structured", "-o", str(out)]) == code
    assert _key_paths(json.loads(out.read_text())) == keys


def test_batch_report_keys_are_the_record_fields(tmp_path):
    lindblad, kraus = (write_fixture(tmp_path, n) for n in ("two-enclosures-2d", "rotation-channel"))
    out = tmp_path / "report.json"
    assert main(["analyze", lindblad, kraus, "--batch", "--format", "structured", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["reports"]
    assert sorted(doc["reports"]) == sorted([lindblad, kraus])
    assert _key_paths(doc["reports"][lindblad]) == _LINDBLAD_REPORT
    assert _key_paths(doc["reports"][kraus]) == _KRAUS_REPORT


def test_json_writes_numpy_scalars_as_python_values():
    assert [type(x) for x in _json([np.float64(0.5), np.int64(3), np.bool_(True)])] == [
        float, int, bool
    ]
    assert _json(np.float64(0.1)) == 0.1


def test_json_writes_pair_keys_as_arrows():
    assert _json({(0, 1): np.float64(-1.5), (1, 0): 2.0, "name": (1, 2)}) == {
        "0->1": -1.5, "1->0": 2.0, "name": [1, 2]
    }


def test_integer_tolerances_are_written_as_floats():
    tol = Tolerances(residual_tol=1)
    assert tolerances_to_dict(tol) == {"rank_tol": 1e-9, "residual_tol": 1.0}
    assert '"residual_tol": 1.0}' in serialize_report(tolerances_to_dict(tol))
    doc = decomposition_report_to_dict(decompose(two_enclosures_2d(), tol=tol))
    assert '"residual_tol": 1.0}' in serialize_report(doc)


def test_a_nan_record_field_is_refused_by_serialize_report():
    model = two_enclosures_2d()
    record = verify_decomposition(decompose(model), model)
    doc = verification_record_to_dict(dataclasses.replace(record, max_residual=math.nan))
    with pytest.raises(ValueError):
        serialize_report(doc)
