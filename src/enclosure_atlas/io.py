"""Model-file parsing and report serialization.

Model files are JSON documents with a "mode" of "lindblad", "kraus", "rates"
or "qnd". Complex matrices are nested arrays of [re, im] pairs; rate matrices
are plain real arrays. A report's text is exactly
``json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"``: one line,
sorted keys and shortest-repr floats, so identical inputs produce
byte-identical documents that round-trip exactly. For a readable view of a
report, run ``python -m json.tool report.json``.

A report object's keys are its record's field names (``_json``), except
that a decomposition report nests ``transient`` and ``recurrent`` as
``{projector, dimension}`` and omits ``invariant_kernel``, a Lindblad
model's diagnostics omit ``choi_min_eigenvalue``, and a walk's record
writes ``measures`` as ``invariant_measures``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .decomposition import DecompositionReport, VerificationRecord
from .linalg import DEFAULT_TOL, Tolerances
from .semigroup import KrausChannel, LindbladModel, ModelDiagnostics

if TYPE_CHECKING:  # analyze loads neither module; the parse branches import what they build
    from .identifiability import IdentifiabilityReport, QndUniquenessRecord, UniquenessCrossCheck
    from .oqrw import OqrwTheoremRecord

MODES = ("lindblad", "kraus", "rates", "qnd")


class ModelFileError(ValueError):
    """Malformed model document (missing fields, bad pairs); CLI exit 1."""


class ValidationError(ValueError):
    """Well-formed document violating model invariants; CLI exit 2."""


def _require(doc: dict, field: str, path: str = ""):
    if field not in doc:
        raise ModelFileError(f"missing field {path}{field}")
    return doc[field]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _out_of_range(field: str) -> ModelFileError:
    return ModelFileError(f"field {field}: number out of float range")


def _complex_entry(value, field: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))):
        raise ModelFileError(f"field {field}: expected a [re, im] pair, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        raise _out_of_range(field) from None


def _real_entry(value, field: str) -> float:
    if not _is_number(value):
        raise ModelFileError(f"field {field}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _out_of_range(field) from None


def _parse_rows(data, field: str, pairs: bool) -> np.ndarray:
    """A rectangular nested array of numbers, or of [re, im] pairs if
    ``pairs``, as a float or complex array. One scan of the leaf types and
    one np.array read a well-formed array; anything else is read entry by
    entry, so that the error names the bad entry."""
    what, entry = ("[re, im] pairs", _complex_entry) if pairs else ("numbers", _real_entry)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ModelFileError(f"field {field}: expected a nested array of {what}")
    try:
        leaves = chain.from_iterable(data)
        if set(map(type, chain.from_iterable(leaves) if pairs else leaves)) <= {int, float}:
            array = np.array(data, dtype=float)
            if array.shape[2:] == (2,) * pairs:
                return array.view(complex)[..., 0] if pairs else array
    except (TypeError, ValueError, OverflowError):
        pass
    width = len(data[0])
    rows = []
    for i, row in enumerate(data):
        if len(row) != width:
            raise ModelFileError(f"field {field}: row {i} has length {len(row)}, expected {width}")
        try:
            rows.append([entry(v, field) for v in row])
        except ModelFileError:
            # Read the row again, naming each entry, so the error names the bad one.
            for j, v in enumerate(row):
                entry(v, f"{field}[{i}][{j}]")
            raise
    return np.array(rows, dtype=complex if pairs else float)


def parse_complex_matrix(data, field: str) -> np.ndarray:
    return _parse_rows(data, field, pairs=True)


def parse_real_matrix(data, field: str) -> np.ndarray:
    return _parse_rows(data, field, pairs=False)


def complex_matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


@dataclass(frozen=True)
class ParsedModel:
    mode: str
    obj: object
    tolerances: Tolerances


def parse_model_document(doc) -> ParsedModel:
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    mode = _require(doc, "mode")
    if mode not in MODES:
        raise ModelFileError(f"unknown mode {mode!r}; expected one of {MODES}")
    dim = _require(doc, "dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ModelFileError(f"dim must be a positive integer, got {dim!r}")

    tolerances = DEFAULT_TOL
    if "tolerances" in doc:
        tol_doc = doc["tolerances"]
        if not isinstance(tol_doc, dict):
            raise ModelFileError("tolerances must be an object")
        unknown = set(tol_doc) - {f.name for f in dataclasses.fields(Tolerances)}
        if unknown:
            raise ModelFileError(f"unknown tolerance keys {sorted(unknown)}")
        values = {k: _real_entry(v, f"tolerances.{k}") for k, v in tol_doc.items()}
        try:
            tolerances = dataclasses.replace(DEFAULT_TOL, **values)
        except ValueError as exc:
            raise ValidationError(f"bad tolerances: {exc}") from None

    def square(data, field):
        mat = parse_complex_matrix(data, field)
        if mat.shape != (dim, dim):
            raise ValidationError(f"field {field} has shape {mat.shape}, expected {(dim, dim)}")
        return mat

    try:
        if mode == "lindblad":
            h = square(_require(doc, "hamiltonian"), "hamiltonian")
            jumps_doc = doc.get("jumps", [])
            if not isinstance(jumps_doc, list):
                raise ModelFileError("jumps must be an array of matrices")
            jumps = [square(j, f"jumps[{k}]") for k, j in enumerate(jumps_doc)]
            obj = LindbladModel.create(h, jumps, tolerances)
        elif mode == "kraus":
            kraus_doc = _require(doc, "kraus")
            if not isinstance(kraus_doc, list) or not kraus_doc:
                raise ModelFileError("kraus must be a non-empty array of matrices")
            kraus = [square(v, f"kraus[{k}]") for k, v in enumerate(kraus_doc)]
            obj = KrausChannel.create(kraus, tolerances)
        elif mode == "rates":
            from .oqrw import RateMatrix

            q = parse_real_matrix(_require(doc, "rates"), "rates")
            if q.shape != (dim, dim):
                raise ValidationError(f"rates has shape {q.shape}, expected {(dim, dim)}")
            obj = RateMatrix.create(q, tolerances)
        else:
            from .identifiability import QndModel

            qnd_doc = _require(doc, "qnd")
            if not isinstance(qnd_doc, dict):
                raise ModelFileError("qnd must be an object")
            energies = _require(qnd_doc, "energies", "qnd.")
            if not isinstance(energies, list) or len(energies) != dim:
                raise ModelFileError(f"qnd.energies must be an array of length {dim}")
            energies = [_real_entry(e, f"qnd.energies[{i}]") for i, e in enumerate(energies)]
            amps_doc = _require(qnd_doc, "amplitudes", "qnd.")
            if not isinstance(amps_doc, list):
                raise ModelFileError("qnd.amplitudes must be an array of channel rows")
            if amps_doc:
                amps = parse_complex_matrix(amps_doc, "qnd.amplitudes")
            else:
                amps = np.zeros((0, dim), dtype=complex)
            split = _require(qnd_doc, "split", "qnd.")
            if not isinstance(split, int) or isinstance(split, bool):
                raise ModelFileError(f"qnd.split must be an integer, got {split!r}")
            obj = QndModel.create(np.array(energies, dtype=float), amps, split)
    except (ModelFileError, ValidationError):
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return ParsedModel(mode=mode, obj=obj, tolerances=tolerances)


def load_model_file(path: str) -> ParsedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ModelFileError(f"{path} is not valid JSON: {exc}") from None
    return parse_model_document(doc)


# -- report serialization ----------------------------------------------------

def _json(value):
    """A record as JSON values: a dataclass as a dict of its fields, a complex
    array as nested [re, im] pairs, a real array as nested numbers, an
    (a, b) key as "a->b", a tuple as a list and a numpy scalar as its Python
    value."""
    if dataclasses.is_dataclass(value):
        return {f.name: _json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return complex_matrix_to_json(value) if np.iscomplexobj(value) else value.tolist()
    if isinstance(value, dict):
        return {
            "%s->%s" % k if isinstance(k, tuple) else k: _json(v) for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


# One function per record type, so that a tracer can time each one. Each is
# its own def, not an alias of _json: a tracer wraps every binding of the
# function it times, and would then also wrap _json's recursive calls.

def tolerances_to_dict(tol: Tolerances) -> dict:
    return _json(tol)


def decomposition_report_to_dict(report: DecompositionReport) -> dict:
    doc = _json({k: v for k, v in vars(report).items() if k != "invariant_kernel"})
    for part in ("transient", "recurrent"):
        doc[part] = {"projector": doc[part], "dimension": doc.pop(f"{part}_dimension")}
    return doc


def verification_record_to_dict(record: VerificationRecord) -> dict:
    return _json(record)


def model_diagnostics_to_dict(diag: ModelDiagnostics) -> dict:
    doc = _json(diag)
    if diag.choi_min_eigenvalue is None:  # a Lindblad model
        del doc["choi_min_eigenvalue"]
    return doc


def identifiability_report_to_dict(report: IdentifiabilityReport) -> dict:
    return _json(report)


def qnd_uniqueness_to_dict(record: QndUniquenessRecord) -> dict:
    return _json(record)


def cross_check_to_dict(record: UniquenessCrossCheck) -> dict:
    return _json(record)


def oqrw_record_to_dict(record: OqrwTheoremRecord) -> dict:
    doc = _json(record)
    doc["invariant_measures"] = doc.pop("measures")
    return doc


def serialize_report(doc: dict) -> str:
    """Deterministic one-line JSON text of a document: sorted keys and
    shortest-repr floats. A NaN or an infinity raises ValueError, and a
    key such as a tuple, which JSON cannot write, raises TypeError."""
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
