"""Command-line front end.

Subcommands: ``analyze`` (decomposition + verification), ``oqrw`` (classical
cross-validation of a rate matrix), ``identifiability`` (continuous, discrete
or nondemolition checks), ``examples`` (emit a built-in model file).

Exit codes are a stable contract: 0 success, 1 file/parse error,
2 validation failure, 3 analysis failure (including failed theorem clauses
or failed identifiability). Reports take no seed: identical inputs give
byte-identical structured reports under one BLAS thread setting.

The module loads only what ``analyze`` runs; the other subcommands import
their modules when they are called.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .decomposition import DecompositionError, decompose, verify_decomposition
from .io import (
    ModelFileError,
    ParsedModel,
    ValidationError,
    cross_check_to_dict,
    decomposition_report_to_dict,
    identifiability_report_to_dict,
    load_model_file,
    model_diagnostics_to_dict,
    oqrw_record_to_dict,
    qnd_uniqueness_to_dict,
    serialize_report,
    tolerances_to_dict,
    verification_record_to_dict,
)
from .semigroup import validate

# Exit code and message prefix of each handled exception family, in the
# order they are tried: ModelFileError and ValidationError are ValueErrors.
_EXITS = (
    ((ModelFileError, OSError), 1, "error"),
    ((ValidationError, ValueError), 2, "validation error"),
    ((DecompositionError, RuntimeError), 3, "analysis error"),
)
_HANDLED = tuple(t for types, _, _ in _EXITS for t in types)


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and message line of a handled exception."""
    code, prefix = next((c, p) for types, c, p in _EXITS if isinstance(exc, types))
    return code, f"{prefix}: {exc}\n"


def _add_common_flags(parser: argparse.ArgumentParser):
    # Ignored and hidden: accepted so that older command lines still parse.
    parser.add_argument("--seed", help=argparse.SUPPRESS)
    parser.add_argument("--tol-rank", type=float, default=None, help="override rank_tol")
    parser.add_argument(
        "--tol-residual", type=float, default=None, help="override residual_tol"
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="human-readable text or deterministic JSON",
    )
    parser.add_argument("-o", "--output", default=None, help="write the report to a file")


@functools.cache  # nothing changes the parser once built
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enclosure-atlas",
        description="Decompose Lindblad generators and quantum channels into "
        "transient subspace, minimal enclosures, and degenerate families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decompose a lindblad or kraus model file")
    p.add_argument("paths", nargs="+", metavar="MODEL")
    p.add_argument("--batch", action="store_true", help="process several files in turn")
    _add_common_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oqrw", help="cross-validate a rate-matrix walk classically")
    p.add_argument("path", metavar="MODEL")
    _add_common_flags(p)
    p.set_defaults(func=cmd_oqrw)

    p = sub.add_parser("identifiability", help="identifiability / non-degeneracy checks")
    p.add_argument("path", metavar="MODEL")
    p.add_argument(
        "--mode",
        choices=("auto", "continuous", "discrete", "qnd"),
        default="auto",
    )
    p.add_argument(
        "--max-len",
        type=int,
        default=None,
        help="discrete mode only: optional word-length cap; default: search until the span closes",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_identifiability)

    p = sub.add_parser("examples", help="emit a built-in example model file")
    p.add_argument("name", metavar="NAME")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_examples)
    return parser


def _resolve_tol(args, parsed: ParsedModel):
    tol = parsed.tolerances
    if args.tol_rank is not None:
        tol = dataclasses.replace(tol, rank_tol=args.tol_rank)
    if args.tol_residual is not None:
        tol = dataclasses.replace(tol, residual_tol=args.tol_residual)
    return tol


def _emit(args, doc: dict, text: str | None = None) -> None:
    """Write ``doc`` through ``serialize_report``, or ``text`` in text format."""
    payload = serialize_report(doc) if text is None or args.format == "structured" else text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _shape_line(report_dict: dict) -> str:
    parts = [f"D({report_dict['transient']['dimension']})"]
    for i, rec in enumerate(report_dict["unique_enclosures"]):
        parts.append(f"V{i}({rec['dimension']})")
    for b, fam in enumerate(report_dict["families"]):
        members = " ~ ".join(
            f"V{b}.{g}({m['dimension']})" for g, m in enumerate(fam["members"])
        )
        parts.append(f"[{members}]")
    return f"H({report_dict['dim']}) = " + " (+) ".join(parts)


def _analyze_one(path: str, args) -> tuple[int, dict, str]:
    parsed = load_model_file(path)
    if parsed.mode not in ("lindblad", "kraus"):
        raise ValidationError(f"analyze expects a lindblad or kraus model, got {parsed.mode!r}")
    tol = _resolve_tol(args, parsed)
    diagnostics = validate(parsed.obj, tol)
    report = decompose(parsed.obj, tol=tol)
    verification = verify_decomposition(report, parsed.obj, tol)
    doc = {
        "model_diagnostics": model_diagnostics_to_dict(diagnostics),
        "decomposition": decomposition_report_to_dict(report),
        "verification": verification_record_to_dict(verification),
    }
    lines = [
        f"model: {parsed.mode} dim={report.dim}",
        "decomposition: " + _shape_line(doc["decomposition"]),
        f"recurrent method: {report.recurrent_method}",
        f"unique decomposition: {report.is_unique}",
        f"verification: {'ok' if verification.ok else 'FAILED'}"
        f" (max residual {verification.max_residual:.3e})",
    ]
    return 0 if verification.ok else 3, doc, "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    if len(args.paths) > 1 and not args.batch:
        raise ValidationError("multiple model files require --batch")
    twice = [path for i, path in enumerate(args.paths) if path in args.paths[:i]]
    if twice:
        raise ValidationError(f"model file {twice[0]} is given more than once")
    if not args.batch:
        code, doc, text = _analyze_one(args.paths[0], args)
        _emit(args, doc, text)
        return code

    def run(path):
        try:
            return _analyze_one(path, args)
        except _HANDLED as exc:
            code, message = _failure(exc)
            return code, {"error": str(exc)}, message

    results = [(path, run(path)) for path in args.paths]
    doc = {"reports": {path: payload[1] for path, payload in results}}
    text = "".join(f"== {path} ==\n{payload[2]}" for path, payload in results)
    _emit(args, doc, text)
    return max(payload[0] for _, payload in results)


def cmd_oqrw(args) -> int:
    from .oqrw import RateMatrix, verify_oqrw_theorem

    parsed = load_model_file(args.path)
    if parsed.mode != "rates":
        raise ValidationError(f"oqrw expects a rates model, got {parsed.mode!r}")
    assert isinstance(parsed.obj, RateMatrix)
    tol = _resolve_tol(args, parsed)
    record = verify_oqrw_theorem(parsed.obj, tol=tol)
    doc = {"oqrw": oqrw_record_to_dict(record), "tolerances": tolerances_to_dict(tol)}
    lines = [
        f"closed classes: {[list(c) for c in record.classes]}",
        f"invariant measures: {[list(map(float, m.round(12))) for m in record.measures]}",
        f"zero-diagonal states: {list(record.zero_diagonal_states)}",
    ]
    for clause in record.clauses:
        lines.append(
            f"  {'PASS' if clause.ok else 'FAIL'} {clause.name} (residual {clause.residual:.3e})"
        )
    lines.append(f"overall: {'pass' if record.passed else 'fail'}")
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0 if record.passed else 3


def _identifiability_text(doc: dict) -> str:
    rep = doc["identifiability"]
    lines = [f"mode: {rep['mode']}", f"labels: {rep['labels']}"]
    for p in rep["pairs"]:
        status = "separated" if p["separated"] else "NOT separated"
        lines.append(
            f"  ({p['a']},{p['b']}) {status}; witness={p['witness']}"
            f" magnitude={p['magnitude']:.3e}"
        )
    if rep["hypothesis_violated"]:
        lines.append("note: transient part present; uniqueness hypothesis violated")
    lines.append(f"overall: {'pass' if rep['overall'] else 'fail'}")
    return "\n".join(lines) + "\n"


# The model-file mode each identifiability mode reads.
_READS = {"continuous": "lindblad", "discrete": "kraus", "qnd": "qnd"}


def cmd_identifiability(args) -> int:
    from .identifiability import nondegeneracy_check, qnd_uniqueness, uniqueness_cross_check

    parsed = load_model_file(args.path)
    mode = args.mode
    if mode == "auto":
        mode = {reads: m for m, reads in _READS.items()}.get(parsed.mode)
        if mode is None:
            raise ValidationError(f"no identifiability mode for a {parsed.mode!r} model")
    tol = _resolve_tol(args, parsed)
    if parsed.mode != _READS[mode]:
        raise ValidationError(f"{mode} identifiability expects a {_READS[mode]} model file")

    if mode == "qnd":
        report = nondegeneracy_check(parsed.obj, tol)
        record = qnd_uniqueness(parsed.obj, tol)
        doc = {
            "identifiability": identifiability_report_to_dict(report),
            "qnd_uniqueness": qnd_uniqueness_to_dict(record),
        }
        _emit(args, doc, _identifiability_text(doc))
        return 0 if report.overall else 3

    # The cross-check picks the search from the model type, which the check
    # above ties to the mode.
    cross = uniqueness_cross_check(parsed.obj, tol=tol, max_len=args.max_len)
    doc = {
        "identifiability": identifiability_report_to_dict(cross.identifiability),
        "uniqueness_cross_check": cross_check_to_dict(cross),
    }
    _emit(args, doc, _identifiability_text(doc))
    return 0 if cross.identifiability.overall else 3


def cmd_examples(args) -> int:
    from .fixtures import fixture_document

    _emit(args, fixture_document(args.name))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        code, message = _failure(exc)
        sys.stderr.write(message)
        return code


if __name__ == "__main__":
    sys.exit(main())
