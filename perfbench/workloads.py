"""Seeded workloads: model files, the command line of each op, and the
decomposition shape each op must report.

An op is one ``enclosure-atlas`` command line. Op ``i`` of a workload takes
its model from ``numpy.random.default_rng([seed, i])`` and writes it to a
file; the program sees only that file. The op kinds repeat round-robin, so
every cycle of ``len(kinds)`` ops does the same mix of work.

Each op carries what the generator built into it: the exit code, the
transient dimension, the enclosure dimensions, the family ``(m, d)`` pairs,
the recurrent method, or the closed classes. ``check`` compares the report
against that and returns the mismatches; an empty list passes the gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


# -- models -------------------------------------------------------------------

def _gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian(rng, n) -> np.ndarray:
    g = _gaussian(rng, n, n)
    return (g + g.conj().T) / 2


def _unitary(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _kraus_ops(rng, n, k) -> list:
    """k Kraus operators cut from a random isometry C^n -> C^(kn)."""
    q, _ = np.linalg.qr(_gaussian(rng, k * n, n))
    return [q[i * n:(i + 1) * n] for i in range(k)]


def _block_diag(*blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


def _cmat(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, complex)]


def lindblad_doc(h, jumps) -> dict:
    return {"mode": "lindblad", "dim": h.shape[0], "hamiltonian": _cmat(h),
            "jumps": [_cmat(j) for j in jumps]}


def kraus_doc(ops) -> dict:
    return {"mode": "kraus", "dim": ops[0].shape[0], "kraus": [_cmat(v) for v in ops]}


def dense_lindblad(rng, n, k) -> dict:
    """Generic model: irreducible, with a faithful invariant state."""
    return lindblad_doc(_hermitian(rng, n), [_gaussian(rng, n, n) for _ in range(k)])


def leaky_lindblad(rng, n, k) -> dict:
    """Generic model on n - 1 levels plus a drain from level n - 1 into level 0."""
    zero = np.zeros((1, 1))
    h = _block_diag(_hermitian(rng, n - 1), zero)
    jumps = [_block_diag(_gaussian(rng, n - 1, n - 1), zero) for _ in range(k)]
    drain = np.zeros((n, n), dtype=complex)
    drain[0, n - 1] = 1.0
    return lindblad_doc(h, jumps + [drain])


def block_lindblad(rng, dims, k) -> dict:
    """Direct sum of independent generic blocks: one enclosure per block."""
    h = _block_diag(*(_hermitian(rng, d) for d in dims))
    jumps = [_block_diag(*(_gaussian(rng, d, d) for d in dims)) for _ in range(k)]
    return lindblad_doc(h, jumps)


def pair_lindblad(rng, d, k) -> dict:
    """A generic block and its conjugate by a random unitary: one family (2, d)."""
    w = _unitary(rng, d)
    h0 = _hermitian(rng, d)
    ops = [_gaussian(rng, d, d) for _ in range(k)]
    conj = lambda a: w @ a @ w.conj().T  # noqa: E731
    return lindblad_doc(_block_diag(h0, conj(h0)), [_block_diag(a, conj(a)) for a in ops])


def dense_kraus(rng, n, k) -> dict:
    return kraus_doc(_kraus_ops(rng, n, k))


def pair_kraus(rng, d, k) -> dict:
    w = _unitary(rng, d)
    return kraus_doc([_block_diag(v, w @ v @ w.conj().T) for v in _kraus_ops(rng, d, k)])


def rates_doc(rng, class_sizes, transient) -> tuple[dict, list]:
    """Rate matrix with the given closed classes plus transient sites.

    Each class holds a directed cycle, so it is irreducible; each transient
    site has an edge into a class, so no set of transient sites is closed.
    Returns the document and the closed classes, sorted as ``oqrw`` lists
    them.
    """
    n = sum(class_sizes) + transient
    perm = [int(i) for i in rng.permutation(n)]
    q = np.zeros((n, n))
    rate = lambda: rng.uniform(0.2, 1.2)  # noqa: E731
    classes, at = [], 0
    for size in class_sizes:
        members = perm[at:at + size]
        at += size
        for a, b in zip(members, members[1:] + members[:1]):
            q[a, b] = rate()
        for a in members:
            for b in members:
                if a != b and q[a, b] == 0.0 and rng.random() < 0.3:
                    q[a, b] = rate()
        classes.append(sorted(members))
    recurrent, rest = perm[:at], perm[at:]
    for t in rest:
        q[t, recurrent[int(rng.integers(len(recurrent)))]] = rate()
        for u in rest:
            if u != t and rng.random() < 0.2:
                q[t, u] = rate()
    np.fill_diagonal(q, -q.sum(axis=1))
    doc = {"mode": "rates", "dim": n, "rates": [[float(v) for v in row] for row in q]}
    return doc, sorted(classes)


def qnd_doc(rng, n, channels) -> dict:
    amps = _gaussian(rng, channels, n)
    return {"mode": "qnd", "dim": n, "qnd": {
        "energies": [float(e) for e in rng.standard_normal(n)],
        "amplitudes": _cmat(amps), "split": 0}}


# -- expectations -------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """Decomposition shape: transient dimension, enclosure dimensions,
    family (multiplicity, inner dimension) pairs and recurrent method."""

    transient: int
    enclosures: tuple
    families: tuple
    method: str


def report_shape(dec: dict) -> Shape:
    return Shape(
        transient=dec["transient"]["dimension"],
        enclosures=tuple(sorted((e["dimension"] for e in dec["unique_enclosures"]), reverse=True)),
        families=tuple(sorted(
            ((len(f["members"]), f["members"][0]["dimension"]) for f in dec["families"]),
            reverse=True)),
        method=dec["recurrent_method"],
    )


def labels_for(shape: Shape) -> list:
    """Enclosure labels the identifiability report gives a decomposition."""
    labels = [f"alpha{i}" for i in range(len(shape.enclosures))]
    for b, (m, _) in enumerate(shape.families):
        labels += [f"beta{b}.{g}" for g in range(m)]
    return labels


def _expect(code_expected: int, body: Callable) -> Callable:
    """Gate check: the exit code, then the mismatches ``body(doc)`` finds."""
    def check(code, doc):
        problems = [] if code == code_expected else [f"exit {code} != {code_expected}"]
        if doc is None:
            return problems + ["no report"]
        return problems + body(doc)
    return check


def _analyze_problems(doc: dict, shape: Shape) -> list:
    problems = []
    got = report_shape(doc["decomposition"])
    if got != shape:
        problems.append(f"shape {got} != {shape}")
    if not doc["verification"]["ok"]:
        problems.append("verification FAILED")
    return problems


def expect_analyze(shape: Shape) -> Callable:
    return _expect(0, lambda doc: _analyze_problems(doc, shape))


def expect_batch(shapes: dict) -> Callable:
    def body(doc):
        if sorted(doc["reports"]) != sorted(shapes):
            return [f"report paths {sorted(doc['reports'])}"]
        return [f"{path}: {p}" for path, shape in shapes.items()
                for p in _analyze_problems(doc["reports"][path], shape)]
    return _expect(0, body)


def expect_oqrw(classes: list) -> Callable:
    def body(doc):
        problems = []
        if doc["oqrw"]["classes"] != classes:
            problems.append(f"classes {doc['oqrw']['classes']} != {classes}")
        if not doc["oqrw"]["passed"]:
            problems.append("oqrw clauses FAILED")
        return problems
    return _expect(0, body)


def expect_identifiability(shape: Shape, overall: bool) -> Callable:
    """Continuous or discrete check: the labels carry the decomposition shape.

    A unique decomposition of a transient-free model that fails
    identifiability is the converse counterexample the cross-check records.
    """
    def body(doc):
        problems = []
        ident, cross = doc["identifiability"], doc["uniqueness_cross_check"]
        if ident["labels"] != labels_for(shape):
            problems.append(f"labels {ident['labels']} != {labels_for(shape)}")
        if ident["overall"] != overall:
            problems.append(f"overall {ident['overall']} != {overall}")
        if cross["is_unique"] != (not shape.families):
            problems.append(f"is_unique {cross['is_unique']}")
        if cross["transient_free"] != (shape.transient == 0):
            problems.append(f"transient_free {cross['transient_free']}")
        return problems
    return _expect(0 if overall else 3, body)


def expect_qnd(pointers: int) -> Callable:
    def body(doc):
        problems = []
        ident, rec = doc["identifiability"], doc["qnd_uniqueness"]
        if len(ident["labels"]) != pointers:
            problems.append("pointer count")
        if not (ident["overall"] and rec["nondegenerate"]):
            problems.append("pointers not separated")
        if not (rec["consistent"] and rec["pointer_enclosures"]):
            problems.append("qnd uniqueness inconsistent")
        return problems
    return _expect(0, body)


_RESIDUAL_KEYS = ("residual", "max_residual", "diagonal_fixed_points_residual")


def report_residuals(doc) -> list:
    """Every residual a report carries: decomposition residuals, verification
    and oqrw clauses, commutation and fixed-point residuals."""
    out = []

    def walk(x):
        if isinstance(x, dict):
            for key, value in x.items():
                if key == "residuals":
                    out.extend(value.values())
                elif key == "commutation_residuals":
                    out.extend(value)
                elif key in _RESIDUAL_KEYS:
                    out.append(value)
                else:
                    walk(value)
        elif isinstance(x, list):
            for value in x:
                walk(value)

    walk(doc)
    return [float(v) for v in out]


def accuracy_digits(residuals: list) -> float:
    """-log10 of the worst residual, floored at double-precision epsilon."""
    return -math.log10(max(max(residuals, default=0.0), np.finfo(float).eps))


# -- ops and workloads --------------------------------------------------------

@dataclass
class Op:
    index: int
    kind: str
    argv: list
    out: Path
    check: Callable


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return str(path)


def _structured(argv, out, seed) -> list:
    return argv + ["--format", "structured", "-o", str(out), "--seed", str(seed)]


def _single(command, extra, build):
    """Op kind on one model file; ``build(rng)`` returns (document, check)."""
    def make(rng, base, seed):
        doc, check = build(rng)
        model = _write(base.with_suffix(".model.json"), doc)
        out = base.with_suffix(".out.json")
        return _structured([command, model, *extra], out, seed), out, check
    return make


def _analyze(doc_fn, shape):
    return _single("analyze", [], lambda r: (doc_fn(r), expect_analyze(shape)))


def _oqrw(rates_fn):
    """``rates_fn(rng)`` returns the rates document and its closed classes."""
    def build(rng):
        doc, classes = rates_fn(rng)
        return doc, expect_oqrw(classes)
    return _single("oqrw", [], build)


def _identifiability(doc_fn, mode, max_len, shape, overall):
    return _single("identifiability", ["--mode", mode, "--max-len", str(max_len)],
                   lambda r: (doc_fn(r), expect_identifiability(shape, overall)))


def _qnd(n, channels):
    return _single("identifiability", ["--mode", "qnd"],
                   lambda r: (qnd_doc(r, n, channels), expect_qnd(n)))


def _batch(parts):
    def make(rng, base, seed):
        shapes, paths = {}, []
        for j, (doc_fn, shape) in enumerate(parts):
            path = _write(base.with_suffix(f".model{j}.json"), doc_fn(rng))
            paths.append(path)
            shapes[path] = shape
        out = base.with_suffix(".out.json")
        return _structured(["analyze", *paths, "--batch"], out, seed), out, expect_batch(shapes)
    return make


def _example(name):
    """Built-in example file, as ``enclosure-atlas examples NAME`` emits it."""
    def doc_fn(rng):
        from enclosure_atlas.fixtures import fixture_document
        return fixture_document(name)
    return doc_fn


def S(transient, enclosures=(), families=(), method="spectral") -> Shape:  # noqa: N802
    return Shape(transient, tuple(enclosures), tuple(families), method)


N = 24
DENSE = {
    "dense-lindblad": _analyze(lambda r: dense_lindblad(r, N, 2), S(0, [N])),
    "leaky-lindblad": _analyze(lambda r: leaky_lindblad(r, N, 2), S(1, [N - 1])),
    "dense-kraus": _analyze(lambda r: dense_kraus(r, N, 2), S(0, [N], method="cesaro")),
}

STRUCTURED = {
    "block-lindblad": _analyze(lambda r: block_lindblad(r, (8, 8, 8), 2), S(0, [8, 8, 8])),
    "pair-lindblad": _analyze(lambda r: pair_lindblad(r, 12, 2), S(0, families=[(2, 12)])),
    "pair-kraus": _analyze(
        lambda r: pair_kraus(r, 12, 2), S(0, families=[(2, 12)], method="cesaro")),
    "oqrw-24": _oqrw(lambda r: rates_doc(r, (5, 5, 4), 10)),
    # The pair cannot be separated: the word search runs to full length.
    "pair-words": _identifiability(
        lambda r: pair_kraus(r, 12, 2), "discrete", 12,
        S(0, families=[(2, 12)], method="cesaro"), overall=False),
}

CLI_SMALL = {
    "faithful-2d": _analyze(_example("faithful-2d"), S(0, [2])),
    "unfaithful-2d": _analyze(_example("unfaithful-2d"), S(1, [1])),
    "two-enclosures-2d": _analyze(_example("two-enclosures-2d"), S(0, [1, 1])),
    "zero-generator-2d": _analyze(_example("zero-generator-2d"), S(0, families=[(2, 1)])),
    "rotation-channel": _analyze(_example("rotation-channel"), S(0, [1, 1], method="cesaro")),
    "two-state-chain": _oqrw(lambda r: (_example("two-state-chain")(r), [[0, 1]])),
    "rotation-words": _identifiability(
        _example("rotation-channel"), "discrete", 6, S(0, [1, 1], method="cesaro"),
        overall=False),
    "lindblad-6": _analyze(lambda r: dense_lindblad(r, 6, 2), S(0, [6])),
    "kraus-4": _analyze(lambda r: dense_kraus(r, 4, 2), S(0, [4], method="cesaro")),
    "rates-8": _oqrw(lambda r: rates_doc(r, (3, 2), 3)),
    "qnd-4": _qnd(4, 2),
    "blocks-continuous": _identifiability(
        lambda r: block_lindblad(r, (3, 3), 2), "continuous", 6, S(0, [3, 3]), overall=True),
    "batch-3": _batch([
        (lambda r: block_lindblad(r, (2, 2), 2), S(0, [2, 2])),
        (lambda r: leaky_lindblad(r, 5, 2), S(1, [4])),
        (lambda r: dense_kraus(r, 3, 2), S(0, [3], method="cesaro")),
    ]),
}

# Warm-up for the in-process workloads: n = 8 decompositions, untimed.
WARMUP = {"warmup-lindblad-8": _analyze(lambda r: dense_lindblad(r, 8, 2), S(0, [8]))}


@dataclass(frozen=True)
class Workload:
    """Op kinds run round-robin, in the harness process or one process per op.

    ``cycle_s`` is the wall time of one cycle on the 2-vCPU machine the
    benchmark was defined on; a run does ``round(seconds / cycle_s)`` cycles.
    """

    name: str
    kinds: dict
    in_process: bool
    cycle_s: float

    def op(self, seed: int, index: int, workdir: Path) -> Op:
        kind = list(self.kinds)[index % len(self.kinds)]
        rng = np.random.default_rng([seed, index])
        argv, out, check = self.kinds[kind](rng, workdir / f"op{index:05d}", seed)
        return Op(index=index, kind=kind, argv=argv, out=out, check=check)


WORKLOADS = {
    "dense-n24": Workload("dense-n24", DENSE, in_process=True, cycle_s=6.0),
    "structured-n24": Workload("structured-n24", STRUCTURED, in_process=True, cycle_s=10.7),
    "cli-small": Workload("cli-small", CLI_SMALL, in_process=False, cycle_s=7.8),
}
