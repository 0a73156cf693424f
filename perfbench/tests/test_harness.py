"""Self-test of the benchmark harness at tiny sizes (n <= 4).

    PYTHONPATH=src python -m pytest perfbench/tests -q

Checks that traced self times add up to each op's wall time, that the
tracer reaches names bound by ``from .linalg import ...``, and that a report
whose shape differs from what the generator built counts as a failed op.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

# An op's summed self time may differ from the wall time of its main() call
# by this fraction: the gap is the tracer's own bookkeeping outside spans.
SELF_SUM_TOLERANCE = 0.05

TINY = W.Workload("tiny", {
    "lindblad-3": W._analyze(lambda r: W.dense_lindblad(r, 3, 2), W.S(0, [3])),
    "leaky-3": W._analyze(lambda r: W.leaky_lindblad(r, 3, 1), W.S(1, [2])),
    "kraus-2": W._analyze(lambda r: W.dense_kraus(r, 2, 2), W.S(0, [2], method="cesaro")),
    "pair-2": W._analyze(lambda r: W.pair_lindblad(r, 2, 2), W.S(0, families=[(2, 2)])),
    "rates-4": W._oqrw(lambda r: W.rates_doc(r, (2,), 2)),
    "pair-words": W._identifiability(
        lambda r: W.pair_kraus(r, 2, 2), "discrete", 4,
        W.S(0, families=[(2, 2)], method="cesaro"), overall=False),
    "batch-2": W._batch([
        (lambda r: W.block_lindblad(r, (2, 2), 1), W.S(0, [2, 2])),
        (lambda r: W.dense_kraus(r, 3, 2), W.S(0, [3], method="cesaro")),
    ]),
}, in_process=True, cycle_s=1.0)


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_traced_self_times_sum_to_wall_time(tmp_path, tracer):
    records = run.run_cycles(TINY, 5, run.InProcessRunner(tracer), tmp_path, seconds=0)
    assert [r["problems"] for r in records] == [[]] * len(TINY.kinds)
    by_op = spans.layer_values_by_op(tracer.spans, tracer.counts)
    for r in records:
        if r["kind"] == "batch-2":  # worker threads overlap; self times may not add up
            continue
        total = by_op[r["index"]]["self_sum_s"]
        assert total == pytest.approx(r["wall_s"], rel=SELF_SUM_TOLERANCE), r["kind"]


def test_tracer_patches_names_imported_into_other_modules(tmp_path, tracer):
    import enclosure_atlas.decomposition as decomposition
    import enclosure_atlas.linalg as linalg

    assert decomposition.kernel_basis is linalg.kernel_basis
    assert decomposition.kernel_basis.__wrapped__ is not None
    records = run.run_cycles(TINY, 5, run.InProcessRunner(tracer), tmp_path, seconds=0)
    assert not any(r["problems"] for r in records)
    values = spans.layer_values_by_op(tracer.spans, tracer.counts)[0]
    # kernel_basis is only reached through decompose and verify_decomposition.
    assert values["linalg.kernel_basis.calls"] >= 2
    assert values["decomposition.recurrent_projector.self_s"] > 0
    assert values["semigroup.superop_bytes_computed"] % (16 * 3**4) == 0
    assert values["semigroup.superop_bytes_computed"] > 0


def test_uninstall_restores_originals():
    import enclosure_atlas.decomposition as decomposition

    original = decomposition.kernel_basis
    t = spans.Tracer()
    t.install()
    t.uninstall()
    assert decomposition.kernel_basis is original


def test_launcher_hands_back_spans_that_sum_to_wall_time(tmp_path):
    one = W.Workload("one", {"lindblad-3": TINY.kinds["lindblad-3"]}, in_process=False,
                     cycle_s=1.0)
    records = run.run_cycles(one, 5, run.SubprocessRunner(tmp_path, traced=True),
                             tmp_path, seconds=0)
    layers = records[0]["layers"]
    assert records[0]["problems"] == []
    assert layers["import_s"] > 0
    values = spans.layer_values_by_op(layers["spans"], {0: layers["counts"]})[0]
    assert values["self_sum_s"] == pytest.approx(layers["main_s"], rel=SELF_SUM_TOLERANCE)
    assert values["io.bytes_in"] > 0 and values["io.bytes_out"] > 0


def test_wrong_expected_shape_counts_as_failed_op(tmp_path):
    wrong = W.Workload("wrong", {
        "right": TINY.kinds["lindblad-3"],
        "wrong": W._analyze(lambda r: W.dense_lindblad(r, 3, 2), W.S(1, [2])),
    }, in_process=True, cycle_s=1.0)
    records = run.run_cycles(wrong, 5, run.InProcessRunner(), tmp_path, seconds=0)
    assert records[0]["problems"] == []
    assert records[1]["problems"] and "shape" in records[1]["problems"][0]


def test_self_time_subtracts_overlapping_children_once():
    # root [0, 10] with two overlapping thread children [1, 5] and [3, 8]; the
    # second has a nested child [4, 6].
    trace = [["cli.main", 0.0, 10.0, None, 0],
             ["decomposition.decompose", 1.0, 5.0, 0, 0],
             ["decomposition.decompose", 3.0, 8.0, 0, 0],
             ["linalg.kernel_basis", 4.0, 6.0, 2, 0]]
    assert spans.self_times(trace) == [3.0, 4.0, 3.0, 2.0]
