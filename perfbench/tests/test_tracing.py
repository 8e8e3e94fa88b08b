"""The outside-in tracer: spans, counters, self time and restored bindings."""
import mlfg
import mlfg.cli
import mlfg.solvers
import pytest

from tracing import BINDINGS, Tracer, layer_metrics, per_layer_schema, span_totals


def test_bindings_exist_and_are_restored():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in BINDINGS}
    with Tracer():
        assert mlfg.solvers.lu_solve is not originals[("mlfg.solvers", "lu_solve")]
    for (m, a), fn in originals.items():
        assert getattr(__import__(m, fromlist=[a]), a) is fn


def test_bindings_are_restored_after_an_error():
    original = mlfg.cli.certify
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert mlfg.cli.certify is original


def test_traced_solve_records_layers(tmp_path):
    report = tmp_path / "r.json"
    with Tracer() as tracer:
        code = mlfg.cli.main(["solve", "--dataset", "1", "--out", str(report)])
    assert code == 0
    doc = {
        "names": tracer.names, "parents": tracer.parents,
        "starts": tracer.starts, "ends": tracer.ends, "counters": dict(tracer.counters),
    }
    totals = span_totals(doc)
    assert totals["cli.main"]["calls"] == 1
    assert totals["homotopy.solve"]["calls"] == 1
    assert totals["verify.oracle_lu"]["calls"] == 2 * 2**9
    # lu_solve seen from verify never nests under the inner solvers
    for sid, name in enumerate(doc["names"]):
        if name == "verify.oracle_lu":
            assert doc["names"][doc["parents"][sid]] == "verify.oracle"
    main = totals["cli.main"]
    assert 0.0 < main["self_s"] < main["s"]
    metrics = layer_metrics(doc, games=1, overhead=0.0)
    assert set(metrics) == {e["name"] for e in per_layer_schema()}
    assert metrics["homotopy.stages"]["value"] == 22
    assert metrics["solvers.newton_iters"]["value"] > 0
    assert 0.0 < metrics["solvers.step_accept_ratio"]["value"] <= 1.0


def test_self_time_subtracts_direct_children_only():
    doc = {
        "names": ["a", "b", "c"],
        "parents": [-1, 0, 1],
        "starts": [0.0, 1.0, 2.0],
        "ends": [10.0, 5.0, 3.0],
        "counters": {},
    }
    totals = span_totals(doc)
    assert totals["a"]["self_s"] == pytest.approx(6.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["c"]["self_s"] == pytest.approx(1.0)
