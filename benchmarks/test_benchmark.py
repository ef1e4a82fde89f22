"""Tests of the benchmark itself: statistics, span arithmetic, tracing,
generators and the known-answer checks.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


# ------------------------------------------------------------ percentiles


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in reversed(range(100))]
    assert run.percentile(values, 0.9) == pytest.approx(89.1)
    assert run.percentile(values, 0.5) == pytest.approx(49.5)


def test_p90_needs_a_hundred_samples():
    assert run.percentile([1.0] * 100, 0.9) == 1.0
    with pytest.raises(ValueError, match="fewer than 10 samples beyond"):
        run.percentile([1.0] * 99, 0.9)


def test_median_needs_twenty_samples():
    run.percentile([1.0] * 20, 0.5)
    with pytest.raises(ValueError):
        run.percentile([1.0] * 19, 0.5)


def test_best_times_keep_each_call_at_its_fastest_repeat():
    keys = ["a", "b", "a", "b", "a"]
    assert run.best_times(keys, [3.0, 5.0, 1.0, 7.0, 2.0]) == [1.0, 5.0, 1.0, 5.0, 1.0]


# ------------------------------------------------------------ self times


def test_self_time_subtracts_nested_and_sibling_children():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("root", 20.0, 21.0, None),  # same name again: times add up
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({"root": 5.0 + 1.0, "a": 2.0, "leaf": 1.0, "b": 2.0})
    assert sum(got.values()) == pytest.approx(11.0)  # the two roots' wall time


def test_self_time_counts_overlapping_children_once():
    tree = [Span("p", 0.0, 10.0, None), Span("c", 1.0, 4.0, 0), Span("c", 3.0, 6.0, 0),
            Span("late", 9.0, 12.0, 0)]
    got = spans.self_times(tree)
    assert got["p"] == pytest.approx(10.0 - 5.0 - 1.0)  # late is clipped to the parent


# --------------------------------------------------------------- tracing


def _chain_pair(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(workloads.dumps(workloads.chain(3)))
    b.write_text(workloads.dumps(workloads.chain(3, "q", "u")))
    return ["bisim", str(a), str(b), "--cap", "2"]


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    from opennet import cli, equivalence, rewriting, semantics
    from opennet.multiset import Multiset

    originals = (cli.check_bisim, cli.build_lts, Multiset.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.check_bisim is equivalence.check_bisim is rewriting.check_bisim
        assert cli.check_bisim.__wrapped__ is originals[0]
        assert cli.build_lts is equivalence.build_lts is semantics.build_lts
        assert cli.main(_chain_pair(tmp_path)) == 0
    finally:
        tracer.uninstall()
    assert (cli.check_bisim, cli.build_lts, Multiset.__init__) == originals
    assert equivalence.check_bisim is originals[0]

    layers = tracer.layer_metrics()
    assert layers["semantics.build_lts.calls"] == 2
    assert layers["equivalence.check_bisim.calls"] == 1
    assert layers["documents.parse.calls"] == 2
    assert layers["semantics.lts_states"] == 2 * (3 ** 3 + 1)
    assert layers["equivalence.witness_pairs"] == 3 ** 3 + 1
    assert layers["multiset.constructed"] > 0
    top = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in top] == ["cli.main"]
    self_ms = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    assert self_ms == pytest.approx(1000.0 * (top[0].end - top[0].start))


# ------------------------------------------------------------ generators


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_documents(name):
    first, again = workloads.build(name, 5), workloads.build(name, 5)
    assert first.docs == again.docs
    assert [op.argv for op in first.ops] == [op.argv for op in again.ops]
    assert workloads.build(name, 6).docs != first.docs


def test_independent_state_count_of_a_chain():
    assert workloads.reachable_states(workloads.chain(3), cap=3) == 4 ** 3 + 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_digests_cover_default_and_held_out_seeds(name):
    recorded = json.loads(run.DIGESTS.read_text())["digests"]
    for seed in (workloads.DEFAULT_SEED,) + workloads.HELD_OUT_SEEDS:
        w = workloads.build(name, seed)
        assert all(w.op_key(op) in recorded for op in w.ops)


# ---------------------------------------------------------- known answers


def _run_once(workload, tmp_path, checker):
    run.write_docs(workload, tmp_path)
    from opennet import cli

    for op in workload.ops:
        _, code, stdout = run.call(cli, run.resolve(op.argv, tmp_path))
        checker(op, workload.op_key(op), code, stdout)


@pytest.mark.parametrize("seed", (workloads.DEFAULT_SEED,) + workloads.HELD_OUT_SEEDS)
def test_reconfigure_passes_every_check(tmp_path, seed):
    checker = run.Checker(json.loads(run.DIGESTS.read_text())["digests"])
    _run_once(workloads.build("reconfigure", seed), tmp_path, checker)
    assert checker.failures == []


def test_checker_flags_wrong_exit_changed_output_and_wrong_answer():
    op = workloads.Op("x", ("validate", "@n.json"), 0,
                      check=lambda out: None if out["count"] == 2 else "bad count")
    checker = run.Checker({"k": run.digest('{"count": 2}')})
    assert checker(op, "k", 0, '{"count": 2}')
    assert not checker(op, "k", 1, '{"count": 2}')
    assert not checker(op, "k", 0, '{"count": 3}')  # differs from the earlier call
    fresh = run.Checker({})
    assert not fresh(op, "k", 0, '{"count": 3}')  # fails the known answer
    assert len(checker.failures) == 2 and len(fresh.failures) == 1


def test_pass_spreads_repeats():
    w = workloads.Workload(ops=[workloads.Op("a", (), 0, repeat=2), workloads.Op("b", (), 0)])
    assert [op.family for op in run.pass_ops(w)] == ["a", "b", "a"]


# ------------------------------------------------------------- the spec


def test_untraced_result_has_exactly_the_declared_metrics():
    class FakeLoop:
        times, keys, ok, tracer = [0.002, 0.001, 0.004] * 40, ["a", "a", "b"] * 40, 120, None

    result = run.summarize(FakeLoop(), setup_s=0.1)
    declared = {m["name"]: m["unit"] for m in run.SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["op_p50_ms"]["value"] == pytest.approx(1.0)  # best repeat of "a"
    assert metrics["op_p90_ms"]["value"] == pytest.approx(4.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 0.006)


def test_every_declared_self_time_names_a_traced_span():
    traced = {name for _, _, name, _ in spans.TRACED}
    for metric in run.SPEC["per_layer"]:
        if metric["name"].endswith(".self_ms"):
            assert metric["name"][:-len(".self_ms")] in traced


def test_spans_are_written_as_json(tmp_path):
    path = tmp_path / "spans" / "w-seed0.json"
    run.write_spans([[Span("cli.main", 1.0, 2.0, None), Span("nets.validate", 1.1, 1.2, 0)]],
                    path)
    (batch,) = json.loads(path.read_text())["passes"]
    assert batch[1] == {"name": "nets.validate", "start": 1.1, "end": 1.2, "parent": 0}
