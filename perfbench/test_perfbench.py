"""Fast checks of the benchmark itself: seeded inputs, the tracer's
arithmetic and bindings, and the metric names BENCHMARK.json promises."""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench import run, workloads
from perfbench.tracer import Tracer

ROOT = run.ROOT
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORD = re.compile(r"\b[bdfgklmnprstvz][aeiou][bdfgklmnprstvz][aeiou][bdfgklmnprstvz]\b")


def canonical(text: str) -> str:
    """Replace each seeded name by its order of first appearance."""
    seen: dict[str, str] = {}
    return WORD.sub(lambda m: seen.setdefault(m.group(0), f"<{len(seen)}>"), text)


def rulesys_text(seed: int) -> str:
    import dicekit

    lines = []
    for facts, hard, rules, queries in workloads.rulesys_inputs(seed, dicekit):
        lines.append(" ".join(map(str, facts + hard)))
        lines += [f"{r.name}: {' '.join(map(str, r.antecedent))} > {r.consequent}" for r in rules]
        lines += [f"{phi} ~> {psi}" for phi, psi in queries]
    return "\n".join(lines)


def test_generators_are_deterministic_per_seed():
    assert workloads.chain_texts(7, 5) == workloads.chain_texts(7, 5)
    assert workloads.rulesys_shapes() == workloads.rulesys_shapes()
    assert rulesys_text(7) == rulesys_text(7)
    first = workloads.setup("corpus", 7, ROOT).inputs
    assert first == workloads.setup("corpus", 7, ROOT).inputs


def test_seeds_change_names_not_shape():
    a, b = workloads.chain_texts(1, 5), workloads.chain_texts(2, 5)
    assert a != b
    assert [canonical(t) for t in a] == [canonical(t) for t in b]
    # every operation of a run gets fresh names
    assert len({canonical(t) for t in a}) == 1 and len(set(a)) == 5

    ra, rb = rulesys_text(1), rulesys_text(2)
    assert ra != rb and canonical(ra) == canonical(rb)

    orders_a = workloads.setup("corpus", 1, ROOT).inputs
    orders_b = workloads.setup("corpus", 2, ROOT).inputs
    assert orders_a != orders_b
    assert all(sorted(o) == list(range(6)) for o in orders_a + orders_b)


def test_chain_expectations_follow_the_construction():
    text = workloads.chain_text(["ua", "ub", "uc"], ["sa", "sb", "sc"])
    assert "fact (cause ua ub)" in text and "fact (cause ub uc)" in text
    assert "expect (rel Result ub uc)" in text
    assert "expect not (rel Narration ua ub)" in text
    assert "expect (I A (R (plan sa sb)))" in text


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_adds_up_on_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 3

    def rec(n):
        clock.now += 1
        if n:
            rec_w(n - 1)

    def outer():
        clock.now += 1
        leaf_w()
        rec_w(2)
        clock.now += 2

    leaf_w = tracer.wrap("toy.leaf", leaf)
    rec_w = tracer.wrap("toy.rec", rec)
    outer_w = tracer.wrap("toy.outer", outer)
    outer_w()

    s = tracer.stats
    assert (s["toy.outer"].total_s, s["toy.outer"].self_s) == (9, 3)
    assert (s["toy.leaf"].total_s, s["toy.leaf"].self_s) == (3, 3)
    # recursion is counted but runs inside the outermost span
    assert (s["toy.rec"].calls, s["toy.rec"].spans) == (3, 1)
    assert (s["toy.rec"].total_s, s["toy.rec"].self_s) == (3, 3)
    total_self = sum(x.self_s for x in s.values())
    assert total_self == s["toy.outer"].total_s
    # spans: outer encloses leaf and rec
    by_id = dict(zip(tracer.span_id, tracer.span_parent))
    assert by_id == {0: -1, 1: 0, 2: 0}


def test_tracer_charges_a_failing_call_to_the_callee():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2
        raise KeyError("x")

    def outer():
        clock.now += 1
        try:
            boom_w()
        except KeyError:
            pass

    boom_w = tracer.wrap("toy.boom", boom)
    tracer.wrap("toy.outer", outer)()
    assert tracer.stats["toy.boom"].errors == {"KeyError": 1}
    assert tracer.stats["toy.outer"].self_s == 1


def test_tracer_rebinds_every_namespace_and_restores():
    import dicekit
    from dicekit import engine, formulas, kb, satcore

    original = formulas.print_formula
    entails = kb.KnowledgeBase.entails
    tracer = Tracer()
    run.bind_layers(tracer, dicekit, run.LayerCounters())
    with tracer:
        for module in (dicekit, formulas, satcore, engine, kb):
            assert module.print_formula is not original
            assert module.print_formula.__wrapped__ is original
        assert kb.KnowledgeBase.entails is not entails
        k = kb.KnowledgeBase().assert_fact((), formulas.parse_formula("p"))
        assert k.entails((), formulas.parse_formula("p"))
    for module in (dicekit, formulas, satcore, engine, kb):
        assert module.print_formula is original
    assert kb.KnowledgeBase.entails is entails
    assert tracer.stats["kb.entails"].calls == 1
    assert tracer.stats["satcore.satisfiable"].calls == 1
    assert "formulas.children" not in tracer.stats  # a leaf helper stays unwrapped


def test_tail_leaves_ten_samples_above():
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 2)


def test_window_speed_scales_to_the_reference():
    ref = 0.01
    assert run.window_speed(ref, ref, ref) == 1.0
    # a host twice as slow across the window halves its timings
    assert run.window_speed(ref, 2 * ref, 2 * ref) == 0.5
    # the two bracketing calibrations are averaged
    assert run.window_speed(ref, ref, 3 * ref) == 0.5


def test_calibrator_times_each_workloads_kernel():
    for name in workloads.WORKLOADS:
        kernel = run.CALIBRATION[name]
        assert kernel.__name__ in run.REF_CAL_S
        with run.Calibrator(kernel) as calibrator:
            assert calibrator() > 0
        assert calibrator.proc.returncode == 0


def test_metric_names_and_benchmark_json_agree():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("BENCHMARK.json not present")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
