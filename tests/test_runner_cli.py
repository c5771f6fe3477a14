"""End-to-end runs over the corpus, report rendering, and the CLI."""

import gc
import json
import os
import re

import pytest

from dicekit import runner
from dicekit.axioms import isupport_atom
from dicekit.cli import main
from dicekit.engine import EvalContext, Trace, defeasible_closure
from dicekit.formulas import Atom, Att, Const, Not, RelAtom, parse_formula
from dicekit.runner import (
    THAT_WAY,
    ExpectationResult,
    build,
    explain,
    report_dict,
    run_scenario,
    write_report,
)
from dicekit.scenario import Expectation, load, loads
from dicekit.sdrs import UpdateSite

from conftest import CORPUS, scenario_path


def _rel(name, x, y):
    return RelAtom(name, (x, y))


def _attached(report):
    return {str(a.rel) for a in report.sdrs.attachments}


# ------------------------------------------------------------------- corpus


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_meets_expectations(corpus_reports, name):
    report = corpus_reports[name]
    assert report.ok, "\n".join(e.line() for e in report.expectations)
    assert report.exit_code() == 0


def test_interpreting_the_corpus_makes_no_cyclic_garbage():
    # everything a run makes is freed by reference counting, so the cycle
    # collector's pauses do not grow with the number of runs
    scenarios = [load(scenario_path(name)) for name in CORPUS]
    for scn in scenarios:
        run_scenario(scn)  # a first run may import and fill module-level caches
    gc.disable()
    try:
        gc.collect()
        for scn in scenarios:
            assert run_scenario(scn).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_textual_order_result_justified_by_hypothesis(corpus_reports):
    report = corpus_reports["bush_context1"]
    assert report.verdict == "coherent"
    assert _attached(report) == {"(rel Result alpha beta)"}
    assert report.kb.entails((), Atom("bad", (Const("hb1711"),)))
    assert not report.kb.entails((), _rel("Narration", "alpha", "beta"))
    (attachment,) = report.sdrs.attachments
    assert Atom("bad", (Const("hb1711"),)) in attachment.justification


def test_reversed_order_attaches_evidence_against_text(corpus_reports):
    report = corpus_reports["bush_context2"]
    assert report.verdict == "coherent"
    assert _attached(report) == {"(rel Evidence beta alpha)"}
    assert report.kb.entails((), isupport_atom("beta", "alpha"))
    assert not report.kb.entails((), isupport_atom("alpha", "beta"))


def test_causal_variant_justifies_result_by_cause(corpus_reports):
    report = corpus_reports["bush_context3"]
    (attachment,) = report.sdrs.attachments
    assert attachment.rel == _rel("Result", "alpha", "beta")
    assert Atom("cause", (Const("alpha"), Const("beta"))) in attachment.justification
    lines = report.trace.lines()
    assert any("DMP Charity" in line for line in lines)
    assert any("Abduction PracticalSyllogism" in line for line in lines)
    veto = parse_formula("(veto bush hb1711)")
    assert report.kb.entails((), Att("W", "A", Att("B", "I", veto)))
    assert report.kb.entails((), Att("B", "A", Not(Att("B", "I", veto))))


def test_hardware_store_composes_plans(corpus_reports):
    report = corpus_reports["hardware_store"]
    assert _attached(report) == {"(rel Result alpha beta)", "(rel Result beta gamma)"}
    resolved = [l for l in report.trace.lines() if "plan anaphor resolved" in l]
    assert len(resolved) == 1
    assert "that-way => (plan go-home get-nails)" in resolved[0]
    final = parse_formula("(I A (R (plan go-home get-nails finish-bookshelves)))")
    assert report.kb.entails((), final)


def test_weak_willed_pops_as_incoherent(corpus_reports):
    report = corpus_reports["weak_willed"]
    assert report.verdict == "incoherent"
    assert any("contraposing Cooperation" in d for d in report.diagnostics)
    assert any("Isupport(alpha,beta)" in d for d in report.diagnostics)
    assert report.kb.entails((), Not(isupport_atom("alpha", "beta")))
    assert not report.sdrs.attachments
    assert report.exit_code() == 0  # incoherence was expected


def test_plan_progress_runs_without_utterances(corpus_reports):
    report = corpus_reports["plan_progress"]
    assert report.verdict == "coherent"
    assert report.sdrs.order == ()
    assert report.kb.entails((), parse_formula("(I A (R (plan paint-walls)))"))
    done = parse_formula("(I A (R (plan wash-walls sand-walls)))")
    assert report.kb.entails((), Not(done))


CONTEXT_DEFAULTS = os.path.join(os.path.dirname(__file__), "data", "context_defaults.scn")


def test_a_context_default_runs_in_the_closures_at_its_path_alone():
    with open(CONTEXT_DEFAULTS, encoding="utf-8") as fh:
        s = loads(fh.read())
    kb, _ = build(s)
    fired = {}
    for path in ((), ("A",)):
        trace = Trace()
        defeasible_closure(kb, s.rules, path, trace=trace)
        fired[path] = {step.rule for step in trace.steps()}
    # both stores hold the bill facts that each default's antecedent needs
    assert fired[()] == {"BadBillCause"}
    assert fired[("A",)] == {"context-default-1-0"}


def test_runner_installs_relation_exclusion_per_site(corpus_reports):
    report = corpus_reports["bush_context1"]
    excl = parse_formula("(-> (rel Narration alpha beta) (not (rel Result alpha beta)))")
    assert excl in report.kb.store_at(()).hard_rules
    assert excl in report.kb.store_at(("A",)).hard_rules


#: the relation phase's candidates for the pair (a, b), in order
_CANDIDATES = [(r, pair) for r in ("Narration", "Result", "Evidence") for pair in (("a", "b"), ("b", "a"))]
_SAT_CONTEXT = "fact (rel Evidence b a) fact q0 hard (-> q0 (rel Result a b)) hard (-> z (rel Narration b a))"


@pytest.mark.parametrize(
    "context, expected",
    [
        # a relation stated, one through a hard rule, one by the Narration
        # default over the site atom, and one that is an atom but not entailed
        (_SAT_CONTEXT, ["(rel Narration a b)", "(rel Result a b)", "(rel Evidence b a)"]),
        # an unsatisfiable root entails every relation, though none is an atom
        ("fact p0 fact (not p0)", [f"(rel {r} {x} {y})" for r, (x, y) in _CANDIDATES]),
    ],
    ids=["satisfiable", "unsatisfiable"],
)
def test_derived_relations_are_the_entailed_candidates_in_order(context, expected):
    # the phase looks each candidate up among the root's atoms; building all
    # six and asking the root for each must give the same list
    scn = loads(f"agents A I context [] {{ {context} }} utterance a assertion p utterance b assertion q")
    kb, axioms = build(scn)
    run = runner._Run(scn, axioms, kb, 1000, axioms.phase("attitude"), axioms.phase("relation"))
    site = UpdateSite("tau1", "a", "b")
    run.kb = run.kb.assert_fact((), site.token)
    derived, applied = runner._derive_relations(run, site, [], EvalContext(rules=run.relation_rules))
    asked = [rel for rel in (RelAtom(r, pair) for r, pair in _CANDIDATES) if run.kb.entails((), rel)]
    assert derived == asked
    assert [str(rel) for rel in derived] == expected
    assert applied == {}
    root = run.kb.store_at(())
    assert root.compiled.sat == (context == _SAT_CONTEXT)
    if root.compiled.sat:
        assert all(rel is root.atoms[rel.key] for rel in derived)


@pytest.mark.parametrize(
    "fact, diagnostic",
    [
        ("(cause that-way b)", "plan anaphor at b: no intended plan is accessible from the right frontier"),
        ("(not (rel Narration a b))", "no discourse relation derivable for b at site tau1"),
    ],
    ids=["dangling-plan-anaphor", "no-relation"],
)
def test_update_that_cannot_attach_stops_the_run(fact, diagnostic):
    text = f"agents A I context [] {{ fact {fact} }} utterance a assertion p utterance b assertion q"
    report = run_scenario(loads(text + " expect incoherent"))
    assert report.verdict == "incoherent"
    assert report.diagnostics == (diagnostic,)
    assert not report.sdrs.attachments
    assert report.exit_code() == 0


# --------------------------------------------------------------- exit codes


def test_failed_verdict_expectation_exits_1():
    report = run_scenario(loads("agents A I utterance a assertion p expect incoherent"))
    assert not report.ok
    assert report.exit_code() == 1
    (res,) = report.expectations
    assert not res.ok
    assert "verdict was coherent" in res.detail


def test_failed_formula_expectation_exits_2():
    report = run_scenario(loads("agents A I utterance a assertion p expect (B I q)"))
    assert report.exit_code() == 2
    assert "not entailed at the root" in report.expectations[0].detail


def test_failed_verdict_outranks_failed_formula():
    report = run_scenario(
        loads("agents A I utterance a assertion p expect incoherent expect (B I q)")
    )
    assert report.exit_code() == 1


def test_unexpected_entailment_is_reported():
    report = run_scenario(loads("agents A I utterance a assertion p expect not (B I p)"))
    assert report.exit_code() == 2
    assert "unexpectedly entailed" in report.expectations[0].detail


# ----------------------------------------------------------------- rendering


def test_expectation_result_lines():
    e = Expectation("verdict", verdict="coherent")
    assert ExpectationResult(e, True).line() == "pass: expect coherent"
    failed = ExpectationResult(e, False, "verdict was incoherent")
    assert failed.line() == "FAIL: expect coherent (verdict was incoherent)"


def test_explain_renders_sections(corpus_reports):
    text = explain(corpus_reports["bush_context1"])
    header = text.splitlines()[0]
    assert re.fullmatch(r"scenario bush_context1: coherent \(\d+\.\d{3}s\)", header)
    assert "relations:" in text
    assert "(rel Result alpha beta)" in text
    assert "trace:" in text
    assert "pass: expect coherent" in text


def test_report_dict_shape(corpus_reports):
    payload = report_dict(corpus_reports["bush_context2"])
    assert set(payload) == {
        "scenario",
        "verdict",
        "elapsed",
        "relations",
        "diagnostics",
        "trace",
        "expectations",
        "exit_code",
    }
    assert payload["scenario"] == "bush_context2"
    assert payload["relations"] == ["(rel Evidence beta alpha)"]
    assert payload["exit_code"] == 0
    assert all(e["ok"] for e in payload["expectations"])


def test_write_report_json_and_text(corpus_reports, tmp_path):
    report = corpus_reports["bush_context1"]
    jpath = tmp_path / "out.json"
    write_report(report, str(jpath))
    payload = json.loads(jpath.read_text())
    assert payload["verdict"] == "coherent"
    tpath = tmp_path / "out.txt"
    write_report(report, str(tpath))
    assert tpath.read_text().startswith("scenario bush_context1: coherent")


# ---------------------------------------------------------------------- CLI


def test_cli_runs_scenario(capsys):
    code = main(["run", scenario_path("bush_context1")])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario bush_context1: coherent" in out
    assert "relation (rel Result alpha beta)" in out
    assert "pass: expect coherent" in out


def test_cli_trace_flag_prints_steps(capsys):
    code = main(["run", scenario_path("hardware_store"), "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "plan anaphor resolved" in out


def test_cli_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", scenario_path("plan_progress"), "--report", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["exit_code"] == 0


def test_cli_unwritable_report_path_exits_3(tmp_path, capsys):
    # exit 1 is kept for a failed verdict expectation
    for out in (tmp_path / "no-such-dir" / "report.json", tmp_path):
        code = main(["run", scenario_path("plan_progress"), "--report", str(out)])
        err = capsys.readouterr().err
        assert code == 3, out
        assert err.startswith("error:") and str(out) in err, out
        assert "Traceback" not in err


def test_cli_missing_file_exits_3(capsys):
    code = main(["run", "no-such-scenario.scn"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")


def test_cli_malformed_scenario_exits_3(tmp_path, capsys):
    # `constants` is no directive: the engine has no constant pool
    for text in ("frobnicate p\n", "agents A I constants c1 c2\n"):
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        code = main(["run", str(bad)])
        err = capsys.readouterr().err
        assert code == 3, text
        assert "unknown directive" in err, text


def test_cli_rule_that_is_not_range_restricted_exits_3(tmp_path, capsys):
    scn = tmp_path / "wide.scn"
    scn.write_text(
        "agents A I\n"
        "context [] { fact seed hard (-> seed (r c0 c1 c2)) }\n"
        "rule Wide default (> (or (r ?x ?y ?z) (s ?x ?y ?z)) (q ?x ?y ?z))\n"
        "utterance a assertion p\n"
    )
    code = main(["run", str(scn)])
    err = capsys.readouterr().err
    assert code == 3
    assert "(or (r ?x ?y ?z) (s ?x ?y ?z))" in err


def test_cli_generic_whose_variable_nothing_binds_exits_3(tmp_path, capsys):
    # the support driver binds the generic's witness from the store's atoms,
    # and here x occurs only under an or
    text = open(scenario_path("bush_context1")).read()
    generic = "(forall x (> (and (bill x) (bad x)) (veto bush x)))"
    assert generic in text
    scn = tmp_path / "or_generic.scn"
    scn.write_text(text.replace(generic, "(forall x (> (or (bill x) (bad x)) (or (veto bush x) (sign x))))"))
    code = main(["run", str(scn)])
    err = capsys.readouterr().err
    assert code == 3
    assert "nothing binds its witness" in err


def test_cli_keeps_rules_that_share_a_name_apart(tmp_path, capsys):
    scn = tmp_path / "same_name.scn"
    scn.write_text(
        "agents A I\n"
        "context [] { fact p fact (not q) }\n"
        "rule R default (> p q)\n"
        "rule R default (> p s)\n"
        "expect coherent\n"
        "expect s\n"
    )
    assert main(["run", str(scn)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("body", ["", "default (> p q)"], ids=["empty", "defaults-only"])
def test_cli_context_deeper_than_depth_exits_3(tmp_path, capsys, body):
    # rejected as declared, whatever the context holds
    scn = tmp_path / "deep.scn"
    scn.write_text(f"agents A I context [A,I,A,I] {{ {body} }}\n")
    assert main(["run", str(scn)]) == 3
    assert "exceeds nesting bound 3" in capsys.readouterr().err
    assert main(["run", str(scn), "--depth", "4"]) == 0


def test_cli_failed_expectation_exit_code(tmp_path, capsys):
    scn = tmp_path / "wrong.scn"
    scn.write_text("agents A I utterance a assertion p expect (B I q)\n")
    code = main(["run", str(scn)])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL: expect (B I q)" in out


def test_cli_rejects_unknown_backend(capsys):
    # there is one SAT path and no --backend option: a legacy invocation
    # is a usage error, not a failed expectation
    assert main(["run", scenario_path("plan_progress"), "--backend", "pure"]) == 3
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--backend" in err


def test_cli_usage_errors_exit_3(capsys):
    path = scenario_path("plan_progress")
    # an unknown flag, a bad option value, a missing argument
    assert main(["run", path, "--trace-everything"]) == 3
    assert main(["run", path, "--max-steps", "abc"]) == 3
    assert main(["run"]) == 3
    assert main([]) == 3
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    assert "--max-steps" in capsys.readouterr().out


def test_that_way_constant():
    assert THAT_WAY == "that-way"
