"""The command line, run in-process: exit codes and byte-exact reports.

The expected reports under data/ were recorded once and are kept fixed, so
any change to a verdict, witness, play, match listing, condition report or
rewritten net shows up here.  Malformed input must end in exit code 3 with
a one-line diagnosis, never in a traceback or a verdict's exit code.
"""

import json
from pathlib import Path

import pytest

from opennet import documents
from opennet.cli import build_parser, main
from opennet.multiset import Multiset

from netlib import absorber, loop_span, two_sided_span

DATA = Path(__file__).parent / "data"

CASES = [
    ("bisim_chain3_vs_x.out", 1,
     ["chain3.json", "chain3_x.json", "--eta", "chain3.eta.json", "--cap", "3"]),
    ("bisim_agency_step.out", 1,
     ["agency_a.json", "agency_b.json", "--mode", "step", "--cap", "2"]),
    ("bisim_chain3_vs_copy.out", 0,
     ["chain3.json", "chain3_copy.json", "--cap", "3"]),
    ("bisim_chain3_vs_copy_weak.out", 0,
     ["chain3.json", "chain3_copy.json", "--kind", "weak", "--tau", "a1", "--cap", "3"]),
    ("bisim_chain3_vs_x_weak.out", 1,
     ["chain3.json", "chain3_x.json", "--eta", "chain3.eta.json",
      "--kind", "weak", "--tau", "a1", "--cap", "3"]),
    # a play of 3 moves, within the radii checked near the initial markings
    ("bisim_chain5_vs_x.out", 1, ["chain5.json", "chain5_x.json", "--cap", "4"]),
    # a play of 8 moves, beyond them: answered by the full refinement
    ("bisim_chain8_vs_drain.out", 1, ["chain8.json", "chain8_drain.json", "--cap", "1"]),
]


@pytest.mark.parametrize("expected, exit_code, args", CASES, ids=[c[0] for c in CASES])
def test_bisim_report_and_exit_code(capsys, expected, exit_code, args):
    argv = ["bisim"] + [str(DATA / a) if a.endswith(".json") else a for a in args]
    assert main(argv) == exit_code
    out = capsys.readouterr().out
    assert out == (DATA / expected).read_text(encoding="utf-8")


REWRITING_CASES = [
    ("match_service.out", 0, ["match", "service_rule.json", "service_host.json"]),
    ("apply_service.out", 0, ["apply", "service_rule.json", "service_host.json"]),
    ("check_rule_service.out", 1, ["check-rule", "service_rule.json"]),
    ("match_duplicating.out", 0, ["match", "duplicating_rule.json", "service_host.json"]),
    ("apply_duplicating.out", 0, ["apply", "duplicating_rule.json", "service_host.json"]),
    ("check_rule_duplicating.out", 0, ["check-rule", "duplicating_rule.json"]),
    ("match_span98.out", 0, ["match", "span98_rule.json", "span98_host.json"]),
    ("match_span105.out", 0, ["match", "span105_rule.json", "span105_host.json"]),
    ("apply_span105.out", 0,
     ["apply", "span105_rule.json", "span105_host.json", "--match", "1"]),
]


def _argv(args):
    return [str(DATA / a) if a.endswith(".json") else a for a in args]


@pytest.mark.parametrize("expected, exit_code, args", REWRITING_CASES,
                         ids=[c[0] for c in REWRITING_CASES])
def test_rewriting_report_and_exit_code(capsys, expected, exit_code, args):
    assert main(_argv(args)) == exit_code
    out = capsys.readouterr().out
    assert out == (DATA / expected).read_text(encoding="utf-8")


LTS_CASES = [
    ("lts_chain3_firing.out", ["chain3.json", "--cap", "2"]),
    ("lts_chain3_step.out", ["chain3.json", "--mode", "step", "--cap", "1", "--max-step", "2"]),
    ("lts_agency_step.out", ["agency_a.json", "--mode", "step", "--cap", "2"]),
    ("lts_chain3_tau.out", ["chain3.json", "--cap", "2", "--tau", "a1"]),
    ("lts_chain3_step_tau.out",
     ["chain3.json", "--mode", "step", "--cap", "1", "--max-step", "2", "--tau", "a1"]),
]


@pytest.mark.parametrize("expected, args", LTS_CASES, ids=[c[0] for c in LTS_CASES])
def test_lts_report(capsys, expected, args):
    assert main(_argv(["lts"] + args)) == 0
    assert capsys.readouterr().out == (DATA / expected).read_text(encoding="utf-8")


def test_lts_dot_file_and_report(tmp_path, capsys):
    dot = tmp_path / "chain3.dot"
    assert main(_argv(["lts", "chain3.json", "--cap", "1", "--dot", str(dot)])) == 0
    assert capsys.readouterr().out == (DATA / "lts_chain3_dot.out").read_text(encoding="utf-8")
    assert dot.read_text(encoding="utf-8") == (DATA / "lts_chain3.dot").read_text(encoding="utf-8")


def test_lts_dot_quotes_a_net_name_that_is_no_identifier(tmp_path, capsys):
    dot = tmp_path / "chain3_x.dot"
    assert main(_argv(["lts", "chain3_x.json", "--cap", "1", "--dot", str(dot)])) == 0
    capsys.readouterr()
    assert dot.read_text(encoding="utf-8").startswith('digraph "chain3+x" {\n')


# documents built from the net library, written to files named by these keys
GENERATED = {
    "{loop_span}": lambda: documents.emit_span(*loop_span()),
    "{absorber}": lambda: documents.emit_net("absorber", absorber()),
    "{absorber_relation}": lambda: documents.emit_relation(
        [(Multiset(), Multiset()), (Multiset({"s": 1}), Multiset({"s": 1}))]),
    "{empty_relation}": lambda: documents.emit_relation([(Multiset(), Multiset())]),
}

GENERATED_CASES = [
    ("compose_loop_span.out", 0, ["compose", "{loop_span}"]),
    ("compose_two_sided_span.out", 0, ["compose", "two_sided_span.json"]),
    ("validate_chain3.out", 0, ["validate", "chain3.json"]),
    ("upto_absorber_accepted.out", 0,
     ["upto", "{absorber}", "{absorber}", "--relation", "{absorber_relation}", "--cap", "4"]),
    ("upto_absorber_rejected.out", 1,
     ["upto", "{absorber}", "{absorber}", "--relation", "{empty_relation}", "--cap", "4"]),
]


def _materialised(args, tmp_path, docs):
    """_argv(args) with each key of docs replaced by a file holding its text
    (or its bytes, for a document that is not UTF-8)."""
    argv = []
    for a in _argv(args):
        if a in docs:
            path = tmp_path / (a.strip("{}") + ".json")
            content = docs[a]()
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
            a = str(path)
        argv.append(a)
    return argv


@pytest.mark.parametrize("expected, exit_code, args", GENERATED_CASES,
                         ids=[c[0] for c in GENERATED_CASES])
def test_report_on_generated_documents(tmp_path, capsys, expected, exit_code, args):
    assert main(_materialised(args, tmp_path, GENERATED)) == exit_code
    assert capsys.readouterr().out == (DATA / expected).read_text(encoding="utf-8")


def test_two_sided_span_document_is_the_library_span():
    text = (DATA / "two_sided_span.json").read_text(encoding="utf-8")
    assert documents.emit_span(*two_sided_span()) == text
    assert documents.emit_span(*documents.parse_span(text)) == text


def test_apply_at_an_improper_match_reports_the_violations(capsys):
    argv = _argv(["apply", "span105_rule.json", "span105_host.json", "--match", "0"])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (DATA / "apply_span105_match0.err").read_text(encoding="utf-8")


def test_apply_with_match_index_out_of_range(capsys):
    assert main(_argv(["apply", "service_rule.json", "service_host.json", "--match", "1"])) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "match index 1 out of range" in captured.err


# ------------------------------------------------------- one parser per process

def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_two_identical_calls_print_the_same(capsys):
    argv = _argv(["bisim", "chain3.json", "chain3_x.json", "--eta", "chain3.eta.json",
                  "--cap", "3"])
    assert main(argv) == 1
    first = capsys.readouterr().out
    assert main(argv) == 1
    assert capsys.readouterr().out == first == (DATA / "bisim_chain3_vs_x.out").read_text(
        encoding="utf-8")


def test_a_rejected_call_leaves_the_command_line_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bisim"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = _argv(["bisim", "chain3.json", "chain3_copy.json", "--kind", "weak",
                  "--tau", "a1", "--cap", "3"])
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / "bisim_chain3_vs_copy_weak.out").read_text(
        encoding="utf-8")


# ------------------------------------------------------------ malformed input


def _data(name):
    return (DATA / name).read_text(encoding="utf-8")


def _edited(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


_span_text = GENERATED["{loop_span}"]
_empty_net_text = GENERATED["{absorber}"]


MALFORMED = {
    # a span or rule without one of its three nets
    **{f"span-without-{key}": (
        lambda key=key: _edited(_span_text(), lambda d: d.pop(key)), ["compose", "{doc}"])
       for key in ("interface", "left", "right")},
    **{f"rule-without-{key}": (
        lambda key=key: _edited(_data("service_rule.json"), lambda d: d.pop(key)),
        ["match", "{doc}", "service_host.json"])
       for key in ("interface", "left", "right")},
    # a top-level array where an object is expected, for every document kind
    "net-array": (lambda: "[]", ["validate", "{doc}"]),
    "span-array": (lambda: "[]", ["compose", "{doc}"]),
    "rule-array": (lambda: "[]", ["check-rule", "{doc}"]),
    "eta-array": (lambda: "[]", ["bisim", "chain3.json", "chain3_copy.json", "--eta", "{doc}"]),
    "relation-array": (lambda: "[]",
                       ["upto", "chain3.json", "chain3.json", "--relation", "{doc}"]),
    "nested-net-array": (
        lambda: _edited(_span_text(), lambda d: d.update(left=[])), ["compose", "{doc}"]),
    # fields of the wrong JSON type
    "place-fields-array": (
        lambda: _edited(_data("chain3.json"), lambda d: d["places"].update(p0=["open_in"])),
        ["validate", "{doc}"]),
    "left-map-array": (
        lambda: _edited(_span_text(), lambda d: d.update(left_map={"places": []})),
        ["compose", "{doc}"]),
    "behaviour-check-string": (
        lambda: _edited(_data("service_rule.json"),
                        lambda d: d.update(behaviour_check="Bisimilar")),
        ["apply", "{doc}", "service_host.json"]),
    # a pre-set naming a place the net does not declare
    "pre-undeclared-place": (
        lambda: _edited(_data("chain3.json"),
                        lambda d: d["transitions"]["t0"].update(pre={"p9": 1})),
        ["validate", "{doc}"]),
    # an id naming both a place and a transition
    "place-transition-clash": (
        lambda: _edited(_data("chain3.json"),
                        lambda d: d["transitions"].update(p1=d["transitions"].pop("t1"))),
        ["validate", "{doc}"]),
    # a net's name must be a string
    "name-list": (
        lambda: _edited(_data("chain3.json"), lambda d: d.update(name=[1, 2])),
        ["validate", "{doc}"]),
    "name-number": (
        lambda: _edited(_data("chain3.json"), lambda d: d.update(name=7)),
        ["lts", "{doc}", "--cap", "1"]),
    # a relation marking on a place the net does not declare
    "upto-undeclared-place": (
        lambda: json.dumps({"format": "opennet-relation/1", "pairs": [[{"zz": 1}, {"p0": 1}]]}),
        ["upto", "chain3.json", "chain3.json", "--relation", "{doc}"]),
    # booleans are not counts
    "bool-initial": (
        lambda: _edited(_data("chain3.json"), lambda d: d["places"]["p0"].update(initial=True)),
        ["validate", "{doc}"]),
    "bool-pre": (
        lambda: _edited(_data("chain3.json"),
                        lambda d: d["transitions"]["t0"].update(pre={"p0": True})),
        ["validate", "{doc}"]),
    "bool-relation-count": (
        lambda: json.dumps({"format": "opennet-relation/1", "pairs": [[{"p0": True}, {}]]}),
        ["upto", "chain3.json", "chain3.json", "--relation", "{doc}"]),
    # open flags must be booleans, not merely truthy
    "open-in-string": (
        lambda: _edited(_data("chain3.json"), lambda d: d["places"]["p1"].update(open_in="no")),
        ["validate", "{doc}"]),
    # eta and morphism entries must name places and transitions
    "left-map-list-value": (
        lambda: _edited(_span_text(), lambda d: d["left_map"]["places"].update(s=["s"])),
        ["compose", "{doc}"]),
    "eta-list-value": (
        lambda: _edited(_data("chain3.eta.json"), lambda d: d["plus"].update(p0=["q0"])),
        ["bisim", "chain3.json", "chain3_copy.json", "--eta", "{doc}", "--cap", "1"]),
    "upto-eta-not-bijective": (
        lambda: json.dumps({"format": "opennet-eta/1", "plus": {}, "minus": {}}),
        ["upto", "chain3.json", "chain3.json", "--relation", "{empty_relation}",
         "--eta", "{doc}", "--cap", "2"]),
    # negative bounds
    "lts-negative-cap": (_empty_net_text, ["lts", "{doc}", "--cap", "-1"]),
    "lts-negative-max-step": (
        _empty_net_text, ["lts", "{doc}", "--mode", "step", "--max-step", "-1"]),
    "bisim-negative-cap": (_empty_net_text, ["bisim", "{doc}", "{doc}", "--cap", "-1"]),
    "upto-negative-cap": (
        lambda: json.dumps({"format": "opennet-relation/1", "pairs": []}),
        ["upto", "chain3.json", "chain3.json", "--relation", "{doc}", "--cap", "-1"]),
    "check-rule-negative-cap": (
        lambda: _data("service_rule.json"), ["check-rule", "{doc}", "--cap", "-1"]),
    # bytes the JSON reader cannot take: too deep, not UTF-8, a number too long
    **{f"{case}-validate": (make, ["validate", "{doc}"])
       for case, make in (
           ("deep-nesting", lambda: "[" * 200_000),
           ("invalid-utf8", lambda: b"\xff\xfe"),
           ("long-initial", lambda: _data("chain3.json").replace(
               '"initial": 1', '"initial": ' + "9" * 5001, 1)))},
    # only null means "no fields"; other falsy values are not objects
    **{f"{kind}-fields-{name}": (
        lambda kind=kind, value=value: _edited(
            _data("chain3.json"), lambda d: d[kind].update({next(iter(d[kind])): value})),
        ["validate", "{doc}"])
       for kind in ("places", "transitions")
       for name, value in (("zero", 0), ("false", False), ("empty-string", ""),
                           ("empty-list", []))},
}


# the diagnosis a case's stderr must contain, beyond the "error: " prefix
DIAGNOSES = {"pre-undeclared-place": "not well-formed",
             "upto-eta-not-bijective": "NotBijective",
             "place-transition-clash": "declared both as a place",
             "name-list": "name must be a string",
             "name-number": "name must be a string",
             "upto-undeclared-place": "zz",
             **{f"{kind}-fields-{name}": "must map to an object of fields"
                for kind in ("places", "transitions")
                for name in ("zero", "false", "empty-string", "empty-list")}}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_3_without_traceback(tmp_path, capsys, case):
    make, args = MALFORMED[case]
    assert main(_materialised(args, tmp_path, {**GENERATED, "{doc}": make})) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert DIAGNOSES.get(case, "") in captured.err
