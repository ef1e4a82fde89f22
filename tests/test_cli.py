"""The command line, run in-process: exit codes and byte-exact reports.

The expected reports under data/ were recorded once and are kept fixed, so
any change to a verdict, witness or play shows up here.
"""

from pathlib import Path

import pytest

from opennet.cli import main

DATA = Path(__file__).parent / "data"

CASES = [
    ("bisim_chain3_vs_x.out", 1,
     ["chain3.json", "chain3_x.json", "--eta", "chain3.eta.json", "--cap", "3"]),
    ("bisim_agency_step.out", 1,
     ["agency_a.json", "agency_b.json", "--mode", "step", "--cap", "2"]),
    ("bisim_chain3_vs_copy.out", 0,
     ["chain3.json", "chain3_copy.json", "--cap", "3"]),
]


@pytest.mark.parametrize("expected, exit_code, args", CASES, ids=[c[0] for c in CASES])
def test_bisim_report_and_exit_code(capsys, expected, exit_code, args):
    argv = ["bisim"] + [str(DATA / a) if a.endswith(".json") else a for a in args]
    assert main(argv) == exit_code
    out = capsys.readouterr().out
    assert out == (DATA / expected).read_text(encoding="utf-8")
