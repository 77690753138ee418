"""The benchmark's reference checks on the phase-free bounds, total errors
and Grover error probabilities, run here so that a change that moves those
rows past the check tolerance fails the tests before it reaches the
benchmark.

The rows are the ``response_spectrum`` workload's ``total_error``
invocation (the criterion 12 shape, both channels, N = 32-256), its
``scaling near_gap_table`` invocation, judged at ``checks.TABLE_REL``, and
its ``grover`` invocation (n = 6-16, a four-atom dirac_comb), judged at
``checks.GROVER_REL``, all by ``perfbench/checks.py`` against the committed
``perfbench/reference/response_spectrum.json``, read only.
"""

import json
import sys
from pathlib import Path

import pytest

from qptsweep import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402
import workloads  # noqa: E402
from child import total_error_rows  # noqa: E402


@pytest.mark.parametrize("section,rows", [("total_error", 8), ("scaling_near_gap_table", 12), ("grover", 6)])
def test_rows_pass_the_benchmark_reference_check(section, rows, tmp_path):
    inv = {checks.section(i): i for i in workloads.build("response_spectrum", 0)}[section]
    reference = json.loads((PERFBENCH / "reference" / "response_spectrum.json").read_text())
    if section == "total_error":
        (tmp_path / "total_error.json").write_text(json.dumps(total_error_rows(inv)))
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(inv["config"]))
        assert cli.main([inv["subcommand"], "--config", str(config), "--out", str(tmp_path)]) == 0
    tally = checks.check(inv, str(tmp_path), reference)
    assert tally.attempted == rows
    assert tally.failed == 0, tally.problems
