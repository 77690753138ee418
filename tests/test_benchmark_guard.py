"""The benchmark's reference checks on the rows that a change of the gap or
of the quadrature moves, run here so that a change that moves those rows
past the check tolerance fails the tests before it reaches the benchmark.

The rows are the ``response_spectrum`` workload's ``total_error``
invocation (the criterion 12 shape, both channels, N = 32-256), its
``scaling near_gap_table`` invocation, judged at ``checks.TABLE_REL``, its
``grover`` invocation (n = 6-16, a four-atom dirac_comb), judged at
``checks.GROVER_REL``, and its three ``response`` invocations, judged at
``checks.RESPONSE_REL`` and ``RESPONSE_ABS``; and the ``table_emit``
workload's ``spectrum`` invocation, judged against the closed-form
dispersion at ``checks.SPECTRUM_ABS``, and its ``response`` invocation.
All go through ``perfbench/checks.py`` against the committed
``perfbench/reference/`` files, read only.
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


def _reference(workload):
    return json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())


def _run(inv, out):
    """Run one CLI invocation, writing its table into ``out``."""
    out.mkdir(exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(inv["config"]))
    assert cli.main([inv["subcommand"], "--config", str(config), "--out", str(out)]) == 0


@pytest.mark.parametrize("section,rows", [("total_error", 8), ("scaling_near_gap_table", 12), ("grover", 6)])
def test_rows_pass_the_benchmark_reference_check(section, rows, tmp_path):
    inv = {checks.section(i): i for i in workloads.build("response_spectrum", 0)}[section]
    if section == "total_error":
        (tmp_path / "total_error.json").write_text(json.dumps(total_error_rows(inv)))
    else:
        _run(inv, tmp_path)
    tally = checks.check(inv, str(tmp_path), _reference("response_spectrum"))
    assert tally.attempted == rows
    assert tally.failed == 0, tally.problems


@pytest.mark.parametrize("workload,section,rows", [
    ("response_spectrum", "response", 40),
    ("table_emit", "spectrum", 512 * 401),
    ("table_emit", "response", 404),
])
def test_every_invocation_of_a_section_passes_the_benchmark_check(workload, section, rows, tmp_path):
    # the three response invocations of response_spectrum share one section,
    # including the cancelling T = 5000, endpoint_order 2 rows
    invocations = [inv for inv in workloads.build(workload, 0) if checks.section(inv) == section]
    tally = checks.Tally()
    for i, inv in enumerate(invocations):
        _run(inv, tmp_path / str(i))
        tally.add(checks.check(inv, str(tmp_path / str(i)), _reference(workload)))
    assert tally.attempted == rows
    assert tally.failed == 0, tally.problems
