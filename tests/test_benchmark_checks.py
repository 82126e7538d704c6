"""Every operation of the benchmark's workloads passes its own checks.

`perfbench/workloads.py` runs each operation on seed-drawn inputs and
returns the checks that failed; a run with a failed check is refused as
incorrect output.  Running every operation once here at seed 0 shows such
a failure in the unit suite.  The operations run in a fresh interpreter,
as a benchmark run does, and the CLI operations write their reports to a
temporary directory.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads

with tempfile.TemporaryDirectory() as tmp:
    workloads.OUT = Path(tmp)
    for workload, ops in workloads.WORKLOADS.items():
        fixtures = workloads.build_fixtures(workload)
        inputs = workloads.draw_inputs(workload, 0)
        for name, op in ops:
            problems = list(op(fixtures, inputs))
            print("op", json.dumps([workload, name, problems]))
"""


def test_every_benchmark_operation_passes_its_checks():
    out = subprocess.run([sys.executable, "-B", "-c", SCRIPT], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    results = [json.loads(line[3:]) for line in out.stdout.splitlines()
               if line.startswith("op ")]
    assert {workload for workload, _name, _problems in results} == {
        "reduction-sampled", "depbreak-exact", "sweeps-values"}
    failed = [result for result in results if result[2]]
    assert failed == [], failed
