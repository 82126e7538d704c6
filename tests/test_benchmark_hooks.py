"""The traced benchmark run keys on names and signatures of the source.

`perfbench/run.py --trace 1` raises on a per-layer metric of
BENCHMARK.json whose function does not exist, and its distinct-argument
hooks unpack the wrapped method's arguments.  Installing the tracer
rewires every repgames module, so the check runs in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import importlib, inspect, json, sys
sys.path[:0] = ["src", "perfbench"]
import run, tracing

tracer = tracing.Tracer()
wrapped = set(tracing.install(tracer))
for metric in json.loads(open("BENCHMARK.json").read())["per_layer"]:
    run.layer_value(tracer, wrapped, metric["name"], 1.0)
for name, hook in tracing.KEYS.items():
    assert name in wrapped, name
    layer, attr = name.split(".")
    mod = importlib.import_module("repgames." + layer)
    owner = [c for c in vars(mod).values()
             if inspect.isclass(c) and attr in vars(c)]
    assert len(owner) == 1, (name, owner)
    method = inspect.signature(getattr(owner[0], attr)).parameters
    keyed = list(inspect.signature(hook).parameters)[1:]
    assert len(keyed) == len(method), (name, keyed, list(method))
print("ok")
"""


def test_traced_benchmark_resolves_every_metric_and_hook():
    out = subprocess.run([sys.executable, "-B", "-c", SCRIPT], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "ok"
