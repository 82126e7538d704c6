"""Run one repgames benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run imports repgames from `src/`, builds
the workload's fixtures, then repeats whole rounds of the workload's
operations for as long as the next round is expected to end within S
seconds (always at least one round).  Every operation checks its own
output, in every round.  The metrics are those of the first round, the one
a fresh process makes; a round is sized to fill most of a run.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics, read from wrappers
around the public repgames API.
"""

import time

T0 = time.perf_counter()   # set-up is timed from here: imports included

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("reduction-sampled", "depbreak-exact", "sweeps-values")
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def set_up(workload: str):
    """Import repgames from the checkout and build the fixtures."""
    if not (SRC / "repgames" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repgames package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    fixtures = workloads.build_fixtures(workload)
    return workloads, fixtures, time.perf_counter() - T0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, timed after the rounds.

    A shared VM can run in phases of several seconds that differ in speed
    (by about 30 % on the one of the README's figures).  Set-up lasts about
    a second, so one sample falls within one phase.  The run's own sample
    and this one, taken a round later, fall in phases drawn apart, and
    their median (their mean) is steadier than either alone or than the
    median of samples taken back to back.
    """
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ---- machine fingerprint (printed, never a metric) -------------------------

def _blas() -> dict:
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    libs = sorted({ln.split()[-1] for ln in maps if "blas" in ln.lower()
                   and ln.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = int(fn())
                return out
    return out


def _calibrate() -> dict:
    """Fixed work timed on this machine: a Python loop and a matmul."""
    import numpy as np
    t = time.perf_counter()
    acc = 0
    for k in range(2_000_000):
        acc += k * k
    loop_s = time.perf_counter() - t
    a = np.random.default_rng(0).standard_normal((256, 256))
    t = time.perf_counter()
    for _ in range(50):
        a @ a
    return {"python_loop_s": loop_s, "matmul_s": time.perf_counter() - t}


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree itself."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint() -> dict:
    import numpy as np
    import scipy
    src = hashlib.sha256()
    for f in sorted((SRC / "repgames").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": _blas(), "calibration": _calibrate()}


# ---- metrics ---------------------------------------------------------------

def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def layer_value(tr, wrapped: set, name: str, wall: float) -> float:
    """One per-layer metric of the round just traced."""
    if name == "trace.wall_s":
        return wall
    if name == "trace.coverage":
        return tr.covered_s / wall
    if name in tracing.COUNTERS:
        return float(tr.counters[name])
    head, _, kind = name.rpartition(".")
    if head in tracing.LAYERS:
        return {"self_s": tr.layer_self, "calls": tr.layer_calls}[kind][head]
    if head not in wrapped:
        raise KeyError(f"metric {name}: {head} is not a wrapped function")
    if kind == "calls":
        return float(tr.calls[head])
    if kind == "self_s":
        return tr.self_s[head]
    if kind == "distinct":
        return float(len(tr.distinct[head]))
    raise KeyError(f"metric {name}: unknown kind {kind!r}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, fixtures, setup_s = set_up(args.workload)
    except (FileNotFoundError, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    spec = load_spec()
    inputs = wl.draw_inputs(args.workload, args.seed)
    ops = wl.WORKLOADS[args.workload]

    tracer = wrapped = None
    if args.trace:
        tracer = tracing.Tracer()
        wrapped = set(tracing.install(tracer))

    rounds = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        w0, c0 = time.perf_counter(), time.process_time()
        op_times = []
        for name, fn in ops:
            attempted += 1
            t = time.perf_counter()
            try:
                problems = fn(fixtures, inputs)
            except Exception:                   # counted, and the run goes on
                failed += 1
                print(f"operation {name} raised:", file=sys.stderr)
                traceback.print_exc()
                problems = ["raised"]
            else:
                if problems:
                    failed += 1
                    for msg in problems:
                        print(f"operation {name} failed: {msg}",
                              file=sys.stderr)
            op_times.append([name, t - w0, time.perf_counter() - w0,
                             not problems])
        wall = time.perf_counter() - w0
        rec = {"wall_s": wall, "cpu_s": time.process_time() - c0,
               "ops": op_times}
        if tracer is not None:
            rec["metrics"] = {m["name"]: layer_value(tracer, wrapped,
                                                     m["name"], wall)
                              for m in spec["per_layer"]}
            rec["tree"] = tracer.tree()
            rec["spans"] = tracer.spans
            rec["aggregated"] = tracer.aggregated()
        rounds.append(rec)
        print(f"round {len(rounds)}: wall {wall:.3f} s, cpu "
              f"{rec['cpu_s']:.3f} s; " + ", ".join(
                  f"{n} {end - begin:.3f} s" for n, begin, end, _ in op_times),
              flush=True)
        # stop before a round that would end past the run's length
        if time.perf_counter() - start + wall > args.seconds:
            break

    first = rounds[0]
    if tracer is None:
        setups = [setup_s, probe_setup(args.workload, args.seed)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": first["wall_s"],
            "cpu_s": first["cpu_s"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        metrics = {m["name"]: {"value": first["metrics"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}

    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if tracer is not None:
        wl.OUT.mkdir(exist_ok=True)
        path = wl.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "fingerprint": fp, "rounds": rounds}))
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        print("setup samples " + json.dumps(setups))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
