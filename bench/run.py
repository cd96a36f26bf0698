"""Benchmark of ``loopsift sift``: one workload per run, one process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run generates the
workload's inputs for the seed with the program's own writers (timed as
``setup_s`` from the start of this process), then runs ``loopsift sift``
as a child process with one thread, the BLAS pool pinned to one thread
and a fixed str hash seed, again and again until the sift processes have
taken ``S`` seconds in all (at least once).  Every output is checked
against the benchmark's ground truth.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` candidate-unit
evaluations, and the metrics -- end-to-end ones with ``--trace 0``,
per-layer ones from a traced sift with ``--trace 1``.  Each failed check
is printed before it, naming the workload, the seed and the check; the
failing run's inputs and outputs are kept under ``.bench_work/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# one thread for every BLAS/OpenMP pool, here and in the sift processes
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The sift's str hash seed sets its allocation order, and with it the peak
# memory: 267, 272 or 282 MB on room-hires for hash seeds 0-3 on one input.
SIFT_ENV = {**THREAD_ENV, "PYTHONHASHSEED": "0"}

# measured while the benchmark makes the inputs; every other one in the sift
SETUP_LAYER = {"synth.render_synthetic_depth.s", "synth.render_synthetic_depth.calls",
               "synth.rays_cast", "synth.export_scenario.s"}


def metric_units(kind):
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    with open(SPEC) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def per_layer_metric(name, trace):
    """Value of one per-layer metric from a trace snapshot."""
    spans, counters = trace["spans"], trace["counters"]
    if name == "sifting.evaluations_per_optimize":
        calls = spans.get("posegraph.optimize", [0])[0]
        return counters.get("sifting.evaluations", 0) / calls if calls else 0.0
    for suffix, column in ((".self_s", 2), (".s", 1), (".calls", 0)):
        if name.endswith(suffix):
            return float(spans.get(name[: -len(suffix)], [0, 0.0, 0.0])[column])
    return float(counters.get(name, 0))


def mean_trace(traces):
    """Per-sift means of the span sums and counters of several traced sifts."""
    spans, counters = {}, {}
    for trace in traces:
        for k, v in trace["spans"].items():
            spans[k] = [x + y / len(traces) for x, y in zip(spans.get(k, [0, 0.0, 0.0]), v)]
        for k, v in trace["counters"].items():
            counters[k] = counters.get(k, 0) + v / len(traces)
    return {"spans": spans, "counters": counters}


def run_child(cmd, env, log_path):
    """Run ``cmd`` to its end; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def have_sources() -> bool:
    if os.path.isfile(os.path.join(SRC, "loopsift", "cli.py")):
        return True
    print(f"error: no loopsift sources under {SRC}; run from a source checkout",
          file=sys.stderr)
    return False


def sift_round(wl, k, work, input_dir, env, traced, check_inputs):
    """One ``loopsift sift`` process and the checks of its outputs."""
    import checks

    out_dir = os.path.join(work, f"out-{k}")
    trace_path = os.path.join(work, f"trace-{k}.json")
    log_path = os.path.join(work, f"sift-{k}.log")
    sift = ["sift", "--input", input_dir, "--out", out_dir, *wl.sift_flags()]
    cmd = ([sys.executable, os.path.join(BENCH_DIR, "traced_sift.py"), trace_path, *sift]
           if traced else [sys.executable, "-m", "loopsift.cli", *sift])
    code, wall, rss = run_child(cmd, env, log_path)
    round_ = {"sift_s": wall, "peak_rss_mb": rss}
    if code != 0:
        result = checks.CheckResult()
        with open(log_path) as f:
            result.fail("sift-exit", f"exit code {code}: {f.read()[-2000:]}")
    else:
        try:
            result = checks.check_outputs(out_dir, *check_inputs())
        except Exception:  # a check that cannot run is a failed check, not a crash
            result = checks.CheckResult()
            result.fail("outputs-readable", traceback.format_exc(limit=3))
        if traced:
            with open(trace_path) as f:
                round_["trace"] = json.load(f)
    round_["result"] = result
    return round_


def main() -> int:
    if not have_sources():
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=WORK_ROOT)
    try:
        return measure(args, wl, work)
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise


def measure(args, wl, work) -> int:
    import checks
    import workloads
    from tracing import Tracer

    env = dict(os.environ, PYTHONPATH=SRC, **SIFT_ENV)
    input_dir = os.path.join(work, "input")
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    truth = workloads.make_inputs(wl, args.seed, input_dir)
    setup_s = time.perf_counter() - T_START
    if tracer:
        tracer.uninstall()

    built = []  # fragments and scored frames, rebuilt once from the inputs

    def check_inputs():
        if not built:
            built.extend(checks.load_check_inputs(wl, input_dir))
        return (truth, *built)

    rounds, failures = [], []
    while not rounds or sum(r["sift_s"] for r in rounds) < args.seconds:
        round_ = sift_round(wl, len(rounds), work, input_dir, env, args.trace, check_inputs)
        rounds.append(round_)
        result = round_["result"]
        failures.extend(result.failures)
        print(f"{wl.name} seed {args.seed} sift {len(rounds)}: {round_['sift_s']:.3f} s, "
              f"{round_['peak_rss_mb']:.1f} MB, {result.info}", file=sys.stderr)

    if failures:
        kept = os.path.join(WORK_ROOT, f"failed-{wl.name}-{args.seed}")
        shutil.rmtree(kept, ignore_errors=True)
        os.rename(work, kept)
        for msg in failures:
            line = f"check failed: workload {wl.name}, seed {args.seed}: {msg}"
            print(line)
            print(line, file=sys.stderr)
        print(f"{wl.name} seed {args.seed}: inputs and outputs kept in {kept}", file=sys.stderr)
    else:
        shutil.rmtree(work)

    metrics = {}
    if args.trace:
        traced = [r["trace"] for r in rounds if "trace" in r]
        sift_trace = mean_trace(traced) if traced else {"spans": {}, "counters": {}}
        setup_trace = tracer.snapshot()
        for name, unit in metric_units("per_layer").items():
            value = per_layer_metric(name, setup_trace if name in SETUP_LAYER else sift_trace)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {"sift_s": statistics.median(r["sift_s"] for r in rounds),
                  "setup_s": setup_s,
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
                  **rounds[0]["result"].metrics}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items() if name in values}

    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, sum(r["result"].attempted for r in rounds)),
        "failed": sum(r["result"].failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
