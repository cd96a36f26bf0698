"""Behaviour fingerprint of ``loopsift sift`` on the benchmark's workloads.

    python3 bench/fingerprint.py make OUT.json
    python3 bench/fingerprint.py compare A.json B.json

``make`` generates every workload's inputs for seeds 1, 2 and 3, runs
one sift on each, and writes per (workload, seed) the accepted ids,
the ranking order with its scores, the greedy trace, and the baseline
and final scores.  Run it from the root of the checkout whose behaviour
it should record.  ``compare`` requires equal accepted ids, ranking
order and acceptance decisions, and every score equal within a relative
tolerance of 1e-9 (``SCORE_RTOL``); it exits 1 and lists the differences
otherwise.  It is evidence for a speed-up that claims unchanged
behaviour, not a gate of the benchmark runs.
"""

import argparse
import json
import math
import os
import shutil
import sys
import tempfile

from run import BENCH_DIR, SIFT_ENV, SRC, THREAD_ENV, WORK_ROOT, have_sources, run_child

SEEDS = (1, 2, 3)
# relative score tolerance: reordered float sums move scores by about 1e-13
SCORE_RTOL = 1e-9


def record(out_dir) -> dict:
    import checks

    report = checks.read_report(os.path.join(out_dir, "report.txt"))
    return {
        "accepted": checks.read_accepted(os.path.join(out_dir, "accepted.txt")),
        "ranking": [list(r) for r in checks.read_ranking(os.path.join(out_dir, "ranking.csv"))],
        "trace": [list(r) for r in checks.read_trace(os.path.join(out_dir, "trace.csv"))],
        "baseline": report["baseline"],
        "final": report["final"],
    }


def make() -> dict:
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    env = dict(os.environ, PYTHONPATH=SRC, **SIFT_ENV)
    os.makedirs(WORK_ROOT, exist_ok=True)
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in SEEDS:
            work = tempfile.mkdtemp(prefix=f"fingerprint-{name}-{seed}-", dir=WORK_ROOT)
            try:
                workloads.make_inputs(wl, seed, os.path.join(work, "input"))
                cmd = [sys.executable, "-m", "loopsift.cli", "sift", "--input",
                       os.path.join(work, "input"), "--out", os.path.join(work, "out"),
                       *wl.sift_flags()]
                code, _, _ = run_child(cmd, env, os.path.join(work, "sift.log"))
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: sift exited {code}")
                out[f"{name}/{seed}"] = record(os.path.join(work, "out"))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed}: accepted {out[f'{name}/{seed}']['accepted']}",
                  file=sys.stderr)
    return out


def _close(a, b) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= SCORE_RTOL * max(abs(a), abs(b))


def compare(a: dict, b: dict) -> list:
    diffs = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            diffs.append(f"{key}: only in {'second' if key not in a else 'first'}")
            continue
        x, y = a[key], b[key]
        if x["accepted"] != y["accepted"]:
            diffs.append(f"{key}: accepted {x['accepted']} vs {y['accepted']}")
        if [r[0] for r in x["ranking"]] != [r[0] for r in y["ranking"]]:
            diffs.append(f"{key}: ranking order differs")
        if [(r[0], r[2]) for r in x["trace"]] != [(r[0], r[2]) for r in y["trace"]]:
            diffs.append(f"{key}: acceptance decisions differ")
        pairs = ([("baseline", x["baseline"], y["baseline"]), ("final", x["final"], y["final"])]
                 + [(f"ranking score of {r[0]}", r[1], s[1])
                    for r, s in zip(x["ranking"], y["ranking"])]
                 + [(f"trace score of {r[0]}", r[1], s[1]) for r, s in zip(x["trace"], y["trace"])])
        diffs.extend(f"{key}: {what} {u!r} vs {v!r}" for what, u, v in pairs
                     if not _close(u, v))
    return diffs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("make").add_argument("out")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    args = parser.parse_args()

    if args.command == "make":
        if not have_sources():
            return 2
        fingerprint = make()
        with open(args.out, "w") as f:
            json.dump(fingerprint, f, indent=1)
        return 0
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    diffs = compare(first, second)
    for line in diffs:
        print(line)
    print(f"{len(first)} vs {len(second)} fingerprints, {len(diffs)} differences "
          f"(score rtol {SCORE_RTOL:g})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
