"""Check that the benchmark is steady: spreads within bounds, counts repeatable.

    python3 benchmark/steady.py --workloads balogh-curve,corr-auglag --seeds 1-10 --sets 2

For each workload this runs ``run.py --trace 0`` once per seed, one run at a
time, for the ``run_seconds`` of BENCHMARK.json, and prints for every
end-to-end metric the median, the quartiles and their distance as a share
of the median (``statistics.quantiles(values, n=4)``), against the metric's
bound. A spread above the bound fails; one above a third of it is flagged.
With ``--sets 2`` every seed runs once per set, the sets taking turns seed
by seed (and which set goes first alternates), so that a slow spell of the
machine falls on both sets alike; the second set's median may not be worse
than the first's by more than the bound.

It then re-runs the first seed twice with ``--trace 1`` for
``--recheck-seconds`` and fails unless every solve the runs share has the
same iterations, nfge and final value as in the first run, and the two
traced runs made the same calls into every layer.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    # exit 1 is a run with failed solves, which still prints its result
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    record = json.loads(
        (HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return result, record


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def counts_by_seed(solves):
    return {r["seed"]: (r.get("iters"), r.get("nfge"), r.get("f")) for r in solves}


def check_workload(workload, seeds, sets, bench, recheck_seconds):
    ok = True
    values = [{} for _ in range(sets)]
    first = None
    for j, seed in enumerate(seeds):
        order = range(sets) if j % 2 == 0 else reversed(range(sets))
        for k in order:
            result, record = run(workload, seed, bench["run_seconds"], 0)
            if first is None:
                first = record
            for name, m in result["metrics"].items():
                values[k].setdefault(name, []).append(m["value"])
            print(
                f"  set {k + 1} seed {seed}: {result['attempted']} solves, "
                f"{result['failed']} failed",
                flush=True,
            )
            if not result["correct"]:
                ok = False
                for r in record["solves"]:
                    if not r["ok"]:
                        print(f"    FAIL solve seed {r['seed']}: {r['reason']}")
    medians = []
    for k in range(sets):
        print(f"{workload} set {k + 1}: metric, median, q1, q3, spread / bound")
        set_medians = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, q1, q3, s = spread(values[k][name])
            set_medians[name] = med
            if s > bound:
                flag, ok = "FAIL", False
            else:
                flag = "ok" if s < bound / 3 else "wide"
            print(
                f"  {name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g}  "
                f"{s:6.3f} / {bound:.2f} {flag}"
            )
        medians.append(set_medians)
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for later in medians[1:]:
            a, b = medians[0][name], later[name]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            if worse > bound:
                print(f"  {name}: median worse by {worse:.3f} > {bound} between sets FAIL")
                ok = False
            else:
                print(f"  {name}: second median worse by {worse:+.3f} (bound {bound})")

    want = counts_by_seed(first["solves"])
    calls = []
    for _ in range(2):
        _, rec = run(workload, seeds[0], recheck_seconds, 1)
        got = counts_by_seed(rec["solves"] + rec["traced_solves"])
        differ = sorted(s for s, c in got.items() if s in want and want[s] != c)
        if differ:
            print(f"  solve seeds {differ}: counts differ between runs FAIL")
            ok = False
        calls.append(rec["layer_calls"])
    shared = set(calls[0]) & set(calls[1])
    if any(calls[0][k] != calls[1][k] for k in shared):
        print("  per-layer call counts differ between two traced runs FAIL")
        ok = False
    else:
        print(f"  counts repeat exactly ({len(shared)} traced solves compared across runs)")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", default="1-10", help="a range such as 1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--recheck-seconds", type=float, default=5.0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("need at least two seeds for quartiles")
    ok = True
    for workload in args.workloads.split(","):
        ok &= check_workload(workload, seeds, args.sets, bench, args.recheck_seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
