"""Run one benchmark workload in this process and print its metrics.

    python3 benchmark/run.py --workload balogh-curve --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
there, without installing it. The process pins BLAS to one thread before
numpy or scipy is loaded, builds the workload's
instances, runs one short warm-up solve and then solves one instance after
another until ``--seconds`` have passed. Solve ``i`` of a run with seed
``seed`` uses the per-solve seed ``seed + i``. Every solve is checked.

``--trace 0`` times each solve call and prints the end-to-end metrics.
``--trace 1`` alternates traced and untraced solves of the same instances,
prints the per-layer metrics, checks that tracing leaves the iteration
counts and final values bit for bit unchanged, and reports the tracing
overhead. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the human-readable report and the environment record. The full record,
per-solve counts included, goes to ``benchmark/results/``, and in trace mode
the spans of the run to ``benchmark/results/<workload>.spans.jsonl``.

The exit code is 0 when every solve passed its checks, 1 when one failed
(the JSON line is still printed) and 2 when the run could not start.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# every workload runs one solve at a time on one BLAS thread
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-up (import the program, build the instances) runs this many times
# before the timed loop and as many times after it; setup_s is the median of
# all, so that a slow spell of the machine at either moment moves it less
SETUP_REPEATS = 20

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# printed in the report, left out of the JSON result, whose metrics must be
# present and nonzero in every run of every workload: the tail is missing
# from runs of fewer than 20 solves, failed_frac and eval.failed are 0 in a
# correct run, and the rest are 0 on the workload without a dense product
# or on the one without auglag
REPORT_ONLY = (
    "solve_s.tail",
    "failed_frac",
    "problems.gflop_computed",
    "retractions.eval.failed",
    "auglag.outer.calls",
    "auglag.sub_solve.s",
    "auglag.self_s",
)

END_TO_END_UNITS = {
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "solves_per_s": "1/s",
    "ms_per_iter": "ms",
    "iters_per_solve": "count",
    "nfge_per_solve": "count",
    "failed_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class StartError(Exception):
    """The run cannot start: no program to import, or a wrong environment."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def pin_threads():
    """Set the BLAS thread variables; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise StartError("numpy was imported before the BLAS threads were set")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS, len(os.sched_getaffinity(0))


def import_program():
    """Import stiefelbb afresh from this checkout's src/, never from elsewhere.

    Modules of an earlier import are dropped first, so each call runs the
    package's module code again."""
    if not (SRC / "stiefelbb" / "__init__.py").is_file():
        raise StartError(f"no stiefelbb package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "stiefelbb" or m.startswith("stiefelbb.")]:
        del sys.modules[name]
    import stiefelbb

    if Path(stiefelbb.__file__).resolve().parent != SRC / "stiefelbb":
        raise StartError(f"imported stiefelbb from {stiefelbb.__file__}, not {SRC}")
    return stiefelbb


# (thread count, configuration) getters exported by the OpenBLAS builds
# that numpy and scipy wheels bundle
_BLAS_GETTERS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def blas_libraries():
    """(library, threads, config) of every OpenBLAS that numpy and scipy load."""
    import ctypes
    import importlib

    found = []
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.import_module(pkg).__file__).parent.parent / f"{pkg}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            getters = [g for g in _BLAS_GETTERS if hasattr(lib, g[0]) and hasattr(lib, g[1])]
            if not getters:
                found.append((path.name, None, "unknown"))
                continue
            getn, getc = (getattr(lib, name) for name in getters[0])
            getn.restype = ctypes.c_int
            getc.restype = ctypes.c_char_p
            found.append((path.name, int(getn()), getc().decode().strip()))
    return found


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, threads, nproc, libs):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads_set": threads,
        "blas_threads_seen": {name: n for name, n, _ in libs},
        "openblas_config": {name: cfg for name, _, cfg in libs},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "note": "iteration and call counts repeat exactly only within one BLAS thread configuration",
    }


def setup(wl, first_seed, totals, builds):
    """Import the program and build the instances SETUP_REPEATS times,
    appending each set-up time to ``totals`` and each build time to
    ``builds``; returns the job of the last set-up. numpy and scipy are
    loaded before the clock starts, so the times are the program's own
    import and construction."""
    import scipy.io  # noqa: F401  (the scipy modules the program imports)
    import scipy.linalg  # noqa: F401

    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sb = import_program()
        t1 = time.perf_counter()
        job = wl.build(sb, first_seed)
        t2 = time.perf_counter()
        totals.append(t2 - t0)
        builds.append(t2 - t1)
    return job


def run_solve(job, solve_seed, call_wrapper=None):
    """Time one solve call; returns its record."""
    call = job.prepare(solve_seed, False)
    t0 = time.perf_counter()
    try:
        rep = call() if call_wrapper is None else call_wrapper(call)
        err = None
    except Exception as exc:  # a failing solve is counted, not fatal
        rep, err = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    rec = {"seed": solve_seed, "s": elapsed}
    if rep is None:
        rec.update(ok=False, reason=err)
        return rec
    iters, nfge, f_final = job.counts(rep)
    reason = job.check(rep, solve_seed)
    rec.update(iters=int(iters), nfge=int(nfge), f=float(f_final), ok=reason is None)
    if reason is not None:
        rec["reason"] = reason
    return rec


def tail(times):
    """(seconds, percentile) of the highest candidate percentile with at
    least ten solves beyond it, or None."""
    xs = sorted(times)
    for q in TAIL_PERCENTILES:
        v = xs[max(math.ceil(q / 100.0 * len(xs)) - 1, 0)]
        if sum(1 for x in xs if x > v) >= 10:
            return v, q
    return None


def end_to_end(recs, setup_s):
    good = [r for r in recs if r["ok"]]
    out = {
        "failed_frac": (len(recs) - len(good)) / len(recs),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if good:
        times = [r["s"] for r in good]
        iters = sum(r["iters"] for r in good)
        out["solve_s.p50"] = statistics.median(times)
        out["solves_per_s"] = len(good) / sum(times)
        out["ms_per_iter"] = 1e3 * sum(times) / max(iters, 1)
        out["iters_per_solve"] = iters / len(good)
        out["nfge_per_solve"] = sum(r["nfge"] for r in good) / len(good)
        t = tail(times)
        if t is not None:
            out["solve_s.tail"] = t[0]
            out["solve_s.tail_percentile"] = t[1]
        out["solve_s.samples"] = len(good)
    return out


PER_LAYER_UNITS = {
    "problems.value.calls": "calls/solve",
    "problems.value.s": "s/solve",
    "problems.grad.calls": "calls/solve",
    "problems.grad.s": "s/solve",
    "problems.gflop_computed": "GFLOP/solve",
    "problems.setup.s": "s",
    "manifold.direction.calls": "calls/solve",
    "manifold.direction.s": "s/solve",
    "retractions.build.calls": "calls/solve",
    "retractions.build.s": "s/solve",
    "retractions.eval.calls": "calls/solve",
    "retractions.eval.s": "s/solve",
    "retractions.eval.failed": "calls/solve",
    "retractions.trace_jinv.s": "s/solve",
    "stepsize.s": "s/solve",
    "stepsize.backtracks": "count/solve",
    "stepsize.accept_ratio": "fraction",
    "solver.iters": "count/solve",
    "solver.prepare.s": "s/solve",
    "solver.self_s": "s/solve",
    "solver.prepare.calls": "calls/solve",
    "solve.self_s": "s/solve",
    "auglag.outer.calls": "calls/solve",
    "auglag.sub_solve.s": "s/solve",
    "auglag.self_s": "s/solve",
}


def per_layer(per_solve, iters, build_s):
    """Per-layer metrics as means per traced solve, and each layer's share of
    the traced solve time (``solver`` is what the other layers leave).
    ``iters`` is the summed accepted iterations of the traced solves."""
    from tracing import LAYERS, ROOT

    n = len(per_solve)
    tot = {}
    for acc in per_solve.values():
        for name, (calls, secs) in acc.items():
            t = tot.setdefault(name, [0, 0.0])
            t[0] += calls
            t[1] += secs

    def calls(name):
        return tot.get(name, [0, 0.0])[0] / n

    def secs(*names):
        return sum(tot.get(name, [0, 0.0])[1] for name in names) / n

    evals = tot.get("retractions.eval", [0, 0.0])[0]
    auglag_self = secs(ROOT + ".self") if "auglag.sub_solve" in tot else 0.0
    metrics = {
        "problems.value.calls": calls("problems.value"),
        "problems.value.s": secs("problems.value"),
        "problems.grad.calls": calls("problems.grad"),
        "problems.grad.s": secs("problems.grad"),
        "problems.gflop_computed": secs("problems.flops") / 1e9,
        "problems.setup.s": build_s,
        "manifold.direction.calls": calls("manifold.direction"),
        "manifold.direction.s": secs("manifold.direction"),
        "retractions.build.calls": calls("retractions.build"),
        "retractions.build.s": secs("retractions.build"),
        "retractions.eval.calls": calls("retractions.eval"),
        "retractions.eval.s": secs("retractions.eval"),
        "retractions.eval.failed": calls("retractions.eval.failed"),
        "retractions.trace_jinv.s": secs("retractions.trace_jinv"),
        "stepsize.s": secs(*LAYERS["stepsize"]),
        "stepsize.backtracks": (evals - iters) / n,
        "stepsize.accept_ratio": iters / evals if evals else 0.0,
        "solver.iters": iters / n,
        "solver.prepare.s": secs("solver.prepare"),
        "solver.self_s": secs("solver.iterate.self"),
        "solver.prepare.calls": calls("solver.prepare"),
        "solve.self_s": secs(ROOT + ".self"),
        "auglag.outer.calls": calls("auglag.sub_solve"),
        "auglag.sub_solve.s": secs("auglag.sub_solve"),
        "auglag.self_s": auglag_self,
    }
    total = secs(ROOT)
    shares = {layer: secs(*names) / total for layer, names in LAYERS.items()}
    shares["auglag"] = auglag_self / total
    shares["solver"] = 1.0 - sum(shares.values())
    return metrics, shares


def measure(job, first_seed, seconds, tracer=None):
    """Solve until ``seconds`` have passed; returns the untraced records and,
    with a tracer, the traced records of the same instances and seeds.
    Solve ``i`` (pair ``i`` when traced) has the per-solve seed
    ``first_seed + i``."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        s = first_seed + i
        if tracer is None:
            plain.append(run_solve(job, s))
        else:
            # alternate which side runs first so neither gets the warmer cache
            def traced_solve(k=i, job=job, s=s):
                with tracer.installed():
                    traced.append(run_solve(job, s, lambda call: tracer.root(k, call)))

            sides = [traced_solve, lambda: plain.append(run_solve(job, s))]
            for side in sides if i % 2 == 0 else sides[::-1]:
                side()
        i += 1
    return plain, traced


def reproduction_errors(plain, traced):
    """Solves whose traced counts or final value differ from the untraced."""
    bad = []
    for p, t in zip(plain, traced):
        if any(p.get(k) != t.get(k) for k in ("iters", "nfge", "f", "ok")):
            bad.append(p["seed"])
    return bad


def write_spans(path, tracer):
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, parent, t0, t1, solve) in enumerate(tracer.spans):
            fh.write(json.dumps([sid, parent, solve, name, t0, t1]) + "\n")


def report_lines(metrics, units):
    for name, unit in units.items():
        if name in metrics:
            v = metrics[name]
            extra = ""
            if name == "solve_s.tail":
                extra = (
                    f"  (p{metrics['solve_s.tail_percentile']:g} of "
                    f"{metrics['solve_s.samples']} solves)"
                )
            yield f"  {name:28s} {v:14.6g} {unit}{extra}"
        elif name == "solve_s.tail":
            yield f"  {name:28s} {'-':>14s}      (no percentile has ten solves beyond it)"


def main(argv=None):
    args = parse_args(argv)
    try:
        threads, nproc = pin_threads()
        sys.path.insert(0, str(HERE))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise StartError(
                f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}"
            )
        wl = workloads.WORKLOADS[args.workload]
        setup_times, build_times = [], []
        job = setup(wl, args.seed, setup_times, build_times)
        libs = blas_libraries()
        wrong = [(name, n) for name, n, _ in libs if n != threads]
        if not libs or wrong:
            raise StartError(f"BLAS threads {wrong or 'not found'}; expected {threads}")
    except StartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(args, threads, nproc, libs)

    job.prepare(args.seed, True)()

    tracer = None
    if args.trace:
        from tracing import Tracer, per_solve

        tracer = Tracer(workloads.dense_flops)
    plain, traced = measure(job, args.seed, args.seconds, tracer)
    setup(wl, args.seed, setup_times, build_times)
    build_s = statistics.median(build_times)
    recs = plain + traced
    failed = sum(1 for r in recs if not r["ok"])
    e2e = end_to_end(plain, statistics.median(setup_times))
    result = {"env": env, "end_to_end": e2e, "solves": plain}
    print(f"env {json.dumps(env)}")
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(recs)} solves attempted, {failed} failed"
    )
    for r in recs:
        if not r["ok"]:
            print(f"  FAILED solve seed {r['seed']}: {r['reason']}")
    print("end to end (untraced solves):")
    for line in report_lines(e2e, END_TO_END_UNITS):
        print(line)

    if tracer is None:
        metrics, units = e2e, END_TO_END_UNITS
    else:
        repro = reproduction_errors(plain, traced)
        failed += len(repro)
        if repro:
            print(f"  FAILED tracing changed the counts of solve seeds {repro}")
        t_plain = sum(r["s"] for r in plain)
        t_traced = sum(r["s"] for r in traced)
        overhead = t_traced / t_plain - 1.0
        layer_solves = per_solve(tracer)
        iters = sum(r.get("iters", 0) for r in traced)
        metrics, shares = per_layer(layer_solves, iters, build_s)
        units = PER_LAYER_UNITS
        print(
            f"trace: {len(traced)} traced solves reproduce the untraced counts: "
            f"{'yes' if not repro else 'NO'}; tracing overhead {100 * overhead:+.1f}% "
            f"of solve time (untraced {len(plain) / t_plain:.4g} solves/s, "
            f"traced {len(traced) / t_traced:.4g} solves/s)"
        )
        print("per layer (traced solves, means per solve):")
        for line in report_lines(metrics, units):
            print(line)
        print("share of traced solve time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        result.update(
            per_layer=metrics,
            layer_shares=shares,
            trace_overhead=overhead,
            traced_solves=traced,
            layer_calls={str(k): {n: v[0] for n, v in acc.items()} for k, acc in layer_solves.items()},
        )
        RESULTS.mkdir(exist_ok=True)
        write_spans(RESULTS / f"{args.workload}.spans.jsonl", tracer)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    attempted = len(recs)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                    if name in metrics and name not in REPORT_ONLY
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
