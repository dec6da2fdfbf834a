"""Benchmark runner: seeded experiment batches, machine-readable run records,
scheme comparisons, and the feasibility-drift demonstration, exposed both as
functions and through the ``stiefel-bench`` command line.

``stiefel-bench run`` writes one `RunRecord` per solve plus one mean row per
configuration (JSONL or CSV) and exits 1 when any solve ended in
``LineSearchFail``; ``compare`` writes one JSON row per configuration;
``drift`` writes a TSV of the feasibility error per iteration. Output goes to
``--out``, to a default file name under ``$STIEFELBB_OUT_DIR`` when that is
set, or to stdout. ``wall_ms`` is the solver's own whole-solve time
(`SolverReport.wall_time`, or `AugLagReport.wall_time` on the fixed-entry
route)."""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import List, Sequence, Union

import numpy as np

from .manifold import random_stiefel
from .problems import (
    LowRankCorrProblem,
    FixedEntrySet,
    TraceEigenProblem,
    ex3_matrix,
    gen_ex2,
    gen_ex3,
    heterogeneous_problem,
    load_matrix,
    modified_pca_init,
    sample_fixed_entries,
)
from .auglag import AugLagConfig, auglag_solve
from .retractions import GTAU_NAMES, GTAU_SENSITIVE, RetractionScheme, SCHEME_KINDS
from .solver import SolverConfig, solve

__all__ = [
    "RunRecord",
    "RECORD_FIELDS",
    "ENV_OUT_DIR",
    "run_experiment",
    "compare_schemes",
    "drift_demo",
    "aggregate_records",
    "write_records",
    "read_records",
    "main",
]

ENV_OUT_DIR = "STIEFELBB_OUT_DIR"

PROBLEM_IDS = ("eigen", "balogh", "ex2", "ex3", "nlcm", "ex10")

# an evaluation count: an int for one solve, possibly fractional for a mean row
_Count = Union[int, float]


def _as_count(v):
    v = float(v)
    return int(v) if v.is_integer() else v


@dataclass
class RunRecord:
    """One solve, serialized losslessly as JSONL or CSV.

    The fields are the configuration (problem_id .. gtau), the run (seed,
    stop_reason) and its outcome (f_initial .. wall_ms); mean rows average
    the outcome. `residual` is the problem's natural reported residual: the
    final ||D||_F for plain manifold problems, the correlation residual
    ||H o (V^T V - C)||_F for the low-rank correlation family.
    """

    problem_id: str
    n: int
    p: int
    scheme: str
    rho: float
    gtau: str
    seed: int
    stop_reason: str
    f_initial: float
    f_final: float
    residual: float
    feasi: float
    nfge: _Count
    iters: _Count
    wall_ms: float

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in RECORD_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Build a record from parsed JSON or CSV text, casting each field to
        its annotated type."""
        kw = dict(d)
        for name, cast in _CASTS.items():
            kw[name] = cast(kw[name])
        return cls(**kw)


_CASTS = {
    f.name: {str: str, int: int, float: float, _Count: _as_count}[f.type]
    for f in fields(RunRecord)
}
RECORD_FIELDS = tuple(_CASTS)
_GROUP_KEY = RECORD_FIELDS[: RECORD_FIELDS.index("seed")]
_OUTCOME = RECORD_FIELDS[RECORD_FIELDS.index("f_initial"):]


def _csv_cell(v):
    return repr(v) if isinstance(v, float) else str(v)


def write_records(records: Sequence[RunRecord], stream, fmt="jsonl"):
    """Serialize records (one per line for jsonl; header + rows for csv)."""
    if fmt == "jsonl":
        for r in records:
            stream.write(json.dumps(r.to_dict()) + "\n")
    elif fmt == "csv":
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(RECORD_FIELDS)
        for r in records:
            w.writerow([_csv_cell(getattr(r, f)) for f in RECORD_FIELDS])
    else:
        raise ValueError(f"unknown format {fmt!r}, expected 'jsonl' or 'csv'")


def read_records(stream, fmt="jsonl") -> List[RunRecord]:
    """Parse records previously produced by write_records."""
    if isinstance(stream, str):
        with open(stream, "r", encoding="utf-8") as fh:
            return read_records(fh, fmt)
    if fmt == "jsonl":
        return [
            RunRecord.from_dict(json.loads(line))
            for line in stream
            if line.strip()
        ]
    if fmt == "csv":
        return [RunRecord.from_dict(row) for row in csv.DictReader(stream)]
    raise ValueError(f"unknown format {fmt!r}")


def aggregate_records(records: Sequence[RunRecord]) -> List[RunRecord]:
    """Arithmetic means per (problem, n, p, scheme, rho, gtau) group, in
    first-seen order; aggregates carry an 'a.' prefix, seed -1, and
    stop_reason 'mean'."""
    groups = {}
    for r in records:
        groups.setdefault(tuple(getattr(r, f) for f in _GROUP_KEY), []).append(r)
    return [
        replace(
            rs[0],
            problem_id="a." + rs[0].problem_id,
            seed=-1,
            stop_reason="mean",
            **{
                f: _CASTS[f](sum(float(getattr(r, f)) for r in rs) / len(rs))
                for f in _OUTCOME
            },
        )
        for rs in groups.values()
    ]


def _tridiag_mul(x):
    """A X for the symmetric tridiagonal (2, -1) matrix A, in O(np); its top
    eigenvalues cluster, so BB iterations keep moving for a long time —
    ideal for drift studies."""
    y = 2.0 * x
    y[:-1] -= x[1:]
    y[1:] -= x[:-1]
    return y


def drift_demo(n, p, steps, controlled, seed=0) -> List[float]:
    """Feasibility error per iteration over a fixed-length run of the new
    scheme (controlled W-hat vs plain W) on a clustered-spectrum symmetric
    problem. Returns one value per completed iteration (empty for steps=0)."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    prob = TraceEigenProblem(_tridiag_mul, p, n=n)
    x0 = random_stiefel(n, p, seed)
    cfg = SolverConfig(
        scheme=RetractionScheme("new", "linear", feasibility_control=bool(controlled)),
        max_iter=steps,
        check_convergence=False,
        track_feasibility=True,
        seed=seed,
    )
    rep = solve(prob, x0, cfg)
    return rep.feasibility_trace[1:]


def compare_schemes(problem, configs, seeds, x0=None) -> List[dict]:
    """Paired scheme comparison: every configuration solves the same problem
    from the same per-seed starts; the last configuration is the baseline of
    the saved-ratio statistic 100 (a.nfe - a.nfe_base) / a.nfe_base."""
    configs = list(configs)
    if len(configs) < 2:
        raise ValueError("need at least two configurations to compare")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    rows = []
    for cfg in configs:
        nfes, finals, its = [], [], []
        for s in seeds:
            rep = solve(problem, x0, replace(cfg, seed=int(s)))
            nfes.append(rep.nfge)
            finals.append(rep.f_final)
            its.append(rep.iters)
        m = float(len(seeds))
        rows.append(
            {
                "scheme": cfg.scheme.kind,
                "rho": cfg.rho,
                "gtau": cfg.scheme.gtau,
                "a_nfe": sum(nfes) / m,
                "a_f_final": sum(finals) / m,
                "a_iters": sum(its) / m,
            }
        )
    base = rows[-1]["a_nfe"]
    for row in rows:
        row["a_s_ratio"] = 100.0 * (row["a_nfe"] - base) / base
    return rows


# ----------------------------------------------------------------------------
# experiment assembly


def _solver_config(args, kind, rho, gtau) -> SolverConfig:
    """The solver settings of one configuration; the tolerance flags left
    unset keep the SolverConfig defaults."""
    tols = {k: getattr(args, k) for k in ("eps", "eps_x", "eps_f", "max_iter")}
    return SolverConfig(
        rho=rho,
        scheme=RetractionScheme(kind, gtau, feasibility_control=not args.uncontrolled),
        **{k: v for k, v in tols.items() if v is not None},
    )


def _instances(args, seeds):
    """The solves the flags select for the given seeds, ranks outer and seeds
    inner, as (seed, problem, x0, n, p, pins) tuples: x0 None is a seeded
    random start and pins None the plain solver. Built lazily, one instance
    per rank (per solve for balogh's random planted values)."""
    pid = args.problem
    if pid == "eigen":
        n = args.n or 100
        if args.matrix_file:
            a = load_matrix(args.matrix_file)
            a = 0.5 * (a + a.T)
            n = a.shape[0]
        else:
            rng = np.random.default_rng(args.seed)
            a = rng.standard_normal((n, n))
            a = (a + a.T) / (2.0 * np.sqrt(n))
        for p in args.ranks or [4]:
            prob = TraceEigenProblem(a, p)
            for seed in seeds:
                yield seed, prob, None, n, p, None
        return
    if pid == "balogh":
        n = args.n or 100
        for p in args.ranks or [5]:
            shared = (
                heterogeneous_problem(n, p, "minus-one")
                if args.l_mode == "minus-one"
                else None
            )
            for seed in seeds:
                prob = shared or heterogeneous_problem(
                    n, p, "random", seed=100000 + seed
                )
                yield seed, prob, None, n, p, None
        return

    # the low-rank correlation family
    n = args.n or (200 if pid == "ex10" else 500)
    if pid == "nlcm":
        if not args.matrix_file:
            raise SystemExit("error: problem 'nlcm' needs --matrix-file")
        c = load_matrix(args.matrix_file)
    fes = FixedEntrySet.from_text(args.fixed_entries) if args.fixed_entries else None
    for r in args.ranks or [10 if pid == "ex10" else 5]:
        if pid == "ex2":
            prob = gen_ex2(n, r)
        elif pid == "ex3":
            prob = gen_ex3(n, weighted=args.weighted, seed=args.seed, r=r)
        else:
            prob = LowRankCorrProblem(c if pid == "nlcm" else ex3_matrix(n), r, name=pid)
        x0 = modified_pca_init(prob.c, r) if args.init == "pca" else None
        pins = fes
        if pins is None and pid == "ex10":
            pins = sample_fixed_entries(prob.n, n_e=3, seed=args.seed)
        for seed in seeds:
            yield seed, prob, x0, prob.n, r, pins


def _record(args, cfg, seed, problem, x0, n, p, pins) -> RunRecord:
    """Solve one instance of `_instances` with cfg at seed and record it."""
    cfg = replace(cfg, seed=seed)
    if pins is not None:
        alcfg = AugLagConfig(rho=cfg.rho, scheme=cfg.scheme)
        alr = auglag_solve(problem, pins, alcfg, v0=x0)
        outcome = dict(
            stop_reason=alr.stop_reason,
            f_initial=alr.f_initial,
            f_final=alr.theta_final,
            residual=alr.nlcmres_final,
            feasi=alr.sub_reports[-1].feasi,
            nfge=alr.nfge_total,
            iters=alr.iters_total,
            wall_ms=alr.wall_time * 1000.0,
        )
    else:
        rep = solve(problem, x0, cfg)
        outcome = dict(
            stop_reason=rep.stop_reason,
            f_initial=rep.f_initial,
            f_final=rep.f_final,
            residual=(
                problem.nlcmres(rep.x_final)
                if isinstance(problem, LowRankCorrProblem)
                else rep.residual_final
            ),
            feasi=rep.feasi,
            nfge=rep.nfge,
            iters=rep.iters,
            wall_ms=rep.wall_time * 1000.0,
        )
    return RunRecord(
        problem_id=args.problem,
        n=n,
        p=p,
        scheme=cfg.scheme.kind,
        rho=cfg.rho,
        gtau=cfg.scheme.gtau,
        seed=seed,
        **outcome,
    )


def run_experiment(args) -> List[RunRecord]:
    """Solve every instance the parsed flags select, one per (problem, rank,
    repetition) and up to --jobs at once; records in instance order followed
    by the aggregate rows."""
    if args.gtau is not None and args.scheme not in GTAU_SENSITIVE:
        print(f"warning: --gtau is ignored by scheme {args.scheme!r}", file=sys.stderr)
    cfg = _solver_config(args, args.scheme, args.rho, args.gtau or "linear")
    seeds = range(args.seed, args.seed + args.repeat)
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        records = list(pool.map(lambda i: _record(args, cfg, *i), _instances(args, seeds)))
    return records + aggregate_records(records)


# ----------------------------------------------------------------------------
# command line


def _comma_list(convert, choices=None):
    """An argparse type: one value or a comma list of values, each passed
    through convert and, when choices is given, one of them."""

    def parse(text):
        try:
            items = [convert(t) for t in text.split(",") if t.strip()]
        except ValueError:
            items = []
        if not items or (choices and not set(items) <= set(choices)):
            among = f" from {', '.join(choices)}" if choices else ""
            raise argparse.ArgumentTypeError(f"expected a comma list{among}, got {text!r}")
        return items

    return parse


def _add_common_flags(p):
    p.add_argument("problem", choices=PROBLEM_IDS)
    p.add_argument("--ranks", type=_comma_list(int),
                   help="rank / column count, or a comma list of them, e.g. 5,20,50")
    p.add_argument("--n", type=int, help="problem dimension")
    p.add_argument("--eps", type=float, help="relative residual tolerance")
    p.add_argument("--eps-x", dest="eps_x", type=float, help="iterate-change tolerance")
    p.add_argument("--eps-f", dest="eps_f", type=float, help="value-change tolerance")
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=1, help="repetitions (seed, seed+1, ...)")
    p.add_argument("--jobs", type=int, default=1, help="parallel solves")
    p.add_argument("--matrix-file", dest="matrix_file",
                   help="MatrixMarket/.npy/text matrix for 'eigen' or 'nlcm'")
    p.add_argument("--fixed-entries", dest="fixed_entries",
                   help="triplet file 'i j q' of prescribed entries (run ex2/ex3/nlcm/ex10)")
    p.add_argument("--weighted", action="store_true",
                   help="random symmetric weights for the long-range instance")
    p.add_argument("--l-mode", dest="l_mode", choices=("minus-one", "random"),
                   default="minus-one", help="planted-value mode for 'balogh'")
    p.add_argument("--init", choices=("pca", "random"), default="pca",
                   help="start for correlation problems")
    p.add_argument("--uncontrolled", action="store_true",
                   help="disable the drift-safe W-hat construction")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stiefel-bench",
        description="Benchmark runner for feasible BB optimization over "
        "orthogonality constraints. An argument @FILE reads more arguments "
        "from FILE, one per line.",
        fromfile_prefix_chars="@",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", allow_abbrev=False,
                         help="solve a problem batch and emit run records")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("--scheme", choices=SCHEME_KINDS, default="new")
    run.add_argument("--rho", type=float, default=0.25,
                     help="descent-direction parameter (0.25 Euclidean, 0.5 canonical)")
    run.add_argument("--gtau", choices=GTAU_NAMES)
    _add_common_flags(run)

    comp = sub.add_parser("compare", allow_abbrev=False,
                          help="paired comparison across configurations")
    comp.set_defaults(handler=_cmd_compare)
    comp.add_argument("--scheme", type=_comma_list(str, SCHEME_KINDS), default="new",
                      help="comma list of scheme kinds (baseline last)")
    comp.add_argument("--rho", type=_comma_list(float), default="0.25",
                      help="comma list of descent-direction parameters")
    comp.add_argument("--gtau", type=_comma_list(str, GTAU_NAMES), default="linear",
                      help="comma list of g(tau) names")
    _add_common_flags(comp)

    drift = sub.add_parser("drift", allow_abbrev=False,
                           help="feasibility drift: controlled vs plain W")
    drift.set_defaults(handler=_cmd_drift)
    drift.add_argument("--n", type=int, default=2000)
    drift.add_argument("--p", type=int, default=6)
    drift.add_argument("--steps", type=int, default=2000)
    drift.add_argument("--seed", type=int, default=0)
    drift.add_argument("--out", help="output path (stdout when omitted)")
    return parser


@contextmanager
def _output(args, default_name):
    """The output stream: --out (relative to $STIEFELBB_OUT_DIR when that is
    set), else default_name under $STIEFELBB_OUT_DIR, else stdout."""
    out = getattr(args, "out", None)
    env = os.environ.get(ENV_OUT_DIR)
    if out is None and not env:
        yield sys.stdout
        return
    # join keeps an absolute --out as it is
    path = os.path.join(env or "", default_name if out is None else out)
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _cmd_run(args) -> int:
    records = run_experiment(args)
    with _output(args, f"stiefelbb-run.{args.format}") as stream:
        write_records(records, stream, args.format)
    singles = [r for r in records if not r.problem_id.startswith("a.")]
    fails = sum(1 for r in singles if r.stop_reason == "LineSearchFail")
    print(
        f"{len(singles)} solve(s), {fails} line-search failure(s)",
        file=sys.stderr,
    )
    return 0 if fails == 0 else 1


def _cmd_compare(args) -> int:
    configs = [
        _solver_config(args, k, rho, g)
        for k in args.scheme
        for rho in args.rho
        for g in args.gtau
    ]
    if len(configs) < 2:
        raise SystemExit(
            "error: need >= 2 configurations (comma lists of --scheme/--rho/--gtau)"
        )

    # every configuration solves the instance of the first rank and seed
    _, problem, x0, *_ = next(_instances(args, [args.seed]))
    seeds = range(args.seed, args.seed + args.repeat)
    rows = compare_schemes(problem, configs, seeds, x0=x0)

    with _output(args, "stiefelbb-compare.jsonl") as stream:
        for row in rows:
            stream.write(json.dumps(row) + "\n")
    hdr = f"{'scheme':>9} {'rho':>6} {'gtau':>9} {'a.nfe':>10} {'a.s.ratio':>10}"
    print(hdr, file=sys.stderr)
    for row in rows:
        print(
            f"{row['scheme']:>9} {row['rho']:>6.3g} {row['gtau']:>9} "
            f"{row['a_nfe']:>10.1f} {row['a_s_ratio']:>10.2f}",
            file=sys.stderr,
        )
    return 0


def _cmd_drift(args) -> int:
    controlled = drift_demo(args.n, args.p, args.steps, True, seed=args.seed)
    plain = drift_demo(args.n, args.p, args.steps, False, seed=args.seed)
    with _output(args, "stiefelbb-drift.tsv") as stream:
        stream.write("# iter\tcontrolled\tuncontrolled\n")
        for k in range(max(len(controlled), len(plain))):
            c = f"{controlled[k]:.6e}" if k < len(controlled) else ""
            u = f"{plain[k]:.6e}" if k < len(plain) else ""
            stream.write(f"{k + 1}\t{c}\t{u}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    if args.command != "drift":
        if args.fixed_entries and args.problem in ("eigen", "balogh"):
            parser.error(f"--fixed-entries does not apply to problem {args.problem!r}")
        schemes = args.scheme if args.command == "compare" else [args.scheme]
        if args.problem not in ("eigen", "balogh") and set(schemes) != {"new"}:
            parser.error(f"problem {args.problem!r} (unit spheres) takes only --scheme new")
        pinned = args.problem == "ex10" or args.fixed_entries
        if pinned and args.command == "compare":
            parser.error("compare runs the plain solver, not the outer loop of "
                         "prescribed entries; use run")
        if pinned and args.init == "random":
            parser.error("--init random does not apply to prescribed entries, "
                         "whose outer loop starts from modified PCA")
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
