"""Benchmark runner: seeded experiment batches, machine-readable run records
and the feasibility-drift demonstration, exposed both as functions and
through the ``stiefel-bench`` command line.

``stiefel-bench run`` solves every configuration (each combination of the
comma lists of ``--scheme``, ``--rho`` and ``--gtau``) at every rank and seed
from the same starts, so a paired comparison of configurations is one ``run``
with comma lists. It writes one `RunRecord` per solve plus one mean row per
configuration and rank (JSONL or CSV), prints the saved ratio of each mean row
to stderr when more than one configuration runs, and exits 1 when any solve
ended in ``LineSearchFail``; ``drift`` writes a TSV of the feasibility error
per iteration. Output goes to ``--out``, to a default file name under
``$STIEFELBB_OUT_DIR`` when that is set, or to stdout. ``wall_ms`` is the
solver's own whole-solve time (`SolverReport.wall_time`, or
`AugLagReport.wall_time` on the fixed-entry route)."""

import argparse
import csv
import itertools
import json
import math
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
    _require_symmetric,
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


def write_records(records: Sequence[RunRecord], stream, fmt="jsonl"):
    """Serialize records (one per line for jsonl; header + rows for csv)."""
    if fmt == "jsonl":
        for r in records:
            stream.write(json.dumps(r.to_dict()) + "\n")
    elif fmt == "csv":
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(RECORD_FIELDS)
        for r in records:
            w.writerow([getattr(r, f) for f in RECORD_FIELDS])
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
    """Feasibility error per iteration over up to `steps` iterations of the
    "new" (controlled) or the "literal" kind on a clustered-spectrum problem;
    "literal" may stop early at LineSearchFail. One value per iteration."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    prob = TraceEigenProblem(_tridiag_mul, p, n=n)
    x0 = random_stiefel(n, p, seed)
    cfg = SolverConfig(
        scheme=RetractionScheme("new" if controlled else "literal"),
        eps=0.0, eps_x=0.0, eps_f=0.0,  # stop only on an exact zero or stall
        max_iter=steps,
        track_feasibility=True,
        seed=seed,
    )
    rep = solve(prob, x0, cfg)
    return rep.feasibility_trace[1:]


# ----------------------------------------------------------------------------
# experiment assembly


def _solver_config(args, kind, rho, gtau) -> SolverConfig:
    """The solver settings of one configuration; the tolerance flags left
    unset keep the SolverConfig defaults."""
    tols = {k: getattr(args, k) for k in ("eps", "eps_x", "eps_f", "max_iter")}
    return SolverConfig(
        rho=rho,
        scheme=RetractionScheme(kind, gtau),
        **{k: v for k, v in tols.items() if v is not None},
    )


def _ranks(args, n, default):
    """The --ranks values (default when omitted), each checked against n."""
    ranks = args.ranks or [default]
    for p in ranks:
        if not 1 <= p <= n:
            raise argparse.ArgumentTypeError(f"--ranks {p}: need 1 <= rank <= n = {n}")
    return ranks


@contextmanager
def _input_file(flag, path):
    """Report a missing or malformed input file as a usage error naming flag."""
    try:
        yield
    except (OSError, ValueError) as err:
        raise argparse.ArgumentTypeError(f"{flag} {path}: {err}") from None


def _instances(args, seeds):
    """The instances the flags select for the given seeds, ranks outer and
    seeds inner, as (seed, problem, x0, n, p, pins) tuples: x0 None is a
    seeded random start and pins None the plain solver. Built lazily, one
    instance per rank (per seed for balogh's random planted values), after
    every rank has been checked against n."""
    pid = args.problem
    if pid == "eigen":
        n = 100 if args.n is None else args.n
        if args.matrix_file is not None:
            with _input_file("--matrix-file", args.matrix_file):
                a = load_matrix(args.matrix_file)
                a = 0.5 * (a + a.T)
            n = a.shape[0]
        else:
            rng = np.random.default_rng(args.seed)
            a = rng.standard_normal((n, n))
            a = (a + a.T) / (2.0 * np.sqrt(n))
        for p in _ranks(args, n, 4):
            prob = TraceEigenProblem(a, p)
            for seed in seeds:
                yield seed, prob, None, n, p, None
        return
    if pid == "balogh":
        n = 100 if args.n is None else args.n
        for p in _ranks(args, n, 5):
            shared = args.l_mode == "minus-one" and heterogeneous_problem(n, p, "minus-one")
            for seed in seeds:
                prob = shared or heterogeneous_problem(n, p, "random", seed=100000 + seed)
                yield seed, prob, None, n, p, None
        return

    # the low-rank correlation family
    n = (200 if pid == "ex10" else 500) if args.n is None else args.n
    if pid == "nlcm":
        with _input_file("--matrix-file", args.matrix_file):
            c = _require_symmetric(load_matrix(args.matrix_file), "C")
        n = c.shape[0]
    fes = None
    if args.fixed_entries is not None:
        with _input_file("--fixed-entries", args.fixed_entries):
            fes = FixedEntrySet.from_text(args.fixed_entries)
            fes._check_n(n)
    for r in _ranks(args, n, 10 if pid == "ex10" else 5):
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


def _record(pid, cfg, seed, problem, x0, n, p, pins=None, sub_max_iter=None) -> RunRecord:
    """Solve one instance of `_instances` with cfg at seed and record it under
    problem id pid; pins route it through the outer loop, which sets the
    sub-solve tolerances, and sub_max_iter caps each of its sub-solves."""
    cfg = replace(cfg, seed=seed)
    if pins is not None:
        budget = {} if sub_max_iter is None else {"sub_max_iter": sub_max_iter}
        alr = auglag_solve(problem, pins, AugLagConfig(**budget), v0=x0)
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
    return RunRecord(problem_id=pid, n=n, p=p, scheme=cfg.scheme.kind, rho=cfg.rho,
                     gtau=cfg.scheme.gtau, seed=seed, **outcome)


def run_experiment(args) -> List[RunRecord]:
    """Solve every configuration the parsed flags select on every (rank,
    repetition) instance, up to --jobs at once; records in instance order,
    the configurations paired on each instance, followed by one mean row per
    configuration and rank."""
    for kind in args.scheme:
        if args.gtau is not None and kind not in GTAU_SENSITIVE:
            print(f"warning: --gtau is ignored by scheme {kind!r}", file=sys.stderr)
    grid = itertools.product(args.scheme, args.rho, args.gtau or ["linear"])
    configs = [_solver_config(args, *c) for c in grid]
    seeds = range(args.seed, args.seed + args.repeat)
    solves = ((cfg, *i) for i in _instances(args, seeds) for cfg in configs)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        records = list(pool.map(
            lambda job: _record(args.problem, *job, sub_max_iter=args.max_iter), solves))
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


def _checked(convert, ok, expected):
    """An argparse type: text passed through convert, a usage error naming
    what was expected unless ok holds for the value."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")


# the Stiefel problems, where every scheme runs; the others are correlation
# problems on unit spheres, where only 'new' is built and rho and g(tau) do not act
_STIEFEL = ("eigen", "balogh")


def _add_problem_flags(subs):
    """Add each flag to the sub-parsers in subs (by problem id) of the problems
    it acts on; the others take its default."""

    def flag(acts_on, *names, groups=None, required_on=(), **kw):
        for pid, p in subs.items():
            if pid in acts_on:
                (groups or {}).get(pid, p).add_argument(
                    *names, required=pid in required_on, **kw)
            else:
                p.set_defaults(**{names[0][2:].replace("-", "_"): kw.get("default")})

    source = {"eigen": subs["eigen"].add_mutually_exclusive_group()}  # a size or a file
    flag(PROBLEM_IDS, "--ranks", type=_comma_list(int),
         help="rank / column count, or a comma list of them, e.g. 5,20,50")
    flag(("eigen", "balogh", "ex2", "ex3", "ex10"), "--n", type=_positive_int, groups=source,
         help="problem dimension")
    flag(("eigen", "nlcm"), "--matrix-file", groups=source, required_on=("nlcm",),
         help="MatrixMarket/.npy/text matrix")
    tols = ("eigen", "balogh", "ex2", "ex3", "nlcm")  # ex10's outer loop sets its own
    flag(tols, "--eps", type=_positive_float, help="relative residual tolerance")
    flag(tols, "--eps-x", type=_positive_float, help="iterate-change tolerance")
    flag(tols, "--eps-f", type=_positive_float, help="value-change tolerance")
    flag(PROBLEM_IDS, "--max-iter", type=_nonnegative_int,
         help="iterations (per sub-solve if pinned)")
    flag(PROBLEM_IDS, "--seed", type=int, default=0)
    flag(PROBLEM_IDS, "--repeat", type=_positive_int, default=1, help="seed, seed+1, ...")
    # comma lists: every combination runs, the last one as each rank's baseline
    flag(_STIEFEL, "--scheme", type=_comma_list(str, SCHEME_KINDS), default=["new"],
         help=f"scheme kind, or a comma list of them, from {', '.join(SCHEME_KINDS)}")
    flag(_STIEFEL, "--rho", type=_comma_list(_positive_float), default=[0.25],
         help="descent-direction parameter (0.25 Euclidean, 0.5 canonical), or a comma list")
    flag(_STIEFEL, "--gtau", type=_comma_list(str, GTAU_NAMES),
         help=f"g(tau), or a comma list, from {', '.join(GTAU_NAMES)} (default linear)")
    flag(PROBLEM_IDS, "--jobs", type=_positive_int, default=1, help="parallel solves")
    flag(PROBLEM_IDS, "--format", choices=("jsonl", "csv"), default="jsonl")
    flag(("ex2", "ex3", "nlcm", "ex10"), "--fixed-entries",
         help="triplet file 'i j q' of prescribed entries")
    # ex10's outer loop starts from modified PCA
    flag(("ex2", "ex3", "nlcm"), "--init", choices=("pca", "random"), default="pca")
    flag(("ex3",), "--weighted", action="store_true", default=False,
         help="random symmetric weights for the long-range instance")
    flag(("balogh",), "--l-mode", choices=("minus-one", "random"), default="minus-one")
    flag(PROBLEM_IDS, "--out", help="output path (stdout when omitted)")


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
    choose = run.add_subparsers(dest="problem", required=True, metavar="problem")
    _add_problem_flags({pid: choose.add_parser(pid, allow_abbrev=False) for pid in PROBLEM_IDS})

    drift = sub.add_parser("drift", allow_abbrev=False,
                           help="feasibility drift: the new kind vs the literal kind")
    drift.set_defaults(handler=_cmd_drift)
    drift.add_argument("--n", type=_positive_int, default=2000)
    drift.add_argument("--p", type=_positive_int, default=6)
    drift.add_argument("--steps", type=_nonnegative_int, default=2000)
    drift.add_argument("--seed", type=int, default=0)
    drift.add_argument("--out", help="output path (stdout when omitted)")
    return parser


@contextmanager
def _output(args, default_name):
    """The output stream: --out (relative to $STIEFELBB_OUT_DIR when that is
    set), else default_name under $STIEFELBB_OUT_DIR, else stdout."""
    env = os.environ.get(ENV_OUT_DIR)
    if args.out is None and not env:
        yield sys.stdout
        return
    # join keeps an absolute --out as it is
    path = os.path.join(env or "", default_name if args.out is None else args.out)
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
    print(f"{len(singles)} solve(s), {fails} line-search failure(s)", file=sys.stderr)
    # the mean rows follow the solves, rank by rank
    ranks = [list(g) for _, g in itertools.groupby(records[len(singles):], lambda m: m.p)]
    if len(records) - len(singles) > len(ranks):  # more than one configuration
        print(f"{'p':>4} {'scheme':>9} {'rho':>6} {'gtau':>9} {'a.nfe':>10} {'a.s.ratio':>10}",
              file=sys.stderr)
        for means in ranks:
            base = means[-1].nfge  # the saved ratio against the rank's last row
            for m in means:
                ratio = 100.0 * (m.nfge - base) / base
                print(f"{m.p:>4} {m.scheme:>9} {m.rho:>6.3g} {m.gtau:>9} "
                      f"{float(m.nfge):>10.1f} {ratio:>10.2f}", file=sys.stderr)
    return 0 if fails == 0 else 1


def _cmd_drift(args) -> int:
    if args.p > args.n:
        raise argparse.ArgumentTypeError(f"--p {args.p}: need p <= n = {args.n}")
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
    if args.command == "run" and args.fixed_entries is not None:
        # --fixed-entries moves ex2, ex3 and nlcm to the outer loop of ex10
        for name in ("--init", "--eps", "--eps-x", "--eps-f"):
            value = getattr(args, name[2:].replace("-", "_"))
            if value not in (None, "pca"):
                parser.error(f"{name} {value} does not apply to --fixed-entries, whose "
                             "outer loop starts from modified PCA and sets its tolerances")
    try:
        return args.handler(args)
    except argparse.ArgumentTypeError as err:  # a rank or p above n, known once n is
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
