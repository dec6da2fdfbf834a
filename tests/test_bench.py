"""Tests for run records, aggregation, the drift demo, and the command-line
entry point, whose comma lists run paired comparisons."""

import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stiefelbb import AugLagConfig
from stiefelbb.bench import (
    ENV_OUT_DIR,
    RECORD_FIELDS,
    RunRecord,
    _build_parser,
    aggregate_records,
    drift_demo,
    main,
    read_records,
    write_records,
)


def sample_record(**overrides):
    base = dict(
        problem_id="eigen",
        n=100,
        p=4,
        scheme="new",
        rho=0.25,
        gtau="linear",
        seed=7,
        stop_reason="ResidualRel",
        f_initial=-1.25,
        f_final=-7.5,
        residual=3.5e-9,
        feasi=8.8817841970012523e-16,
        nfge=23,
        iters=19,
        wall_ms=12.25,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRecordSerialization:
    def test_jsonl_round_trip(self):
        recs = [
            sample_record(),
            sample_record(seed=8, f_final=-123.4567890123456789, nfge=41),
        ]
        buf = io.StringIO()
        write_records(recs, buf, "jsonl")
        back = read_records(io.StringIO(buf.getvalue()), "jsonl")
        assert back == recs

    def test_csv_round_trip_is_lossless(self):
        recs = [
            sample_record(f_final=-0.1 - 0.2, residual=1.0 / 3.0),
            sample_record(seed=-1, stop_reason="mean", nfge=12.5, iters=3.25),
        ]
        buf = io.StringIO()
        write_records(recs, buf, "csv")
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(RECORD_FIELDS)
        back = read_records(io.StringIO(text), "csv")
        assert back == recs

    def test_read_from_path(self, tmp_path):
        path = tmp_path / "records.jsonl"
        recs = [sample_record()]
        with open(path, "w", encoding="utf-8") as fh:
            write_records(recs, fh, "jsonl")
        assert read_records(str(path), "jsonl") == recs

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            write_records([], io.StringIO(), "xml")
        with pytest.raises(ValueError):
            read_records(io.StringIO(""), "xml")

    def test_jsonl_skips_blank_lines(self):
        buf = io.StringIO()
        write_records([sample_record()], buf, "jsonl")
        padded = "\n" + buf.getvalue() + "\n\n"
        assert len(read_records(io.StringIO(padded), "jsonl")) == 1


class TestAggregation:
    def test_group_means(self):
        a1 = sample_record(seed=0, f_final=-10.0, nfge=20, iters=10, wall_ms=4.0)
        a2 = sample_record(seed=1, f_final=-11.0, nfge=23, iters=11, wall_ms=6.0)
        b = sample_record(problem_id="balogh", seed=0, f_final=-2.0)
        out = aggregate_records([a1, b, a2])
        assert [r.problem_id for r in out] == ["a.eigen", "a.balogh"]
        agg = out[0]
        assert agg.seed == -1
        assert agg.stop_reason == "mean"
        assert agg.f_final == pytest.approx(-10.5, abs=1e-12)
        assert agg.nfge == pytest.approx(21.5, abs=1e-12)
        assert agg.iters == pytest.approx(10.5, abs=1e-12)
        assert agg.wall_ms == pytest.approx(5.0, abs=1e-12)
        assert out[1].f_final == -2.0

    def test_integer_means_stay_integers(self):
        a1 = sample_record(seed=0, nfge=20, iters=10)
        a2 = sample_record(seed=1, nfge=22, iters=12)
        agg = aggregate_records([a1, a2])[0]
        assert agg.nfge == 21 and isinstance(agg.nfge, int)
        assert agg.iters == 11 and isinstance(agg.iters, int)


class TestDriftDemo:
    def test_zero_steps(self):
        assert drift_demo(20, 2, 0, True) == []

    def test_negative_steps_raise(self):
        with pytest.raises(ValueError):
            drift_demo(20, 2, -1, True)

    def test_controlled_vs_plain(self):
        controlled = drift_demo(60, 4, 60, True, seed=0)
        plain = drift_demo(60, 4, 60, False, seed=0)
        assert len(controlled) == 60
        assert 0 < len(plain) <= 60
        assert max(controlled) <= 1e-12
        assert plain[-1] > 100.0 * max(controlled)

    def test_deterministic(self):
        assert drift_demo(40, 3, 10, False, seed=1) == drift_demo(
            40, 3, 10, False, seed=1
        )


class TestCommandLine:
    def run_main(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_no_arguments_prints_help(self, capsys):
        code, out, _ = self.run_main([], capsys)
        assert code == 0
        assert "stiefel-bench" in out

    def test_help_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "drift" in capsys.readouterr().out

    def test_run_eigen_writes_records(self, tmp_path, capsys):
        out = tmp_path / "recs.jsonl"
        code, _, err = self.run_main(
            ["run", "eigen", "--n", "20", "--ranks", "2", "--seed", "1",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "1 solve(s)" in err
        recs = read_records(str(out), "jsonl")
        assert len(recs) == 2  # one solve + one aggregate row
        assert recs[0].problem_id == "eigen"
        assert recs[0].n == 20 and recs[0].p == 2 and recs[0].seed == 1
        assert recs[1].problem_id == "a.eigen"

    def test_balogh_planted_optimum(self, tmp_path, capsys):
        out = tmp_path / "recs.jsonl"
        code, _, _ = self.run_main(
            ["run", "balogh", "--n", "30", "--ranks", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        recs = read_records(str(out), "jsonl")
        assert recs[0].problem_id == "balogh"
        assert recs[0].f_final == pytest.approx(-2.0, rel=1e-5)

    def test_csv_output_parses_back(self, tmp_path, capsys):
        out = tmp_path / "recs.csv"
        code, _, _ = self.run_main(
            ["run", "eigen", "--n", "16", "--ranks", "2", "--format", "csv",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        with open(out, "r", encoding="utf-8") as fh:
            recs = read_records(fh, "csv")
        assert len(recs) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "eigen", "--problem", "balogh"],
            ["run", "eigen", "--p", "2"],
            ["run", "eigen", "--rank", "2"],
            ["heterogeneous", "--ranks", "2"],
            ["eigen", "--ranks", "2"],
            ["run", "eigen", "--config", "c.json"],
            ["run", "eigen", "--repeat", "0"],
            ["compare", "eigen", "--rho", "0.25,0.5"],
            ["run", "eigen", "--jobs", "0"],
            ["run", "eigen", "--n", "20", "--ranks", "2", "--uncontrolled"],
        ],
        ids=["problem-flag", "p-flag", "ranks-prefix", "alias", "implicit-run",
             "config-flag", "run-repeat-zero", "compare-command", "run-jobs-zero",
             "uncontrolled-flag"],
    )
    def test_dropped_spellings_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["eigen", "--n", "0"], "--n"),
            (["eigen", "--n", "-3"], "--n"),
            (["ex2", "--n", "0"], "--n"),
            (["ex10", "--n", "0"], "--n"),
            (["balogh", "--n", "0"], "--n"),
            (["eigen", "--n", "20", "--ranks", "2", "--rho", "0"], "--rho"),
            (["balogh", "--n", "20", "--ranks", "2", "--rho", "0.25,-1"], "--rho"),
            (["eigen", "--n", "20", "--ranks", "2", "--max-iter", "-1"], "--max-iter"),
            (["ex10", "--n", "30", "--ranks", "2", "--max-iter", "-1"], "--max-iter"),
            (["eigen", "--n", "20", "--ranks", "2", "--eps", "0"], "--eps"),
            (["ex3", "--n", "20", "--ranks", "2", "--eps-x", "-0.001"], "--eps-x"),
            (["eigen", "--n", "20", "--ranks", "2", "--eps-f", "0"], "--eps-f"),
            (["eigen", "--n", "20", "--ranks", "2", "--eps", "nan"], "--eps"),
        ],
        ids=["eigen-n-zero", "eigen-n-negative", "ex2-n-zero", "ex10-n-zero",
             "balogh-n-zero", "rho-zero", "rho-list-negative", "max-iter-negative",
             "ex10-max-iter-negative", "eps-zero", "eps-x-negative", "eps-f-zero",
             "eps-nan"],
    )
    def test_out_of_range_number_is_usage_error(self, args, flag, capsys):
        # checked at parse time, before any solve: exit 1 is kept for a
        # LineSearchFail solve
        with pytest.raises(SystemExit) as exc:
            main(["run", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}:" in captured.err
        assert "solve(s)" not in captured.err and not captured.out

    def test_zero_max_iter_is_a_valid_budget(self, tmp_path, capsys):
        out = tmp_path / "recs.jsonl"
        code, _, _ = self.run_main(
            ["run", "eigen", "--n", "20", "--ranks", "2", "--max-iter", "0",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        rec = read_records(str(out), "jsonl")[0]
        assert (rec.iters, rec.stop_reason) == (0, "MaxIter")

    @pytest.mark.parametrize(
        "args", [["ex10"], ["ex3", "--fixed-entries", "pins.txt"]],
        ids=["ex10", "fixed-entries"],
    )
    def test_random_start_with_pins_is_usage_error(self, args, tmp_path, monkeypatch, capsys):
        # the fixed-entry outer loop always starts from modified PCA
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pins.txt").write_text("2 1 0.0\n3 1 0.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", *args, "--n", "30", "--ranks", "3", "--init", "random"])
        assert exc.value.code == 2
        assert "--init random" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--eps", "--eps-x", "--eps-f"])
    @pytest.mark.parametrize(
        "args", [["ex10"], ["ex3", "--fixed-entries", "pins.txt"]],
        ids=["ex10", "fixed-entries"],
    )
    def test_tolerance_with_pins_is_usage_error(self, args, flag, tmp_path, monkeypatch,
                                                capsys):
        # the outer loop sets the tolerances of its sub-solves
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pins.txt").write_text("2 1 0.0\n3 1 0.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", *args, "--n", "30", "--ranks", "3", flag, "1e-3"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_max_iter_caps_each_pinned_sub_solve(self, tmp_path, capsys):
        out = tmp_path / "recs.jsonl"
        code, _, _ = self.run_main(
            ["run", "ex10", "--n", "60", "--ranks", "3", "--max-iter", "5",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        rec = read_records(str(out), "jsonl")[0]
        assert rec.iters <= 5 * AugLagConfig().max_outer

    @pytest.mark.parametrize("command", ["run"])
    @pytest.mark.parametrize("problem", ["eigen", "balogh"])
    def test_fixed_entries_on_unpinned_problem_is_usage_error(self, command, problem, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, problem, "--n", "20", "--ranks", "2", "--rho", "0.25",
                  "--fixed-entries", "no-such-file.txt"])
        assert exc.value.code == 2
        assert "--fixed-entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "ex2", "--scheme", "lowrank"],
            ["run", "ex10", "--scheme", "qr"],
            ["run", "ex3", "--uncontrolled"],
            ["run", "ex3", "--gtau", "expdamped"],
            ["run", "ex2", "--rho", "0.5"],
        ],
        ids=["run-ex2", "run-ex10", "run-uncontrolled", "run-gtau", "run-rho"],
    )
    def test_non_new_scheme_on_sphere_problem_is_usage_error(self, argv, capsys):
        # the correlation problems run on unit spheres, where only the
        # drift-safe 'new' curve is built and neither g(tau) nor rho acts:
        # run takes none of those flags there
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n", "60", "--ranks", "3"])
        assert exc.value.code == 2
        assert argv[2] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["run", "eigen", "--matrix-file", "a.npy", "--n", "50"], "--n"),
            (["run", "eigen", "--n", "20", "--ranks", "2", "--weighted", "--l-mode",
              "random", "--init", "random"], "--weighted --l-mode random --init random"),
            (["run", "ex10", "--n", "30", "--ranks", "2", "--weighted"], "--weighted"),
            (["run", "nlcm", "--n", "10", "--ranks", "2"], "--matrix-file"),
            (["run", "balogh", "--matrix-file", "x"], "--matrix-file"),
            (["run", "ex2", "--l-mode", "random"], "--l-mode"),
        ],
        ids=["eigen-n-and-file", "eigen-correlation-flags", "ex10-weighted",
             "nlcm-no-file", "balogh-file", "ex2-l-mode"],
    )
    def test_flag_on_problem_it_does_not_act_on_is_usage_error(self, argv, named, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, rank, n",
        [
            (["eigen", "--n", "5", "--ranks", "8"], 8, 5),
            (["ex3", "--n", "30", "--ranks", "5,50"], 50, 30),
            (["balogh", "--n", "5", "--ranks", "8"], 8, 5),
            (["eigen", "--n", "5", "--ranks", "0"], 0, 5),
            (["eigen", "--matrix-file", "a.npy", "--ranks", "6"], 6, 5),
            (["nlcm", "--matrix-file", "a.npy", "--ranks", "2,6"], 6, 5),
        ],
        ids=["eigen-above-n", "ex3-second-rank", "balogh-above-n", "eigen-zero",
             "eigen-file", "nlcm-file"],
    )
    def test_rank_outside_one_to_n_is_usage_error(self, args, rank, n, tmp_path,
                                                  monkeypatch, capsys):
        # checked once n is known (from the matrix file for nlcm and eigen
        # --matrix-file), before any solve runs
        monkeypatch.chdir(tmp_path)
        np.save(tmp_path / "a.npy", np.eye(5))
        with pytest.raises(SystemExit) as exc:
            main(["run", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"--ranks {rank}" in captured.err and f"n = {n}" in captured.err
        assert "solve(s)" not in captured.err and not captured.out

    @pytest.mark.parametrize(
        "args, named",
        [
            (["ex3", "--fixed-entries", "missing.txt"], "--fixed-entries missing.txt"),
            (["ex3", "--fixed-entries", ""], "--fixed-entries :"),
            (["eigen", "--matrix-file", ""], "--matrix-file :"),
            (["nlcm", "--matrix-file", "missing.npy"], "--matrix-file missing.npy"),
            (["eigen", "--matrix-file", "missing.npy"], "--matrix-file missing.npy"),
            (["ex3", "--fixed-entries", "short.txt"], "expected 'i j q'"),
            (["ex3", "--fixed-entries", "word.txt"], "--fixed-entries word.txt"),
            (["ex3", "--fixed-entries", "above-one.txt"], "[-1, 1]"),
            (["ex3", "--fixed-entries", "nan.txt"], "[-1, 1]"),
            (["ex3", "--fixed-entries", "index-above-n.txt"],
             "entry index 31 exceeds the dimension 30"),
            (["nlcm", "--matrix-file", "skew.npy"], "C must be symmetric"),
        ],
        ids=["pins-missing", "pins-empty-path", "eigen-matrix-empty-path", "nlcm-matrix-missing",
             "eigen-matrix-missing", "pins-short-line", "pins-word", "pin-above-one", "pin-nan",
             "pin-index-above-n", "nlcm-not-symmetric"],
    )
    def test_bad_input_file_is_usage_error(self, args, named, tmp_path, monkeypatch, capsys):
        # exit 1 stays the code of a LineSearchFail run; a bad file is found
        # before any solve runs
        monkeypatch.chdir(tmp_path)
        for name, text in (("short.txt", "2 1\n"), ("word.txt", "2 one 0.0\n"),
                           ("above-one.txt", "2 1 1.5\n"), ("nan.txt", "2 1 nan\n"),
                           ("index-above-n.txt", "2 1 0.0\n31 1 0.0\n")):
            (tmp_path / name).write_text(text)
        np.save(tmp_path / "skew.npy", np.eye(5) + np.eye(5, k=1))
        with pytest.raises(SystemExit) as exc:
            main(["run", *args, "--ranks", "2"] + (["--n", "30"] if args[0] == "ex3" else []))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert "solve(s)" not in captured.err and not captured.out

    def test_unknown_problem_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "bogus"])

    def test_missing_problem_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_gtau_warning_on_insensitive_scheme(self, tmp_path, capsys):
        out = tmp_path / "recs.jsonl"
        code, _, err = self.run_main(
            ["run", "eigen", "--n", "16", "--ranks", "2", "--scheme", "qr",
             "--gtau", "expdamped", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "ignored" in err

    def test_env_out_dir_resolves_relative_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path))
        code, _, _ = self.run_main(
            ["run", "eigen", "--n", "16", "--ranks", "2", "--out", "sub/e.jsonl"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "sub" / "e.jsonl").exists()

    def test_env_out_dir_supplies_default_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path))
        code, _, _ = self.run_main(
            ["run", "eigen", "--n", "16", "--ranks", "2"], capsys
        )
        assert code == 0
        assert (tmp_path / "stiefelbb-run.jsonl").exists()

    def test_config_file_defaults(self, tmp_path, capsys):
        flags = tmp_path / "flags.txt"
        flags.write_text("--n\n16\n--ranks\n2\n--seed\n3\n")
        out = tmp_path / "recs.jsonl"
        code, _, _ = self.run_main(
            ["run", "eigen", f"@{flags}", "--seed", "5", "--out", str(out)], capsys
        )
        assert code == 0
        rec = read_records(str(out), "jsonl")[0]
        assert rec.n == 16 and rec.p == 2 and rec.seed == 5

    def test_readme_examples_parse(self, tmp_path, monkeypatch):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Command line")[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [ln for ln in block.splitlines() if ln.startswith("stiefel-bench ")]
        assert lines
        monkeypatch.chdir(tmp_path)  # @FILE arguments are read relative to here
        parser = _build_parser()
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            for tok in argv:
                if tok.startswith("@"):
                    (tmp_path / tok[1:]).write_text("")
            assert parser.parse_args(argv).command == argv[0], line

    def test_jobs_do_not_change_results(self, tmp_path, capsys):
        outs = []
        for jobs, name in ((1, "a.jsonl"), (2, "b.jsonl")):
            out = tmp_path / name
            code, _, _ = self.run_main(
                ["run", "eigen", "--n", "20", "--ranks", "2", "--repeat", "3",
                 "--jobs", str(jobs), "--out", str(out)],
                capsys,
            )
            assert code == 0
            outs.append(read_records(str(out), "jsonl"))
        for ra, rb in zip(*outs):
            da, db = ra.to_dict(), rb.to_dict()
            da.pop("wall_ms"), db.pop("wall_ms")
            assert da == db

    def test_run_grid_has_one_mean_row_per_rank_and_configuration(self, tmp_path, capsys):
        out = tmp_path / "grid.jsonl"
        code, _, err = self.run_main(
            ["run", "eigen", "--n", "16", "--ranks", "2,3", "--scheme", "qr,new",
             "--repeat", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "8 solve(s)" in err
        means = [r for r in read_records(str(out), "jsonl") if r.stop_reason == "mean"]
        assert [(r.p, r.scheme) for r in means] == [(2, "qr"), (2, "new"), (3, "qr"), (3, "new")]
        # the saved-ratio table: each rank's last configuration is its baseline
        table = err.split("a.s.ratio\n", 1)[1].splitlines()
        assert [ln.split()[:2] for ln in table] == [["2", "qr"], ["2", "new"], ["3", "qr"],
                                                   ["3", "new"]]
        assert table[1].split()[-1] == table[3].split()[-1] == "0.00"
        # each ratio is 100 (a.nfe - base) / base against its rank's last mean row
        for ln, m in zip(table, means):
            base = float(means[1 if m.p == 2 else 3].nfge)
            assert ln.split()[-1] == f"{100.0 * (float(m.nfge) - base) / base:.2f}"

    def test_new_and_literal_kinds_pair_on_the_same_starts(self, tmp_path, capsys):
        out = tmp_path / "pair.jsonl"
        code, _, _ = self.run_main(
            ["run", "eigen", "--n", "30", "--ranks", "2,3", "--scheme", "new,literal",
             "--repeat", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        recs = read_records(str(out), "jsonl")
        means = [r for r in recs if r.stop_reason == "mean"]
        assert [(r.p, r.scheme) for r in means] == [(2, "new"), (2, "literal"), (3, "new"),
                                                   (3, "literal")]
        # each instance is solved by both kinds, one after the other, from one start
        solves = [r for r in recs if r.stop_reason != "mean"]
        for a, b in zip(solves[::2], solves[1::2]):
            assert (a.scheme, b.scheme) == ("new", "literal")
            assert (a.p, a.seed, a.f_initial) == (b.p, b.seed, b.f_initial)

    def test_drift_command(self, tmp_path, capsys):
        out = tmp_path / "drift.tsv"
        code, _, _ = self.run_main(
            ["drift", "--n", "40", "--p", "3", "--steps", "5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# iter")
        assert len(lines) == 6
        assert lines[1].split("\t")[0] == "1"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--n", "0"], "argument --n:"),
            (["--p", "0"], "argument --p:"),
            (["--steps", "-1"], "argument --steps:"),
            (["--n", "20", "--p", "30"], "--p 30: need p <= n = 20"),
        ],
        ids=["n-zero", "p-zero", "steps-negative", "p-above-n"],
    )
    def test_drift_out_of_range_is_usage_error(self, args, message, capsys):
        # rejected before the demo runs a single step
        with pytest.raises(SystemExit) as exc:
            main(["drift", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def test_fixed_entries_route_runs_outer_loop(self, tmp_path, capsys):
        entries = tmp_path / "fes.txt"
        entries.write_text("5 1 0.0\n9 2 0.0\n")
        out = tmp_path / "recs.jsonl"
        code, _, _ = self.run_main(
            ["run", "ex3", "--n", "25", "--ranks", "3",
             "--fixed-entries", str(entries), "--out", str(out)],
            capsys,
        )
        assert code == 0
        rec = read_records(str(out), "jsonl")[0]
        assert rec.stop_reason in ("NuTarget", "OuterCap")
        assert rec.feasi <= 1e-12

    def test_nlcm_requires_matrix_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "nlcm", "--n", "10"])

    def test_matrix_file_eigen_route(self, tmp_path, capsys):
        mat = tmp_path / "a.npy"
        a = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        np.save(mat, a)
        out = tmp_path / "recs.jsonl"
        code, _, _ = self.run_main(
            ["run", "eigen", "--matrix-file", str(mat), "--ranks", "2",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        rec = read_records(str(out), "jsonl")[0]
        assert rec.n == 5
        assert rec.f_final == pytest.approx(-9.0, abs=1e-6)

    def test_module_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop(ENV_OUT_DIR, None)
        proc = subprocess.run(
            [sys.executable, "-m", "stiefelbb.bench", "drift",
             "--n", "20", "--p", "2", "--steps", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("# iter")
