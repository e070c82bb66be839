import csv
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from oracles import model_satisfies
from satgp import cli, harness
from satgp.cli import EXIT_ERROR, EXIT_SAT, EXIT_UNSAT, _solver_config, build_parser, main
from satgp.cnf import (
    random_3sat,
    read_dimacs,
    read_mapping,
    write_dimacs,
)
from satgp.harness import BUNDLED_3SAT, config_hash
from satgp.lang import MAX_NESTING
from satgp.solver import SolverConfig


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def bundled_file(workdir):
    cnf = random_3sat(**BUNDLED_3SAT)
    path = workdir / "bundled.cnf"
    path.write_text(write_dimacs(cnf))
    return str(path)


@pytest.fixture
def sat_file(workdir):
    path = workdir / "sat.cnf"
    path.write_text("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
    return str(path)


@pytest.fixture
def unsat_file(workdir):
    path = workdir / "unsat.cnf"
    path.write_text("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    return str(path)


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def strip_time_columns(lines):
    """Drop the two trailing wall-time columns of validation.csv rows."""
    out = []
    for line in lines:
        if line.startswith("#") or line.startswith("problem"):
            out.append(line)
        else:
            out.append(",".join(line.split(",")[:-2]))
    return out


class TestSolve:
    def test_sat_exit_code_and_stats_line(self, sat_file, capsys):
        code = main(["solve", sat_file, "--model"])
        out = capsys.readouterr().out
        assert code == EXIT_SAT
        assert "s SATISFIABLE" in out
        assert any(line.startswith("c conflicts=") for line in out.splitlines())
        assert any(line.startswith("v ") for line in out.splitlines())

    def test_unsat_exit_code(self, unsat_file, capsys):
        assert main(["solve", unsat_file]) == EXIT_UNSAT
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_parse_error_exit_code(self, workdir, capsys):
        bad = workdir / "bad.cnf"
        bad.write_text("p cnf 1 1\nwhat 0\n")
        assert main(["solve", str(bad)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "no_such_file.cnf"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: no_such_file.cnf: No such file or directory\n"
        assert main(["validate", "preset:add_lc", "no_such_file.cnf"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: no_such_file.cnf: No such file or directory\n"

    def test_os_error_without_filename_reported_by_reason(self, sat_file, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["solve", sat_file]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: Broken pipe\n"

    def test_model_satisfies_original_even_with_preprocessing(self, workdir, capsys):
        path = workdir / "mix.cnf"
        path.write_text("p cnf 4 4\n1 0\n-1 2 0\n-2 3 4 0\n-3 -4 0\n")
        assert main(["solve", str(path), "--model"]) == EXIT_SAT
        out = capsys.readouterr().out
        lits = []
        for line in out.splitlines():
            if line.startswith("v "):
                lits += [int(t) for t in line[2:].split() if t != "0"]
        model = {abs(l): l > 0 for l in lits}
        assert model_satisfies(read_dimacs(str(path)), model)

    def test_preset_init_with_manifest(self, bundled_file, workdir, capsys):
        code = main(
            ["solve", bundled_file, "--init", "preset:add_lc",
             "--out", str(workdir / "m")]
        )
        assert code == EXIT_UNSAT
        manifest = json.loads((workdir / "m" / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["version"]
        assert bundled_file in manifest["inputs"]

    def test_init_from_file(self, sat_file, workdir, capsys):
        acts = workdir / "acts.txt"
        acts.write_text("0.5 0.25 1.0\n")
        assert main(["solve", sat_file, "--init", f"file:{acts}"]) == EXIT_SAT

    def test_init_file_wrong_length(self, sat_file, workdir, capsys):
        acts = workdir / "short.txt"
        acts.write_text("0.5\n")
        assert main(["solve", sat_file, "--init", f"file:{acts}"]) == EXIT_ERROR
        assert "length" in capsys.readouterr().err

    def test_unknown_init_spec(self, sat_file, capsys):
        assert main(["solve", sat_file, "--init", "nonsense"]) == EXIT_ERROR

    def test_preprocessing_only_sat(self, workdir, capsys):
        path = workdir / "units.cnf"
        path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
        assert main(["solve", str(path), "--model"]) == EXIT_SAT
        out = capsys.readouterr().out
        assert "c conflicts=0 decisions=0" in out

    def test_preprocessing_only_unsat(self, workdir, capsys):
        path = workdir / "contr.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["solve", str(path)]) == EXIT_UNSAT

    # Every line of `solve --model`, wall_time masked, for each outcome.
    @pytest.mark.parametrize("text,code,lines", [
        ("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n", EXIT_SAT, [
            "c file=f.cnf vars=3 clauses=3",
            "c forced=0 preprocess=reduced",
            "s SATISFIABLE",
            "c conflicts=0 decisions=1 propagations=2",
            "c wall_time=X",
            "v -1 2 -3",
            "v 0",
        ]),
        ("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n", EXIT_UNSAT, [
            "c file=f.cnf vars=2 clauses=4",
            "c forced=0 preprocess=reduced",
            "s UNSATISFIABLE",
            "c conflicts=2 decisions=1 propagations=2",
            "c wall_time=X",
        ]),
        ("p cnf 4 4\n1 0\n-1 2 0\n-2 3 4 0\n-3 -4 0\n", EXIT_SAT, [
            "c file=f.cnf vars=4 clauses=4",
            "c forced=2 preprocess=reduced",
            "s SATISFIABLE",
            "c conflicts=0 decisions=3 propagations=1",
            "c wall_time=X",
            "v 1 2 -3 4",
            "v 0",
        ]),
        ("p cnf 3 2\n1 0\n-1 2 0\n", EXIT_SAT, [
            "c file=f.cnf vars=3 clauses=2",
            "c forced=2 preprocess=satisfied",
            "s SATISFIABLE",
            "c conflicts=0 decisions=0 propagations=0",
            "v 1 2 -3",
            "v 0",
        ]),
        ("p cnf 1 2\n1 0\n-1 0\n", EXIT_UNSAT, [
            "c file=f.cnf vars=1 clauses=2",
            "c forced=1 preprocess=unsatisfiable",
            "s UNSATISFIABLE",
            "c conflicts=0 decisions=0 propagations=0",
        ]),
    ], ids=["search-sat", "search-unsat", "search-sat-forced", "preprocess-sat",
            "preprocess-unsat"])
    def test_model_output_pinned(self, workdir, capsys, text, code, lines):
        (workdir / "f.cnf").write_text(text)
        assert main(["solve", "f.cnf", "--model"]) == code
        out = capsys.readouterr().out
        assert re.sub(r"wall_time=\d+\.\d{6}\n", "wall_time=X\n", out).splitlines() == lines


class TestHistogram:
    def test_artifacts_and_determinism(self, bundled_file, workdir, capsys):
        for name in ("h1", "h2"):
            code = main(
                ["histogram", bundled_file, "--samples", "12", "--seed", "5",
                 "--out", str(workdir / name)]
            )
            assert code == 0
        h1 = read_lines(workdir / "h1" / "histogram.csv")
        h2 = read_lines(workdir / "h2" / "histogram.csv")
        assert h1 == h2
        s1 = read_lines(workdir / "h1" / "samples.csv")
        s2 = read_lines(workdir / "h2" / "samples.csv")
        assert s1 == s2
        counts = [int(line.split(",")[1]) for line in h1[2:]]
        assert sum(counts) == 12
        manifest = json.loads((workdir / "h1" / "manifest.json").read_text())
        assert manifest["master_seed"] == 5

    @pytest.mark.parametrize("text,verdict", [
        ("p cnf 2 2\n1 0\n-1 2 0\n", "satisfied"),
        ("p cnf 1 2\n1 0\n-1 0\n", "unsatisfiable"),
    ])
    def test_decided_by_preprocessing_refused(self, workdir, capsys, text, verdict):
        path = workdir / "units.cnf"
        path.write_text(text)
        code = main(["histogram", str(path), "--samples", "3", "--out", str(workdir / "h")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: problem is {verdict} after preprocessing\n"
        assert not (workdir / "h").exists()

    def test_trivial_instance_fails_cleanly(self, workdir, capsys):
        path = workdir / "triv.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n")
        code = main(["histogram", str(path), "--samples", "3",
                     "--out", str(workdir / "h")])
        assert code == EXIT_ERROR

    def test_conflict_free_baseline_fails_cleanly(self, workdir, capsys):
        # Survives preprocessing but solves without conflicts, so percent
        # of baseline is undefined.
        path = workdir / "easy.cnf"
        path.write_text("p cnf 3 2\n1 2 0\n2 3 0\n")
        code = main(["histogram", str(path), "--samples", "3",
                     "--out", str(workdir / "h")])
        assert code == EXIT_ERROR
        assert "baseline has no conflicts" in capsys.readouterr().err

    def test_bad_range(self, bundled_file, workdir, capsys):
        code = main(["histogram", bundled_file, "--range", "zz",
                     "--out", str(workdir / "h")])
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("flag", [["--range", "0:inf"], ["--range=-1e308:1e308"]])
    def test_non_finite_range_refused_before_search(
        self, bundled_file, workdir, capsys, monkeypatch, flag
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking the range")

        monkeypatch.setattr(harness, "solve_with_baseline", no_search)
        code = main(["histogram", bundled_file, *flag, "--out", str(workdir / "h")])
        assert code == EXIT_ERROR
        assert "hi - lo must be finite" in capsys.readouterr().err

    def test_jobs_flag_does_not_change_artifacts(self, bundled_file, workdir, capsys):
        for name, jobs in (("j1", "1"), ("j2", "2")):
            assert main(["histogram", bundled_file, "--samples", "8",
                         "--seed", "4", "--jobs", jobs,
                         "--out", str(workdir / name)]) == 0
        assert read_lines(workdir / "j1" / "samples.csv") == read_lines(
            workdir / "j2" / "samples.csv"
        )


class TestEvolve:
    def test_artifacts_deterministic_and_log_monotone(self, bundled_file, workdir, capsys):
        args = ["evolve", bundled_file, "--pop", "8", "--gens", "2", "--seed", "7"]
        assert main(args + ["--out", str(workdir / "e1")]) == 0
        assert main(args + ["--out", str(workdir / "e2")]) == 0
        log1 = read_lines(workdir / "e1" / "evolution_log.csv")
        log2 = read_lines(workdir / "e2" / "evolution_log.csv")
        assert log1 == log2
        best1 = (workdir / "e1" / "best_program.txt").read_text()
        best2 = (workdir / "e2" / "best_program.txt").read_text()
        assert best1 == best2
        fits = [float(line.split(",")[1]) for line in log1[2:]]
        assert all(b <= a for a, b in zip(fits, fits[1:]))
        assert (workdir / "e1" / "checkpoint.txt").exists()

    def test_gens_zero(self, bundled_file, workdir, capsys):
        code = main(
            ["evolve", bundled_file, "--pop", "6", "--gens", "0", "--seed", "3",
             "--out", str(workdir / "e0")]
        )
        assert code == 0
        log = read_lines(workdir / "e0" / "evolution_log.csv")
        assert len(log) == 3  # comment, header, generation 0

    def test_resume_from_checkpoint(self, bundled_file, workdir, capsys):
        base = ["evolve", bundled_file, "--pop", "6", "--seed", "11"]
        assert main(base + ["--gens", "3", "--out", str(workdir / "full")]) == 0
        assert main(base + ["--gens", "2", "--out", str(workdir / "part")]) == 0
        assert (
            main(
                base
                + ["--gens", "3", "--out", str(workdir / "resumed"),
                   "--resume", str(workdir / "part" / "checkpoint.txt")]
            )
            == 0
        )
        full_log = read_lines(workdir / "full" / "evolution_log.csv")
        resumed_log = read_lines(workdir / "resumed" / "evolution_log.csv")
        assert full_log[-1] == resumed_log[-1]
        assert (workdir / "full" / "best_program.txt").read_text() == (
            workdir / "resumed" / "best_program.txt"
        ).read_text()

    @pytest.mark.parametrize("case_file,extra,field", [
        ("bundled", ["--pop", "7"], "population_size"),
        ("bundled", ["--var-decay", "0.9"], "config_hash"),
        ("bundled", ["--solver-seed", "1"], "config_hash"),
        ("other", [], "cases_digest"),
    ])
    def test_resume_refuses_other_run(
        self, bundled_file, workdir, capsys, case_file, extra, field
    ):
        other = workdir / "other.cnf"
        other.write_text(write_dimacs(random_3sat(20, 85, seed=77)))
        files = {"bundled": bundled_file, "other": str(other)}
        part = workdir / "part"
        assert main(["evolve", bundled_file, "--pop", "6", "--seed", "11",
                     "--gens", "1", "--out", str(part)]) == 0
        resumed = workdir / "resumed"
        code = main(["evolve", files[case_file], "--pop", "6", "--seed", "11",
                     "--gens", "2", *extra, "--out", str(resumed),
                     "--resume", str(part / "checkpoint.txt")])
        assert code == EXIT_ERROR
        assert f"checkpoint {field}" in capsys.readouterr().err
        assert not (resumed / "evolution_log.csv").exists()

    def test_truncated_checkpoint_refused(self, bundled_file, workdir, capsys):
        base = ["evolve", bundled_file, "--pop", "6", "--seed", "11"]
        assert main(base + ["--gens", "1", "--out", str(workdir / "part")]) == 0
        checkpoint = workdir / "part" / "checkpoint.txt"
        checkpoint.write_text("".join(checkpoint.read_text().splitlines(True)[:3]))
        code = main(base + ["--gens", "2", "--out", str(workdir / "resumed"),
                            "--resume", str(checkpoint)])
        assert code == EXIT_ERROR
        assert "holds 2 individuals" in capsys.readouterr().err

    # Each case rewrites one line of a valid checkpoint with re.sub.
    @pytest.mark.parametrize("line,pattern,new,message", [
        (1, r"^[^\t]*", "nan", "checkpoint line 2: fitness 'nan' is not a finite number >= 0"),
        (1, r"^[^\t]*", "-4.5", "checkpoint line 2: fitness '-4.5' is not a finite number >= 0"),
        (1, r"^[^\t]*", "inf", "checkpoint line 2: fitness 'inf' is not a finite number >= 0"),
        (1, r"^[^\t]*", "x", "checkpoint line 2: could not convert string to float: 'x'"),
        (2, r"\t.*", "\tIN: add(", "checkpoint line 3: unexpected end of expression"),
        (0, r"generation=\d+", "generation=-3",
         "checkpoint generation is -3, expected an integer >= 0"),
        (0, r"generation=\d+", "generation=x",
         "checkpoint generation is x, expected an integer >= 0"),
        (0, r"rng_state=\d+", "rng_state=-5",
         "checkpoint rng_state is -5, expected an integer >= 0 below 2**64"),
        (0, r"rng_state=\d+", f"rng_state={2**64}",
         f"checkpoint rng_state is {2**64}, expected an integer >= 0 below 2**64"),
        (0, r" population_size", " junk population_size",
         "checkpoint header part 'junk' has no value"),
    ], ids=["fitness-nan", "fitness-negative", "fitness-inf", "fitness-text", "program", "generation-negative",
            "generation-text", "rng-negative", "rng-too-large", "header-part"])
    def test_malformed_checkpoint_refused(
        self, bundled_file, workdir, capsys, line, pattern, new, message
    ):
        base = ["evolve", bundled_file, "--pop", "6", "--seed", "11"]
        assert main(base + ["--gens", "1", "--out", str(workdir / "part")]) == 0
        checkpoint = workdir / "part" / "checkpoint.txt"
        lines = checkpoint.read_text().splitlines()
        lines[line], found = re.subn(pattern, new, lines[line], count=1)
        assert found == 1
        checkpoint.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        resumed = workdir / "resumed"
        code = main(base + ["--gens", "2", "--out", str(resumed), "--resume", str(checkpoint)])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not resumed.exists()

    def test_resume_without_generations_left_refused(self, bundled_file, workdir, capsys):
        base = ["evolve", bundled_file, "--pop", "6", "--seed", "11"]
        assert main(base + ["--gens", "2", "--out", str(workdir / "part")]) == 0
        capsys.readouterr()
        for gens in ("1", "2"):
            resumed = workdir / f"resumed{gens}"
            code = main(base + ["--gens", gens, "--out", str(resumed),
                                "--resume", str(workdir / "part" / "checkpoint.txt")])
            assert code == EXIT_ERROR
            err = capsys.readouterr().err
            assert f"--gens {gens}" in err and "generation 2" in err
            assert not resumed.exists()

    def test_jobs_do_not_change_artifacts_and_counts_are_printed(
        self, bundled_file, workdir, capsys
    ):
        lines = {}
        for jobs in ("1", "2"):
            assert main(["evolve", bundled_file, "--pop", "8", "--gens", "1",
                         "--seed", "7", "--jobs", jobs,
                         "--out", str(workdir / f"j{jobs}")]) == 0
            lines[jobs] = capsys.readouterr().out.splitlines()[0]
        for name in ("evolution_log.csv", "checkpoint.txt", "best_program.txt"):
            j1, j2 = ((workdir / d / name).read_bytes() for d in ("j1", "j2"))
            assert j1 == j2
        match = re.fullmatch(r"(\d+) evaluations, (\d+) interpreter runs, (\d+) searches",
                             lines["1"])
        evaluations, runs, searches = (int(g) for g in match.groups())
        assert 8 <= evaluations and searches <= runs <= evaluations
        assert lines["2"] == lines["1"]

    def test_log_rows_are_the_generation_records(
        self, bundled_file, workdir, capsys, monkeypatch
    ):
        run_evolution = cli.run_evolution
        runs = []

        def recording_run_evolution(*args, **kwargs):
            runs.append(run_evolution(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_evolution", recording_run_evolution)
        # At this seed generation 0's best program is `progn2(ls, nc)`,
        # whose comma the CSV must quote.
        assert main(["evolve", bundled_file, "--pop", "6", "--gens", "1", "--seed", "5",
                     "--out", str(workdir / "e")]) == 0
        _, log = runs[0]
        with open(workdir / "e" / "evolution_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))[2:]
        assert [row[4] for row in rows] == [rec.best_program for rec in log]
        assert any("," in rec.best_program for rec in log)
        assert [row[:4] for row in rows] == [
            [str(rec.generation), repr(rec.best_fitness), repr(rec.mean_fitness),
             str(rec.best_nodes)]
            for rec in log
        ]

    def test_trivial_case_rejected(self, workdir, capsys):
        path = workdir / "triv.cnf"
        path.write_text("p cnf 1 1\n1 0\n")
        code = main(["evolve", str(path), "--pop", "4", "--gens", "1",
                     "--out", str(workdir / "e")])
        assert code == EXIT_ERROR
        assert "require search" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["histogram", "evolve"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_rejected(command, jobs, bundled_file, workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, bundled_file, "--jobs", jobs, "--out", str(workdir / "o")])
    assert exc.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err
    assert not (workdir / "o").exists()


class TestReorderCommand:
    def test_roundtrip_via_mapping(self, bundled_file, workdir, capsys):
        assert main(["reorder", bundled_file, "--seed", "9",
                     "--out", str(workdir / "r")]) == 0
        reordered = read_dimacs(workdir / "r" / "bundled.reordered.cnf")
        mapping = read_mapping((workdir / "r" / "bundled.map").read_text())
        original = read_dimacs(bundled_file)
        for new_idx, clause in enumerate(reordered.clauses):
            recovered = tuple(mapping.unmap_literal(l) for l in clause)
            assert recovered == original.clauses[mapping.clause_map[new_idx]]

    def test_reorder_solve_map_back(self, workdir, capsys):
        cnf = random_3sat(18, 60, seed=77)  # satisfiable at this ratio
        src = workdir / "inst.cnf"
        src.write_text(write_dimacs(cnf))
        assert main(["reorder", str(src), "--seed", "4",
                     "--out", str(workdir / "r2")]) == 0
        reordered_path = workdir / "r2" / "inst.reordered.cnf"
        code = main(["solve", str(reordered_path), "--model"])
        assert code == EXIT_SAT  # instance chosen satisfiable
        # map a model of the reordered problem back and verify it on the
        # original
        from satgp.cnf import preprocess_bcp
        from satgp.solver import solve_with_baseline

        mapping = read_mapping((workdir / "r2" / "inst.map").read_text())
        reordered = read_dimacs(reordered_path)
        reduced, verdict, forced = preprocess_bcp(reordered)
        out = solve_with_baseline(reduced)
        model = dict(out.model)
        for lit in forced:
            model[abs(lit)] = lit > 0
        back = mapping.translate_model_back(model)
        assert model_satisfies(cnf, back)


class TestValidateCommand:
    def test_zero_program_rows_at_100(self, bundled_file, workdir, capsys):
        assert main(["validate", "preset:zero", bundled_file,
                     "--out", str(workdir / "v")]) == 0
        rows = read_lines(workdir / "v" / "validation.csv")[2:]
        assert all(row.split(",")[3] == "100.000" for row in rows)

    def test_program_file_and_determinism(self, bundled_file, workdir, capsys):
        prog = workdir / "prog.txt"
        prog.write_text("IN: sub(xp)\n")
        for name in ("va", "vb"):
            assert main(["validate", str(prog), bundled_file,
                         "--out", str(workdir / name)]) == 0
        a = strip_time_columns(read_lines(workdir / "va" / "validation.csv"))
        b = strip_time_columns(read_lines(workdir / "vb" / "validation.csv"))
        assert a == b

    def test_unknown_preset(self, bundled_file, workdir, capsys):
        assert main(["validate", "preset:nope", bundled_file,
                     "--out", str(workdir / "v")]) == EXIT_ERROR
        assert "unknown preset" in capsys.readouterr().err

    def test_too_deeply_nested_program(self, bundled_file, workdir, capsys):
        prog = workdir / "deep.txt"
        prog.write_text("IN: " + "neg(" * 165 + "lc" + ")" * 165 + "\n")
        assert main(["validate", str(prog), bundled_file,
                     "--out", str(workdir / "v")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: program nested deeper than {MAX_NESTING} levels"]


class TestManifests:
    # (argv before --out, with {a}/{b} for the two CNF files, {acts} for an
    #  activity file, {prog} for a program file and {ckpt} for a checkpoint;
    #  exit code, master seed, solver config or None, inputs recorded)
    CASES = {
        "solve": (["solve", "{a}", "--solver-seed", "2"], EXIT_UNSAT,
                  2, SolverConfig(rng_seed=2), ["{a}"]),
        "histogram": (["histogram", "{a}", "--samples", "3", "--seed", "5"], 0,
                      5, SolverConfig(), ["{a}"]),
        "evolve": (["evolve", "{a}", "{b}", "--pop", "4", "--gens", "0",
                    "--seed", "7", "--var-decay", "0.9"], 0,
                   7, SolverConfig(var_decay=0.9), ["{a}", "{b}"]),
        "reorder": (["reorder", "{a}", "--seed", "9"], 0, 9, None, ["{a}"]),
        "validate": (["validate", "preset:add_lc", "{a}", "{b}",
                      "--solver-seed", "1"], 0,
                     1, SolverConfig(rng_seed=1), ["{a}", "{b}"]),
        "gen": (["gen", "--vars", "10", "--clauses", "42", "--seed", "3"], 0,
                3, None, []),
        "solve-init-file": (["solve", "{a}", "--init", "file:{acts}"], EXIT_UNSAT,
                            0, SolverConfig(), ["{a}", "{acts}"]),
        "validate-program-file": (["validate", "{prog}", "{a}"], 0,
                                  0, SolverConfig(), ["{prog}", "{a}"]),
        "evolve-resume": (["evolve", "{a}", "--pop", "4", "--gens", "1", "--seed", "7",
                           "--resume", "{ckpt}"], 0,
                          7, SolverConfig(), ["{a}", "{ckpt}"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_manifest_records_run(self, case, bundled_file, workdir, capsys):
        other = workdir / "other.cnf"
        other.write_text(write_dimacs(random_3sat(20, 85, seed=77)))
        acts = workdir / "acts.txt"
        acts.write_text(" ".join(str(i / 50) for i in range(50)) + "\n")
        prog = workdir / "prog.txt"
        prog.write_text("IN: sub(xp)\n")
        files = {"a": bundled_file, "b": str(other), "acts": str(acts), "prog": str(prog),
                 "ckpt": str(workdir / "part" / "checkpoint.txt")}
        argv, code, seed, config, inputs = self.CASES[case]
        if "{ckpt}" in argv:
            assert main(["evolve", bundled_file, "--pop", "4", "--gens", "0", "--seed", "7",
                         "--out", str(workdir / "part")]) == 0
        argv = [arg.format(**files) for arg in argv]
        out = workdir / "out"
        assert main(argv + ["--out", str(out)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["master_seed"] == seed
        assert manifest["config_hash"] == ("" if config is None else config_hash(config))
        paths = [path.format(**files) for path in inputs]
        assert manifest["inputs"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths
        }
        assert manifest["flags"]["out"] == str(out)

    @pytest.mark.parametrize("text,verdict,code", [
        ("p cnf 2 2\n1 0\n-1 2 0\n", "satisfied", EXIT_SAT),
        ("p cnf 1 2\n1 0\n-1 0\n", "unsatisfiable", EXIT_UNSAT),
    ])
    def test_solve_decided_by_preprocessing_writes_manifest(
        self, workdir, capsys, text, verdict, code
    ):
        path = workdir / "units.cnf"
        path.write_text(text)
        out = workdir / "out"
        assert main(["solve", str(path), "--out", str(out)]) == code
        assert f"preprocess={verdict}" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["inputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        }


class TestSolverFlags:
    def test_defaults_are_solver_config_defaults(self):
        for argv in (["solve", "f"], ["histogram", "f"], ["evolve", "f"],
                     ["validate", "preset:zero", "f"]):
            assert _solver_config(build_parser().parse_args(argv)) == SolverConfig()

    # Refused before any file is read: `decided` is solved by preprocessing,
    # where no search would ever check the config and no fitness case is
    # accepted.
    @pytest.mark.parametrize("argv", [
        ["solve", "no_such_file.cnf"],
        ["solve", "{f}"],
        ["solve", "{f}", "--out", "{out}"],
        ["histogram", "{f}", "--samples", "3", "--out", "{out}"],
        ["evolve", "{f}", "--pop", "4", "--gens", "1", "--out", "{out}"],
        ["validate", "preset:zero", "{f}", "--out", "{out}"],
    ])
    @pytest.mark.parametrize("flag,message", [
        (["--var-decay", "1.5"], "var_decay must be in (0, 1)"),
        (["--random-freq", "1.0"], "random_decision_freq must be in [0, 1)"),
        (["--restart-first", "0"], "restart_first must be >= 1"),
    ])
    def test_bad_flag_refused_up_front(self, workdir, capsys, argv, flag, message):
        self.assert_refused_up_front(workdir, capsys, argv + flag, message)

    @pytest.mark.parametrize("argv,message", [
        (["histogram", "--samples", "0"], "samples must be >= 1"),
        (["histogram", "--range", "zz"], "bad --range 'zz'; expected lo:hi"),
        (["histogram", "--samples", "0", "--range", "zz"], "bad --range 'zz'; expected lo:hi"),
        (["histogram", "--range", "1:0"],
         "range 1.0:0.0: need lo < hi (or the degenerate all-zero range 0:0)"),
        (["histogram", "--range", "0:inf"], "range 0.0:inf: lo, hi and hi - lo must be finite"),
        (["evolve", "--pop", "1"], "population_size must be >= 2"),
        (["evolve", "--gens", "-3"], "generations must be >= 0"),
        (["evolve", "--pop", "1", "--gens", "-3"], "generations must be >= 0"),
        (["solve", "--init", "nonsense"],
         "unknown --init 'nonsense'; use zero, preset:<name> or file:<path>"),
        (["solve", "--init", "preset:nope"],
         "unknown preset 'nope'; available: add_lc, precursor, sub_xp, zero"),
        (["solve", "--init", "file:no_such_acts.txt"],
         "no_such_acts.txt: No such file or directory"),
    ], ids=["samples", "range-syntax", "samples-and-range", "range-order", "range-finite",
            "pop", "gens", "pop-and-gens", "init-kind", "init-preset", "init-file"])
    def test_command_flag_refused_up_front(self, workdir, capsys, argv, message):
        command, *flags = argv
        self.assert_refused_up_front(
            workdir, capsys, [command, "{f}", "--out", "{out}", *flags], message
        )

    @pytest.mark.parametrize("text,message", [
        ("0.5 x\n", "could not convert string to float: 'x'"),
        ("0.5 nan\n", "activities must be finite"),
    ])
    def test_init_file_contents_refused_up_front(self, workdir, capsys, text, message):
        acts = workdir / "acts.txt"
        acts.write_text(text)
        self.assert_refused_up_front(
            workdir, capsys, ["solve", "{f}", "--init", f"file:{acts}", "--out", "{out}"],
            f"--init file:{acts}: {message}",
        )

    @staticmethod
    def assert_refused_up_front(workdir, capsys, argv, message):
        decided = workdir / "decided.cnf"
        decided.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
        out = workdir / "out"
        argv = [arg.format(f=decided, out=out) for arg in argv]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()


class TestGen:
    def test_deterministic_files(self, workdir, capsys):
        assert main(["gen", "--vars", "10", "--clauses", "42", "--count", "2",
                     "--seed", "5", "--out", str(workdir / "g1")]) == 0
        assert main(["gen", "--vars", "10", "--clauses", "42", "--count", "2",
                     "--seed", "5", "--out", str(workdir / "g2")]) == 0
        names = sorted(os.listdir(workdir / "g1"))
        assert names == sorted(os.listdir(workdir / "g2"))
        assert "manifest.json" in names
        for name in names:
            g1, g2 = ((workdir / d / name).read_bytes() for d in ("g1", "g2"))
            if name == "manifest.json":  # equal but for the --out it records
                g1, g2 = (json.loads(text) for text in (g1, g2))
                assert g1["flags"].pop("out") == str(workdir / "g1")
                assert g2["flags"].pop("out") == str(workdir / "g2")
            assert g1 == g2
        cnf = read_dimacs(workdir / "g1" / "rand3sat_v10_c42_s5.cnf")
        assert cnf.num_vars == 10 and cnf.num_clauses == 42

    @pytest.mark.parametrize("flags,message", [
        (["--clauses", "-1"], "--clauses must be >= 0, got -1"),
        (["--count", "-2"], "--count must be >= 0, got -2"),
        (["--clauses", "-1", "--count", "0"], "--clauses must be >= 0, got -1"),
    ])
    def test_negative_counts_refused_before_writing(self, workdir, capsys, flags, message):
        out = workdir / "g"
        assert main(["gen", "--vars", "5", *flags, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
