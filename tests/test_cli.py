import argparse
import json
import os
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

from tristarter import SolverConfig, build_table, encode, hill_climb, solve
from tristarter.cli import build_parser, main
from tristarter.dimacs import export_dimacs, to_dimacs_text
from tristarter.files import save_starter

from fixtures import EX1_S21, T7, T13

TOYSAT = Path(__file__).parent / "toysat.py"


@pytest.fixture()
def base_file(tmp_path):
    path = tmp_path / "T.json"
    save_starter(T7, path)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify(base_file, capsys):
    code, out, _ = run(["verify", "--starter", base_file], capsys)
    assert code == 0
    assert "strong=True" in out


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("order 7\n1 9\n2 3\n4 5\n")
    code, _, err = run(["verify", "--starter", str(bad)], capsys)
    assert code == 2
    assert "error" in err


def test_enumerate(capsys):
    code, out, _ = run(["enumerate", "--order", "15"], capsys)
    assert code == 0 and "32 strong starters" in out


def test_enumerate_above_bound_refused(capsys):
    code, _, err = run(["enumerate", "--order", "23"], capsys)
    assert code == 1 and "refused" in err


def test_hillclimb_writes_starter(tmp_path, capsys):
    out_file = tmp_path / "s.json"
    code, _, _ = run(["hillclimb", "--order", "13", "--seed", "3",
                      "--out", str(out_file)], capsys)
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["order"] == 13


def test_hillclimb_order9_refused(capsys):
    code, _, err = run(["hillclimb", "--order", "9"], capsys)
    assert code == 1 and "refused" in err


@pytest.mark.parametrize("argv, order", [
    (["hillclimb", "--order", str(2**40 + 1)], 2**40 + 1),
    (["enumerate", "--order", "2147483649", "--bound", "3000000000"], 2147483649),
], ids=["hillclimb", "enumerate"])
def test_order_beyond_the_kernels_is_a_structural_error(argv, order, capsys):
    # refused before anything the size of the order is allocated
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: order must be an integer in [3, 536870911], got {order}\n"


def test_triplicate_writes_report_and_starters(base_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["triplicate", "--base", base_file, "--key", "1"], capsys)
    assert code == 0 and "SAT" in out
    report = json.loads(Path("T-k1.report.json").read_text())
    assert report["status"] == "SAT"
    assert report["order_result"] == 21
    assert report["key"] == 1
    assert report["verification"]["a"]["is_strong"]
    a = json.loads(Path("T-k1.a.json").read_text())
    b = json.loads(Path("T-k1.b.json").read_text())
    assert a["order"] == b["order"] == 21 and a["pairs"] != b["pairs"]


def test_triplicate_key0_refused_then_forced(base_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["triplicate", "--base", base_file, "--key", "0"], capsys)
    assert code == 1
    assert "not admissible" in err and "--force" in err
    code, out, _ = run(["triplicate", "--base", base_file, "--key", "0", "--force"], capsys)
    assert code == 0
    assert "UNSAT" in out
    report = json.loads(Path("T-k0.report.json").read_text())
    assert report["status"] == "UNSAT" and report["cause"] == "key is zero"


def test_triplicate_seed_and_restarts_in_report(tmp_path, capsys, monkeypatch):
    # key 19 of this base needs restarts; --seed shuffles their tie-breaks
    monkeypatch.chdir(tmp_path)
    base = hill_climb(31, seed=0)
    save_starter(base, "B.json")
    decisions = set()
    for seed in (0, 1, 2):
        code, out, _ = run(["triplicate", "--base", "B.json", "--key", "19",
                            "--seed", str(seed), "--out", f"s{seed}"], capsys)
        assert code == 0 and out.startswith("SAT")
        report = json.loads(Path(f"s{seed}.report.json").read_text())
        assert report["verification"]["a"]["is_strong"]
        assert report["verification"]["b"]["is_strong"]
        expected = solve(encode(build_table(base, 19)), SolverConfig(seed=seed)).stats
        assert report["stats"]["restarts"] == expected.restarts >= 1
        assert report["stats"]["decisions"] == expected.decisions
        decisions.add(expected.decisions)
    assert len(decisions) > 1


def test_triplicate_nonstrong_override(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = tmp_path / "T13.json"
    save_starter(T13, base)
    code, _, err = run(["triplicate", "--base", str(base), "--key", "4"], capsys)
    assert code == 1
    code, out, _ = run(["triplicate", "--base", str(base), "--key", "4",
                        "--allow-nonstrong"], capsys)
    assert code == 0 and "SAT" in out


def test_triplicate_external_cross_check(base_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cmd = f"{sys.executable} {TOYSAT} {{cnf}}"
    code, out, _ = run(["triplicate", "--base", base_file, "--key", "1",
                        "--external-solver", cmd], capsys)
    assert code == 0 and "agrees" in out


def test_encode_census_and_cnf(base_file, tmp_path, capsys):
    cnf = tmp_path / "demo.cnf"
    code, out, _ = run(["encode", "--base", base_file, "--key", "1",
                        "--cnf-out", str(cnf)], capsys)
    assert code == 0
    assert "variables: 38" in out
    text = cnf.read_text()
    assert text.splitlines()[0].startswith("c ")
    assert any(line.startswith("p cnf 114 ") for line in text.splitlines())


def test_solve_prints_status(base_file, capsys):
    code, out, _ = run(["solve", "--base", base_file, "--key", "1"], capsys)
    assert code == 0 and out.startswith("SAT") and " restarts=0 " in out
    stats = solve(encode(build_table(T7, 1))).stats
    fields = re.search(
        r" decisions=(\d+) backtracks=(\d+) propagations=(\d+) restarts=(\d+) ", out)
    assert fields and tuple(map(int, fields.groups())) == (
        stats.decisions, stats.backtracks, stats.propagations, stats.restarts)
    assert stats.propagations > 0
    code, out, _ = run(["solve", "--base", base_file, "--key", "0"], capsys)
    assert code == 0 and out.startswith("UNSAT")


def test_encode_and_solve_accept_any_starter(tmp_path, capsys):
    base = tmp_path / "T13.json"
    save_starter(T13, base)
    code, out, _ = run(["encode", "--base", str(base), "--key", "4"], capsys)
    assert code == 0 and "variables: " in out
    code, out, _ = run(["solve", "--base", str(base), "--key", "4"], capsys)
    assert code == 0 and out.startswith("SAT")
    for command in ("encode", "solve"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--base", str(base), "--key", "4", "--allow-nonstrong"])
        assert exc.value.code == 2


def test_solve_via_external(base_file, capsys):
    cmd = f"{sys.executable} {TOYSAT} {{cnf}}"
    code, out, _ = run(["solve", "--base", base_file, "--key", "1",
                        "--external-solver", cmd], capsys)
    assert code == 0 and "external: SAT" in out


def test_solve_exports_cnf_once(base_file, tmp_path, capsys, monkeypatch):
    import tristarter.cli as cli
    import tristarter.dimacs as dimacs

    calls = []

    def counting_export(instance):
        calls.append(instance)
        return export_dimacs(instance)

    monkeypatch.setattr(cli, "export_dimacs", counting_export)
    monkeypatch.setattr(dimacs, "export_dimacs", counting_export)
    cnf = tmp_path / "out.cnf"
    cmd = f"{sys.executable} {TOYSAT} {{cnf}}"
    code, out, _ = run(["solve", "--base", base_file, "--key", "1",
                        "--cnf-out", str(cnf), "--external-solver", cmd], capsys)
    assert code == 0 and "external: SAT" in out and "solution_uv" in out
    assert len(calls) == 1 and cnf.read_text().startswith("c ")


@pytest.mark.parametrize("command", ["solve", "triplicate"])
def test_cnf_text_built_once(command, base_file, tmp_path, capsys, monkeypatch):
    import tristarter.cli as cli
    import tristarter.dimacs as dimacs

    calls = []

    def counting_text(doc):
        calls.append(doc)
        return to_dimacs_text(doc)

    monkeypatch.setattr(cli, "to_dimacs_text", counting_text)
    monkeypatch.setattr(dimacs, "to_dimacs_text", counting_text)
    monkeypatch.chdir(tmp_path)
    cnf = tmp_path / "out.cnf"
    cmd = f"{sys.executable} {TOYSAT} {{cnf}}"
    code, _, _ = run([command, "--base", base_file, "--key", "1",
                      "--cnf-out", str(cnf), "--external-solver", cmd], capsys)
    assert code == 0 and len(calls) == 1
    assert cnf.read_text() == to_dimacs_text(calls[0])


def test_invert_example1(tmp_path, capsys):
    path = tmp_path / "S21.json"
    save_starter(EX1_S21, path)
    code, out, _ = run(["invert", "--starter", str(path)], capsys)
    assert code == 0
    assert "verdict: False" in out


def test_series_key_sweep_csv(base_file, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(["series", "--mode", "key-sweep", "--base", base_file,
                      "--out", str(out_csv)], capsys)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ("order_base,order_result,key,status,solve_ms,"
                        "decisions,backtracks,starter_digest,seed")
    assert len(lines) == 4


def test_series_order_sweep(tmp_path, capsys):
    out_csv = tmp_path / "orders.csv"
    code, _, _ = run(["series", "--mode", "order-sweep", "--orders", "7,13",
                      "--seed", "1", "--out", str(out_csv)], capsys)
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 3


def test_series_inverse_sampling(tmp_path, capsys):
    out_csv = tmp_path / "sampling.csv"
    code, out, _ = run(["series", "--mode", "inverse-sampling", "--order", "21",
                        "--samples", "50", "--seed", "3", "--out", str(out_csv)], capsys)
    assert code == 0 and "inconclusive" in out
    header = out_csv.read_text().splitlines()[0]
    assert header == "order,samples,inconclusive,fraction,generation_failures"


def test_series_key_sweep_refuses_nonstrong_base_without_an_option_hint(tmp_path, capsys):
    base = tmp_path / "T13.json"
    save_starter(T13, base)
    code, _, err = run(["series", "--mode", "key-sweep", "--base", str(base)], capsys)
    assert code == 1
    assert "not strong" in err
    assert "allow" not in err and "--" not in err


def test_series_missing_args(capsys):
    code, _, err = run(["series", "--mode", "key-sweep"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, field", [
    (["series", "--mode", "inverse-sampling", "--order", "21", "--samples", "0"], "samples"),
    (["series", "--mode", "inverse-sampling", "--order", "0", "--samples", "3"], "order"),
], ids=["samples", "order"])
def test_series_inverse_sampling_words_a_zero_itself(argv, field, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {field} must be an integer in [1, ") and "got 0" in err


@pytest.mark.parametrize("options, message", [
    (["--mode", "order-sweep", "--orders", ""], "--orders '' lists no order"),
    (["--mode", "order-sweep", "--order", "7", "--orders", "13"],
     "give --order or --orders, not both"),
    (["--mode", "key-sweep", "--base", "T.json", "--order", "7"],
     "--order does not apply to --mode key-sweep"),
    (["--mode", "inverse-sampling", "--order", "7", "--samples", "3", "--orders", "1,2"],
     "--orders does not apply to --mode inverse-sampling"),
    (["--mode", "key-sweep", "--base", "T.json", "--seed", "0"],
     "--seed does not apply to --mode key-sweep"),
], ids=["empty-orders", "order-and-orders", "key-sweep-order", "inverse-sampling-orders",
        "key-sweep-seed"])
def test_series_refuses_an_option_it_would_ignore(options, message, capsys):
    code, out, err = run(["series", *options], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_series_order_sweep_runs_a_given_zero_order(capsys):
    code, out, err = run(["series", "--mode", "order-sweep", "--order", "0"], capsys)
    assert code == 0 and out.count("\n") == 1   # the CSV header only
    assert err.startswith("order 0 failed: order must be an integer in [3, ")


@pytest.mark.parametrize("argv", [
    ["triplicate", "--base", "{base}", "--key", "1", "--out", "{out}"],
    ["hillclimb", "--order", "7", "--out", "{out}.json"],
    ["series", "--mode", "key-sweep", "--base", "{base}", "--out", "{out}.csv"],
    ["encode", "--base", "{base}", "--key", "1", "--cnf-out", "{out}.cnf"],
    ["solve", "--base", "{base}", "--key", "1", "--cnf-out", "{out}.cnf"],
], ids=lambda argv: argv[0])
def test_an_output_path_that_cannot_be_written_is_a_structural_error(
        argv, base_file, tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    code, _, err = run([a.format(base=base_file, out=out) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: cannot write: ") and str(out) in err
    assert err.count("\n") == 1


def test_series_seed_only_seeds_the_sweep(tmp_path, capsys):
    from tristarter.harness import run_order_sweep, write_records_csv

    def scrub(text):   # solve_ms is the one column that may differ
        rows = [line.split(",") for line in text.splitlines()]
        for row in rows[1:]:
            row[4] = "_"
        return rows

    out_csv = tmp_path / "orders.csv"
    code, _, _ = run(["series", "--mode", "order-sweep", "--orders", "13,19,25,31",
                      "--seed", "1", "--out", str(out_csv)], capsys)
    assert code == 0
    expected = write_records_csv(run_order_sweep((13, 19, 25, 31), seed=1).records, None)
    assert scrub(out_csv.read_text()) == scrub(expected)

    # without --seed the sweep runs as with --seed 0
    default_csv, zero_csv = tmp_path / "default.csv", tmp_path / "zero.csv"
    args = ["series", "--mode", "order-sweep", "--orders", "13,19"]
    assert run(args + ["--out", str(default_csv)], capsys)[0] == 0
    assert run(args + ["--seed", "0", "--out", str(zero_csv)], capsys)[0] == 0
    assert scrub(default_csv.read_text()) == scrub(zero_csv.read_text())


def fake_solver(tmp_path, output):
    """A command that prints ``output`` whatever CNF it is given."""
    script = tmp_path / "fake_solver.py"
    script.write_text(f"import sys\nsys.stdout.write({output!r})\n")
    return f"{sys.executable} {script} {{cnf}}"


def test_solve_external_missing_command(base_file, capsys):
    code, _, err = run(["solve", "--base", base_file, "--key", "1",
                        "--external-solver", "./nonexistent"], capsys)
    assert code == 1
    assert err.startswith("error: cannot run")


@pytest.mark.parametrize("command", ["solve", "triplicate"])
def test_unsplittable_solver_template_is_refused(base_file, tmp_path, capsys, monkeypatch,
                                                 command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run([command, "--base", base_file, "--key", "1",
                          "--external-solver", "kissat 'unclosed"], capsys)
    assert code == 2 and out == ""
    assert err == ("error: cannot split solver command \"kissat 'unclosed\": "
                   "No closing quotation\n")


@pytest.mark.parametrize("template", ["", "   ", "''", "{cnf}", "{cnf} --verbose"])
@pytest.mark.parametrize("command", ["solve", "triplicate"])
def test_solver_template_naming_no_command_is_refused(base_file, tmp_path, capsys,
                                                      monkeypatch, command, template):
    # the CNF file would otherwise be run as the command; an empty template
    # is refused, not taken as no cross-check
    monkeypatch.chdir(tmp_path)
    code, out, err = run([command, "--base", base_file, "--key", "1",
                          "--external-solver", template], capsys)
    assert code == 2 and out == ""
    assert err == f"error: solver command {template!r} names no command\n"


@pytest.mark.parametrize("command", ["solve", "triplicate"])
def test_external_timeout_stops_the_solver(base_file, tmp_path, capsys, monkeypatch,
                                           command):
    # a solver that would sleep 30 s is stopped at the bound: an
    # external-solver error, and the child, once it has written its pid, is
    # gone (killed and reaped)
    monkeypatch.chdir(tmp_path)
    pidfile = tmp_path / "solver.pid"
    code = (f"import os, time; open({str(pidfile)!r}, 'w').write(str(os.getpid())); "
            "time.sleep(30)")
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    start = time.monotonic()
    exit_code, _, err = run([command, "--base", base_file, "--key", "1",
                             "--external-solver", cmd, "--external-timeout", "0.5"],
                            capsys)
    assert time.monotonic() - start < 5
    assert exit_code == 1 and err == "error: solver timed out after 0.5s\n"
    if pidfile.exists():
        with pytest.raises(ProcessLookupError):
            os.kill(int(pidfile.read_text()), 0)


@pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf", "soon"])
def test_external_timeout_refuses_what_is_not_a_bound(base_file, capsys, seconds):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--base", base_file, "--key", "1", "--external-solver", "x",
              f"--external-timeout={seconds}"])
    assert exc.value.code == 2
    assert "--external-timeout" in capsys.readouterr().err


def test_solve_external_malformed_model(base_file, tmp_path, capsys):
    cmd = fake_solver(tmp_path, "s SATISFIABLE\nv 1 x 3 0\n")
    code, _, err = run(["solve", "--base", base_file, "--key", "1",
                        "--external-solver", cmd], capsys)
    assert code == 1
    assert err.startswith("error: malformed model line")


def test_solve_external_undecodable_model(base_file, tmp_path, capsys):
    # three true booleans for ternary 0: an external-solver failure, not bad input
    cmd = fake_solver(tmp_path, "s SATISFIABLE\nv 1 2 3 0\n")
    code, _, err = run(["solve", "--base", base_file, "--key", "1",
                        "--external-solver", cmd], capsys)
    assert code == 1
    assert err.startswith("error: external model does not decode: "
                          "ternary variable 0 has 3 true booleans")


@pytest.mark.parametrize("extra, named", [
    ("-1", "model names both 1 and -1"), ("999", "model literal 999 is outside ")],
    ids=["both-signs", "foreign"])
def test_solve_external_model_naming_a_literal_twice_or_beyond(
        base_file, tmp_path, capsys, extra, named):
    # a true solution's one-hot literals plus one more: not a model to trust
    values = solve(encode(build_table(T7, 1))).solution
    literals = " ".join(str(3 * t + v + 1) for t, v in enumerate(values))
    assert values[0] == 0
    cmd = fake_solver(tmp_path, f"s SATISFIABLE\nv {literals} {extra} 0\n")
    code, out, err = run(["solve", "--base", base_file, "--key", "1",
                          "--external-solver", cmd], capsys)
    assert code == 1
    assert "solution_uv" not in out
    assert err.startswith(f"error: external model does not decode: {named}")


def test_solve_external_model_is_checked(base_file, tmp_path, capsys):
    # every ternary variable 0: decodes, but breaks the all-different groups
    doc = export_dimacs(encode(build_table(T7, 1)))
    literals = " ".join(str(3 * t + 1) for t in range(doc.num_ternary))
    cmd = fake_solver(tmp_path, f"s SATISFIABLE\nv {literals} 0\n")
    code, out, err = run(["solve", "--base", base_file, "--key", "1",
                          "--external-solver", cmd], capsys)
    assert code == 1
    assert "solution_uv" not in out
    assert err.startswith("error: external model violates ")


def test_triplicate_external_disagreement(base_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cmd = fake_solver(tmp_path, "s UNSATISFIABLE\n")
    code, out, err = run(["triplicate", "--base", base_file, "--key", "1",
                          "--external-solver", cmd], capsys)
    assert code == 1
    assert "DISAGREES" in out
    assert err.startswith("error: external solver says UNSAT, native says SAT")


def test_triplicate_external_undecided(base_file, tmp_path, capsys, monkeypatch):
    # an undecided external answer contradicts nothing, as in `solve`
    monkeypatch.chdir(tmp_path)
    cmd = fake_solver(tmp_path, "s UNKNOWN\n")
    code, out, _ = run(["triplicate", "--base", base_file, "--key", "1",
                        "--external-solver", cmd], capsys)
    assert code == 0
    assert "external solver: UNKNOWN (undecided)" in out
    assert "SAT: strong starter of order 21" in out


def test_triplicate_external_model_is_checked(base_file, tmp_path, capsys, monkeypatch):
    # every ternary variable 0: decodes, but breaks the all-different groups
    monkeypatch.chdir(tmp_path)
    doc = export_dimacs(encode(build_table(T7, 1)))
    literals = " ".join(str(3 * t + 1) for t in range(doc.num_ternary))
    cmd = fake_solver(tmp_path, f"s SATISFIABLE\nv {literals} 0\n")
    code, out, err = run(["triplicate", "--base", base_file, "--key", "1",
                          "--external-solver", cmd], capsys)
    assert code == 1
    assert "agrees" not in out
    assert err.startswith("error: external model violates ")


def test_readme_library_example_runs(capsys):
    # The README's Python block runs as shown, so it cannot drift from the API.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == lines[2] == "True"
    assert lines[-1] == "Inconclusive 1"


def test_readme_usage_matches_the_parser():
    # The README's usage block names every subcommand and every series mode,
    # and nothing else; each `--mode` the README shows is a real choice.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"```\n(tristarter verify .*?)```", readme, re.S).group(1)
    usage = {line.split()[1]: line for line in block.splitlines()
             if line.startswith("tristarter ")}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(usage) == set(commands)
    modes = next(a for a in commands["series"]._actions if a.dest == "mode").choices
    shown = re.search(r"--mode (\S+)", usage["series"]).group(1).split("|")
    assert shown == list(modes)
    assert set(re.findall(r"--mode ([\w-]+)", readme)) == set(modes)
