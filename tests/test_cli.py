import argparse
import json
import re
import sys
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


def test_solve_external_malformed_model(base_file, tmp_path, capsys):
    cmd = fake_solver(tmp_path, "s SATISFIABLE\nv 1 x 3 0\n")
    code, _, err = run(["solve", "--base", base_file, "--key", "1",
                        "--external-solver", cmd], capsys)
    assert code == 1
    assert err.startswith("error: malformed model line")


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
