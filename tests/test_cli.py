"""CLI tests: subcommand output schemas, headers, reproducibility, exit codes."""

import math

import pytest

from threshlab.cli import build_parser, main


def read_csv(path):
    header = {}
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    i = 0
    while lines[i].startswith("# "):
        key, _, val = lines[i][2:].partition("=")
        header[key] = val
        i += 1
    columns = lines[i].split(",")
    rows = [ln.split(",") for ln in lines[i + 1 :] if ln]
    return header, columns, rows


def run_csv(tmp_path, line, name="out.csv"):
    # run one command line (given as a string) that must succeed; parse its CSV
    out = tmp_path / name
    assert main(line.split() + ["--out", str(out)]) == 0
    return read_csv(out)


def test_concavity_curve_schema_and_values(tmp_path):
    header, columns, rows = run_csv(tmp_path, "concavity-curve --rho-grid 0.05:0.95:0.05")
    assert header["command"] == "concavity-curve"
    assert columns[:5] == ["rho", "gamma_optimal", "gamma_rt_universal", "gamma_lq23", "gamma_hard"]
    byrho = {round(float(r[0]), 4): r for r in rows}
    row = byrho[0.25]
    assert abs(float(row[4]) - 0.25) < 1e-15  # gamma_hard
    assert abs(float(row[2]) - 0.25 / (0.5 + 0.5 * math.sqrt(2.0))) < 1e-12
    assert abs(float(row[1]) - 0.2) < 1e-15  # gamma_optimal = 0.25/1.25
    assert abs(float(row[7]) - 2.0) < 1e-12  # kappa_max_hard

    for r in rows:
        assert abs(float(r[3]) - float(r[2])) < 1e-12  # lq23 == rt universal


def test_rho_grid_below_zero_in_equals_form(tmp_path, capsys):
    # argparse reads "-0.5:..." as an option, so such a grid takes the
    # --rho-grid=a:b:step spelling; the points outside (0, 1) are dropped
    header, _, rows = run_csv(tmp_path, "concavity-curve --rho-grid=-0.5:0.5:0.1")
    assert header["rho_grid"] == "-0.5:0.5:0.1"
    rho = [float(r[0]) for r in rows]
    assert rho == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
    assert all(0.0 < r < 1.0 for r in rho)
    with pytest.raises(SystemExit) as exc:
        main(["concavity-curve", "--rho-grid", "-0.5:0.5:0.1", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--rho-grid: expected one argument" in capsys.readouterr().err


def test_csv_roundtrip_17_digits(tmp_path):
    out = tmp_path / "curve.csv"
    main(["concavity-curve", "--out", str(out), "--rho-grid", "0.1:0.9:0.1"])
    _, _, rows = read_csv(out)
    for r in rows:
        for cell in r:
            v = float(cell)
            assert format(v, ".17g") == cell  # exact round-trip formatting


def test_reproducible_bit_for_bit(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["converge", "--dim", "12", "--sparsity", "5", "--kappa", "2", "--seed", "7", "--iters", "20"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_converge_bound_column_and_monotonicity(tmp_path):
    line = "converge --dim 20 --sparsity 9 --s-prime 1 --kappa 2 --operator rt:0 --iters 60"
    header, columns, rows = run_csv(tmp_path, line)
    assert "theorem1_rhs" in columns
    run_min = [float(r[columns.index("running_min_f")]) for r in rows]
    rhs = [float(r[columns.index("theorem1_rhs")]) for r in rows]
    assert all(m <= b for m, b in zip(run_min, rhs))
    assert all(a >= b for a, b in zip(run_min, run_min[1:]))


def test_converge_no_bound_column_for_soft(tmp_path):
    _, columns, _ = run_csv(tmp_path, "converge --operator soft --iters 5")
    assert "theorem1_rhs" not in columns


def test_reciprocal_at_c_one_runs_as_hard(tmp_path):
    # rt:1 is hard thresholding: it gets hard's closed form, so converge
    # writes the Theorem 1 column and trap finds hard's trap, row for row
    def rt1_and_hard(line):
        rt1 = run_csv(tmp_path, f"{line} --operator rt:1", "rt1.csv")[1:]
        assert rt1 == run_csv(tmp_path, f"{line} --operator hard", "hard.csv")[1:]
        return rt1

    columns, _ = rt1_and_hard("converge --iters 20")
    assert "theorem1_rhs" in columns
    columns, rows = rt1_and_hard("trap --rho 0.5")
    assert rows[0][columns.index("trap_found")] == "1"


def test_converge_zero_iters_header_only(tmp_path):
    _, columns, rows = run_csv(tmp_path, "converge --iters 0")
    assert columns[0] == "t"
    assert rows == []


def test_trap_found_and_not_found(tmp_path, capsys):
    line = "trap --operator hard --kappa 1.5 --rho 1.0 --sparsity 2 --iters 100"
    header, columns, rows = run_csv(tmp_path, line, "trap.csv")
    assert rows[0][columns.index("trap_found")] == "1"
    assert rows[0][columns.index("stationary")] == "1"
    assert float(rows[0][columns.index("f_y")]) < -1e-10

    run_csv(tmp_path, "trap --operator rt:0.25 --kappa 1.2 --rho 0.25 --sparsity 4", "notrap.csv")
    captured = capsys.readouterr()
    assert "no trap" in captured.out


def test_trap_readme_line_ignores_seed(tmp_path):
    # the trap uses only the exact witness families, so its header records
    # no seed and --seed 7 writes the same bytes as the default
    line = "trap --operator hard --kappa 1.5 --rho 1.0 --sparsity 2"
    header, columns, rows = run_csv(tmp_path, line, "trap.csv")
    assert "seed" not in header
    assert columns == ["trap_found", "gamma_hat", "f_x0", "f_y", "iters", "stationary"]
    assert rows == [["1", "0.5", "0", "-0.66666666666666696", "100", "1"]]
    run_csv(tmp_path, f"{line} --seed 7", "trap7.csv")
    assert (tmp_path / "trap7.csv").read_bytes() == (tmp_path / "trap.csv").read_bytes()


def test_prox_trap_disjunction(tmp_path):
    _, columns, rows = run_csv(tmp_path, "prox-trap --dim 2")
    j = columns.index("disjunct_holds")
    assert all(r[j] == "1" for r in rows)
    lams = [float(r[columns.index("lambda")]) for r in rows]
    assert 0.0 in lams


def test_regress_schema_and_sanity(tmp_path):
    line = "regress --n 100 --d 200 --s0 4 --reps 3 --iters 40 --operators rt:0 hard --with-lasso"
    header, columns, rows = run_csv(tmp_path, line)
    assert header["s"] == "12"
    ops = {r[columns.index("operator")] for r in rows}
    assert ops == {"rt:0", "hard", "lasso"}
    assert len(rows) == 9
    # ordered by (seed, operator)
    keys = [(r[0], r[1]) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert float(r[columns.index("prediction_error")]) >= 0.0


def test_regress_reproducible_except_wall_time(tmp_path):
    args = ["regress", "--n", "80", "--d", "120", "--s0", "3", "--reps", "2", "--iters", "20", "--operators", "rt:0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    ha, ca, ra = read_csv(a)
    hb, cb, rb = read_csv(b)
    assert ha == hb and ca == cb
    drop = ca.index("wall_time")
    for x, y in zip(ra, rb):
        assert x[:drop] + x[drop + 1 :] == y[:drop] + y[drop + 1 :]


def test_regress_noiseless_orthogonalish_error_zero(tmp_path):
    line = "regress --design correlated-gaussian --kappa 1 --n 60 --d 12 --s0 2 --sigma 0 --reps 1"
    _, columns, rows = run_csv(tmp_path, line + " --iters 50 --operators hard")
    assert float(rows[0][columns.index("prediction_error")]) <= 1e-16


def test_lowrank_demo(tmp_path):
    header, columns, rows = run_csv(tmp_path, "lowrank-demo --iters 10")
    assert float(header["eckart_young_gap"]) < 1e-10
    assert len(rows) == 10


# one fast line per subcommand, and the flags each ignores; validate's
# header is checked in test_validate_passes, which runs it anyway
HEADER_LINES = {
    "concavity-curve": ("concavity-curve --rho-grid 0.1:0.9:0.1", {"seed"}),
    "converge": ("converge --iters 3 --step adaptive", set()),
    "trap": ("trap --rho 0.5", {"seed"}),
    "prox-trap": ("prox-trap --dim 2", set()),
    "regress-iid": ("regress --n 40 --d 50 --reps 1 --iters 5", {"block_size"}),
    "regress-block": (
        "regress --design adversarial-block --kappa 2 --n 40 --d 50 --s0 2 --reps 1 --iters 5",
        set(),
    ),
    "lowrank-demo": ("lowrank-demo --iters 3", set()),
}


def _flags_read(command, ignored):
    """The dests of ``command``'s flags that its CSV header must record."""
    _, commands = build_parser()
    dests = {a.dest for a in commands[command]._actions} - {"help", "out", "config"}
    return dests - ignored


@pytest.mark.parametrize("line, ignored", HEADER_LINES.values(), ids=HEADER_LINES.keys())
def test_header_holds_every_flag_the_command_reads(tmp_path, line, ignored):
    header, _, _ = run_csv(tmp_path, line)
    command = line.split()[0]
    assert header["command"] == command
    assert _flags_read(command, ignored) <= header.keys()
    assert ignored.isdisjoint(header)


def test_regress_headers_differ_when_the_data_do(tmp_path):
    # --iters changes every fit and --block-size the block design, so two
    # runs that differ only there must not write the same header
    def header(line, name):
        return run_csv(tmp_path, line, name)[0]

    base = "regress --n 40 --d 50 --s0 2 --reps 1"
    iters5, iters50 = header(f"{base} --iters 5", "i5.csv"), header(f"{base} --iters 50", "i50.csv")
    assert (iters5["iters"], iters50["iters"]) == ("5", "50")
    block = f"{base} --design adversarial-block --kappa 2 --iters 5"
    b4, b8 = header(f"{block} --block-size 4", "b4.csv"), header(f"{block} --block-size 8", "b8.csv")
    assert (b4["block_size"], b8["block_size"]) == ("4", "8")
    assert header(f"{base} --iters 5 --block-size 4", "iid4.csv") == iters5


def test_validate_passes(tmp_path, capsys):
    header, columns, rows = run_csv(tmp_path, "validate")
    assert header == {"command": "validate", "seed": "0"}
    assert all(r[columns.index("passed")] == "1" for r in rows)
    # stdout adds each check's time; the CSV has none, so it stays reproducible
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(rows) == 11
    assert all(ln.startswith("PASS ") and ln.endswith(" ms)") for ln in printed)


def test_error_exit_code(tmp_path, capsys):
    # unwritable output path -> one-line diagnostic, nonzero exit
    bad = tmp_path / "missing-dir" / "x.csv"
    assert main(["concavity-curve", "--out", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    # a design kappa below 1 is refused before anything runs
    regress = ["regress", "--design", "correlated-gaussian", "--kappa", "0"]
    assert main(regress + ["--out", str(tmp_path / "r.csv")]) == 1
    assert "kappa=0.0" in capsys.readouterr().err
    # so is one that is not finite, for every design, and by trap
    for design in ("iid-gaussian", "correlated-gaussian", "adversarial-block"):
        for kappa in ("0", "0.5", "nan", "inf"):
            regress = ["regress", "--design", design, "--kappa", kappa]
            assert main(regress + ["--out", str(tmp_path / "r.csv")]) == 1
            assert f"kappa={float(kappa)} must be finite and >= 1" in capsys.readouterr().err
    assert main(["trap", "--kappa", "0", "--out", str(tmp_path / "t.csv")]) == 1
    assert "kappa=0.0 must be finite and >= 1" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "t.csv").exists()
    # a rho grid with a zero step or a part that is not finite says so
    for spec in ("0.1:0.5:0", "0.1:0.5:nan", "nan:0.5:0.1", "0.1:inf:0.1", "0.9:-inf:-0.1"):
        curve = ["concavity-curve", "--rho-grid", spec, "--out", str(tmp_path / "c.csv")]
        assert main(curve) == 1
        assert f"error: bad rho grid '{spec}', expected finite" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()
    # an operator parameter hard would drop is refused
    assert main(["converge", "--operator", "hard:5", "--out", str(tmp_path / "h.csv")]) == 1
    assert "error: operator spec 'hard:5': hard takes no parameter" in capsys.readouterr().err
    # a block that cannot hold the planted support, or is not a positive
    # even size, is refused in the design's terms
    block = "regress --design adversarial-block --kappa 4 --n 50 --d 60 --reps 1".split()
    for flags, message in [
        (["--s0", "5", "--block-size", "4"], "error: s0=5 exceeds the block size 4"),
        (["--block-size", "0"], "error: block size 0 must be a positive even number"),
        (["--block-size", "-2"], "error: block size -2 must be a positive even number"),
    ]:
        assert main(block + flags + ["--out", str(tmp_path / "b.csv")]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists() and not (tmp_path / "b.csv").exists()
    # a descending grid with a negative step still works
    _, _, rows = run_csv(tmp_path, "concavity-curve --rho-grid 0.9:0.1:-0.2", "down.csv")
    assert [float(r[0]) for r in rows] == pytest.approx([0.9, 0.7, 0.5, 0.3, 0.1])
    # an iid design is fitted with kappa 1, and its header says so
    for kappa in ("1", "3"):
        line = f"regress --design iid-gaussian --kappa {kappa} --reps 1 --n 40 --d 50"
        header, _, _ = run_csv(tmp_path, line, f"iid-{kappa}.csv")
        assert header["kappa"] == "1"


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=10\nsparsity=4\niters=5\nkappa=3\n")
    out1 = tmp_path / "c1.csv"
    assert main(["converge", "--config", str(cfg), "--out", str(out1)]) == 0
    header, _, rows = read_csv(out1)
    assert header["dim"] == "10" and header["kappa"] == "3"
    assert len(rows) == 5
    out2 = tmp_path / "c2.csv"
    assert main(["converge", "--config", str(cfg), "--iters", "3", "--out", str(out2)]) == 0
    header2, _, rows2 = read_csv(out2)
    assert header2["iters"] == "3" and len(rows2) == 3
    assert header2["dim"] == "10"
    # list and bool keys: operators splits on spaces, with_lasso parses as a flag
    rcfg = tmp_path / "regress.cfg"
    rcfg.write_text("n=40\nd=60\nreps=1\niters=5\noperators=rt:0 hard\nwith_lasso=1\n")
    out3 = tmp_path / "r.csv"
    assert main(["regress", "--config", str(rcfg), "--out", str(out3)]) == 0
    header3, columns3, rows3 = read_csv(out3)
    assert header3["operators"] == "rt:0+hard" and header3["with_lasso"] == "1"
    assert header3["n"] == "40" and header3["d"] == "60"
    ops = [r[columns3.index("operator")] for r in rows3]
    assert sorted(ops) == ["hard", "lasso", "rt:0"]


@pytest.mark.parametrize(
    "command, line, flags, message",
    [
        ("converge", "step=bogus", ["--step", "bogus"], "invalid choice: 'bogus'"),
        ("converge", "dimm=10", ["--dimm", "10"], "unrecognized arguments: --dimm"),
        ("regress", "with_lasso=maybe", [], "expected a boolean, got 'maybe'"),
    ],
    ids=["bad-value", "unknown-key", "bad-boolean"],
)
def test_config_line_fails_like_the_flag(tmp_path, capsys, command, line, flags, message):
    # a bad config line stops the run with argparse's usage error (exit
    # status 2), exactly as the same bad flag on the command line does
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out.csv"
    for extra in [["--config", str(cfg)]] + ([flags] if flags else []):
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert not out.exists()
