"""Command line contract: subcommands, exit codes, deterministic CSV output."""

import contextlib
import io
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest

from amqc import cli
from amqc.cli import main


def test_verify_qubus_exits_zero(capsys):
    assert main(["verify", "qubus"]) == 0
    out = capsys.readouterr().out
    assert "suite qubus" in out
    assert "FAIL" not in out


def test_verify_cross_exits_zero(capsys):
    assert main(["verify", "cross"]) == 0
    out = capsys.readouterr().out
    assert "slope" in out


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    for name in ("qudit", "spin", "qubus", "cross"):
        assert f"suite {name}" in out
    assert "FAIL" not in out


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus"])
    assert err.value.code == 2


def test_parser_is_built_once_and_still_reports_usage_errors(monkeypatch, capsys):
    built, real_build_parser = [], cli.build_parser

    def counting_build_parser():
        built.append(None)
        return real_build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        assert main(["demo", "two-qubit", "--d", "2"]) == 0
        # A command function replaced after the parser was built still runs.
        ran = []
        monkeypatch.setattr(cli, "cmd_demo", lambda args: ran.append(args.d) or 0)
        assert main(["demo", "two-qubit", "--d", "3"]) == 0
        assert ran == [3] and len(built) == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["verify", "bogus"])
        assert err.value.code == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert sum("error:" in line for line in err_lines) == 1
    finally:
        cli._parser.cache_clear()
    # build_parser itself still returns a fresh parser on every call.
    assert real_build_parser() is not real_build_parser()


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_sweep_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--zeta-min", "1", "--zeta-max", "50", "--zeta-steps", "50",
            "--n-list", "1e4,1e5,1e6,1e7,1e8,1e9", "--out", str(out)]
    assert main(argv) == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "zeta_n,N,phi_f,phi_E,infidelity,phi_series,infid_series"
    assert len(lines) == 1 + 50 * 6

    # Rows ordered by (zeta_n, N).
    keys = []
    for line in lines[1:]:
        parts = line.split(",")
        keys.append((float(parts[0]), int(parts[1])))
    assert keys == sorted(keys)

    # The quoted endpoint row: zeta_n = 40, N = 1e7.
    row = next(line for line in lines[1:]
               if line.startswith("4.00000000000e+01,10000000,"))
    parts = row.split(",")
    assert 1.4e-4 <= float(parts[3]) <= 2.2e-4
    assert abs(float(parts[4]) - 4.096e-5) / 4.096e-5 < 0.1

    # Large-N rows drive the fractional error toward zero.
    last = lines[-1].split(",")
    assert int(last[1]) == 10 ** 9
    assert float(last[3]) < 1e-5

    # Byte determinism.
    out2 = tmp_path / "sweep2.csv"
    argv[-1] = str(out2)
    assert main(argv) == 0
    assert out2.read_bytes() == out.read_bytes()


def test_sweep_full_grid_under_a_second(tmp_path):
    # 50 x 50 grid over zeta in [1, 50], N in [1e4, 1e9]: closed-form scalar
    # work only, so it finishes well inside a second.
    n_values = np.unique(np.logspace(4, 9, 50).astype(int))
    n_list = ",".join(str(v) for v in n_values)
    out = tmp_path / "grid.csv"
    t0 = time.perf_counter()
    assert main(["sweep", "--zeta-min", "1", "--zeta-max", "50",
                 "--zeta-steps", "50", "--n-list", n_list,
                 "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert len(out.read_text().strip().split("\n")) == 1 + 50 * len(n_values)


def test_sweep_unwritable_path_fails_with_one(capsys):
    code = main(["sweep", "--zeta-steps", "2", "--n-list", "1e4",
                 "--out", "/nonexistent-dir/x.csv"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_demo_two_qubit_cz(capsys):
    assert main(["demo", "two-qubit", "--d", "2", "--x", "1", "--p", "1"]) == 0
    out = capsys.readouterr().out
    assert "CR(3.141593)" in out
    assert "4 interactions" in out


def test_demo_fan_bipartite_counts(capsys):
    assert main(["demo", "fan-bipartite", "--n", "4", "--m", "4", "--d", "5"]) == 0
    out = capsys.readouterr().out
    assert "16 gate(s) via 16 interactions (naive: 64)" in out


def test_demo_toffoli_element_count(capsys):
    assert main(["demo", "toffoli", "--n", "3", "--d", "5"]) == 0
    out = capsys.readouterr().out
    assert "via 7 interactions" in out
    assert out.count("D^") == 6
    assert "[U on q3 iff anc=|3>]" in out


def test_demo_modd(capsys):
    assert main(["demo", "modd", "--n", "4", "--d", "3", "--theta", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "via 9 interactions" in out
    assert "phase distance" in out


@pytest.mark.parametrize("x, p", [(10 ** 4, 10 ** 4 + 1), (10 ** 6, 10 ** 6 + 1),
                                  (10 ** 12, 7)])
def test_demo_verifies_large_labels(x, p, capsys):
    # The engine reduces the labels mod 2d and the oracle mod d, so neither
    # rounds 2 pi x p / d in floats nor loops over huge indices.
    start = time.perf_counter()
    assert main(["demo", "two-qubit", "--d", "5", "--x", str(x), "--p", str(p)]) == 0
    assert time.perf_counter() - start < 5.0
    assert f"D^0({x:+d},+0)" in capsys.readouterr().out


def test_contraction_csv(tmp_path, capsys):
    out = tmp_path / "contraction.csv"
    assert main(["contraction", "--zeta", "2", "--n-min", "1000",
                 "--n-max", "1024000", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,phi_f,abs_err_phi,overlap,abs_err_overlap,prefactor"
    assert len(lines) == 1 + 11

    prefactors = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(b > a for a, b in zip(prefactors, prefactors[1:]))
    assert all(p < 1.0 for p in prefactors)

    ns = np.array([float(line.split(",")[0]) for line in lines[1:]])
    errs = np.array([float(line.split(",")[2]) for line in lines[1:]])
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert -1.05 <= slope <= -0.95
    assert "fitted log-log slope" in capsys.readouterr().out


def test_contraction_to_stdout_parses_as_csv(capsys):
    assert main(["contraction", "--zeta", "2", "--n-min", "1000",
                 "--n-max", "8000", "--out", "-"]) == 0
    captured = capsys.readouterr()
    rows = np.loadtxt(io.StringIO(captured.out), delimiter=",", skiprows=1)
    assert rows.shape == (4, 6)
    assert captured.err.startswith("fitted log-log slope")


@pytest.mark.parametrize("zeta,fitted", [("1e-7", 11), ("1e-80", 0)])
def test_contraction_slope_skips_only_unresolved_errors(zeta, fitted, capsys):
    # At zeta = 1e-7 the direct phi_f - |zeta|^2 cancels to 0 in every row;
    # at 1e-80 every error underflows to 0 or to a subnormal of a few bits,
    # and no numpy warning may escape.
    assert main(["contraction", "--zeta", zeta, "--n-min", "1000",
                 "--n-max", "1024000", "--out", "-"]) == 0
    captured = capsys.readouterr()
    errors = np.loadtxt(io.StringIO(captured.out), delimiter=",", skiprows=1)[:, 2]
    assert np.count_nonzero(errors >= sys.float_info.min) == fitted
    slope = re.fullmatch(rf"fitted log-log slope of abs_err_phi: (\S+) over {fitted} "
                         rf"of 11 rows .*\n", captured.err).group(1)
    assert abs(float(slope) + 1.0) < 1e-3 if fitted else slope == "none"


def test_contraction_complex_zeta(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["contraction", "--zeta", "1+1j", "--n-min", "1000000",
                 "--n-max", "1000000", "--out", str(out)]) == 0
    line = out.read_text().strip().split("\n")[1]
    overlap = float(line.split(",")[3])
    assert abs(overlap - math.exp(-1.0)) < 1e-6


@pytest.mark.parametrize("argv", [
    ["demo", "two-qubit", "--d", "1"],
    ["demo", "fan-one", "--n", "0"],
    ["demo", "toffoli", "--n", "3", "--d", "2"],
    ["sweep", "--zeta-min", "0"],
    ["sweep", "--zeta-steps", "0"],
    ["sweep", "--zeta-min", "nan", "--zeta-steps", "2", "--n-list", "1e4"],
    ["contraction", "--zeta", "0"],
    ["contraction", "--n-min", "0"],
    ["sweep", "--zeta-steps", "2", "--n-list", "1e4,2.5"],
    ["sweep", "--zeta-steps", "2", "--n-list", "1e400"],
    ["sweep", "--zeta-steps", "2", "--n-list", "nan"],
])
def test_bad_argument_values_exit_two_with_one_line(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] != "demo":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["sweep", "--zeta-min", "1e200", "--zeta-max", "1e300", "--zeta-steps", "2",
     "--n-list", "1"],
    ["sweep", "--zeta-min", "1e60", "--zeta-max", "1e61", "--zeta-steps", "2",
     "--n-list", "1"],
    ["contraction", "--zeta", "1e200"],
])
def test_overflowing_zeta_exits_two_naming_it(argv, tmp_path, capsys):
    # Any numpy RuntimeWarning is an error here, so none may escape either.
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "zeta" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv,rows", [
    (["sweep", "--zeta-min", "0.5", "--zeta-max", "60", "--zeta-steps", "5000",
      "--n-list", "1,7,1e4,1e9,1e19"], 25000),
    (["contraction", "--zeta", "2-1j", "--n-min", "1", "--n-max", "100000"], 17),
])
def test_stdout_bytes_equal_file_bytes(argv, rows, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert f"wrote {rows} rows" in capsys.readouterr().out
    assert main(argv + ["--out", "-"]) == 0
    text = out.read_text()
    assert capsys.readouterr().out.split("fitted log-log")[0] == text
    assert text.count("\n") == 1 + rows
    if argv[0] == "sweep":
        # Every 5th row is N = 1e19, written exactly although it exceeds int64.
        assert text.splitlines()[-1].split(",")[1] == str(10 ** 19)
        assert text.count(",10000000000000000000,") == rows // 5


def test_sweep_writes_ensemble_sizes_exactly(tmp_path):
    # Neither size is a double; each is parsed and written as given.
    out = tmp_path / "n.csv"
    assert main(["sweep", "--zeta-steps", "1", "--n-list", "12345678901234567891,1e23",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["12345678901234567891", str(10 ** 23)]


def test_sweep_writes_the_largest_ensembles(tmp_path):
    out = tmp_path / "big.csv"
    assert main(["sweep", "--zeta-steps", "1", "--n-list", "1e308", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[1] == str(10 ** 308) and abs(float(row[2]) - 1.0) <= 1e-15


def _traced_peak(argv) -> float:
    """Peak traced allocation of one CLI run, in MiB."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_sweep_streams_its_rows(tmp_path, capsys):
    # 12,000 rows; a joined copy of the text alone is about 1 MiB.
    peak = _traced_peak(["sweep", "--zeta-steps", "2000", "--out", str(tmp_path / "s.csv")])
    assert "wrote 12000 rows" in capsys.readouterr().out
    assert peak < 3.0


def test_demo_builds_no_dense_matrix(capsys):
    # 10 qubits: a dense matrix would be 16 MiB; the gate and the oracle are
    # 512 blocks of 2 x 2 each.
    assert _traced_peak(["demo", "toffoli", "--n", "9", "--d", "10"]) < 4.0
    assert "verified against oracle: phase distance" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["toffoli", "--n", "16", "--d", "18"],
                                  ["fan-bipartite", "--n", "8", "--m", "8"]])
def test_demo_runs_registers_above_max_dense_qubits(argv, capsys):
    # 17 and 16 qubits, beyond the 12 that a dense gate may take; exit 0 is
    # a phase distance below 1e-10.
    assert main(["demo", *argv]) == 0
    assert "verified against oracle" in capsys.readouterr().out


def test_demo_refuses_oversized_register_before_building(monkeypatch, capsys):
    # 24 qubits would need 2^24 x 2^24 dense matrices; the size estimate
    # alone must refuse it, before any sequence or oracle is built.
    def never(*args, **kwargs):
        raise AssertionError("sequence built for an oversized register")

    monkeypatch.setattr("amqc.cli.fan_bipartite", never)
    monkeypatch.setattr("amqc.oracles.fan", never)
    assert main(["demo", "fan-bipartite", "--n", "12", "--m", "12"]) == 2
    err = capsys.readouterr().err
    assert "24-qubit" in err and err.count("\n") == 1


def _sci_text(values) -> str:
    """The kernel's cells for ``values``, one per line, NULs dropped."""
    cells = np.concatenate([cli._sci(values), np.full((len(values), 1), ord("\n"), np.uint8)],
                           axis=1)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def test_sci_kernel_writes_what_percent_writes():
    rng = np.random.default_rng(2014)
    bits = rng.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64).view(np.float64)
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         np.finfo(float).max, -np.finfo(float).max, 9.999999999995,
                         9.9999999999949, 1e-300, 1e22, 1e23, 100000000000.5])
    # Halfway cases at the 12th digit (12 digits, then a 5), each within an
    # ulp of its decimal tie, over the exponent range; powers of ten and their
    # neighbours, where log10 may round across the exponent.
    ties = np.array([float(f"{m}5e{e - 12}") for m, e in zip(
        rng.integers(10 ** 11, 10 ** 12, size=20_000).tolist(),
        rng.integers(-300, 301, size=20_000).tolist())])
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = np.concatenate([bits[np.isfinite(bits)], extremes, ties, -powers])
    decided = cli._decided(cli._scaled(np.abs(values))[0])
    # Both the vector and the tie path run; every tie takes the second.
    assert decided.any() and not decided.all()
    assert not decided[-powers.size - ties.size:-powers.size].any()
    for block in np.array_split(values, 8):
        want = "".join(cli._FMT % v + "\n" for v in block.tolist())
        assert _sci_text(block) == want


def _reference_write_csv(out, header, columns):
    """The row-by-row ``%`` writer the kernel replaced, kept as its reference.
    An exact column (values, rows) is written as the list of values[rows[i]]."""
    exact = [isinstance(c, tuple) for c in columns]
    columns = [[c[0][i] for i in c[1]] if e else np.asarray(c, dtype=float)
               for c, e in zip(columns, exact)]
    cli._require(all(np.isfinite(c).all() for c, e in zip(columns, exact) if not e),
                 "non-finite value in the computed rows; nothing written")
    row = ",".join("%s" if e else cli._FMT for e in exact) + "\n"
    with (contextlib.nullcontext(sys.stdout) if out == "-"
          else open(out, "w", encoding="ascii")) as handle:
        handle.write(header + "\n")
        for start in range(0, len(columns[0]), cli._BLOCK):
            block = [c[start:start + cli._BLOCK] for c in columns]
            cells = [v if e else v.tolist() for v, e in zip(block, exact)]
            handle.write("".join(row % values for values in zip(*cells)))
    if out != "-":
        print(f"wrote {len(columns[0])} rows to {out}")


@pytest.mark.parametrize("argv", [
    ["sweep"],
    ["sweep", "--zeta-steps", "2000"],
    ["sweep", "--n-list", "12345678901234567891,1e23,1e308"],
    ["contraction"],
    ["contraction", "--zeta", "3+4j", "--n-min", "1", "--n-max", str(10 ** 11)],
    ["sweep", "--n-list", "1e19,1"],
    ["sweep", "--n-list", "1e4,1e4,3", "--zeta-steps", "1001"],
])
def test_writer_matches_the_percent_reference(argv, tmp_path, monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_write_csv", _reference_write_csv)
        assert main(argv + ["--out", str(tmp_path / "reference.csv")]) == 0
    assert main(argv + ["--out", str(tmp_path / "kernel.csv")]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", "-"]) == 0
    written = (tmp_path / "kernel.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert capsys.readouterr().out.encode() == written


# ----------------------------------------------------------------------------
# cancellation-prone columns against 100-digit references
# ----------------------------------------------------------------------------

def _rounded_reference(value) -> "decimal.Decimal":
    """A 100-digit reference as the CSV should print it: correctly rounded
    to 12 significant digits, or the double it rounds to below the normal
    range, where the double has fewer digits than that."""
    import decimal
    mpmath = pytest.importorskip("mpmath")
    if abs(value) < sys.float_info.min:
        return decimal.Decimal(cli._FMT % float(value))
    return decimal.Decimal(format(decimal.Decimal(mpmath.nstr(value, 40)), ".11e"))


def _csv_column(path, name):
    import decimal
    lines = path.read_text().strip().split("\n")
    column = lines[0].split(",").index(name)
    return [line.split(",") for line in lines[1:]], [
        decimal.Decimal(line.split(",")[column]) for line in lines[1:]]


@pytest.mark.parametrize("argv", [
    [],                                                           # the default grid
    ["--zeta-min", "1e-160", "--zeta-steps", "2", "--n-list", "1e9"],
])
def test_sweep_phi_e_is_the_rounded_exact_value(tmp_path, argv):
    mpmath = pytest.importorskip("mpmath")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    rows, written = _csv_column(out, "phi_E")
    with mpmath.workdps(100):
        for row, cell in zip(rows, written):
            zeta, n = mpmath.mpf(row[0]), mpmath.mpf(row[1])
            w = zeta ** 2 / (2 * n)
            phi_f = n * mpmath.atan2(2 * w, 1 + 2 * w - w * w)
            assert cell == _rounded_reference((zeta ** 2 - phi_f) / zeta ** 2), row


@pytest.mark.parametrize("zeta", ["1e-3", "2", "1+1j", "5"])
def test_contraction_abs_err_overlap_is_the_rounded_exact_value(tmp_path, zeta):
    mpmath = pytest.importorskip("mpmath")
    out = tmp_path / "contraction.csv"
    assert main(["contraction", "--zeta", zeta, "--out", str(out)]) == 0
    rows, written = _csv_column(out, "abs_err_overlap")
    with mpmath.workdps(100):
        mag2 = abs(mpmath.mpc(complex(zeta))) ** 2
        for row, cell in zip(rows, written):
            n = mpmath.mpf(row[0])
            exact = mpmath.exp(-n * mpmath.log1p(mag2 / (2 * n))) - mpmath.exp(-mag2 / 2)
            assert cell == _rounded_reference(abs(exact)), row
