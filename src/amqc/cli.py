"""Command line front end: identity suites, error sweeps, gate demos, limits.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error: a bad
argument value, reported as one ``error:`` line on stderr whether the CLI or
the library rejects it.  Output is
plain text (``NO_COLOR`` is respected trivially; nothing is ever colored) and
CSV files are byte-deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import math
import sys

import numpy as np

from . import oracles, spin
from .linalg import PAULI_X, diagonal_distance, phase_distance  # noqa: F401 -- perfbench traces it
from .qudit_model import (
    AncillaProjectedGate,
    ControlledAncillaRotation,
    Interaction,
    extract_register_gate,
    fan_bipartite,
    generalized_toffoli,
    mod_d_phase_gate,
)
from .verify import SUITES, run_suites

_FMT = "%.11e"   # 12 significant digits, scientific
_BLOCK = 512      # CSV rows formatted and written at once; about 0.3 MiB of work arrays
MAX_DEMO_QUBITS = 20   # every kind is compact; a 20-qubit fan takes 0.5 s, 260 MiB traced

# The _FMT kernel (_sci).  A finite v != 0 with decimal exponent guess
# e = floor(log10|v|) is scaled to y = |v| 10^k, k = 11 - e, and its digits
# are M = round(y), 10^11 <= M < 10^12.  10^k comes from two correctly rounded
# factors, the second 1.0 unless 10^k overflows (|v| below about 1e-297,
# subnormals included), so y_c = y (1 + d1)(1 + d2)(1 + d3)(1 + d4) with each
# |d| <= 2^-53: two table entries and two products, all normal doubles.  For
# y_c < 10^12 that is |y_c - y| < 4.0000001 * 2^-53 * 10^12 < 4.45e-4, so a
# cell whose y_c lies more than _TIE from every half-integer rounds like y,
# the correctly rounded (ties-to-even) value that _FMT writes.  Any other
# cell, and one whose y_c misses [10^11, 10^12) because log10 rounded across
# a power of ten, is written by _FMT itself.
_TIE = 5e-4
_EXP_MIN, _EXP_MAX = -324, 308                 # decimal exponents of doubles
_K = np.arange(11 - _EXP_MAX, 12 - _EXP_MIN)   # every k = 11 - e
_POW_SPLIT = np.where(_K > 308, 1e30, 1.0)     # 10^k = 10^(k - 30) * 10^30
_POW = np.array([float(f"1e{k}") for k in (_K - 30 * (_K > 308)).tolist()])
# A cell is _WIDTH bytes whose NULs are dropped on output: "-d.dd" (sign or
# NUL first), three "ddd" and "e+dd"/"e+ddd", each read from a table of 8- or
# 4-byte words, so each is one take of machine words, not of bytes.
_DIGITS = (np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + 48).astype(np.uint8)
_HEADS = np.zeros((2, 1000, 8), dtype=np.uint8)       # [signbit, first 3 digits]
_HEADS[1, :, 0] = ord("-")
_HEADS[:, :, 1] = _DIGITS[:, 0]
_HEADS[:, :, 2] = ord(".")
_HEADS[:, :, 3:5] = _DIGITS[:, 1:]
_HEADS = _HEADS.view(np.uint64).ravel()
_TRIPLES = np.zeros((1000, 4), dtype=np.uint8)
_TRIPLES[:, :3] = _DIGITS
_TRIPLES = _TRIPLES.view(np.uint32).ravel()
_EXPONENTS = np.zeros((_EXP_MAX - _EXP_MIN + 1, 8), dtype=np.uint8)
_EXPONENTS[:, 0] = ord("e")
_EXPONENTS[:, 1] = np.where(np.arange(_EXP_MIN, _EXP_MAX + 1) < 0, ord("-"), ord("+"))
_EXPONENTS[:, 2:5] = _DIGITS[np.abs(np.arange(_EXP_MIN, _EXP_MAX + 1))]
_EXPONENTS[-_EXP_MIN - 99:100 - _EXP_MIN, 2] = 0     # two digits below 100
_EXPONENTS = _EXPONENTS.view(np.uint64).ravel()
_GROUPS = np.array([[10 ** 9], [10 ** 6], [10 ** 3], [1]])
_WIDTH = 28


def _require(ok: bool, message: str) -> None:
    """Reject a bad argument value (exit 2) unless ``ok``."""
    if not ok:
        raise ValueError(message)


def _parse_n_list(text: str) -> list[int]:
    """Ensemble sizes: whole numbers of at least 1, each parsed exactly (1e19
    is 10^19) and finite as a double, the precision fan_error works in."""
    values = []
    for chunk in filter(str.strip, text.split(",")):
        try:
            value = decimal.Decimal(chunk)
            whole = value >= 1 and math.isfinite(float(value)) and value == int(value)
        except decimal.InvalidOperation:
            whole = False
        _require(whole, f"--n-list must be positive integers, got {text!r}")
        values.append(int(value))
    _require(values, f"--n-list must be positive integers, got {text!r}")
    return values


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names)
    all_passed = True
    for res in results:
        print(f"suite {res.name}: {res.cases_passed}/{res.cases_run} checks "
              f"passed, worst deviation {res.worst_deviation:.3e}, "
              f"{res.wall_time_s:.2f}s")
        for check in res.checks:
            status = "ok" if check.passed else "FAIL"
            print(f"  [{status:>4}] {check.name}: "
                  f"deviation {check.deviation:.3e} (tolerance {check.tolerance:.1e}), "
                  f"{check.wall_s:.4f}s")
        all_passed &= res.passed
    return 0 if all_passed else 1


def _scaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y_c, e) for finite |v| values ``a``: the exponent guess
    e = floor(log10 a) (0 for a zero) and y_c = a 10^(11 - e) in doubles."""
    e = np.floor(np.log10(a, out=np.zeros_like(a), where=a > 0)).astype(np.int64)
    k = 11 - e - _K[0]
    return a * _POW.take(k, mode="clip") * _POW_SPLIT.take(k, mode="clip"), e


def _decided(y: np.ndarray) -> np.ndarray:
    """True where y_c is in [10^11, 10^12) and more than _TIE from every
    half-integer, so round(y_c) gives the 12 digits of _FMT."""
    return (y >= 1e11) & (y < 1e12) & (np.abs(y - np.floor(y) - 0.5) > _TIE)


def _sci(values: np.ndarray) -> np.ndarray:
    """``_FMT % v`` for each finite double of a 1-d ``values``, as ASCII rows
    of _WIDTH bytes padded with NULs."""
    y, e = _scaled(np.abs(values))
    fast = _decided(y) | (values == 0)           # a zero is y = 0, e = 0
    y[~fast] = 0.0
    digits = np.rint(y).astype(np.int64)
    carry = digits == 10 ** 12                   # 9.9999999999996 -> 1.00000000000e+01
    digits[carry] = 10 ** 11
    e += carry
    groups = digits // _GROUPS                   # the 4 three-digit groups of M,
    groups[1:] -= 1000 * groups[:-1]             # the first offset by 1000 if v < 0
    groups[0] += 1000 * np.signbit(values)
    out = np.empty((values.size, _WIDTH // 4), dtype=np.uint32)
    out[:, :2] = _HEADS.take(groups[0]).view(np.uint32).reshape(-1, 2)
    out[:, 2:5] = _TRIPLES.take(groups[1:]).T
    out[:, 5:] = _EXPONENTS.take(e - _EXP_MIN, mode="clip").view(np.uint32).reshape(-1, 2)
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = np.array([_FMT % v for v in values[slow].tolist()],
                             dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return out


def _csv_rows(columns: list, exact: list) -> str:
    """The CSV rows of equal-length column slices, as one NUL-padded byte
    block written out without its NULs."""
    floats = [c for c, e in zip(columns, exact) if not e]
    cells = iter(_sci(np.concatenate(floats)).reshape(len(floats), len(floats[0]), -1))
    fields = [c.view(("u1", c.itemsize)) if e else next(cells) for c, e in zip(columns, exact)]
    block = np.zeros((len(floats[0]), sum(f.shape[1] + 1 for f in fields)), dtype=np.uint8)
    at = 0
    for field in fields:
        block[:, at:at + field.shape[1]] = field
        at += field.shape[1] + 1
        block[:, at - 1] = ord(",")
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\0").decode("ascii")


def _write_csv(out: str, header: str, columns: list) -> None:
    """Stream a header and one row per index of ``columns`` to ``out``
    ('-' = stdout).

    A tuple column (values, rows) is written exactly, row i as
    str(values[rows[i]]) (ensemble sizes may exceed int64).  Any other
    column is a float array written as _FMT writes it; a nan or inf in one
    refuses the run before ``out`` is opened, so nothing is written.  Each
    block of _BLOCK rows is assembled as one NUL-padded byte array and
    written at once without its NULs.  Its float cells come from a
    vectorised kernel (_sci) that is byte-identical to ``_FMT % v``: a cell
    within the kernel's rounding-error bound of a decimal tie is handed to
    Python's own conversion, into the same field.
    """
    exact = [isinstance(c, tuple) for c in columns]
    columns = [(np.array([str(v) for v in c[0]], dtype=bytes), c[1]) if e
               else np.asarray(c, dtype=float) for c, e in zip(columns, exact)]
    _require(all(np.isfinite(c).all() for c, e in zip(columns, exact) if not e),
             "non-finite value in the computed rows; nothing written")
    count = len(columns[exact.index(False)])
    with (contextlib.nullcontext(sys.stdout) if out == "-"
          else open(out, "w", encoding="ascii")) as handle:
        handle.write(header + "\n")
        for start in range(0, count, _BLOCK):
            rows = slice(start, start + _BLOCK)
            handle.write(_csv_rows([c[0][c[1][rows]] if e else c[rows]
                                    for c, e in zip(columns, exact)], exact))
    if out != "-":
        print(f"wrote {count} rows to {out}")


def cmd_sweep(args) -> int:
    _require(args.zeta_steps >= 1, "--zeta-steps must be at least 1")
    _require(0 < args.zeta_min < math.inf and 0 < args.zeta_max < math.inf,
             "--zeta-min and --zeta-max must be positive and finite")
    n_list = _parse_n_list(args.n_list)
    # One array pass over the grid, rows ordered by (zeta_n, N): N = n_list[rows].
    rows = np.tile(np.arange(len(n_list)), args.zeta_steps)
    zeta = np.repeat(np.linspace(args.zeta_min, args.zeta_max, args.zeta_steps), len(n_list))
    p = spin.fan_error(zeta, np.array(n_list, dtype=float)[rows])
    _write_csv(args.out, "zeta_n,N,phi_f,phi_E,infidelity,phi_series,infid_series",
               [zeta, (n_list, rows), p.phi_f, p.phi_E, p.infidelity, p.phi_series,
                p.infid_series])
    return 0


def _format_element(element) -> str:
    if isinstance(element, Interaction):
        tag = "" if element.polarity == "apply-on-one" else "~"
        return f"D{tag}^{element.qubit}({element.x:+d},{element.p:+d})"
    if isinstance(element, AncillaProjectedGate):
        return f"[U on q{element.target} iff anc=|{element.level}>]"
    if isinstance(element, ControlledAncillaRotation):
        return f"[C^{element.control} R_d({element.theta:g})]"
    return repr(element)


def cmd_demo(args) -> int:
    d = args.d
    _require(d >= 2, f"--d must be at least 2, got {d}")
    _require(args.n >= 1 and args.m >= 1, "--n and --m must be at least 1")
    _require(math.isfinite(args.theta), "--theta must be finite")
    # A fan has n controls and m targets, toffoli and modd n controls and one.
    n = 1 if args.sequence == "two-qubit" else args.n
    m = args.m if args.sequence == "fan-bipartite" else 1
    _require(n + m <= MAX_DEMO_QUBITS,
             f"a {n + m}-qubit register is beyond demo's {MAX_DEMO_QUBITS}-qubit limit")
    if args.sequence in ("two-qubit", "fan-one", "fan-bipartite"):
        xs = [args.x] if args.sequence == "two-qubit" else [1 + (k % d) for k in range(n)]
        ps = [1 + (j % d) for j in range(m)] if args.sequence == "fan-bipartite" else [args.p]
        seq = fan_bipartite(xs, ps, d)
        # Residues mod d: the same gate, without rounding 2 pi X P / d in floats.
        oracle = oracles.fan([x % d for x in xs], [p % d for p in ps], 2 * math.pi / d,
                             signed=False)
        naive, gates = 4 * n * m, n * m
        described = {
            "two-qubit": f"CR({2 * math.pi * args.x * args.p / d:.6f}) on qubits (0, 1)",
            "fan-one": f"prod_k C^k_t R(2 pi x_k p / {d}), xs={xs}, p={args.p}",
            "fan-bipartite": f"all n*m controlled rotations, xs={xs}, ps={ps}",
        }[args.sequence]
    elif args.sequence == "toffoli":
        _require(d > args.n, f"toffoli needs --d > --n, got d={d} n={args.n}")
        seq = generalized_toffoli(args.n, PAULI_X, d)
        oracle = oracles.toffoli(args.n, PAULI_X)
        naive, gates = 4 * args.n, 1
        described = f"{args.n}-controlled X via ancilla level counting"
    else:    # modd; argparse allows no other kind
        seq = mod_d_phase_gate(args.theta, args.n, d)
        oracle = oracles.mod_d(args.theta, args.n, d)
        naive, gates = 4 * args.n, args.n
        described = (f"phase exp(i theta ((sum q) mod {d}) q_t), "
                     f"theta={args.theta:g}")

    report = extract_register_gate(seq)
    distance = (float("inf") if report.gate is None else
                diagonal_distance(report.gate, oracle, 2 ** (n + m)))
    print("sequence:", " ".join(_format_element(e) for e in seq.elements))
    print(f"{gates} gate(s) via {report.interaction_count} interactions "
          f"(naive: {naive})")
    print(f"register gate: {described}")
    print(f"verified against oracle: phase distance {distance:.3e}, "
          f"ancilla return fidelity {report.ancilla_return_fidelity:.15f}")
    return 0 if distance < 1e-10 else 1


def cmd_contraction(args) -> int:
    _require(1 <= args.n_min <= args.n_max, f"bad range [{args.n_min}, {args.n_max}]")
    _require(0 < abs(args.zeta) < math.inf, "--zeta must be nonzero and finite")
    n_list = [args.n_min << k for k in range((args.n_max // args.n_min).bit_length())]
    rows = spin.contraction_probe(args.zeta, n_list)
    fields = ("phi_f", "abs_err_phi", "overlap", "abs_err_overlap", "prefactor")
    table = np.array([[getattr(r, f) for f in fields] for r in rows])
    _write_csv(args.out, "N," + ",".join(fields), [(n_list, np.arange(len(n_list))), *table.T])
    if len(rows) >= 3:
        # Skip errors that underflow below the smallest normal double (or to 0).
        fit = [(r.n_spins, r.abs_err_phi) for r in rows if r.abs_err_phi >= sys.float_info.min]
        slope = f"{spin.fitted_loglog_slope(*zip(*fit)):.4f}" if len(fit) >= 2 else "none"
        # With the CSV on stdout the slope goes to stderr, so stdout parses.
        print(f"fitted log-log slope of abs_err_phi: {slope} over {len(fit)} of "
              f"{len(rows)} rows with a resolved error (flat-space convergence is -1)",
              file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amqc",
        description="Ancilla-mediated gate identities, error sweeps and demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("suite", choices=list(SUITES) + ["all"])

    p_sweep = sub.add_parser(
        "sweep", help="CSV of intrinsic phase/fidelity errors over (zeta_n, N)")
    p_sweep.add_argument("--zeta-min", type=float, default=1.0)
    p_sweep.add_argument("--zeta-max", type=float, default=50.0)
    p_sweep.add_argument("--zeta-steps", type=int, default=50)
    p_sweep.add_argument("--n-list", default="1e4,1e5,1e6,1e7,1e8,1e9",
                         help="comma-separated ensemble sizes, e.g. 1e4,1e6")
    p_sweep.add_argument("--out", default="-", help="output path ('-' = stdout)")

    p_demo = sub.add_parser("demo", help="build, run and verify a gate sequence")
    p_demo.add_argument("sequence", choices=[
        "two-qubit", "fan-one", "fan-bipartite", "toffoli", "modd"])
    p_demo.add_argument("--d", type=int, default=3, help="ancilla dimension")
    p_demo.add_argument("--n", type=int, default=2, help="number of controls")
    p_demo.add_argument("--m", type=int, default=1, help="number of targets")
    p_demo.add_argument("--x", type=int, default=1, help="position step")
    p_demo.add_argument("--p", type=int, default=1, help="momentum step")
    p_demo.add_argument("--theta", type=float, default=math.pi / 5,
                        help="rotation angle for modd")

    p_contr = sub.add_parser(
        "contraction", help="CSV of large-N convergence onto the field mode")
    p_contr.add_argument("--zeta", type=_parse_complex, default=2.0 + 0.0j)
    p_contr.add_argument("--n-min", type=int, default=1000)
    p_contr.add_argument("--n-max", type=int, default=1_000_000)
    p_contr.add_argument("--out", default="-", help="output path ('-' = stdout)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built on the first :func:`main` call of a
    process and reused: its four subcommands take 0.6 ms to build."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up by name on each call, so the reused parser runs whatever
        # cmd_* function this module holds now (perfbench wraps two).
        return globals()["cmd_" + args.command](args)
    except (ValueError, ArithmeticError) as exc:
        # A value out of a closed form's domain (zeta_n <= 0, too few
        # controls, an overflowing zeta) is a bad argument too.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
