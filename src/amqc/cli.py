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
import math
import sys

import numpy as np

from . import spin
from .branches import register_bits
from .linalg import PAULI_X, identity, phase_distance
from .qudit_model import (
    AncillaProjectedGate,
    ControlledAncillaRotation,
    Interaction,
    extract_register_gate,
    fan_bipartite,
    fan_one_target,
    generalized_toffoli,
    mod_d_phase_gate,
    two_qubit_sequence,
)
from .verify import SUITES, run_suites

_FMT = "{:.11e}"  # 12 significant digits, scientific
_BLOCK = 4096     # CSV rows formatted per write
# Largest register ``demo`` builds.  It holds three dense 2^q x 2^q matrices at
# once (the extracted unitary, the oracle and phase_distance's one temporary),
# 16 * 4^q bytes each: 768 MB at q = 12.
MAX_DENSE_QUBITS = 12


def _require(ok: bool, message: str) -> None:
    """Reject a bad argument value (exit 2) unless ``ok``."""
    if not ok:
        raise ValueError(message)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(float(chunk)) for chunk in text.split(",") if chunk.strip()]
    except (ValueError, OverflowError):
        values = []
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"--n-list must be positive integers, got {text!r}")
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
                  f"deviation {check.deviation:.3e} (tolerance {check.tolerance:.1e})")
        all_passed &= res.passed
    return 0 if all_passed else 1


def _write_csv(out: str, header: str, columns: list) -> None:
    """Stream a header and one row per index of ``columns`` to ``out``
    ('-' = stdout).

    A list column holds exact values written with str() (ensemble sizes,
    which may exceed int64); any other column is a float array written with
    _FMT.  A nan or inf in a float column refuses the run before ``out`` is
    opened, so nothing is written.
    """
    exact = [isinstance(c, list) for c in columns]
    columns = [c if e else np.asarray(c, dtype=float) for c, e in zip(columns, exact)]
    _require(all(np.isfinite(c).all() for c, e in zip(columns, exact) if not e),
             "non-finite value in the computed rows; nothing written")
    row = ",".join("{}" if e else _FMT for e in exact) + "\n"
    count = len(columns[0])
    with (contextlib.nullcontext(sys.stdout) if out == "-"
          else open(out, "w", encoding="ascii")) as handle:
        handle.write(header + "\n")
        for start in range(0, count, _BLOCK):
            block = [c[start:start + _BLOCK] for c in columns]
            handle.writelines(map(row.format, *(b if e else b.tolist()
                                                for b, e in zip(block, exact))))
    if out != "-":
        print(f"wrote {count} rows to {out}")


def cmd_sweep(args) -> int:
    _require(args.zeta_steps >= 1, "--zeta-steps must be at least 1")
    _require(0 < args.zeta_min < math.inf and 0 < args.zeta_max < math.inf,
             "--zeta-min and --zeta-max must be positive and finite")
    # One array pass over the grid, rows ordered by (zeta_n, N).
    zeta = np.repeat(np.linspace(args.zeta_min, args.zeta_max, args.zeta_steps),
                     len(args.n_list))
    p = spin.fan_error(zeta, np.tile(np.array(args.n_list, dtype=float),
                                     args.zeta_steps))
    _write_csv(args.out, "zeta_n,N,phi_f,phi_E,infidelity,phi_series,infid_series",
               [zeta, args.n_list * args.zeta_steps, p.phi_f, p.phi_E,
                p.infidelity, p.phi_series, p.infid_series])
    return 0


def _format_element(element) -> str:
    if isinstance(element, Interaction):
        lab = element.label
        tag = "" if element.polarity == "apply-on-one" else "~"
        return f"D{tag}^{element.qubit}({lab.x:+d},{lab.p:+d})"
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
    qubits = {"two-qubit": 2, "fan-bipartite": args.n + args.m}.get(
        args.sequence, args.n + 1)
    _require(qubits <= MAX_DENSE_QUBITS,
             f"a {qubits}-qubit register needs dense 2^{qubits} x 2^{qubits} "
             f"matrices; demo builds at most {MAX_DENSE_QUBITS} qubits")
    if args.sequence == "two-qubit":
        seq = two_qubit_sequence(0, 1, args.x, args.p, d)
        theta = 2 * math.pi * args.x * args.p / d
        oracle = np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)])
        naive, gates = 4, 1
        described = f"CR({theta:.6f}) on qubits (0, 1)"
    elif args.sequence == "fan-one":
        xs = [1 + (k % d) for k in range(args.n)]
        seq = fan_one_target(xs, args.p, d)
        bits = register_bits(args.n + 1)
        oracle = np.diag(np.exp(
            2j * math.pi / d * (bits[:, :-1] @ xs) * args.p * bits[:, -1]))
        naive, gates = 4 * args.n, args.n
        described = f"prod_k C^k_t R(2 pi x_k p / {d}), xs={xs}, p={args.p}"
    elif args.sequence == "fan-bipartite":
        xs = [1 + (k % d) for k in range(args.n)]
        ps = [1 + (j % d) for j in range(args.m)]
        seq = fan_bipartite(xs, ps, d)
        bits = register_bits(args.n + args.m)
        oracle = np.diag(np.exp(
            2j * math.pi / d * (bits[:, :args.n] @ xs) * (bits[:, args.n:] @ ps)))
        naive, gates = 4 * args.n * args.m, args.n * args.m
        described = f"all n*m controlled rotations, xs={xs}, ps={ps}"
    elif args.sequence == "toffoli":
        _require(d > args.n, f"toffoli needs --d > --n, got d={d} n={args.n}")
        seq = generalized_toffoli(args.n, PAULI_X, d)
        oracle = identity(2 ** (args.n + 1))
        flip = 2 ** (args.n + 1) - 2
        oracle[np.ix_([flip, flip + 1], [flip, flip + 1])] = PAULI_X
        naive, gates = 4 * args.n, 1
        described = f"{args.n}-controlled X via ancilla level counting"
    elif args.sequence == "modd":
        seq = mod_d_phase_gate(args.theta, args.n, d)
        bits = register_bits(args.n + 1)
        oracle = np.diag(np.exp(
            1j * args.theta * (bits[:, :-1].sum(axis=1) % d) * bits[:, -1]))
        naive, gates = 4 * args.n, args.n
        described = (f"phase exp(i theta ((sum q) mod {d}) q_t), "
                     f"theta={args.theta:g}")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(2)

    report = extract_register_gate(seq)
    distance = (phase_distance(report.register_unitary, oracle)
                if report.register_unitary is not None else float("inf"))
    print("sequence:", " ".join(_format_element(e) for e in seq.elements))
    print(f"{gates} gate(s) via {report.interaction_count} interactions "
          f"(naive: {naive})")
    print(f"register gate: {described}")
    print(f"verified against dense oracle: phase distance {distance:.3e}, "
          f"ancilla return fidelity {report.ancilla_return_fidelity:.15f}")
    return 0 if distance < 1e-10 else 1


def cmd_contraction(args) -> int:
    _require(1 <= args.n_min <= args.n_max, f"bad range [{args.n_min}, {args.n_max}]")
    _require(0 < abs(args.zeta) < math.inf, "--zeta must be nonzero and finite")
    n_list = []
    n = args.n_min
    while n <= args.n_max:
        n_list.append(n)
        n *= 2
    rows = spin.contraction_probe(args.zeta, n_list)
    fields = ("phi_f", "abs_err_phi", "overlap", "abs_err_overlap", "prefactor")
    table = np.array([[getattr(r, f) for f in fields] for r in rows])
    _write_csv(args.out, "N," + ",".join(fields), [n_list, *table.T])
    if len(rows) >= 3:
        slope = spin.fitted_loglog_slope(
            [r.n_spins for r in rows], [r.abs_err_phi for r in rows])
        print(f"fitted log-log slope of abs_err_phi: {slope:.4f} "
              f"(flat-space convergence is -1)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amqc",
        description="Ancilla-mediated gate identities, error sweeps and demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("suite", choices=list(SUITES) + ["all"])
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="CSV of intrinsic phase/fidelity errors over (zeta_n, N)")
    p_sweep.add_argument("--zeta-min", type=float, default=1.0)
    p_sweep.add_argument("--zeta-max", type=float, default=50.0)
    p_sweep.add_argument("--zeta-steps", type=int, default=50)
    p_sweep.add_argument("--n-list", type=_parse_n_list,
                         default=[10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8, 10 ** 9],
                         help="comma-separated ensemble sizes, e.g. 1e4,1e6")
    p_sweep.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

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
    p_demo.set_defaults(func=cmd_demo)

    p_contr = sub.add_parser(
        "contraction", help="CSV of large-N convergence onto the field mode")
    p_contr.add_argument("--zeta", type=_parse_complex, default=2.0 + 0.0j)
    p_contr.add_argument("--n-min", type=int, default=1000)
    p_contr.add_argument("--n-max", type=int, default=1_000_000)
    p_contr.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p_contr.set_defaults(func=cmd_contraction)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
