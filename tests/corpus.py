"""A fixed, seeded corpus of engine reports, and its fingerprint.

The corpus has four sections:
- torus: fans for d = 2-6 under both polarities and each convention,
  seeded random interaction sequences and batched extractions;
- class: Toffoli and mod-d gates at 1-10 controls and seeded sandwiches
  (interactions, projected gates and rotations, the interactions undone);
- bus: field-mode fans from random initial labels;
- spin: spin fans, corrected two-qubit rectangles and one south-pole error.

Run from the repository root with amqc importable (installed, or
``PYTHONPATH=src``):

    python -m tests.corpus --hash    # one sha256 per section
    python -m tests.corpus --write   # rewrite tests/data/corpus.npz

A section's sha256 covers each report's gate bytes, dtype and shape, rows,
fidelity, residual and interaction count (a spin fan's labels, phases and
extremal values too; an error's type and message).  Two trees that print the
same line for a section give bitwise the same reports there.

``tests/data/corpus.npz`` keeps integers whole and floats as they are when
a field holds at most four of them, else as four fixed random projections;
``tests/test_corpus.py`` compares the reports against it.  Rewriting it is a
changed check.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import pathlib

import numpy as np

from amqc.branches import SingularCompositionError
from amqc.linalg import random_state, random_unitary
from amqc.qubus import FieldLabel, field_fan, field_two_qubit
from amqc.qudit import CONVENTIONS, HALF_ROOT
from amqc.qudit_model import (
    POLARITIES,
    AncillaProjectedGate,
    ControlledAncillaRotation,
    Interaction,
    InteractionSequence,
    LocalAncillaRotation,
    extract_register_gate,
    extract_register_gates,
    fan_bipartite,
    generalized_toffoli,
    mod_d_phase_gate,
    single_pair_arbitrary_rotation,
    two_qubit_sequence,
)
from amqc.spin import SpinFanReport, fan_sequence_simulate, spin_two_qubit_gate

DATA = pathlib.Path(__file__).parent / "data" / "corpus.npz"
SECTIONS = ("torus", "class", "bus", "spin")
KEPT = 4   # floats kept whole per field; longer fields keep this many projections


def _conventions(d: int):
    return CONVENTIONS if d % 2 else (HALF_ROOT,)


def _interactions(rng, n: int, d: int, count: int) -> list:
    label = lambda: int(rng.integers(-2 * d, 2 * d + 1))   # noqa: E731
    return [Interaction(int(rng.integers(n)), label(), label(), POLARITIES[rng.integers(2)])
            for _ in range(count)]


def _undone(elements: list) -> list:
    return [Interaction(e.qubit, -e.x, -e.p, e.polarity) for e in reversed(elements)]


def _torus():
    rng = np.random.default_rng(1701)
    for d in range(2, 7):
        for polarity in POLARITIES:
            for conv in _conventions(d):
                for n, m in ((1, 1), (2, 3), (3, 2), (4, 4), (5, 5)):
                    xs, ps = (rng.integers(-2 * d, 2 * d + 1, k).tolist() for k in (n, m))
                    yield (f"fan d={d} {polarity} {conv} xs={xs} ps={ps}",
                           extract_register_gate(fan_bipartite(xs, ps, d, polarity),
                                                 convention=conv))
    for i in range(60):
        n, d = int(rng.integers(1, 7)), int(rng.integers(2, 10))
        elements = _interactions(rng, n, d, int(rng.integers(0, 12)))
        if i % 2:   # closed: every step undone in reverse order
            elements += _undone(elements)
        anc = random_state(d, rng) if i % 3 == 0 else None
        conv = _conventions(d)[i % len(_conventions(d))]
        yield (f"sequence {i} n={n} d={d} {conv}",
               extract_register_gate(InteractionSequence(n, d, elements), anc, conv))
    for d in (2, 3, 4, 5, 8):   # verify's batched rectangles
        x, p = np.divmod(np.arange(d * d), d)
        seqs = [two_qubit_sequence(0, 1, a, b, d) for a, b in zip(x.tolist(), p.tolist())]
        for conv in _conventions(d):
            for j, rep in enumerate(extract_register_gates(seqs, convention=conv)):
                yield f"rectangle batch d={d} {conv} {j}", rep
    for i in range(6):   # random batches, some of them closed
        n, d = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        seqs = []
        for j in range(int(rng.integers(1, 9))):
            elements = _interactions(rng, n, d, int(rng.integers(0, 8)))
            seqs.append(InteractionSequence(n, d, elements + (_undone(elements) if j % 2 else [])))
        anc = random_state(d, rng) if i % 2 else None
        for j, rep in enumerate(extract_register_gates(seqs, anc)):
            yield f"random batch {i} n={n} d={d} {j}", rep


def _class():
    rng = np.random.default_rng(1702)
    for n in range(1, 11):
        d = n + 1 + n % 3
        yield f"toffoli n={n} d={d}", extract_register_gate(
            generalized_toffoli(n, random_unitary(2, rng), d))
        for d in sorted({2, 3, n + 1}):
            theta = float(rng.uniform(-4.0, 4.0))
            yield f"mod-d n={n} d={d} theta={theta!r}", extract_register_gate(
                mod_d_phase_gate(theta, n, d))
    for d in (2, 3, 5):
        yield f"arbitrary rotation d={d}", extract_register_gate(
            single_pair_arbitrary_rotation(0.7, d))
    for i in range(48):
        n, d = int(rng.integers(2, 7)), int(rng.integers(3, 7))
        prefix = _interactions(rng, n, d, int(rng.integers(1, 6)))
        middle = []
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.integers(3)
            if kind == 0:
                middle.append(AncillaProjectedGate(int(rng.integers(n)), int(rng.integers(d)),
                                                   random_unitary(2, rng)))
            elif kind == 1:
                middle.append(ControlledAncillaRotation(int(rng.integers(n)),
                                                        float(rng.uniform(-3.0, 3.0))))
            else:
                middle.append(LocalAncillaRotation(float(rng.uniform(-3.0, 3.0))))
        if i % 4 == 3:   # every qubit mixed
            middle += [AncillaProjectedGate(q, int(rng.integers(d)), random_unitary(2, rng))
                       for q in range(n)]
        # Every sixth keeps its prefix: a walk that need not close.
        suffix = _interactions(rng, n, d, 2) if i % 6 == 5 else _undone(prefix)
        anc = random_state(d, rng) if i % 5 == 0 else None
        conv = _conventions(d)[i % len(_conventions(d))]
        yield (f"sandwich {i} n={n} d={d} {conv}", extract_register_gate(
            InteractionSequence(n, d, prefix + middle + suffix), anc, conv))


def _bus():
    rng = np.random.default_rng(1703)
    for n, m in ((1, 1), (1, 3), (2, 2), (3, 2), (2, 4), (4, 4), (5, 3)):
        for _ in range(4):
            xs, ps = (rng.uniform(-1.5, 1.5, k).tolist() for k in (n, m))
            label = FieldLabel(*rng.uniform(-3.0, 3.0, 2).tolist())
            yield f"fan xs={xs} ps={ps} from {label.x!r}, {label.p!r}", field_fan(xs, ps, label)
    for x, p in ((0.3, 0.4), (np.pi / 4, 1.0), (-1.2, 0.7)):
        yield f"two-qubit x={x!r} p={p!r}", field_two_qubit(x, p, FieldLabel(0.5, -0.25))


def _spin():
    rng = np.random.default_rng(1704)
    for n, m in ((1, 1), (1, 3), (2, 2), (3, 2), (4, 4), (5, 3), (6, 6)):
        for n_spins in (1, 7, 1000, 10 ** 6):
            # Whole coefficients share sums across branches; random ones rarely do.
            for xs, ps in (((1 + np.arange(n) % 4).tolist(), (1 + 3 * np.arange(m) % 4).tolist()),
                           (rng.uniform(0.2, 2.0, n).tolist(), rng.uniform(-2.0, 2.0, m).tolist())):
                yield (f"fan xs={xs} ps={ps} N={n_spins}",
                       fan_sequence_simulate(xs, ps, n_spins))
    for eta in (0.05, 0.1, 0.3):
        for n_spins in (1, 100, 10 ** 6):
            yield f"two-qubit eta={eta} N={n_spins}", spin_two_qubit_gate(eta, n_spins)
    try:
        fan_sequence_simulate([1e13], [1.0, 1.0], 1)
    except SingularCompositionError as error:
        yield "fan through the south pole", error


def _fields(outcome) -> dict:
    """The numbers a report or error is compared by, as arrays (None where absent)."""
    if isinstance(outcome, Exception):
        text = f"{type(outcome).__name__}: {outcome}"
        return {"error": np.frombuffer(text.encode(), dtype=np.uint8)}
    fields = {"gate": outcome.gate, "rows": outcome.rows,
              "fidelity": outcome.ancilla_return_fidelity,
              "residual": outcome.residual_entanglement, "count": outcome.interaction_count}
    if isinstance(outcome, SpinFanReport):
        fields.update(labels=outcome.branch_labels, phases=outcome.branch_phases,
                      worst_phase_error=outcome.worst_phase_error,
                      worst_branch_infidelity=outcome.worst_branch_infidelity,
                      extremal_phase=outcome.extremal_phase,
                      extremal_label=outcome.extremal_label)
    return {key: None if value is None else np.asarray(value) for key, value in fields.items()}


def build() -> list:
    """Every (section, name, fields) of the corpus, in a fixed order."""
    return [(section, name, _fields(outcome))
            for section, cases in zip(SECTIONS, (_torus, _class, _bus, _spin))
            for name, outcome in cases()]


def section_hashes(records) -> dict:
    """One sha256 per section over its records' names, field names, dtypes,
    shapes and bytes."""
    hashes = {section: hashlib.sha256() for section in SECTIONS}
    for section, name, fields in records:
        h = hashes[section]
        h.update(name.encode())
        for key, value in fields.items():
            h.update(key.encode())
            if value is None:
                h.update(b"None")
            else:
                h.update(f"{value.dtype.str}{value.shape}".encode())
                h.update(np.ascontiguousarray(value).tobytes())
    return {section: h.hexdigest() for section, h in hashes.items()}


@functools.lru_cache(maxsize=None)
def projection(size: int) -> np.ndarray:
    """The fixed (KEPT, size) random matrix that a float field longer than KEPT is kept by."""
    return np.random.default_rng(size).uniform(-1.0, 1.0, (KEPT, size))


def kept(value: np.ndarray):
    """A field's kept numbers and, for floats, the scale that rounding in them
    is measured against: the magnitudes of the terms each one sums."""
    if value.dtype.kind in "biu":
        return value.astype(np.int64).ravel(), None
    x = np.ascontiguousarray(value).view(np.float64).ravel()   # complex: (re, im) pairs
    if x.size <= KEPT:
        return x, np.abs(x)
    return projection(x.size) @ x, np.abs(projection(x.size)) @ np.abs(x)


def flatten(records):
    """Each field as (key, meta, kind, numbers, scale): key 'section/name/field',
    meta its dtype and shape ('None' when absent), kind 'i' or 'f'."""
    for section, name, fields in records:
        for field, value in fields.items():
            key = f"{section}/{name}/{field}"
            if value is None:
                yield key, "None", "i", np.zeros(0, dtype=np.int64), None
                continue
            numbers, scale = kept(value)
            yield key, f"{value.dtype.str}{value.shape}", "f" if scale is not None else "i", \
                numbers, scale


def write(records, path=DATA) -> None:
    rows = list(flatten(records))
    ints = [numbers for *_, kind, numbers, _ in rows if kind == "i"]
    floats = [numbers for *_, kind, numbers, _ in rows if kind == "f"]
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path, keys=np.array([r[0] for r in rows]), metas=np.array([r[1] for r in rows]),
        kinds=np.array([r[2] for r in rows]),
        sizes=np.array([len(r[3]) for r in rows], dtype=np.int64),
        ints=np.concatenate(ints or [np.zeros(0, dtype=np.int64)]),
        floats=np.concatenate(floats or [np.zeros(0)]))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m tests.corpus",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--hash", action="store_true", help="print one sha256 per section")
    parser.add_argument("--write", action="store_true", help=f"rewrite {DATA.name}")
    args = parser.parse_args(argv)
    records = build()
    if args.write:
        write(records)
    if args.hash or not args.write:
        counts = {section: 0 for section in SECTIONS}
        for section, _, _ in records:
            counts[section] += 1
        for section, digest in section_hashes(records).items():
            print(f"{section:5} {counts[section]:4} records  sha256 {digest}")


if __name__ == "__main__":
    main()
