"""The contract of amqc's 16 record types: construction by position and by
keyword, defaults, the ``Name(field=value, ...)`` repr, equality and hash as
frozen or mutable dataclasses have them, refusal of assignment to a frozen
record, and an import of ``amqc.cli`` that makes no dataclass."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amqc
from amqc.linalg import PAULI_X, PAULI_Z
from amqc.qubus import FieldBranchState, FieldLabel
from amqc.qudit import LatticeLabel
from amqc.qudit_model import (
    AncillaProjectedGate,
    ControlledAncillaRotation,
    HybridState,
    Interaction,
    InteractionSequence,
    LocalAncillaRotation,
)
from amqc.report import GateReport
from amqc.spin import (
    ContractionRow,
    ErrorPoint,
    LoopSolution,
    SpinBranchState,
    SpinFanReport,
)
from amqc.verify import CheckResult, SuiteResult

AMPS = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
BLOCKS, ROWS = np.eye(2, dtype=complex)[None], np.array([[0, 1]])   # one 2 x 2 block
CHECK = CheckResult("c", 0.1, 0.2, 0.3)

# (record, its fields in order with one value each, frozen, hashable, a
# field and a value that make an unequal record)
RECORDS = [
    (LatticeLabel, {"x": 1, "p": 2, "d": 5}, True, True, ("p", 3)),
    (AncillaProjectedGate, {"target": 0, "level": 1, "gate": PAULI_X}, True, True, ("level", 2)),
    (ControlledAncillaRotation, {"control": 1, "theta": 0.3}, True, True, ("theta", 0.4)),
    (LocalAncillaRotation, {"theta": 0.3}, True, True, ("theta", -0.3)),
    # The element list makes the frozen sequence unhashable, as at a dataclass.
    (InteractionSequence, {"n_qubits": 2, "d": 3, "elements": [Interaction(0, 1, 0)]},
     True, False, ("d", 5)),
    (HybridState, {"n_qubits": 1, "d": 2, "amplitudes": AMPS}, False, False, ("d", 4)),
    (GateReport, {"gate": BLOCKS, "ancilla_return_fidelity": 1.0,
                  "residual_entanglement": 0.0, "interaction_count": 4, "rows": ROWS},
     False, False, ("interaction_count", 5)),
    (LoopSolution, {"eta": 0.1, "tau": 0.2, "phi_t": 0.3}, True, True, ("phi_t", 0.5)),
    (SpinBranchState, {"n_qubits": 2, "n_spins": 10, "branches": {0: (0j, 1 + 0j)}},
     False, False, ("n_spins", 11)),
    (ErrorPoint, {"zeta_n": 0.1, "n_spins": 10, "phi_f": 0.01, "phi_E": 0.02,
                  "infidelity": 0.03, "phi_series": 0.04, "infid_series": 0.05},
     True, True, ("infid_series", 0.06)),
    (SpinFanReport, {"gate": None, "ancilla_return_fidelity": 1.0,
                     "residual_entanglement": 0.0, "interaction_count": 4,
                     "branch_labels": AMPS, "branch_phases": AMPS.real,
                     "worst_phase_error": 0.1, "worst_branch_infidelity": 0.2,
                     "extremal_phase": 0.3, "extremal_label": 0.5j, "rows": None},
     False, False, ("extremal_label", 0.6j)),
    (ContractionRow, {"n_spins": 10, "phi_f": 0.1, "abs_err_phi": 0.2, "overlap": 0.3,
                      "abs_err_overlap": 0.4, "prefactor": 0.5}, True, True, ("n_spins", 20)),
    (FieldLabel, {"x": 0.7, "p": -1.3}, True, True, ("x", 0.8)),
    (FieldBranchState, {"n_qubits": 1, "branches": {0: (FieldLabel(0.0, 0.0), 1 + 0j)}},
     False, False, ("n_qubits", 2)),
    (CheckResult, {"name": "c", "deviation": 0.1, "tolerance": 0.2, "wall_s": 0.3},
     False, False, ("deviation", 0.3)),
    (SuiteResult, {"name": "s", "checks": [CHECK], "wall_time_s": 0.5},
     False, False, ("name", "t")),
]


@pytest.mark.parametrize("cls,fields,frozen,hashable,change", RECORDS,
                         ids=[entry[0].__name__ for entry in RECORDS])
def test_record_contract(cls, fields, frozen, hashable, change):
    record = cls(*fields.values())
    assert all(getattr(record, name) is value for name, value in fields.items())
    # By keyword: the same fields, so an equal record.
    assert cls(**fields) == record and not cls(**fields) != record
    pairs = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({pairs})"

    other = cls(**{**fields, change[0]: change[1]})
    assert other != record and not other == record
    assert record.__eq__(object()) is NotImplemented
    if hashable:
        assert hash(cls(**fields)) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)

    name = next(iter(fields))
    if frozen:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, fields[name])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) is fields[name]
    else:
        setattr(record, name, change[1])
        assert getattr(record, name) is change[1]


def test_record_equality_follows_the_dataclass_rules():
    # The gate matrix takes no part in a projected gate's equality or hash.
    gate, same = AncillaProjectedGate(0, 1, PAULI_X), AncillaProjectedGate(0, 1, PAULI_Z)
    assert gate == same and hash(gate) == hash(same)
    # Lattice labels are equal mod d.
    assert LatticeLabel(6, -3, 5) == LatticeLabel(1, 2, 5)
    assert hash(LatticeLabel(6, -3, 5)) == hash(LatticeLabel(1, 2, 5))
    # Records of two classes are never equal, whatever their fields.
    report = GateReport(None, 1.0, 0.0, 4)
    fan = SpinFanReport(**vars(report), branch_labels=AMPS, branch_phases=AMPS.real,
                        worst_phase_error=0.0, worst_branch_infidelity=0.0,
                        extremal_phase=0.0, extremal_label=0j)
    assert report != fan and fan != report
    assert (fan.register_unitary, fan.interaction_count) == (None, 4)


@pytest.mark.parametrize("make,field,empty", [
    (lambda: SpinBranchState(2, 10), "branches", {}),
    (lambda: FieldBranchState(2), "branches", {}),
    (lambda: SuiteResult("s"), "checks", []),
])
def test_record_defaults_are_new_containers(make, field, empty):
    first, second = make(), make()
    assert getattr(first, field) == empty
    assert getattr(first, field) is not getattr(second, field)


def test_suite_result_wall_time_defaults_to_zero():
    assert SuiteResult("s").wall_time_s == 0.0
    assert SuiteResult("s", wall_time_s=2.5).wall_time_s == 2.5


def test_importing_amqc_makes_no_dataclass():
    # Each @dataclass writes and compiles its class's methods at import time.
    script = ("import dataclasses\n"
              "made = []\n"
              "real = dataclasses.dataclass\n"
              "def counting(*args, **kwargs):\n"
              "    made.append(args)\n"
              "    return real(*args, **kwargs)\n"
              "dataclasses.dataclass = counting\n"
              "import amqc.cli\n"
              "print(len(made))\n")
    src = str(Path(amqc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0"]
