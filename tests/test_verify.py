"""Identity suites: stacked displacements, check timings, injected faults."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amqc.branches
import amqc.qudit
import amqc.spin
from amqc import verify
from amqc.cli import main
from amqc.qudit import (
    CONVENTIONS,
    HALF_ROOT,
    displacement,
    displacement_prefactor,
    displacements,
)


def conventions_for(d):
    return CONVENTIONS if d % 2 else (HALF_ROOT,)


# ----------------------------------------------------------------------------
# the stacked displacement builder
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("d", range(2, 10))
def test_stack_equals_per_label_displacement_bitwise(d):
    labels = np.arange(-2 * d, 2 * d + 1)
    for conv in conventions_for(d):
        stack = displacements(d, labels[:, None], labels[None, :], conv)
        assert stack.shape == (labels.size, labels.size, d, d)
        prefactors = displacement_prefactor(d, labels[:, None], labels[None, :], conv)
        for i, x in enumerate(labels.tolist()):
            for j, p in enumerate(labels.tolist()):
                one = displacement(d, x, p, conv)
                assert stack[i, j].tobytes() == one.tobytes(), (d, conv, x, p)
                assert prefactors[i, j] == displacement_prefactor(d, x, p, conv)


def test_stack_shapes_broadcast():
    assert displacements(5, 2, 3).shape == (5, 5)
    assert displacements(5, np.arange(4), 1).shape == (4, 5, 5)
    assert displacements(5, 1, np.arange(4)).shape == (4, 5, 5)
    x = np.arange(6).reshape(2, 3, 1)
    p = np.arange(4)
    stack = displacements(5, x, p)
    assert stack.shape == (2, 3, 4, 5, 5)
    assert stack[1, 2, 3].tobytes() == displacement(5, 5, 3).tobytes()


def test_stack_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        displacements(1, np.arange(3), 0)


# ----------------------------------------------------------------------------
# check timings
# ----------------------------------------------------------------------------

def test_checks_carry_their_wall_time():
    res = verify.run_suites(["qubus"])[0]
    assert all(c.wall_s >= 0.0 for c in res.checks)
    assert sum(c.wall_s for c in res.checks) <= res.wall_time_s


def test_verify_prints_each_check_time(capsys):
    assert main(["verify", "qudit"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  [")]
    assert len(lines) == 15
    assert all(re.search(r"\), \d+\.\d{4}s$", line) for line in lines)


def test_every_run_draws_the_same_samples():
    # Each suite seeds its own generator, so a second run, and a run in the
    # reverse suite order, repeats every deviation bit for bit.
    names = list(verify.SUITES)
    runs = [verify.run_suites(order) for order in (names, names, names[::-1])]
    deviations = [sorted((res.name, c.name, c.deviation) for res in run for c in res.checks)
                  for run in runs]
    assert deviations[0] == deviations[1] == deviations[2]


# ----------------------------------------------------------------------------
# fault injection: one fault per batched check fails exactly that check
# ----------------------------------------------------------------------------

def _powers_off_by_one(orig):
    # Slot k of each stack holds m^(k+1): a misaligned stack index.
    return lambda m, count: orig(m, count + 1)[1:]


def _scaled_by_a_power_of_x(orig):
    # 1.001^x D(x, p) is not unitary, yet it composes like D (x adds), so
    # only the unitarity check may see it.
    return lambda d, x, p, conv=HALF_ROOT: \
        orig(d, x, p, conv) * (1.001 ** np.asarray(x))[..., None, None]


def _conjugate_scalar(orig):
    def compose(l1, l2, conv=HALF_ROOT, d=None):
        total, scalars = orig(l1, l2, conv, d)
        return total, np.conj(scalars)
    return compose


def _reversed_rotation(orig):
    # R(-theta): each conjugated diagonal picks e^{-i theta (x+m mod d)}.
    return lambda d, theta: orig(d, -theta)


def _unit_prefactor(orig):
    return lambda d, x, p, conv: np.ones(np.broadcast(x, p).shape, dtype=complex)


def _half_root_unit(orig):
    # Every convention reads as HALF_ROOT: still validated, c = 1.
    def unit(d, convention):
        orig(d, convention)
        return 1
    return unit


def _negated_angle(orig):
    def step(z, leg, n_spins, *rest):
        z_new, angle = orig(z, leg, n_spins, *rest)
        return z_new, -angle
    return step


def _unscaled_angle(orig):
    def step(z, leg, n_spins, *rest):
        z_new, angle = orig(z, leg, n_spins, *rest)
        return z_new, angle / n_spins
    return step


def _negated_leg(orig):
    return lambda z, leg, n_spins, *rest: orig(z, -leg, n_spins, *rest)


def _conjugate_label(orig):
    def step(z, leg, n_spins, *rest):
        z_new, angle = orig(z, leg, n_spins, *rest)
        return np.conj(z_new), angle
    return step


def _conjugate_overlap(orig):
    return lambda z1, z2, n_spins: np.conj(orig(z1, z2, n_spins))


def _conjugate_phase(orig):
    def compose(z1, z2, n_spins):
        z_out, phase = orig(z1, z2, n_spins)
        return z_out, phase.conjugate()
    return compose


def _conjugate_scalar_overlap(orig):
    return lambda z1, z2, n_spins: orig(z1, z2, n_spins).conjugate()


def _wrong_far_from_the_pole(orig):
    # Only the stereographic check draws labels with |zeta| > 3.
    def su2(zeta):
        mat = orig(zeta)
        far = (np.abs(np.asarray(zeta)) > 3.0)[..., None, None]
        return np.where(far, np.conj(mat), mat)
    return su2


def _scale_of_the_next_dimension(orig):
    # C^0_1 R(2 pi x p / (d + 1)): the rectangle scan's oracle at a wrong scale.
    return lambda x, p, d: orig(x, p, d + 1)


def _last_applied_first(orig):
    # The opposite order convention, D(l_1) ... D(l_k), conjugates every loop
    # phase.  (Swapping the two prefactor conventions cannot be seen: a
    # rectangle's phase is w(xp) under both, which is what the check proves.)
    def loop_phase(labels, convention=HALF_ROOT, d=None):
        if d is None:
            return orig(list(labels)[::-1], convention)
        x, p = labels
        return orig((x[:, ::-1], p[:, ::-1]), convention, d)
    return loop_phase


FAULTS = [
    (verify, "_rectangle_oracles", _scale_of_the_next_dimension,
     "two-qubit rectangle = C^j_k R(2 pi x p / d)"),
    (verify, "loop_phase", _last_applied_first,
     "rectangle loop phase = w(xp), both conventions"),
    (verify, "_powers", _powers_off_by_one,
     "Weyl relation Z^p X^x = w(xp) X^x Z^p"),
    (verify, "displacements", _scaled_by_a_power_of_x,
     "displacement unitarity (both conventions)"),
    (verify, "compose_labels", _conjugate_scalar,
     "compose_labels vs matrix product (200/convention)"),
    (verify, "rotation", _reversed_rotation,
     "shifted rotation picks e^{i theta (x+m mod d)}"),
    (amqc.qudit, "displacement_prefactor", _unit_prefactor,
     "compose_labels vs matrix product (200/convention)"),
    (amqc.qudit, "_phase_unit", _half_root_unit,
     "wrap-around loop D(d, d) = 1 (modular inverse), (-1)^d (half root)"),
    (verify, "sphere_step", _negated_angle,
     "composition law vs per-spin matrix oracle (500)"),
    (verify, "sphere_step", _conjugate_label,
     "composition law vs per-spin matrix oracle (500)"),
    (verify, "sphere_overlap", _conjugate_overlap,
     "coherent overlap vs per-spin inner product"),
    (amqc.spin, "compose_on_origin", _conjugate_phase,
     "composition law vs per-spin matrix oracle (500)"),
    (amqc.spin, "coherent_overlap", _conjugate_scalar_overlap,
     "coherent overlap vs per-spin inner product"),
    (amqc.spin, "su2_displacement", _wrong_far_from_the_pole,
     "stereographic matrix matches angle exponential"),
]


@pytest.mark.parametrize("owner,name,fault,check", FAULTS,
                         ids=[f[1] + ":" + f[2].__name__ for f in FAULTS])
def test_injected_fault_fails_exactly_its_check(monkeypatch, owner, name, fault, check):
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    failed = [c.name for res in verify.run_suites(list(verify.SUITES))
              for c in res.checks if not c.passed]
    assert failed == [check]


def test_batched_checks_keep_their_samples(monkeypatch):
    # One call per (d, convention): 152 rectangles in 7 extractions, 286
    # rectangle loop phases in 10 calls and 400 label pairs in 11
    # compositions, the samples the per-sample loops had.
    calls = {"gates": [], "loops": [], "pairs": []}

    def gates(seqs, *args, **kwargs):
        calls["gates"].append(len(seqs))
        return extract(seqs, *args, **kwargs)

    def loops(labels, convention=HALF_ROOT, d=None):
        if d is not None:
            calls["loops"].append(len(labels[0]))
        return phase(labels, convention, d)

    def pairs(l1, l2, convention=HALF_ROOT, d=None):
        calls["pairs"].append(np.broadcast(*l1, *l2).size)
        return compose(l1, l2, convention, d)

    extract, phase, compose = (verify.extract_register_gates, verify.loop_phase,
                               verify.compose_labels)
    monkeypatch.setattr(verify, "extract_register_gates", gates)
    monkeypatch.setattr(verify, "loop_phase", loops)
    monkeypatch.setattr(verify, "compose_labels", pairs)
    assert verify.run_qudit_suite().passed
    assert (len(calls["gates"]), sum(calls["gates"])) == (7, 152)
    assert (len(calls["loops"]), sum(calls["loops"])) == (10, 286)
    assert (len(calls["pairs"]), sum(calls["pairs"])) == (11, 400)


@pytest.mark.parametrize("fault", [_negated_angle, _unscaled_angle, _negated_leg])
def test_sphere_walk_fault_fails_the_dense_walk_check(monkeypatch, fault):
    # Every spin gate walks through branches.sphere_step, so other checks may
    # fail too; a mirrored walk (negated legs) keeps every phase and only
    # the labels show it.
    monkeypatch.setattr(amqc.branches, "sphere_step", fault(amqc.branches.sphere_step))
    failed = [c.name for c in verify.run_spin_suite().checks if not c.passed]
    assert "array walk vs dense 4-spin vectors, 3 qubits x 8 random steps" in failed


def test_verify_all_runs_without_scipy():
    # numpy is the only runtime dependency: a fresh `python -m amqc verify all`
    # must pass without importing any scipy module.
    script = ("import runpy, sys\n"
              "sys.argv = ['amqc', 'verify', 'all']\n"
              "try:\n"
              "    runpy.run_module('amqc', run_name='__main__')\n"
              "finally:\n"
              "    print(sorted(m for m in sys.modules if m.startswith('scipy')),"
              " file=sys.stderr)\n")
    src = str(Path(amqc.spin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stderr.strip().splitlines()[-1] == "[]"
