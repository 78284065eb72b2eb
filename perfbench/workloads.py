"""The four benchmark workloads and the loop that measures them.

Each workload yields an endless, seed-determined sequence of operations.
An operation is one thing a user waits for: one ``cli.main`` call for
``fuzz`` and ``reproduce``, one state analysed for ``multimode`` and
``fockmix``.  ``run`` does the work, ``check`` compares the output with an
independent expectation at the tolerances the package already uses.

Every operation has a ``kind``: ``heavy`` and ``light`` feed the two latency
metrics, anything else counts only toward throughput.  Latencies that share
a ``group`` are summed, so the four ``reproduce`` figure commands of one
session make one figures-phase sample.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pspurity
from pspurity import cli, fock

#: sha256 of the reproduce CSVs at the package's default configurations,
#: recorded from the code the benchmark was defined on
FIGURE_DIGESTS = {
    "fig1a": "5f0eaa9a645785f9edefd212bf7df60b088856f19ef032d4f4126e3e61207158",
    "fig1b": "9bcf4ccfcc21235221960389a2a1f871e38e8aedeae69c18a02dad8d202709e1",
    "fig2": "193d8cd6ca2de63be13a6069d61a3407ebae542c8c7feb31ff7ebb4c8bb3fb58",
}
#: the chain the paper's three-mode sign pattern resolves to (1-indexed pairs)
FIG3_TOPOLOGY = [[1, 2], [2, 3], [1, 3]]
VERIFY_CHECKS = 6
VERIFY_LINE = re.compile(
    r"^\[(ok  |FAIL)\] (.+): max deviation (\S+) \(tolerance (\S+)\)$"
)

#: multimode gate: purity_subtracted against closed form x Gaussian purity
MULTIMODE_RTOL = 1e-9
#: fockmix gates: Fock ratio vs closed form, Fock moments vs covariance route
FOCK_RATIO_ATOL = 1e-6
FOCK_MOMENT_TOL = 1e-4


@dataclass
class Op:
    kind: str
    group: int
    items: int
    seed: int
    modes: object
    args: dict = field(default_factory=dict)


def capture_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``pspurity`` in-process and return (exit status, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def _child_seeds(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

class Fuzz:
    """``pspurity fuzz`` in-process: batch calls plus single-state replays.

    The batch call is the scalar closed-form pipeline at volume; the
    ``--count 1`` call is a user replaying one seed, the N = 1 path.
    """

    name = "fuzz"
    trace_rounds = 12

    def __init__(self, batch: int = 250, singles: int = 10):
        self.batch = batch
        self.singles = singles

    def warmup(self):
        capture_cli(["fuzz", "--count", "20", "--seed", "1"])

    def ops(self, seed: int):
        seeds = _child_seeds(seed)
        group = 0
        while True:
            yield Op("heavy", group, self.batch, next(seeds), "1-4",
                     {"count": self.batch})
            group += 1
            for _ in range(self.singles):
                yield Op("light", group, 1, next(seeds), "1-4", {"count": 1})
                group += 1

    def ops_per_round(self) -> int:
        return 1 + self.singles

    def run(self, op: Op):
        return capture_cli(
            ["fuzz", "--count", str(op.args["count"]), "--seed", str(op.seed)]
        )

    def check(self, op: Op, out) -> tuple[int, list[str]]:
        status, text = out
        last = text.strip().splitlines()[-1] if text.strip() else ""
        expected = f"fuzz: {op.items} states, no violations (seed {op.seed})"
        if status == 0 and last == expected:
            return 0, []
        found = re.match(r"^fuzz: (\d+) violations in (\d+) states$", last)
        failed = min(int(found.group(1)), op.items) if found else op.items
        return failed, [f"fuzz exit {status}: {last!r}"]


# ---------------------------------------------------------------------------
# multimode
# ---------------------------------------------------------------------------

def _haar_passive(m: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def multimode_input(m: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(covariance, displacement, subtracted mode) of a random m-mode state.

    V = S diag(n, n) S^T with S = O1 Z O2 (Haar passive O, squeezing Z),
    n in [1, 5], |r| <= 1 and displacement components in [-4, 4]: well
    inside the float64 range of every route.
    """
    rng = np.random.default_rng(seed)
    n = rng.uniform(1.0, 5.0, m)
    r = rng.uniform(-1.0, 1.0, m)
    s = (_haar_passive(m, rng) @ np.diag(np.exp(np.concatenate([r, -r])))
         @ _haar_passive(m, rng))
    cov = s @ np.diag(np.concatenate([n, n])) @ s.T
    disp = rng.uniform(-4.0, 4.0, 2 * m)
    return 0.5 * (cov + cov.T), disp, int(rng.integers(0, m))


class Multimode:
    """A library user analysing one state at a time, m = 1 to 16 modes."""

    name = "multimode"
    trace_rounds = 4

    def __init__(self, large=(16, 12, 8, 4), m1_per_round: int = 48):
        self.large = tuple(large)
        self.m1_per_round = m1_per_round

    def warmup(self):
        for m in (1, 4):
            self.run(Op("warmup", 0, 1, 0, m, {}))

    def ops(self, seed: int):
        seeds = _child_seeds(seed)
        group = 0
        while True:
            for m in self.large + (1,) * self.m1_per_round:
                kind = "heavy" if m == max(self.large) else "light" if m == 1 else "other"
                yield Op(kind, group, 1, next(seeds), m, {})
                group += 1

    def ops_per_round(self) -> int:
        return len(self.large) + self.m1_per_round

    def run(self, op: Op):
        m = op.modes
        cov, disp, g = multimode_input(m, op.seed)
        t0 = time.perf_counter()
        state = pspurity.GaussianState(cov, disp)
        sel = pspurity.ModeSelector.for_mode(g, m)
        row = pspurity.extract_bogoliubov(state, sel)
        ratio = pspurity.relative_purity_closed_form(row)
        pspurity.purification_conditions(row)
        sub = pspurity.subtract_photon(state, sel)
        purity = pspurity.purity_subtracted(sub)
        pspurity.moments_subtracted(sub)
        pspurity.marginal_subtracted(sub, [0, 1] if m > 1 else [0])
        elapsed = time.perf_counter() - t0
        return {"state": state, "ratio": ratio, "purity": purity,
                "elapsed": elapsed}

    def check(self, op: Op, out) -> tuple[int, list[str]]:
        expected = out["ratio"] * pspurity.purity_gaussian(out["state"])
        rel = abs(out["purity"] - expected) / abs(expected)
        if rel <= MULTIMODE_RTOL:
            return 0, []
        return 1, [f"purity_subtracted off closed form by {rel:.3e} (relative)"]


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

class Reproduce:
    """The paper session: four ``reproduce`` figures, then ``verify``.

    Inputs are the paper's fixed configurations; the seed selects nothing.
    """

    name = "reproduce"
    trace_rounds = 1
    commands = ("fig1a", "fig1b", "fig2", "fig3", "verify")

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.bytes_written = 0

    def warmup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        capture_cli(["reproduce", "fig1a", "--points", "5",
                     "--output", str(self.workdir / "warm.csv")])

    def ops(self, seed: int):
        session = 0
        while True:
            for command in self.commands:
                kind = "heavy" if command == "verify" else "light"
                yield Op(kind, session, 1, seed, 3 if command == "fig3" else 1,
                         {"command": command})
            session += 1

    def ops_per_round(self) -> int:
        return len(self.commands)

    def output_path(self, command: str) -> Path:
        suffix = ".json" if command == "fig3" else ".csv"
        return self.workdir / (command + suffix)

    def run(self, op: Op):
        command = op.args["command"]
        if command == "verify":
            return capture_cli(["verify"])
        path = self.output_path(command)
        status, text = capture_cli(["reproduce", command, "--output", str(path)])
        self.bytes_written += path.stat().st_size
        return status, text

    def check(self, op: Op, out) -> tuple[int, list[str]]:
        status, text = out
        command = op.args["command"]
        problems = [] if status == 0 else [f"{command} exit {status}"]
        if command == "verify":
            problems += _verify_problems(text)
        elif command == "fig3":
            problems += _fig3_problems(json.loads(self.output_path(command).read_text()))
        else:
            digest = hashlib.sha256(self.output_path(command).read_bytes()).hexdigest()
            if digest != FIGURE_DIGESTS[command]:
                problems.append(f"{command} digest {digest[:16]} differs from the recorded one")
        return (1 if problems else 0), problems

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _verify_problems(text: str) -> list[str]:
    problems = []
    checks = 0
    for line in text.splitlines():
        found = VERIFY_LINE.match(line)
        if found is None:
            continue
        checks += 1
        deviation, tolerance = float(found.group(3)), float(found.group(4))
        if not deviation <= tolerance:
            problems.append(f"verify check {found.group(2)!r}: {deviation} > {tolerance}")
    if checks != VERIFY_CHECKS:
        problems.append(f"verify printed {checks} checks, expected {VERIFY_CHECKS}")
    if "verify: all checks passed" not in text:
        problems.append("verify did not report all checks passed")
    return problems


def _fig3_problems(payload: dict) -> list[str]:
    problems = []
    if payload.get("topology") != FIG3_TOPOLOGY:
        problems.append(f"fig3 topology {payload.get('topology')} is not {FIG3_TOPOLOGY}")
    deviation = payload.get("oracle_max_deviation", np.inf)
    if not deviation <= payload.get("oracle_tolerance", -np.inf):
        problems.append(f"fig3 oracle deviation {deviation} above its tolerance")
    return problems


# ---------------------------------------------------------------------------
# fockmix
# ---------------------------------------------------------------------------

#: (low, high) of thermal factor n, squeezing in dB and amplitude |<a>|
FOCKMIX_RANGES = ((1.1, 5.0), (0.0, 6.0), (0.0, 3.0))


def fockmix_round(seed: int, cells: int) -> list[tuple[float, ...]]:
    """One stratified round of (n, dB, amplitude, phi, theta) draws.

    The cost of a state grows steeply with n, squeezing and amplitude
    together, so independent draws would let a run's share of dear states,
    not the code, move its medians.  A round cuts the (n, dB, amplitude) box
    into ``cells``^3 cells and draws one state in each; the angle between
    displacement and squeezing axis is a Latin-hypercube column over the
    round.  The order within the round is shuffled.
    """
    rng = np.random.default_rng(seed)
    size = cells**3
    cell = np.array(list(itertools.product(range(cells), repeat=3)), dtype=float)
    unit = (cell + rng.uniform(0.0, 1.0, (size, 3))) / cells
    low, high = np.array(FOCKMIX_RANGES).T
    box = low + (high - low) * unit
    relative = 2.0 * np.pi * (rng.permutation(size) + rng.uniform(0.0, 1.0, size)) / size
    theta = rng.uniform(0.0, 2.0 * np.pi, size)
    return [(*map(float, box[i]), float(theta[i] + relative[i]), float(theta[i]))
            for i in rng.permutation(size)]


def fockmix_input(params) -> tuple[np.ndarray, np.ndarray]:
    """Rotated squeezed thermal state of one ``fockmix_round`` draw.

    Two-mode mixed states are left out: their cost swings from seconds to
    minutes with the seed, which no fixed-length run can measure steadily.
    """
    n, s_db, amp, phi, theta = params
    s = 10.0 ** (s_db / 10.0)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    cov = rot @ np.diag([n * s, n / s]) @ rot.T
    return 0.5 * (cov + cov.T), 2.0 * amp * np.array([np.cos(phi), np.sin(phi)])


class Fockmix:
    """Number-basis check of mixed single-mode states (ancilla purification)."""

    name = "fockmix"
    trace_rounds = 1
    state_dim = 0

    def __init__(self, cells: int = 4):
        self.cells = cells

    def warmup(self):
        self.run(Op("warmup", 0, 1, 0, 1, {"params": (2.0, 3.0, 1.0, 0.5, 0.5)}))

    def ops(self, seed: int):
        seeds = _child_seeds(seed)
        group = 0
        while True:
            round_seed = next(seeds)
            for params in fockmix_round(round_seed, self.cells):
                yield Op("heavy", group, 1, round_seed, 1, {"params": params})
                group += 1

    def ops_per_round(self) -> int:
        return self.cells**3

    def run(self, op: Op):
        cov, disp = fockmix_input(op.args["params"])
        t0 = time.perf_counter()
        state = pspurity.GaussianState(cov, disp)
        prepared = fock.gaussian_state_to_fock(state)
        t1 = time.perf_counter()
        self.state_dim = max(self.state_dim, int(np.prod(prepared.truncation.cutoffs)))
        before = fock.quadrature_moments_fock(prepared, 0)
        sub = fock.subtract_photon_fock(prepared, 0)
        ratio = fock.reduced_purity_fock(sub, [0]) / fock.reduced_purity_fock(prepared, [0])
        after = fock.quadrature_moments_fock(sub, 0)
        t2 = time.perf_counter()
        return {"state": state, "ratio": ratio, "before": before, "after": after,
                "elapsed": t2 - t0, "phases": {"light": t2 - t1}}

    def check(self, op: Op, out) -> tuple[int, list[str]]:
        state = out["state"]
        sel = pspurity.ModeSelector.for_mode(0, 1)
        problems = []
        closed = pspurity.relative_purity_closed_form(
            pspurity.extract_bogoliubov(state, sel))
        if not abs(out["ratio"] - closed) <= FOCK_RATIO_ATOL:
            problems.append(f"Fock ratio {out['ratio']} vs closed form {closed}")
        report = pspurity.moments_subtracted(pspurity.subtract_photon(state, sel))
        for label, fock_moments, mean, cov in (
            ("before", out["before"], state.displacement, state.covariance),
            ("after", out["after"], report.mean, report.covariance),
        ):
            expected = {"mean_x": mean[0], "mean_p": mean[1],
                        "var_x": cov[0, 0], "var_p": cov[1, 1]}
            for key, value in expected.items():
                if not abs(fock_moments[key] - value) <= FOCK_MOMENT_TOL * max(1.0, abs(value)):
                    problems.append(f"{label} {key}: Fock {fock_moments[key]} vs {value}")
        return (1 if problems else 0), problems


def make_workload(name: str, root: Path):
    if name == "fuzz":
        return Fuzz()
    if name == "multimode":
        return Multimode()
    if name == "reproduce":
        return Reproduce(root / "perfbench" / "out" / "work")
    if name == "fockmix":
        return Fockmix()
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# the measuring loop
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    ops: int = 0
    latencies: dict = field(default_factory=lambda: {"heavy": {}, "light": {}})
    failures: list = field(default_factory=list)
    failure_types: dict = field(default_factory=dict)

    def add_latency(self, kind: str, group: int, seconds: float):
        if kind in self.latencies:
            bucket = self.latencies[kind]
            bucket[group] = bucket.get(group, 0.0) + seconds

    def fail(self, op: Op, failed: int, kind: str, detail: str):
        self.failed += failed
        self.failure_types[kind] = self.failure_types.get(kind, 0) + failed
        if len(self.failures) < 20:
            self.failures.append({"op": op.kind, "seed": op.seed, "modes": op.modes,
                                  "args": dict(op.args),
                                  "type": kind, "detail": detail[:300]})


def measure(workload, op_iter, until, tracer=None) -> Tally:
    """Run operations in closed loop until ``until(tally)`` is true.

    An exception from the package fails that operation's items and the loop
    goes on; so does an output that fails its gate.  Checks call the package
    too, so a tracer is paused while they run.
    """
    tally = Tally()
    for op in op_iter:
        if tracer is not None:
            tracer.op = tally.ops
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # counted and reported, never fatal
            elapsed = time.perf_counter() - t0
            tally.fail(op, op.items, type(exc).__name__, str(exc))
            out = None
        else:
            elapsed = time.perf_counter() - t0
            if isinstance(out, dict) and "elapsed" in out:
                elapsed = out["elapsed"]
        tally.attempted += op.items
        tally.busy_s += elapsed
        tally.ops += 1
        tally.add_latency(op.kind, op.group, elapsed)
        if out is not None:
            if isinstance(out, dict):
                for kind, seconds in out.get("phases", {}).items():
                    tally.add_latency(kind, op.group, seconds)
            if tracer is not None:
                tracer.active = False
            try:
                failed, problems = workload.check(op, out)
            except Exception as exc:  # a check that cannot run fails the op
                failed, problems = op.items, [f"{type(exc).__name__}: {exc}"]
            finally:
                if tracer is not None:
                    tracer.active = True
            if failed:
                tally.fail(op, failed, "gate", "; ".join(problems))
        if until(tally):
            break
    return tally
