"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size and shows that each correctness gate
fires on a deliberately corrupted output and that the failure is counted;
that an exception inside ``cli.main`` fails only that call's operations;
that refused fuzz states are not failures; that the traced run reports every
per-layer metric of BENCHMARK.json; and that the benchmark refuses to run
without the package source.  Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pspurity  # noqa: E402
from pspurity.errors import SubtractionFromVacuumError  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import LAYERS  # noqa: E402

SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}")


def one_round(workload, rounds: int = 1):
    ops = itertools.islice(workload.ops(SEED), rounds * workload.ops_per_round())
    return wl.measure(workload, ops, lambda t: False)


def with_corruption(workload, corrupt):
    """One round whose outputs pass through ``corrupt(op, out)`` before the check."""
    clean_run = workload.run
    workload.run = lambda op: corrupt(op, clean_run(op))
    try:
        return one_round(workload)
    finally:
        del workload.run


def patch_everywhere(module, name: str, replacement):
    """Rebind every name of ``module.name`` in the package; returns an undo."""
    original = getattr(module, name)
    undo = []
    for mod in [pspurity] + [getattr(pspurity, layer) for layer in LAYERS]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr))
                setattr(mod, attr, replacement)

    def restore():
        for mod, attr in undo:
            setattr(mod, attr, original)

    return restore


def fail_first_call(func, exc_type):
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise exc_type("injected by the benchmark self-test")
        return func(*args, **kwargs)

    return wrapper


def test_fuzz():
    fuzz = wl.Fuzz(batch=20, singles=2)
    tally = one_round(fuzz)
    expect(tally.attempted == 22 and tally.failed == 0, "fuzz: tiny round passes its gate")

    def violations(op, out):
        if op.kind != "heavy":
            return out
        return 1, out[1] + "fuzz: 3 violations in 20 states\n"

    tally = with_corruption(fuzz, violations)
    expect(tally.failed == 3 and tally.failure_types == {"gate": 3},
           "fuzz: reported violations count as failed states")

    restore = patch_everywhere(pspurity.scenarios, "random_state",
                               fail_first_call(pspurity.scenarios.random_state, ValueError))
    try:
        tally = one_round(fuzz)
    finally:
        restore()
    expect(tally.failed == 20 and tally.attempted == 22
           and tally.failure_types == {"ValueError": 20}
           and tally.failures[0]["seed"] is not None,
           "fuzz: an abort inside cli.main fails that call's states, the next calls run")

    closed_form = pspurity.subtraction.relative_purity_closed_form
    calls = []

    def refuse_some(row):
        calls.append(1)
        if len(calls) % 5 == 0:
            raise SubtractionFromVacuumError("injected by the benchmark self-test")
        return closed_form(row)

    restore = patch_everywhere(pspurity.subtraction, "relative_purity_closed_form",
                               refuse_some)
    fuzz.trace_rounds = 1
    try:
        tallies, metrics, _ = run.traced(fuzz, SEED, pspurity)
    finally:
        restore()
    expect(metrics["cli.fuzz_refused"] == 4 and sum(t.failed for t in tallies) == 0,
           "fuzz: states skipped with SubtractionFromVacuumError are refused, not failed")


def test_multimode():
    multimode = wl.Multimode(large=(4,), m1_per_round=2)
    tally = one_round(multimode)
    expect(tally.attempted == 3 and tally.failed == 0, "multimode: tiny round passes its gate")

    def perturb(op, out):
        return dict(out, purity=out["purity"] * (1.0 + 1e-6))

    tally = with_corruption(multimode, perturb)
    expect(tally.failed == 3, "multimode: a purity off the closed form by 1e-6 fails")

    restore = patch_everywhere(pspurity.subtraction, "subtract_photon",
                               fail_first_call(pspurity.subtraction.subtract_photon,
                                               RuntimeError))
    try:
        tally = one_round(multimode)
    finally:
        restore()
    expect(tally.failed == 1 and tally.failure_types == {"RuntimeError": 1}
           and tally.failures[0]["modes"] == 4,
           "multimode: an exception fails one state, recorded with type, seed and modes")


def test_reproduce():
    reproduce = wl.Reproduce(ROOT / "perfbench" / "out" / "selftest")
    reproduce.trace_rounds = 1
    try:
        tallies, metrics, detail = run.traced(reproduce, SEED, pspurity)
        expect(all(t.failed == 0 for t in tallies) and tallies[0].attempted == 5,
               "reproduce: the session passes every gate, untraced and traced")
        check_trace_metrics("reproduce", metrics, (
            "cli.main", "scenarios.sweep", "scenarios.topology_search",
            "quadrature.purity_by_grid", "fock.run_circuit_fock",
            "gaussian.williamson")
        )
        expect(len(detail["checks"]) == 6 and metrics["cli.bytes_written"] > 3_000_000,
               "reproduce: trace records six verify checks and the bytes written")

        def corrupt(op, out):
            command = op.args["command"]
            if command == "fig1a":
                path = reproduce.output_path(command)
                data = bytearray(path.read_bytes())
                data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
                path.write_bytes(bytes(data))
            elif command == "fig3":
                path = reproduce.output_path(command)
                payload = json.loads(path.read_text())
                payload["topology"] = [[2, 3], [1, 2], [1, 3]]
                path.write_text(json.dumps(payload))
            elif command == "verify":
                status, text = out
                return status, re.sub(r"(closed form vs moment engine: max deviation )\S+",
                                      r"\g<1>1.000e-06", text)
            return out

        tally = with_corruption(reproduce, corrupt)
        problems = " ".join(f["detail"] for f in tally.failures)
        expect(tally.failed == 3 and "fig1a digest" in problems
               and "fig3 topology" in problems and "closed form vs moment engine" in problems,
               "reproduce: a changed CSV byte, a wrong topology and a check over its "
               "tolerance each fail their command")
    finally:
        reproduce.close()


def test_fockmix():
    fockmix = wl.Fockmix(cells=1)
    tally = one_round(fockmix, rounds=2)
    expect(tally.attempted == 2 and tally.failed == 0, "fockmix: two states pass their gates")

    tally = with_corruption(fockmix, lambda op, out: dict(out, ratio=out["ratio"] + 1e-5))
    expect(tally.failed == 1, "fockmix: a Fock ratio off the closed form by 1e-5 fails")

    def bad_variance(op, out):
        after = dict(out["after"], var_x=out["after"]["var_x"] * (1.0 + 1e-3))
        return dict(out, after=after)

    tally = with_corruption(fockmix, bad_variance)
    expect(tally.failed == 1, "fockmix: a subtracted variance off by 1e-3 fails")


def check_trace_metrics(workload: str, metrics: dict, used: tuple):
    wanted = {m["name"] for m in SPEC["per_layer"]}
    expect(wanted <= set(metrics), f"{workload}: traced run reports every per-layer metric")
    expect(all(metrics[f"{name}.calls"] > 0 and metrics[f"{name}.self_s"] > 0 for name in used),
           f"{workload}: calls and self time recorded for {', '.join(used)}")


def test_trace_coverage():
    for workload, used in (
        (wl.Fuzz(batch=20, singles=2), ("cli.main", "scenarios.random_state",
                                         "gaussian.GaussianState", "gaussian.williamson",
                                         "subtraction.extract_bogoliubov",
                                         "bounds.purification_conditions")),
        (wl.Multimode(large=(8,), m1_per_round=2), ("subtraction.purity_subtracted",
                                                    "subtraction.marginal_subtracted",
                                                    "gaussian.ModeSelector")),
        (wl.Fockmix(cells=1), ("fock.gaussian_state_to_fock", "fock.quadrature_moments_fock",
                        "fock.subtract_photon_fock", "fock.reduced_purity_fock")),
    ):
        workload.trace_rounds = 1
        tallies, metrics, _ = run.traced(workload, SEED, pspurity)
        expect(all(t.failed == 0 for t in tallies), f"{workload.name}: traced run passes")
        check_trace_metrics(workload.name, metrics, used)


def test_compare():
    base = {s: 100.0 + s % 3 for s in range(10)}
    faster = {s: 80.0 + s % 3 for s in range(10)}
    noisy = {s: 100.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
    expect(compare.verdict(base, faster, 0.1, higher_better=False) == "improved"
           and compare.verdict(faster, base, 0.1, higher_better=False) == "regressed"
           and compare.verdict(base, dict(base), 0.1, higher_better=False) == "unchanged"
           and compare.verdict(base, noisy, 0.1, higher_better=False) == "unresolved",
           "compare: improved, regressed, unchanged and unresolved are told apart")


def test_refuses_without_source():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "run.py exits non-zero without a result when src/pspurity is missing")


def main() -> int:
    tests = (test_compare, test_refuses_without_source, test_fuzz, test_multimode,
             test_fockmix, test_trace_coverage, test_reproduce)
    try:
        for test in tests:
            test()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print(f"selftest: {len(tests)} groups passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
