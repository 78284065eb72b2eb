"""Command-line interface: outputs, determinism, config round-trips."""

import csv
import hashlib
import json
import math
import shlex
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pspurity import ModeSelector, SubtractionFromVacuumError
from pspurity.cli import COMMANDS, RunConfig, _write_csv, build_parser, main
from pspurity.fock import reduced_purity_fock, run_circuit_fock, subtract_photon_fock
from pspurity.scenarios import (
    circuit_to_gaussian,
    mode_ratio_table,
    random_state,
    three_mode_circuit,
)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline()
        rows = list(csv.DictReader(fh))
    return header, rows


def test_fig1a_dataset(tmp_path):
    out = tmp_path / "fig1a.csv"
    assert main(["reproduce", "fig1a", "--output", str(out), "--points", "41"]) == 0
    header, rows = read_csv(out)
    assert header.startswith("# pspurity")
    assert "config_sha256=" in header
    assert "2*Re<a>" in header
    at_zero = [
        r
        for r in rows
        if float(r["phi"]) == 0.0 and float(r["s_db"]) == 10.0
    ]
    assert float(at_zero[0]["ratio"]) == pytest.approx(1.1967, abs=5e-4)
    assert float(at_zero[0]["f_alpha"]) >= float(at_zero[0]["ratio"]) - 1e-12


def test_fig1a_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["reproduce", "fig1a", "--output", str(a), "--points", "41"])
    main(["reproduce", "fig1a", "--output", str(b), "--points", "41"])
    assert a.read_bytes() == b.read_bytes()


# sha256 of the shipped CSVs at their default configurations, copied from
# FIGURE_DIGESTS in perfbench/workloads.py, which checks the same bytes
SHIPPED_DIGESTS = {
    "fig1a": "5f0eaa9a645785f9edefd212bf7df60b088856f19ef032d4f4126e3e61207158",
    "fig1b": "9bcf4ccfcc21235221960389a2a1f871e38e8aedeae69c18a02dad8d202709e1",
    "fig2": "193d8cd6ca2de63be13a6069d61a3407ebae542c8c7feb31ff7ebb4c8bb3fb58",
}


@pytest.mark.parametrize("figure", sorted(SHIPPED_DIGESTS))
def test_shipped_csv_bytes(tmp_path, figure):
    out = tmp_path / f"{figure}.csv"
    assert main(["reproduce", figure, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_DIGESTS[figure]


def test_fig3_default_config_hash():
    """fig3's default header is the one no digest above pins; its hash keeps
    ``RunConfig.hash`` and ``to_text`` from moving."""
    config = RunConfig("reproduce", figure="fig3", output="fig3.json")
    assert config.hash() == "8afa1da271d9339d"


def test_csv_column_edge_values(tmp_path):
    """Every field is ``repr`` of its float, distinct bit patterns keep their
    own text (0.0 and -0.0, NaN with either sign bit), and finite fields
    parse back to the same bits."""
    negative_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0000))[0]
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5,
              0.1 + 0.2, -0.0, 0.1 + 0.2, 0.0, negative_nan, sys.float_info.max,
              -sys.float_info.max, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0)]
    out = tmp_path / "edge.csv"
    _write_csv(str(out), RunConfig(command="reproduce", figure="fig1a"),
               {"v": values, "w": list(reversed(values))})
    header, rows = read_csv(out)
    assert header.startswith("# pspurity")
    assert len(rows) == len(values)
    for row, v, w in zip(rows, values, reversed(values)):
        for field, value in ((row["v"], v), (row["w"], w)):
            assert field == repr(float(value))
            if math.isfinite(value):
                assert struct.pack("<d", float(field)) == struct.pack("<d", value)


def test_csv_refuses_mismatched_columns(tmp_path):
    """Columns of unequal length or of more than one dimension are refused,
    naming the column, before the file is opened."""
    out = tmp_path / "bad.csv"
    config = RunConfig(command="reproduce", figure="fig1a")
    with pytest.raises(ValueError, match=r"^column 'b' has 2 values, column 'a' has 3$"):
        _write_csv(str(out), config, {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]})
    with pytest.raises(ValueError, match=r"^column 'b' must be 1-D, got shape \(2, 2\)$"):
        _write_csv(str(out), config, {"a": [1.0, 2.0], "b": [[1.0, 2.0], [3.0, 4.0]]})
    assert not out.exists()


def test_fig1b_dataset(tmp_path):
    out = tmp_path / "fig1b.csv"
    assert main(["reproduce", "fig1b", "--output", str(out), "--points", "61"]) == 0
    _, rows = read_csv(out)
    ortho = [r for r in rows if float(r["phi"]) > 1.0]
    assert ortho
    assert all(float(r["ratio"]) <= 1.0 + 1e-9 for r in ortho)


def test_fig2_dataset(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["reproduce", "fig2", "--output", str(out), "--grid-points", "101"]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 101 * 101
    w_g = np.array([float(r["w_gaussian"]) for r in rows])
    w_s = np.array([float(r["w_subtracted"]) for r in rows])
    # subtraction sharpens the peak
    assert w_s.max() > w_g.max()


def test_fig3_dataset(tmp_path):
    out = tmp_path / "fig3.json"
    assert main(["reproduce", "fig3", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["found"] is True
    assert data["topology"] == [[1, 2], [2, 3], [1, 3]]
    ratios = data["ratios"]
    assert all(v > 1 for v in ratios["subtract_mode_1"].values())
    assert all(v < 1 for v in ratios["subtract_mode_2"].values())
    assert ratios["subtract_mode_3"]["mode_1"] > 1
    assert ratios["subtract_mode_3"]["mode_2"] > 1
    assert ratios["subtract_mode_3"]["mode_3"] < 1
    assert data["oracle_max_deviation"] < data["oracle_tolerance"]


def test_fig3_oracle_uses_its_own_configuration(tmp_path):
    out = tmp_path / "fig3.json"
    assert main(["reproduce", "fig3", "--alpha", "1.4", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    topology = [(a - 1, b - 1) for a, b in data["topology"]]
    circuit = three_mode_circuit(topology, alpha=1.4, s_db=3.0)
    analytic = mode_ratio_table(circuit_to_gaussian(circuit))
    fock = run_circuit_fock(circuit)
    before = [reduced_purity_fock(fock, [j]) for j in range(3)]
    expected = max(
        abs(reduced_purity_fock(subtract_photon_fock(fock, g), [j]) / before[j]
            - analytic[g, j])
        for g in range(3)
        for j in range(3)
    )
    assert data["oracle_max_deviation"] == pytest.approx(expected, rel=1e-6, abs=0.0)


def test_fuzz_small_run_passes(capsys):
    assert main(["fuzz", "--count", "400", "--seed", "7"]) == 0
    assert "no violations" in capsys.readouterr().out


def fuzz_plan(seed, count):
    """(modes, state seed, displaced, subtract mode) of each state, drawn
    from the ``--seed`` generator as ``pspurity fuzz`` draws them: uniforms
    for m, the flag and the mode, then the top 63 bits of raw words for the
    seeds."""
    rng = np.random.default_rng(seed)
    u = rng.random((3, count))
    state_seed = rng.bit_generator.random_raw(count) // 2
    m = [1 + math.floor(4.0 * x) for x in u[0].tolist()]
    displaced = (u[1] < 0.8).tolist()
    g = [math.floor(k * x) for k, x in zip(m, u[2].tolist())]
    return list(zip(m, state_seed.tolist(), displaced, g))


def fail_extraction_of(monkeypatch, *targets):
    """Make ``cli.extract_bogoliubov`` raise on every stack (or single state)
    holding one of the plan entries ``targets``; returns the list that
    collects every seed ``cli.random_state`` is asked for."""
    from pspurity import cli
    from pspurity.errors import NumericDegenerateError

    seeds = []
    real_state, real_extract = cli.random_state, cli.extract_bogoliubov
    bad = [real_state(m, seed, d_max=8.0 if displaced else 0.0)
           for m, seed, displaced, _ in targets]

    def recording_state(m, seed, **kwargs):
        seeds.extend(np.atleast_1d(seed).tolist())
        return real_state(m, seed, **kwargs)

    def holds(state, one):
        if state.mode_count != one.mode_count:
            return False
        cov = state.covariance.reshape((-1,) + one.covariance.shape)
        disp = state.displacement.reshape((-1,) + one.displacement.shape)
        return any(np.array_equal(c, one.covariance) and np.array_equal(d, one.displacement)
                   for c, d in zip(cov, disp))

    def failing_extract(state, selector):
        if any(holds(state, one) for one in bad):
            raise NumericDegenerateError("injected")
        return real_extract(state, selector)

    monkeypatch.setattr(cli, "random_state", recording_state)
    monkeypatch.setattr(cli, "extract_bogoliubov", failing_extract)
    return seeds


def test_fuzz_records_library_error_and_continues(monkeypatch, capsys):
    """A library error on one state is one violation naming its seed; the
    remaining states are still checked."""
    plan = fuzz_plan(7, 40)
    seeds = fail_extraction_of(monkeypatch, plan[2])
    assert main(["fuzz", "--count", "40", "--seed", "7"]) == 1
    assert sorted(set(seeds)) == sorted(p[1] for p in plan)
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "fuzz: 1 violations in 40 states"
    (record,) = json.loads("\n".join(out[:-1]))
    assert record["seed"] == plan[2][1]
    assert record["exception"] == "NumericDegenerateError"
    assert record["message"] == "injected"
    assert {"modes", "subtract_mode", "displaced"} <= set(record)
    # the record alone replays the injected state: the flag picks d_max
    m, seed, displaced, _ = plan[2]
    injected = random_state(m, seed, d_max=8.0 if displaced else 0.0)
    replayed = random_state(record["modes"], record["seed"],
                            d_max=8.0 if record["displaced"] else 0.0)
    assert record["displaced"] == displaced
    assert np.array_equal(replayed.covariance, injected.covariance)
    assert np.array_equal(replayed.displacement, injected.displacement)


def test_fuzz_failing_group_is_replayed_state_by_state(monkeypatch, capsys):
    """A fuzz group with one failing state records exactly that state's seed
    and still checks the closed form of every other state, its group's too;
    records come in state order, not group order."""
    from pspurity import cli

    plan = fuzz_plan(7, 40)
    # a group is one mode count, whatever the subtracted modes and displacements
    group = [i for i, p in enumerate(plan) if p[0] == plan[0][0]]
    assert len({plan[i][3] for i in group}) > 1 and {plan[i][2] for i in group} == {True, False}
    # the first group is checked first; its second state comes after
    # state 1, which lies in another group
    later, earlier = group[1], 1
    assert earlier not in group and earlier < later
    fail_extraction_of(monkeypatch, plan[later], plan[earlier])
    checked = []
    real_closed = cli.relative_purity_closed_form

    def counting(row):
        checked.append(row)
        return real_closed(row)

    monkeypatch.setattr(cli, "relative_purity_closed_form", counting)
    assert main(["fuzz", "--count", "40", "--seed", "7"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "fuzz: 2 violations in 40 states"
    records = json.loads("\n".join(out[:-1]))
    assert [r["seed"] for r in records] == [plan[earlier][1], plan[later][1]]
    assert len(checked) == 38


def test_fuzz_records_a_broken_guarantee_and_skips_a_refused_state(
        tmp_path, monkeypatch, capsys):
    """A closed form that breaks a guarantee on one state gives one record
    with that state's problems, covariance and displacement, from which
    ``random_state`` rebuilds the state bit for bit; a state whose closed
    form refuses an empty mode is skipped, in process."""
    from pspurity import cli

    plan = fuzz_plan(7, 40)
    broken, empty = next(p for p in plan if p[2]), plan[5]
    rows = {}
    for name, (m, seed, displaced, g) in (("broken", broken), ("empty", empty)):
        state = random_state(m, seed, d_max=8.0 if displaced else 0.0)
        rows[name] = cli.extract_bogoliubov(state, ModeSelector.for_mode(g, m))
    real_closed, reports = cli.relative_purity_closed_form, []

    def is_row(row, target):
        return all(np.array_equal(getattr(row, name), getattr(target, name))
                   for name in ("alpha_g", "k", "l", "noise"))

    def closed_form(row):
        if is_row(row, rows["empty"]):
            raise SubtractionFromVacuumError("injected")
        if is_row(row, rows["broken"]):
            reports.append(cli.purification_conditions(row))
            return 1.5
        return real_closed(row)

    monkeypatch.setattr(cli, "relative_purity_closed_form", closed_form)
    out = tmp_path / "violations.json"
    assert main(["fuzz", "--count", "40", "--seed", "7", "--output", str(out)]) == 1
    assert capsys.readouterr().out.strip().splitlines()[-1] == "fuzz: 1 violations in 40 states"
    (record,) = json.loads(out.read_text())
    m, seed, displaced, g = broken
    assert {key: record[key] for key in ("seed", "modes", "displaced", "subtract_mode")} == {
        "seed": seed, "modes": m, "displaced": displaced, "subtract_mode": g}
    assert record["problems"][0] == "ratio 1.5 outside [0.5, 1.2)"
    assert record["problems"] == cli._fuzz_problems(1.5, reports[0], displaced)
    rebuilt = random_state(m, seed, d_max=8.0 if displaced else 0.0)
    assert np.array(record["covariance"]).tobytes() == rebuilt.covariance.tobytes()
    assert np.array(record["displacement"]).tobytes() == rebuilt.displacement.tobytes()


def test_fuzz_undisplaced_state_of_a_mixed_stack_replays_from_its_record(monkeypatch, capsys):
    """An undisplaced state, drawn in one stack with displaced states of its
    mode count, is bit for bit ``random_state(modes, seed, d_max=0.0)``: the
    record of a guarantee it breaks rebuilds it."""
    from pspurity import cli

    plan = fuzz_plan(7, 40)
    target = next(p for p in plan if not p[2] and p[0] > 1)
    assert any(p[2] for p in plan if p[0] == target[0])
    m, seed, _, g = target
    alone = cli.extract_bogoliubov(random_state(m, seed, d_max=0.0), ModeSelector.for_mode(g, m))
    real_closed = cli.relative_purity_closed_form

    def closed_form(row):
        same = all(np.array_equal(getattr(row, name), getattr(alone, name))
                   for name in ("alpha_g", "k", "l", "noise"))
        return 1.5 if same else real_closed(row)

    monkeypatch.setattr(cli, "relative_purity_closed_form", closed_form)
    assert main(["fuzz", "--count", "40", "--seed", "7"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "fuzz: 1 violations in 40 states"
    (record,) = json.loads("\n".join(out[:-1]))
    assert (record["seed"], record["modes"], record["displaced"]) == (seed, m, False)
    rebuilt = random_state(record["modes"], record["seed"], d_max=0.0)
    assert np.array(record["covariance"]).tobytes() == rebuilt.covariance.tobytes()
    assert np.array(record["displacement"]).tobytes() == rebuilt.displacement.tobytes()
    assert not rebuilt.displacement.any()


@pytest.mark.parametrize("ratio, displaced, report, problem", [
    (0.4, True, (1.0, 1.0, False), "ratio 0.4 outside [0.5, 1.2)"),
    (1.1, False, (1.15, 1.15, True), "undisplaced ratio 1.1 > 1"),
    (1.1, True, (1.05, 1.1, True), "ratio 1.1 above envelope 1.05"),
    (0.9, True, (1.1, 1.05, False), "envelope 1.1 above max 1.05"),
    (0.9, True, (1.0, 1.0, True), "verdict True but ratio 0.9")],
    ids=["range", "undisplaced", "envelope", "maximum", "verdict"])
def test_fuzz_names_each_broken_guarantee(ratio, displaced, report, problem):
    from pspurity import cli
    from pspurity.bounds import BoundReport

    f_alpha, f_max, purifiable = report
    report = BoundReport(zeta=None, condition_direction=0.0, threshold_alpha_sq=None,
                         f_alpha=f_alpha, f_max=f_max, purifiable=purifiable)
    assert cli._fuzz_problems(ratio, report, displaced) == [problem]


def test_fuzz_output_holds_every_violation(tmp_path, monkeypatch, capsys):
    """The ``--output`` file gets every record, stdout the first ten; a clean
    run overwrites an earlier file with an empty list."""
    plan = fuzz_plan(7, 40)
    fail_extraction_of(monkeypatch, *plan[:12])
    out = tmp_path / "violations.json"
    assert main(["fuzz", "--count", "40", "--seed", "7", "--output", str(out)]) == 1
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed[-1] == "fuzz: 12 violations in 40 states"
    records = json.loads(out.read_text())
    assert [r["seed"] for r in records] == [p[1] for p in plan[:12]]
    assert json.loads("\n".join(printed[:-1])) == records[:10]
    monkeypatch.undo()
    assert main(["fuzz", "--count", "40", "--seed", "7", "--output", str(out)]) == 0
    assert out.read_text() == "[]\n"


def test_reused_parser_keeps_no_state(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; a refused call, a fuzz call and a
    reproduce call in a row each see only their own arguments."""
    from pspurity import cli

    monkeypatch.chdir(tmp_path)
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", "0"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith("error: count must be at least 1, got 0\n")
    assert main(["fuzz", "--count", "3"]) == 0
    assert capsys.readouterr().out == "fuzz: 3 states, no violations (seed 7)\n"
    assert main(["reproduce", "fig1a", "--points", "3"]) == 0
    assert capsys.readouterr().out == "wrote fig1a.csv\n"
    lines = (tmp_path / "fig1a.csv").read_text().splitlines()
    expected = RunConfig("reproduce", figure="fig1a", output="fig1a.csv", points=3)
    assert f"config_sha256={expected.hash()} " in lines[0]
    assert lines[1] == "phi,s_db,ratio,f_alpha" and len(lines) == 2 + 3 * 3


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "fig1a", "--points", "0"],
        ["reproduce", "fig2", "--grid-points", "-1"],
        ["reproduce", "fig3", "--alpha", "nan"],
        ["reproduce", "fig3", "--s-db", "inf"],
        ["fuzz", "--count", "-3"],
        ["fuzz", "--seed", "-1"],
        ["run", "bad.cfg"],
    ],
    ids=["points", "grid_points", "alpha", "s_db", "count", "seed", "config_file"],
)
def test_out_of_range_input_rejected(tmp_path, monkeypatch, capsys, argv):
    """Out-of-range values stop at the boundary: exit 2, nothing written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("command = 'fuzz'\ncount = 0\n")
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--output", "out"] if argv[0] != "run" else []))
    assert exc.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "missing.cfg"],
                                  ["reproduce", "fig1a", "--output", "taken"],
                                  ["reproduce", "fig3", "--output", "taken"]],
                         ids=["missing_config", "fig1a_into_directory", "fig3_into_directory"])
def test_file_errors_exit_2_naming_the_path(tmp_path, monkeypatch, capsys, argv):
    """A config file that cannot be read, or an output path that is a
    directory, ends in one error line that names the path, not a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("pspurity: error: ") and err.count("\n") == 1
    assert repr(argv[-1]) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("argv", [["--s-db", "60"], ["--alpha", "1e100"], ["--alpha", "1e200"]],
                         ids=["s_db_60", "alpha_1e100", "alpha_1e200"])
def test_library_refusal_exits_2(tmp_path, monkeypatch, capsys, argv):
    """A library error inside a command ends, before any file is written, in
    one ``pspurity: error:`` line naming its type, not a traceback."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig3", *argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("pspurity: error: NumericDegenerateError: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("form, output", [
    ("flags", "a\tb.json"), ("flags", "x\x7f.json"), ("flags", "C:\\data\x0cile.csv"),
    ("file", "'C:\\data\\file.csv'"), ("file", "'C:\\new\\tab.csv'"),
    ("file", '"a\\x00.json"')])
def test_output_with_a_control_character_is_refused(tmp_path, monkeypatch, capsys, form, output):
    """A control character in ``output``, such as the form feed or newline a
    quoted Windows path reads as, is an out-of-range value: exit 2, one error
    line naming the key, nothing written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(f"command = fuzz\ncount = 1\noutput = {output}\n")
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", "1", "--output", output] if form == "flags"
             else ["run", "bad.cfg"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    errors = [row for row in out.err.splitlines() if "error:" in row]
    assert out.out == "" and len(errors) == 1
    assert errors[0].startswith("pspurity: error: ") and "output" in errors[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def test_config_round_trip():
    config = RunConfig(command="fuzz", seed=99, count=123)
    again = RunConfig.from_text(config.to_text())
    assert again == config


MOVED = {"output": "out.dat", "seed": 8, "count": 3, "points": 5, "grid_points": 7,
         "alpha": 1.4, "s_db": 2.5}


@pytest.mark.parametrize("key", list(COMMANDS), ids=lambda key: " ".join(filter(None, key)))
def test_config_round_trip_every_command(key):
    """``to_text`` output reads back for every command with every field it
    reads moved off its default; the unread fields it writes keep theirs."""
    config = RunConfig(*key, **{name: MOVED[name] for name in COMMANDS[key].reads})
    assert RunConfig.from_text(config.to_text()) == config


# argv (None: no command-line form), config file, words the error line must
# hold, and the line the config-file error must name
REFUSED = {
    "repeated_key": (None, "command = fuzz\ncommand = verify\n", ("command",), 2),
    "count_not_int": (["fuzz", "--count", "2.5"], "command = fuzz\ncount = 2.5\n",
                      ("count", "2.5"), 2),
    "verify_output": (["verify", "--output", "out"], "command = verify\noutput = out\n",
                      ("output",), None),
    "verify_alpha": (["verify", "--alpha", "5"], "command = verify\nalpha = 5\n",
                     ("alpha",), None),
    "fig1a_alpha": (["reproduce", "fig1a", "--alpha", "5"],
                    "command = reproduce\nfigure = fig1a\nalpha = 5\n", ("alpha",), None),
    "fig2_points": (["reproduce", "fig2", "--points", "3"],
                    "command = reproduce\nfigure = fig2\npoints = 3\n", ("points",), None),
    "fig3_grid_points": (["reproduce", "fig3", "--grid-points", "3"],
                         "command = reproduce\nfigure = fig3\ngrid_points = 3\n", ("grid",),
                         None),
    "unknown_figure": (["reproduce", "fig9"], "command = reproduce\nfigure = fig9\n",
                       ("fig9",), None),
    "no_figure": (None, "command = reproduce\n", ("reproduce", "fig1a"), None),
}


@pytest.mark.parametrize("case, form", [(case, form) for case, (argv, *_) in REFUSED.items()
                                         for form in ("flags", "file") if argv or form == "file"])
def test_grammar_refusal(tmp_path, monkeypatch, capsys, case, form):
    """Flags and config files refuse the same inputs: exit 2, one
    ``pspurity: error:`` line naming what is wrong, nothing written."""
    argv, text, words, line = REFUSED[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(argv if form == "flags" else ["run", "bad.cfg"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    errors = [row for row in out.err.splitlines() if "error:" in row]
    assert out.out == "" and len(errors) == 1 and errors[0].startswith("pspurity: error: ")
    assert all(word in errors[0] for word in words)
    if form == "file" and line:
        assert f"line {line}:" in errors[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def readme_command_lines():
    """The argv of every ``pspurity ...`` line in the README's Command line block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("pspurity ")]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_line_parses(argv):
    """Each documented command line is one the grammar takes, without running it."""
    args = vars(build_parser().parse_args(argv))
    if args["command"] != "run":
        RunConfig(**args)


def test_readme_documents_every_command():
    documented = {(argv[0], argv[1] if argv[0] == "reproduce" else "")
                  for argv in readme_command_lines()}
    assert documented == set(COMMANDS) | {("run", "")}


@pytest.mark.parametrize("output", ["a\\b.json", "a#b.json", "it's \"x\".json", "a\\#b'.json"])
def test_config_round_trip_quoted_output(output):
    """A quoted value is read as the string literal ``to_text`` wrote: a
    backslash stays single and a ``#`` inside the quotes is not a comment,
    with or without a comment after the value; the hash does not move."""
    config = RunConfig("fuzz", output=output)
    assert RunConfig.from_text(config.to_text()) == config
    commented = config.to_text().replace("\nseed", "  # where it goes\nseed")
    assert RunConfig.from_text(commented) == config
    assert config.hash() == RunConfig("fuzz").hash()


@pytest.mark.parametrize("value", ["'a.json", "'a' 'b'", "'a' b", "'\\x'"])
def test_config_refuses_malformed_quoted_string(value):
    with pytest.raises(ValueError, match=r"line 2: output: invalid str value"):
        RunConfig.from_text(f"command = 'fuzz'\noutput = {value}\n")


@pytest.mark.parametrize("action", ["ignore", "always"])
def test_config_refuses_an_invalid_escape_whether_or_not_warnings_show(
        tmp_path, monkeypatch, capsys, action):
    """``\\d`` and ``\\o`` are escapes Python warns are invalid (hidden on
    3.11, shown on 3.12, an error later): under any warning filter the value
    is refused, exit 2 with one line naming the key and its line, no
    warning and nothing written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("command = fuzz\ncount = 1\noutput = 'C:\\data\\out.json'\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(SystemExit) as exc:
            main(["run", "bad.cfg"])
    assert exc.value.code == 2 and caught == []
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1].startswith("pspurity: error: line 3: output: invalid str")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def test_config_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        RunConfig.from_text("command = 'fuzz'\nbogus = 3\n")


def test_config_requires_command():
    with pytest.raises(ValueError, match="command"):
        RunConfig.from_text("seed = 3\n")


def test_run_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = 'fuzz'\ncount = 200\nseed = 11\n")
    assert main(["run", str(cfg)]) == 0
    assert "200 states" in capsys.readouterr().out


@pytest.mark.slow
def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("[ok  ]") >= 6
