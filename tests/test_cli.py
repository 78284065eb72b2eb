"""Command-line interface: outputs, determinism, config round-trips."""

import csv
import hashlib
import json
import math
import struct

import numpy as np
import pytest

from pspurity.cli import RunConfig, _write_csv, main
from pspurity.fock import reduced_purity_fock, run_circuit_fock, subtract_photon_fock
from pspurity.scenarios import circuit_to_gaussian, mode_ratio_table, three_mode_circuit


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


def test_csv_column_edge_values(tmp_path):
    """Every field is ``repr`` of its float, distinct bit patterns keep their
    own text (0.0 and -0.0), and finite fields parse back to the same bits."""
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5,
              0.1 + 0.2, -0.0, 0.1 + 0.2, 0.0]
    out = tmp_path / "edge.csv"
    _write_csv(str(out), RunConfig(command="reproduce"),
               {"v": values, "w": list(reversed(values))})
    header, rows = read_csv(out)
    assert header.startswith("# pspurity")
    assert len(rows) == len(values)
    for row, v, w in zip(rows, values, reversed(values)):
        for field, value in ((row["v"], v), (row["w"], w)):
            assert field == repr(float(value))
            if math.isfinite(value):
                assert struct.pack("<d", float(field)) == struct.pack("<d", value)


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
    from the ``--seed`` generator in the order ``pspurity fuzz`` draws them."""
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(count):
        m = int(rng.integers(1, 5))
        state_seed = int(rng.integers(0, 2**63 - 1))
        displaced = bool(rng.random() < 0.8)
        plan.append((m, state_seed, displaced, int(rng.integers(0, m))))
    return plan


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
    assert {"modes", "subtract_mode"} <= set(record)


def test_fuzz_failing_group_is_replayed_state_by_state(monkeypatch, capsys):
    """A fuzz group with one failing state records exactly that state's seed
    and still checks the closed form of every other state, its group's too;
    records come in state order, not group order."""
    from pspurity import cli

    plan = fuzz_plan(7, 40)
    group = [i for i, p in enumerate(plan) if (p[0], p[2], p[3]) == (plan[0][0], plan[0][2],
                                                                   plan[0][3])]
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


def test_config_round_trip():
    config = RunConfig(command="fuzz", seed=99, count=123)
    again = RunConfig.from_text(config.to_text())
    assert again == config


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
