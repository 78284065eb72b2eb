"""Command-line interface: outputs, determinism, config round-trips."""

import csv
import json

import numpy as np
import pytest

from pspurity.cli import RunConfig, main
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


def test_fuzz_records_library_error_and_continues(monkeypatch, capsys):
    """A library error on one state is one violation naming its seed; the
    remaining states are still checked."""
    from pspurity import cli
    from pspurity.errors import NumericDegenerateError

    seeds = []
    real_state, real_extract = cli.random_state, cli.extract_bogoliubov

    def recording_state(m, seed, **kwargs):
        seeds.append(seed)
        return real_state(m, seed, **kwargs)

    def failing_third(state, selector):
        if len(seeds) == 3:
            raise NumericDegenerateError("injected")
        return real_extract(state, selector)

    monkeypatch.setattr(cli, "random_state", recording_state)
    monkeypatch.setattr(cli, "extract_bogoliubov", failing_third)
    assert main(["fuzz", "--count", "40", "--seed", "7"]) == 1
    assert len(seeds) == 40
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "fuzz: 1 violations in 40 states"
    (record,) = json.loads("\n".join(out[:-1]))
    assert record["seed"] == seeds[2]
    assert record["exception"] == "NumericDegenerateError"
    assert record["message"] == "injected"
    assert {"modes", "subtract_mode"} <= set(record)


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
