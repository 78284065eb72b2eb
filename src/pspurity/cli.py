"""Command-line interface.

Subcommands:
    reproduce fig1a|fig1b|fig2|fig3   write the sweep datasets (CSV / JSON)
    verify                            run the cross-oracle suite
    fuzz                              property-check bounds on random states
    run CONFIG                        execute a run described by a config file

Output files are deterministic: identical (command, config, seed) triples
produce byte-identical bytes, and every file starts with a header naming
the config hash and the numeric conventions (displacement scale, dB rule).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import purification_conditions
from .crosscheck import check_three_mode_fock, verify_all
from .errors import PspurityError, SubtractionFromVacuumError
from .gaussian import ModeSelector, gaussian_wigner_fn
from .scenarios import (
    random_state,
    reference_single_mode_state,
    sweep,
    topology_search,
)
from .subtraction import (
    extract_bogoliubov,
    moments_subtracted,
    relative_purity_closed_form,
    subtract_photon,
    subtracted_wigner_fn,
)

CONVENTIONS = "displacement=(2*Re<a>,2*Im<a>) squeeze=10^(dB/10)"

CONFIG_FIELDS = {
    "command": str,
    "figure": str,
    "output": str,
    "seed": int,
    "count": int,
    "points": int,
    "grid_points": int,
    "alpha": float,
    "s_db": float,
}


@dataclass
class RunConfig:
    """Flat run description; serializes to ``key = value`` lines."""

    command: str
    figure: str = ""
    output: str = ""
    seed: int = 7
    count: int = 10000
    points: int = 241
    grid_points: int = 201
    alpha: float = 1.6
    s_db: float = 3.0

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {value!r}" if isinstance(value, str)
                         else f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_FIELDS:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            caster = CONFIG_FIELDS[key]
            value = value.strip()
            if caster is str:
                if value.startswith(("'", '"')) and value.endswith(value[0]):
                    value = value[1:-1]
                values[key] = value
            else:
                values[key] = caster(value)
        if "command" not in values:
            raise ValueError("config must set 'command'")
        return cls(**values)

    def hash(self) -> str:
        # the output path is where the data goes, not what the data is
        semantic = dataclasses.replace(self, output="")
        return hashlib.sha256(semantic.to_text().encode()).hexdigest()[:16]


def _header(config: RunConfig) -> str:
    return (
        f"# pspurity {__version__} config_sha256={config.hash()} {CONVENTIONS}\n"
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, config: RunConfig, columns: list, rows: list):
    with open(path, "w") as fh:
        fh.write(_header(config))
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _reproduce_fig1a(config: RunConfig) -> int:
    records = sweep("fig1a", points=config.points)
    rows = [
        (r.params["phi"], r.params["s_db"], r.outputs["ratio"], r.outputs["f_alpha"])
        for r in records
    ]
    _write_csv(config.output, config, ["phi", "s_db", "ratio", "f_alpha"], rows)
    return 0


def _reproduce_fig1b(config: RunConfig) -> int:
    records = sweep("fig1b", points=config.points)
    rows = [
        (r.params["alpha_mag"], r.params["n_g"], r.params["phi"], r.outputs["ratio"])
        for r in records
    ]
    _write_csv(config.output, config, ["alpha_mag", "n_g", "phi", "ratio"], rows)
    return 0


def _reproduce_fig2(config: RunConfig) -> int:
    state = reference_single_mode_state()
    sub = subtract_photon(state, ModeSelector.for_mode(0, 1))
    w_g = gaussian_wigner_fn(state)
    w_s = subtracted_wigner_fn(sub)
    report = moments_subtracted(sub)
    center = 0.5 * (state.displacement + report.mean)
    sig = np.sqrt(np.diag(state.covariance))
    n = config.grid_points
    qs = np.linspace(center[0] - 5 * sig[0], center[0] + 5 * sig[0], n)
    ps = np.linspace(center[1] - 5 * sig[1], center[1] + 5 * sig[1], n)
    rows = []
    for q in qs:
        pts = np.column_stack([np.full(n, q), ps])
        vg = w_g(pts)
        vs = w_s(pts)
        rows.extend((q, p, g, s) for p, g, s in zip(ps, vg, vs))
    _write_csv(config.output, config, ["q", "p", "w_gaussian", "w_subtracted"], rows)
    return 0


def _reproduce_fig3(config: RunConfig) -> int:
    topology, table = topology_search(alpha=config.alpha, s_db=config.s_db)
    payload = {
        "meta": {
            "version": __version__,
            "config_sha256": config.hash(),
            "conventions": CONVENTIONS,
        },
        "alpha": config.alpha,
        "s_db": config.s_db,
    }
    if topology is None:
        payload["found"] = False
    else:
        oracle = check_three_mode_fock(
            config.alpha, config.s_db, search=(topology, table)
        )
        payload["found"] = True
        payload["topology"] = [[a + 1, b + 1] for a, b in topology]
        payload["ratios"] = {
            f"subtract_mode_{g + 1}": {
                f"mode_{j + 1}": table[g, j] for j in range(3)
            }
            for g in range(3)
        }
        payload["oracle_max_deviation"] = oracle.deviation
        payload["oracle_tolerance"] = oracle.tolerance
    with open(config.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if payload.get("found") else 1


def _cmd_verify(config: RunConfig) -> int:
    results = verify_all()
    for res in results:
        print(res.line())
    ok = all(r.passed for r in results)
    print("verify:", "all checks passed" if ok else "TOLERANCE FAILURES")
    return 0 if ok else 1


def _cmd_fuzz(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    failures = []
    for i in range(config.count):
        m = int(rng.integers(1, 5))
        seed = int(rng.integers(0, 2**63 - 1))
        displaced = bool(rng.random() < 0.8)
        g = int(rng.integers(0, m))
        try:
            state = random_state(m, seed, d_max=8.0 if displaced else 0.0)
            row = extract_bogoliubov(state, ModeSelector.for_mode(g, m))
            ratio = relative_purity_closed_form(row)
            report = purification_conditions(row)
        except SubtractionFromVacuumError:
            continue
        except PspurityError as exc:
            failures.append(
                {
                    "seed": seed,
                    "modes": m,
                    "subtract_mode": g,
                    "exception": type(exc).__name__,
                    "message": str(exc),
                }
            )
            continue
        problems = []
        if not 0.5 - 1e-10 <= ratio < 1.2:
            problems.append(f"ratio {ratio} outside [0.5, 1.2)")
        if not displaced and ratio > 1.0 + 1e-10:
            problems.append(f"undisplaced ratio {ratio} > 1")
        if ratio > report.f_alpha + 1e-9:
            problems.append(f"ratio {ratio} above envelope {report.f_alpha}")
        if report.f_alpha > report.f_max + 1e-9:
            problems.append(f"envelope {report.f_alpha} above max {report.f_max}")
        if report.purifiable != (ratio >= 1.0 - 1e-9):
            problems.append(
                f"verdict {report.purifiable} but ratio {ratio}"
            )
        if problems:
            failures.append(
                {
                    "seed": seed,
                    "modes": m,
                    "subtract_mode": g,
                    "covariance": state.covariance.tolist(),
                    "displacement": state.displacement.tolist(),
                    "problems": problems,
                }
            )
    if failures:
        text = json.dumps(failures[:10], indent=2)
        if config.output:
            with open(config.output, "w") as fh:
                fh.write(text + "\n")
        print(text)
        print(f"fuzz: {len(failures)} violations in {config.count} states")
        return 1
    print(f"fuzz: {config.count} states, no violations (seed {config.seed})")
    return 0


def _dispatch(config: RunConfig) -> int:
    if config.command == "reproduce":
        if not config.output:
            config.output = {
                "fig1a": "fig1a.csv",
                "fig1b": "fig1b.csv",
                "fig2": "fig2.csv",
                "fig3": "fig3.json",
            }.get(config.figure, "out.csv")
        handler = {
            "fig1a": _reproduce_fig1a,
            "fig1b": _reproduce_fig1b,
            "fig2": _reproduce_fig2,
            "fig3": _reproduce_fig3,
        }.get(config.figure)
        if handler is None:
            print(f"unknown figure {config.figure!r}", file=sys.stderr)
            return 2
        status = handler(config)
        if config.output:
            print(f"wrote {config.output}")
        return status
    if config.command == "verify":
        return _cmd_verify(config)
    if config.command == "fuzz":
        return _cmd_fuzz(config)
    print(f"unknown command {config.command!r}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pspurity",
        description="Photon-subtraction purity toolkit for Gaussian states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="write sweep datasets")
    rep.add_argument("figure", choices=["fig1a", "fig1b", "fig2", "fig3"])
    rep.add_argument("--output", default="", help="output path")
    rep.add_argument("--points", type=int, default=241, help="sweep resolution")
    rep.add_argument("--grid-points", type=int, default=201, dest="grid_points")
    rep.add_argument("--alpha", type=float, default=1.6)
    rep.add_argument("--s-db", type=float, default=3.0, dest="s_db")

    ver = sub.add_parser("verify", help="run the cross-oracle suite")

    fuzz = sub.add_parser("fuzz", help="property-check bounds on random states")
    fuzz.add_argument("--count", type=int, default=10000)
    fuzz.add_argument("--seed", type=int, default=7)
    fuzz.add_argument("--output", default="", help="where to dump violations")

    run = sub.add_parser("run", help="execute a config file")
    run.add_argument("config", help="path to a key = value config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        with open(args.config) as fh:
            config = RunConfig.from_text(fh.read())
    else:
        known = {f.name for f in dataclasses.fields(RunConfig)}
        values = {k: v for k, v in vars(args).items() if k in known and v is not None}
        config = RunConfig(**values)
    return _dispatch(config)


if __name__ == "__main__":
    sys.exit(main())
