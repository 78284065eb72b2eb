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
import math
import sys
import typing
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import purification_conditions
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


@dataclass
class RunConfig:
    """Flat run description; serializes to ``key = value`` lines.

    The field defaults are the CLI defaults.  Out-of-range values raise
    ValueError at construction.
    """

    command: str
    figure: str = ""
    output: str = ""
    seed: int = 7
    count: int = 10000
    points: int = 241
    grid_points: int = 201
    alpha: float = 1.6
    s_db: float = 3.0

    def __post_init__(self):
        for name in ("count", "points", "grid_points"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("alpha", "s_db"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {value!r}" if isinstance(value, str)
                         else f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        field_types = typing.get_type_hints(cls)
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in field_types:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            caster = field_types[key]
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


def _write_csv(path: str, config: RunConfig, columns: dict):
    """Write equal-length float columns, each number as its shortest
    round-trip ``repr``.  ``repr`` runs once per distinct value of a column;
    values are told apart by bit pattern, so 0.0 and -0.0 are never merged."""
    fields = []
    for values in columns.values():
        col = np.ascontiguousarray(values, dtype=np.float64)
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        text = list(map(repr, bits.view(np.float64).tolist()))
        fields.append([text[i] for i in inverse.tolist()])
    with open(path, "w") as fh:
        fh.write(_header(config))
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*fields, strict=True))


def _reproduce_sweep(config: RunConfig) -> int:
    _write_csv(config.output, config, sweep(config.figure, points=config.points))
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
    # one call per grid row: the shipped values were computed that way, and
    # one call over the whole grid is not guaranteed to round alike
    rows = [np.column_stack([np.full(n, q), ps]) for q in qs]
    _write_csv(config.output, config, {
        "q": np.repeat(qs, n),
        "p": np.tile(ps, n),
        "w_gaussian": np.concatenate([w_g(pts) for pts in rows]),
        "w_subtracted": np.concatenate([w_s(pts) for pts in rows]),
    })
    return 0


def _reproduce_fig3(config: RunConfig) -> int:
    from .crosscheck import check_three_mode_fock  # loads the Fock oracle and SciPy

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


#: figure name -> (handler, default output path)
FIGURES = {
    "fig1a": (_reproduce_sweep, "fig1a.csv"),
    "fig1b": (_reproduce_sweep, "fig1b.csv"),
    "fig2": (_reproduce_fig2, "fig2.csv"),
    "fig3": (_reproduce_fig3, "fig3.json"),
}


def _cmd_verify(config: RunConfig) -> int:
    from .crosscheck import verify_all  # loads both oracles and SciPy

    results = verify_all()
    for res in results:
        print(res.line())
    ok = all(r.passed for r in results)
    print("verify:", "all checks passed" if ok else "TOLERANCE FAILURES")
    return 0 if ok else 1


def _fuzz_group(m: int, g: int, displaced: bool, seeds: list) -> list:
    """(state, row) of each seed of one fuzz group, or the library error it
    raised.  The group is drawn and extracted as one stack; if that raises,
    it is replayed one state at a time, so every error names its own seed."""
    selector = ModeSelector.for_mode(g, m)
    d_max = 8.0 if displaced else 0.0
    try:
        states = random_state(m, seeds, d_max=d_max)
        rows = extract_bogoliubov(states, selector)
        return [(states[i], rows[i]) for i in range(len(seeds))]
    except PspurityError:
        pass
    out = []
    for seed in seeds:
        try:
            state = random_state(m, seed, d_max=d_max)
            out.append((state, extract_bogoliubov(state, selector)))
        except PspurityError as exc:
            out.append(exc)
    return out


def _fuzz_problems(ratio: float, report, displaced: bool) -> list:
    """The shipped guarantees one state's ratio and report violate."""
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
        problems.append(f"verdict {report.purifiable} but ratio {ratio}")
    return problems


def _cmd_fuzz(config: RunConfig) -> int:
    """Draw (m, seed, displaced, g) per state from the ``--seed`` generator,
    build and extract each (m, g, displaced) group as one stack, then check
    the closed form and the conditions state by state."""
    rng = np.random.default_rng(config.seed)
    groups = {}
    for i in range(config.count):
        m = int(rng.integers(1, 5))
        seed = int(rng.integers(0, 2**63 - 1))
        displaced = bool(rng.random() < 0.8)
        g = int(rng.integers(0, m))
        groups.setdefault((m, g, displaced), []).append((i, seed))
    failures = {}  # state index -> record, reported in state order
    for (m, g, displaced), members in groups.items():
        built = _fuzz_group(m, g, displaced, [seed for _, seed in members])
        for (i, seed), outcome in zip(members, built):
            record = {"seed": seed, "modes": m, "subtract_mode": g}
            try:
                if isinstance(outcome, PspurityError):
                    raise outcome
                state, row = outcome
                ratio = relative_purity_closed_form(row)
                report = purification_conditions(row)
            except SubtractionFromVacuumError:
                continue
            except PspurityError as exc:
                failures[i] = dict(record, exception=type(exc).__name__, message=str(exc))
                continue
            problems = _fuzz_problems(ratio, report, displaced)
            if problems:
                failures[i] = dict(record, covariance=state.covariance.tolist(),
                                   displacement=state.displacement.tolist(),
                                   problems=problems)
    if failures:
        failures = [failures[i] for i in sorted(failures)]
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
        if config.figure not in FIGURES:
            print(f"unknown figure {config.figure!r}", file=sys.stderr)
            return 2
        handler, default_output = FIGURES[config.figure]
        config.output = config.output or default_output
        status = handler(config)
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

    # options left out of the command line take the RunConfig defaults
    rep = sub.add_parser("reproduce", help="write sweep datasets",
                         argument_default=argparse.SUPPRESS)
    rep.add_argument("figure", choices=list(FIGURES))
    rep.add_argument("--output", help="output path")
    rep.add_argument("--points", type=int, help="sweep resolution")
    rep.add_argument("--grid-points", type=int, dest="grid_points")
    rep.add_argument("--alpha", type=float)
    rep.add_argument("--s-db", type=float, dest="s_db")

    sub.add_parser("verify", help="run the cross-oracle suite")

    fuzz = sub.add_parser("fuzz", help="property-check bounds on random states",
                          argument_default=argparse.SUPPRESS)
    fuzz.add_argument("--count", type=int)
    fuzz.add_argument("--seed", type=int)
    fuzz.add_argument("--output", help="where to dump violations")

    run = sub.add_parser("run", help="execute a config file")
    run.add_argument("config", help="path to a key = value config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # OSError: a config file that cannot be read or an output that cannot be written
        try:
            if args.command == "run":
                with open(args.config) as fh:
                    config = RunConfig.from_text(fh.read())
            else:
                known = {f.name for f in dataclasses.fields(RunConfig)}
                config = RunConfig(**{k: v for k, v in vars(args).items() if k in known})
        except ValueError as exc:
            parser.error(str(exc))
        return _dispatch(config)
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
