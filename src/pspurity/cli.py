"""Command-line interface: ``reproduce fig1a|fig1b|fig2|fig3``, ``verify``,
``fuzz``, and ``run CONFIG`` for a run described by a config file.

``COMMANDS`` names the ``RunConfig`` fields each command and figure reads.
The flags, the config-file casts and the refusal of a field the command does
not read are all built from it and the field types.

Output files are deterministic: identical (command, config, seed) triples
produce byte-identical bytes, and every file starts with a header naming
the config hash and the numeric conventions (displacement scale, dB rule).
A CSV number is the float's ``repr``, made for whole columns at once by
``floattext`` and written as bytes with ``\\n`` line ends on every platform.
"""

import argparse
import ast
import dataclasses
import hashlib
import json
import math
import re
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import __version__
from .bounds import purification_conditions
from .errors import PspurityError, SubtractionFromVacuumError
from .floattext import csv_blocks
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

    The field defaults are the CLI defaults and the field types cast both
    flags and config-file values.  An unknown command or figure, a field the
    command does not read set away from its default, and an out-of-range
    value raise ValueError at construction.
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
        entry = COMMANDS.get((self.command, self.figure))
        name = f"{self.command} {self.figure}".strip()
        if entry is None:
            known = ", ".join(f"{command} {figure}".strip() for command, figure in COMMANDS)
            raise ValueError(f"unknown command {name!r}; known: {known}")
        for f in dataclasses.fields(self)[2:]:  # command and figure pick the entry
            if f.name not in entry.reads and getattr(self, f.name) != f.default:
                raise ValueError(f"{name} does not read {f.name}")
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
        if _CONTROL.search(self.output):  # such as a quoted 'C:\new' read as a newline
            raise ValueError(f"output must hold no control character, got {self.output!r}")

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {value!r}" if isinstance(value, str)
                         else f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        """Read ``key = value`` lines (``#`` starts a comment): each key once,
        each value cast by its field's type.  A string value may be quoted:
        a value that starts with a quote is read as a Python string literal,
        as ``to_text`` writes it with ``repr``, so a ``#`` or a backslash in
        it is kept."""
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in FIELD_TYPES:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"line {lineno}: repeated key {key!r}")
            cast = FIELD_TYPES[key]
            try:
                if cast is str and value.startswith(("'", '"')):
                    # read whole: the comment strip may have cut it at a quoted '#'
                    value = raw.partition("=")[2].strip()
                    values[key] = _string_literal(value)
                else:
                    values[key] = cast(value)
            except ValueError:
                raise ValueError(f"line {lineno}: {key}: invalid {cast.__name__} "
                                 f"value {value!r}") from None
        if "command" not in values:
            raise ValueError("config must set 'command'")
        return cls(**values)

    def hash(self) -> str:
        # the output path is where the data goes, not what the data is
        semantic = dataclasses.replace(self, output="")
        return hashlib.sha256(semantic.to_text().encode()).hexdigest()[:16]


#: the one type source: flags and config-file values are cast by it
FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}

#: a control character: U+0000 to U+001F, or U+007F
_CONTROL = re.compile("[\x00-\x1f\x7f]")

#: a one-line Python string literal, then at most a comment
_QUOTED = re.compile(r"""('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")\s*(?:#.*)?""")


def _string_literal(text: str) -> str:
    """The Python string literal that makes up ``text`` but for a trailing
    comment; ValueError when there is none, or when it holds an escape
    that Python warns is invalid (as ``\\d``) and will refuse."""
    quoted = _QUOTED.fullmatch(text)
    if quoted is None:
        raise ValueError(text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the parser raises such a warning as SyntaxError
            return ast.literal_eval(quoted[1])
    except SyntaxError:  # that, or a malformed escape such as '\x'
        raise ValueError(text) from None


def _header(config: RunConfig) -> str:
    return (
        f"# pspurity {__version__} config_sha256={config.hash()} {CONVENTIONS}\n"
    )


def _write_csv(path: str, config: RunConfig, columns: dict):
    """Write equal-length 1-D float columns, each number as its ``repr``,
    rendered for every distinct value at once by ``floattext.csv_blocks``.
    The file is written as bytes, so rows end in ``\\n`` on every platform.
    Columns that are not 1-D or not all of one length raise ValueError,
    naming the column, before the file is opened."""
    arrays = {name: np.ascontiguousarray(values, dtype=np.float64)
              for name, values in columns.items()}
    for name, col in arrays.items():
        if col.ndim != 1:
            raise ValueError(f"column {name!r} must be 1-D, got shape {col.shape}")
    first, *rest = arrays
    for name in rest:
        if len(arrays[name]) != len(arrays[first]):
            raise ValueError(f"column {name!r} has {len(arrays[name])} values, "
                             f"column {first!r} has {len(arrays[first])}")
    with open(path, "wb") as fh:
        fh.write((_header(config) + ",".join(arrays) + "\n").encode())
        fh.writelines(csv_blocks(list(arrays.values())))


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
    q, p = np.repeat(qs, n), np.tile(ps, n)
    grid = np.column_stack([q, p])
    _write_csv(config.output, config, {"q": q, "p": p, "w_gaussian": w_g(grid),
                                       "w_subtracted": w_s(grid)})
    return 0


def _reproduce_fig3(config: RunConfig) -> int:
    from .crosscheck import check_three_mode_fock  # loads the Fock oracle

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
    from .crosscheck import verify_all  # loads both oracles

    results = verify_all()
    for res in results:
        print(res.line())
    ok = all(r.passed for r in results)
    print("verify:", "all checks passed" if ok else "TOLERANCE FAILURES")
    return 0 if ok else 1


def _fuzz_group(m: int, seeds, d_max, modes):
    """(states, rows) of the fuzz states of one mode count: each row that of
    its seed's state, drawn with its own d_max, with its own subtracted mode,
    or the library error it raised.  The group is drawn and extracted as one
    stack, with a stacked selector; if that raises, it is replayed one state
    at a time, so every error names its own seed."""
    try:
        states = random_state(m, seeds, d_max=d_max)
        return states, extract_bogoliubov(states, ModeSelector.for_mode(modes, m))
    except PspurityError:
        pass
    states, rows = [], []
    for seed, d, g in zip(seeds, d_max, modes):
        state = None
        try:
            state = random_state(m, seed, d_max=d)
            row = extract_bogoliubov(state, ModeSelector.for_mode(g, m))
        except PspurityError as exc:
            row = exc
        states.append(state)
        rows.append(row)
    return states, rows


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
    """Draw every state's (m, seed, displaced, g) from the ``--seed``
    generator in two array calls (uniforms for m, the flag and g, then raw
    words for the seeds), build and extract the states of each mode count as
    one stack, then check the closed form and the conditions state by
    state."""
    rng = np.random.default_rng(config.seed)
    u = rng.random((3, config.count)).tolist()
    state_seeds = (rng.bit_generator.random_raw(config.count) >> np.uint64(1)).tolist()
    groups = {}  # m -> (index, seed, displaced, g) of its states, in state order
    for i, (a, b, c, seed) in enumerate(zip(*u, state_seeds)):
        m = 1 + int(4.0 * a)
        # m c rounds below m for c < 1 and m <= 4
        groups.setdefault(m, []).append((i, seed, b < 0.8, int(m * c)))
    failures = {}  # state index -> record, reported in state order
    for m, members in groups.items():
        index, seeds, displaced, modes = zip(*members)
        states, rows = _fuzz_group(m, seeds, [8.0 if flag else 0.0 for flag in displaced], modes)
        for j, (i, flag, outcome) in enumerate(zip(index, displaced, rows)):
            try:
                if isinstance(outcome, PspurityError):
                    raise outcome
                ratio = relative_purity_closed_form(outcome)
                report = purification_conditions(outcome)
            except SubtractionFromVacuumError:
                continue
            except PspurityError as exc:
                details = {"exception": type(exc).__name__, "message": str(exc)}
            else:
                problems = _fuzz_problems(ratio, report, flag)
                if not problems:
                    continue
                details = {"covariance": states[j].covariance.tolist(),
                           "displacement": states[j].displacement.tolist(),
                           "problems": problems}
            failures[i] = {"seed": seeds[j], "modes": m, "displaced": flag,
                           "subtract_mode": modes[j], **details}
    failures = [failures[i] for i in sorted(failures)]
    if config.output:  # every record; a clean run writes []
        with open(config.output, "w") as fh:
            fh.write(json.dumps(failures, indent=2) + "\n")
    if failures:
        print(json.dumps(failures[:10], indent=2))
        print(f"fuzz: {len(failures)} violations in {config.count} states")
        return 1
    print(f"fuzz: {config.count} states, no violations (seed {config.seed})")
    return 0


#: one COMMANDS entry: the handler, the fields it reads (every other field after
#: command and figure must keep its default), a figure's default output, a help line
Command = namedtuple("Command", "run reads output help", defaults=("", None))


#: (command, figure) -> Command; the only list of the fields each one reads
COMMANDS = {
    ("reproduce", "fig1a"): Command(_reproduce_sweep, ("output", "points"), "fig1a.csv"),
    ("reproduce", "fig1b"): Command(_reproduce_sweep, ("output", "points"), "fig1b.csv"),
    ("reproduce", "fig2"): Command(_reproduce_fig2, ("output", "grid_points"), "fig2.csv"),
    ("reproduce", "fig3"): Command(_reproduce_fig3, ("output", "alpha", "s_db"), "fig3.json"),
    ("verify", ""): Command(_cmd_verify, (), help="run the cross-oracle suite"),
    ("fuzz", ""): Command(_cmd_fuzz, ("output", "count", "seed"),
                          help="property-check bounds on random states"),
}


@lru_cache(maxsize=None)  # argparse spends about 0.5 ms building it; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    """One flag per field a ``COMMANDS`` entry reads, cast by the field's
    type; flags left out take the RunConfig defaults.  The subparsers pass
    their errors up, so each is one ``pspurity: error:`` line."""
    parser = argparse.ArgumentParser(
        prog="pspurity",
        description="Photon-subtraction purity toolkit for Gaussian states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    figures = sub.add_parser("reproduce", help="write a figure's dataset",
                             exit_on_error=False).add_subparsers(dest="figure", required=True)
    for (command, figure), entry in COMMANDS.items():
        cmd = (figures if figure else sub).add_parser(
            figure or command, help=entry.help, exit_on_error=False,
            argument_default=argparse.SUPPRESS)
        for name in entry.reads:
            cmd.add_argument("--" + name.replace("_", "-"), type=FIELD_TYPES[name])
    run = sub.add_parser("run", help="execute a config file", exit_on_error=False)
    run.add_argument("config", help="path to a key = value config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    try:  # OSError: a config file that cannot be read or an output that cannot be written
        try:
            if args["command"] == "run":
                with open(args["config"]) as fh:
                    config = RunConfig.from_text(fh.read())
            else:
                config = RunConfig(**args)
        except ValueError as exc:
            parser.error(str(exc))
        command = COMMANDS[config.command, config.figure]
        config.output = config.output or command.output
        status = command.run(config)
        if command.output:
            print(f"wrote {config.output}")
        return status
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except PspurityError as exc:  # a library refusal: every command raises it before writing
        parser.exit(2, f"{parser.prog}: error: {type(exc).__name__}: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
