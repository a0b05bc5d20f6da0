"""Command-line front end.

Subcommands: measures, scan, surface, path, sample, bell.  Options can also
come from a ``key = value`` file given by ``--config PATH`` or
``--config=PATH`` ('#' starts a comment).  A key is an option name without
its dashes, with '_' or '-' between words (``summary_json``); a one-letter
key is the short flag (``n = 5`` is ``-n 5``), and a repeated key is a
repeated flag (one ``axis = ...`` line per axis).  Values are checked like
flags, required options included, and flags on the command line win.
The CLI only parses; each range rule of a value belongs to the library function
that uses it.  Exit codes: 0 success; 1 numeric failure or a state file that
cannot be read or is not a state (``qcore``'s state-file format); 2: a usage
error, raised by the parser or by the library's ``UsageError``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .bell import MK_RESTARTS_DEFAULT, mk_optimize
from .monogamy import SEARCH_RESTARTS_DEFAULT, delta_d
from .qcore import UsageError, load_state
from .scan import (
    MK_MODES,
    SAMPLE_EPSILON_DEFAULT,
    SCAN_MK_RESTARTS_DEFAULT,
    XTOL_DEFAULT,
    ZERO_BAND_DEFAULT,
    grid_scan,
    path_trace,
    sample_experiment,
    surface_zero,
    write_csv,
)
from .states import FAMILY_PARAMS


def parse_config_file(path: str) -> list[tuple[str, str]]:
    """The (key, value) pairs of a ``key = value`` file in file order; a key may repeat
    (``axis`` once per axis)."""
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            out.append((key, value))
    return out


def _axis_values(spec: str) -> np.ndarray:
    """Parse 'start:stop:count' (inclusive linspace) or a single value."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(f"axis spec {spec!r} is not 'value' or 'start:stop:count'")
    try:
        ends = [float(p) for p in parts[:2]]
        count = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise UsageError(
            f"axis spec {spec!r} needs numbers for value, start and stop and an integer count"
        ) from None
    if not all(map(math.isfinite, ends)):
        raise UsageError(f"axis spec {spec!r} has a value that is not finite")
    if count < 1:
        raise UsageError(f"axis count must be >= 1 in {spec!r}")
    return np.linspace(ends[0], ends[-1], count)


def _float_fmt(x) -> str:
    return "" if x is None else f"{x:.9g}"


def _write_or_print(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_measures(ns) -> int:
    state = load_state(ns.state)
    report = delta_d(state, ns.nodal, seed=ns.seed, restarts=ns.restarts)
    _write_or_print(report.to_json(), ns.output)
    return 0


def _cmd_scan(ns) -> int:
    malformed = [kv for kv in ns.axis if "=" not in kv]
    if malformed:
        raise UsageError(f"--axis {malformed[0]!r} is not NAME=SPEC")
    specs = dict(kv.split("=", 1) for kv in ns.axis)  # a repeated axis: the last one wins
    axes = [(n, _axis_values(spec)) for n, spec in specs.items()]
    table = grid_scan(
        ns.family, axes, epsilon=ns.epsilon, mk_mode=ns.mk,
        mk_restarts=ns.restarts, seed=ns.seed,
    )
    write_csv(table, ns.output)
    print(f"wrote {len(table)} records to {ns.output}")
    return 0


def _cmd_surface(ns) -> int:
    table = surface_zero(_axis_values(ns.theta), _axis_values(ns.kappa), xtol=ns.xtol)
    write_csv(table, ns.output)
    print(f"wrote {len(table)} surface points to {ns.output}")
    return 0


def _cmd_path(ns) -> int:
    table = path_trace(
        ns.id, ns.resolution, epsilon=ns.epsilon, mk_mode=ns.mk,
        mk_restarts=ns.restarts, seed=ns.seed,
    )
    write_csv(table, ns.output)
    flips = np.count_nonzero(table.delta_d[:-1] * table.delta_d[1:] < 0)
    print(f"wrote {len(table)} records to {ns.output}; delta_D sign changes: {flips}")
    return 0


def _cmd_sample(ns) -> int:
    summary = sample_experiment(ns.n, ns.seed, epsilon=ns.epsilon, per_sample_path=ns.output)
    print(
        f"n={summary.n} seed={summary.seed} epsilon={summary.epsilon:g} "
        f"band_count={summary.band_count} "
        f"max_ggm_in_band={_float_fmt(summary.max_ggm_in_band) or 'n/a'} "
        f"max_ggm_overall={_float_fmt(summary.max_ggm_overall)}"
    )
    if ns.summary_json:
        with open(ns.summary_json, "w") as fh:  # one write; asdict would deep-copy the histograms
            fh.write(json.dumps({f.name: getattr(summary, f.name) for f in fields(summary)}, indent=1))
    return 0


def _cmd_bell(ns) -> int:
    state = load_state(ns.state)
    value, settings = mk_optimize(state, restarts=ns.restarts, seed=ns.seed)
    data = {
        "mk_value": value,
        "violates": bool(abs(value) > 1.0),
        "settings_a": [list(map(float, v)) for v in settings.a],
        "settings_a_prime": [list(map(float, v)) for v in settings.a_prime],
    }
    _write_or_print(json.dumps(data, indent=1), ns.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmono",
        description="Quantum-correlation monogamy scores for tripartite states",
    )
    parser.add_argument("--version", action="version", version=f"qmono {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=True, restarts=None, restarts_help="random MK see-saw starts"):
        p.add_argument("--config", metavar="PATH", help="'key = value' lines, key an option name "
                       "without dashes ('n' for -n); checked like flags, and flags win")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (determinism contract)")
        if restarts is not None:
            p.add_argument("--restarts", type=int, default=restarts, help=restarts_help)

    p = sub.add_parser("measures", help="monogamy report for one state file")
    p.add_argument("--state", required=True, help="JSON state file")
    p.add_argument("--nodal", default="A", help="nodal observer label; a mixed state's other two "
                   "parties are measured together, in dimension 4 at most, so a mixed [3,2,2] "
                   "state has a report at A only")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    common(p, restarts=SEARCH_RESTARTS_DEFAULT, restarts_help="random starts of the U(d) search on a "
           "measured qutrit or qubit pair; pure three-qubit and rank <= 2 three-qubit inputs use closed forms")
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser("scan", help="grid sweep of a state family")
    p.add_argument("--family", required=True, choices=sorted(FAMILY_PARAMS))
    p.add_argument(
        "--axis", action="append", default=[], metavar="NAME=START:STOP:COUNT",
        help="one per family parameter; single values allowed",
    )
    p.add_argument("--epsilon", type=float, default=ZERO_BAND_DEFAULT, help="zero-band half width")
    p.add_argument("--mk", choices=MK_MODES, default=None)
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    common(p, restarts=SCAN_MK_RESTARTS_DEFAULT)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("surface", help="delta_D = 0 surface of the symmetric family")
    p.add_argument("--theta", required=True, metavar="START:STOP:COUNT")
    p.add_argument("--kappa", required=True, metavar="START:STOP:COUNT")
    p.add_argument("--xtol", type=float, default=XTOL_DEFAULT, help="bisection width in alpha")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    common(p, seed=False)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("path", help="trace one interpolation path")
    p.add_argument("--id", required=True, choices=["ghz", "w-ghz"])
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--epsilon", type=float, default=ZERO_BAND_DEFAULT)
    p.add_argument("--mk", choices=["optimize", "skip"], default="skip",
                   help="MK value per point by see-saw search; default skip")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    common(p, restarts=SCAN_MK_RESTARTS_DEFAULT)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("sample", help="Haar-random sampling experiment")
    p.add_argument("-n", type=int, required=True, help="number of samples")
    p.add_argument("--epsilon", type=float, default=SAMPLE_EPSILON_DEFAULT, help="zero-band half width")
    p.add_argument("-o", "--output", help="per-sample CSV path")
    p.add_argument("--summary-json", help="write the summary as JSON here")
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bell", help="optimized MK value for one state file")
    p.add_argument("--state", required=True, help="JSON state file")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    common(p, restarts=MK_RESTARTS_DEFAULT)
    p.set_defaults(func=_cmd_bell)

    return parser


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    return pre


def _with_config_flags(argv: list[str]) -> list[str]:
    """argv with each ``key = value`` line of the ``--config`` file, in file order, as a
    ``--key=value`` token right after the subcommand, so argparse checks it like a flag,
    a repeated key appends like a repeated flag, and any command-line flag, parsed
    later, wins."""
    try:
        path = _config_parser().parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # '--config' without a path: the full parser words it
        return argv
    if path is None:
        return argv
    try:
        pairs = parse_config_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    tokens = []
    for key, value in pairs:
        if key in ("help", "config"):
            raise UsageError(f"config key {key!r} is not an option")
        dashes = "-" if len(key) == 1 else "--"
        tokens.append(f"{dashes}{key.replace('_', '-')}={value}")
    i = next((i for i, arg in enumerate(argv) if not arg.startswith("-")), len(argv))
    return argv[: i + 1] + tokens + argv[i + 1 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = build_parser().parse_args(_with_config_flags(argv))
        return ns.func(ns)
    except SystemExit as exc:  # argparse --help/--version or usage error
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"qmono: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
