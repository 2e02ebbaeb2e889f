"""Command line front end.

Scenario options come from an optional JSON config file plus flags; flags
win.  One table, _OPTIONS, declares each option's flag, config keys, type,
default and help; _COMMANDS names the options each subcommand takes, and a
config file is checked whole, against the keys of _OPTIONS, before any work.
Flags must be spelled in full.  Direction flags take "theta,phi" pairs in
radians, or degrees with --degrees (config-file angles are always
radians); a pair may start with a minus sign (--a -0.3,0.2).  mode is read
by correlate and the full provider, postselect by sample and the sampled
provider; a switch the chosen provider would ignore is an error.

Each handler returns its exit code, payload and table, and main writes
them once: the payload to stdout as JSON, then the --output artifact in
JSON or, for the commands _COMMANDS marks as writing a table, CSV (for
the others a CSV artifact is refused before any work).

Exit codes: 0 success, 10 the inequality given to check is violated
(sweep and optimize exit 0 whatever they find), 2 configuration or parse
error, 3 numeric domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import __version__
from .correlations import correlation
from .inequalities import (INEQUALITIES, CorrelationProvider, check, full_provider,
                           lc_provider, sampled_provider)
from .optimize import _check_starts, grid_sweep, multistart_refine
from .sampling import CATEGORIES, photon_emulation, sample_outcomes
from .spins import Direction, SpinQuantum, coherent_state
from .states import CatCoefficients, CatState

__all__ = ["main", "build_parser", "ConfigError"]


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


# Every option once: dest -> (flag, config keys, type, default, help).  The
# type holds for the flag and the config value: int (no true/false in a
# config), float (any number), str, bool (a switch) or a tuple of allowed
# strings.  Options with config keys default to None in argparse, so _pick
# reads the config (the first key unless a call names one), then the default.
_OPTIONS = {
    "config": ("--config", "", str, None, "JSON config file; flags override it"),
    "degrees": ("--degrees", "", bool, False, "direction flags are in degrees"),
    "two_s": ("--two-s", "state.two_s", int, None, "twice the spin (1 for s=1/2)"),
    "alpha": ("--alpha", "state.alpha", float, -math.pi / 4.0,
              "branch mixing angle (default -pi/4)"),
    "gamma1": ("--gamma1", "state.gamma1", float, 0.0, "first branch phase"),
    "gamma2": ("--gamma2", "state.gamma2", float, 0.0, "second branch phase"),
    **{x: (f"--{x}", "", str, None, f"direction {x} as theta,phi") for x in "abcd"},
    "kind": ("--kind", "kind", tuple(INEQUALITIES), None, None),
    "provider": ("--provider", "provider", ("lc", "full", "sampled"), "full", "default full"),
    "mode": ("--mode", "mode", ("raw", "postselected"), "raw", "correlate, provider full"),
    "n": ("--n", "sample.n", int, None, "shots, per pair for the sampled provider"),
    "seed": ("--seed", "sample.seed optimize.seed", int, None,
             "stream seed; for optimize also the starts"),
    "postselect": ("--postselect", "sample.postselect", bool, False,
                   "read by the sampled provider"),
    "photon": ("--photon", "sample.photon", bool, False, "photon-pair estimators (2s=2)"),
    "resolution": ("--resolution", "sweep.resolution optimize.resolution", int, None,
                   "grid points per angle"),
    "starts": ("--starts", "optimize.starts", int, None, "random starts"),
    "max_iter": ("--max-iter", "optimize.max_iter", int, 2000, "default 2000"),
    "tol": ("--tol", "optimize.tol", float, 1e-10, "default 1e-10"),
    "dir": ("--dir", "", str, None, "direction as theta,phi"),
    "sign": ("--sign", "", str, "+", "+ or -"),
    "output": ("--output", "output.path", str, None, "write the result to this path"),
    "format": ("--format", "output.format", ("json", "csv"), "json", "default json"),
}


def _config_spec() -> dict:
    """Every config key and its type: those of _OPTIONS by section, and angles."""
    spec: dict = {"angles": list}
    for _flag, keys, kind, _default, _help in _OPTIONS.values():
        for key in keys.split():
            section, _, name = key.rpartition(".")
            (spec.setdefault(section, {}) if section else spec)[name] = kind
    return spec


_CONFIG = _config_spec()
_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a string", list: "a list of [theta, phi] number pairs"}


def _fits(spec, value) -> bool:
    if isinstance(spec, tuple):
        return value in spec
    if spec is list:
        return isinstance(value, list) and all(
            isinstance(p, list) and len(p) == 2 and all(_fits(float, v) for v in p)
            for p in value
        )
    if isinstance(value, bool):
        return spec is bool
    return isinstance(value, (int, float) if spec is float else spec)


def _check_config(spec: dict, node: dict, prefix: str = "") -> None:
    for key, value in node.items():
        name = prefix + key
        if key not in spec:
            raise ConfigError(f"unknown config key {name!r}")
        want = spec[key]
        if isinstance(want, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            _check_config(want, value, name + ".")
        elif not _fits(want, value):
            what = f"one of {', '.join(want)}" if isinstance(want, tuple) else _EXPECTED[want]
            raise ConfigError(f"config {name} must be {what}, got {value!r}")


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    _check_config(_CONFIG, cfg)
    return cfg


def _pick(args, cfg: dict, dest: str, key: Optional[str] = None, required=None):
    """The value of the dest flag if given, else the config value at key (by
    default the option's first config key), else the option's default.

    Raises ConfigError(required) when that leaves no value and required is set.
    """
    value = getattr(args, dest, None)
    if value is None:
        _flag, keys, _kind, default, _help = _OPTIONS[dest]
        section, _, name = (key or keys.split()[0]).rpartition(".")
        value = (cfg.get(section, {}) if section else cfg).get(name, default)
    if value is None and required:
        raise ConfigError(required)
    return value


def _parse_pair(text: str, degrees: bool) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 'theta,phi', got {text!r}")
    try:
        t, p = (float(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"expected numeric 'theta,phi', got {text!r}") from exc
    if degrees:
        t, p = math.radians(t), math.radians(p)
    return t, p


def _spin_from(args, cfg: dict) -> SpinQuantum:
    return SpinQuantum(_pick(args, cfg, "two_s",
                             required="two_s is required (--two-s or config state.two_s)"))


def _state_from(args, cfg: dict) -> CatState:
    coeffs = CatCoefficients(*(float(_pick(args, cfg, x)) for x in ("alpha", "gamma1", "gamma2")))
    return CatState(_spin_from(args, cfg), coeffs)


def _kind_of(args, cfg: dict) -> str:
    return _pick(args, cfg, "kind", required="inequality kind is required (--kind)")


def _directions_from(args, cfg: dict, count: int) -> tuple[Direction, ...]:
    pairs: list[Optional[tuple[float, float]]] = [None] * count
    for i, pair in enumerate(cfg.get("angles", [])[:count]):
        pairs[i] = (float(pair[0]), float(pair[1]))
    labels = "abcd"
    for i, label in enumerate(labels):
        flag = getattr(args, label, None)
        if flag is not None:
            if i >= count:
                raise ConfigError(f"direction --{label} not used by this command")
            pairs[i] = _parse_pair(flag, args.degrees)
    missing = [labels[i] for i in range(count) if pairs[i] is None]
    if missing:
        raise ConfigError(f"missing directions: {', '.join('--' + m for m in missing)}")
    return tuple(Direction(t, p) for t, p in pairs)  # type: ignore[misc]


def _provider_from(args, cfg: dict, state: CatState) -> CorrelationProvider:
    name = _pick(args, cfg, "provider")
    mode = _pick(args, cfg, "mode")
    if mode == "postselected" and name != "full":
        raise ConfigError(f"provider {name!r} ignores mode {mode!r}; only 'full' reads it")
    if args.postselect and name != "sampled":
        raise ConfigError(f"provider {name!r} ignores --postselect; only 'sampled' reads it")
    if name == "lc":
        return lc_provider(state)
    if name == "full":
        return full_provider(state, mode=mode)
    n = _pick(args, cfg, "n", required="sampled provider requires --n")
    seed = _pick(args, cfg, "seed", required="sampled provider requires an explicit --seed")
    postselect = _pick(args, cfg, "postselect")
    return sampled_provider(state, n, seed, postselect=postselect)


def _csv_line(values) -> str:
    """One CSV line: strings as-is, booleans in lower case, the rest by repr."""
    return ",".join(
        v if isinstance(v, str) else str(v).lower() if isinstance(v, bool) else repr(v)
        for v in values
    )


def _angle_columns(arity: int) -> list[str]:
    return [f"{angle}_{x}" for x in "abcd"[:arity] for angle in ("theta", "phi")]


def _sweep_pieces(fmt: str, kind: str, payload: dict, kept: list):
    """The sweep artifact, one piece per block that grid_sweep gave its sink.

    kept holds the sink's (block, angles) calls in order.  The pieces join
    to the per-row layout: the header, then _csv_line((kind, *row_angles,
    value)) per row; or json.dumps({"result": payload, "rows": [[*row_angles,
    value], ...]}, indent=2).  The text of each grid direction, of each
    combination of the trailing directions and of each distinct value in a
    block is made once.  Values are keyed by their IEEE bits, so 0.0 and
    -0.0 keep their own text; grid angles are finite, so repr is also
    their JSON text.
    """
    import numpy as np

    if fmt == "csv":
        opening = _csv_line(["kind", *_angle_columns(INEQUALITIES[kind].arity), "value"]) + "\n"
        lead, sep, tail, between, closing = kind + ",", ",", "", "\n", "\n"
    else:
        opening = json.dumps({"result": payload, "rows": []}, indent=2)[:-len("[]\n}")] + "[\n"
        lead, sep, tail = "    [\n      ", ",\n      ", "\n    ]"
        between, closing = ",\n", "\n  ]\n}\n"
    directions = [sep.join(map(repr, pair)) for pair in kept[0][1]]
    # the text of the trailing directions of each row, one per block axis
    rest = [sep + sep.join(dirs) + sep
            for dirs in itertools.product(directions, repeat=kept[0][0].ndim)]
    yield opening
    for ia, (block, _) in enumerate(kept):
        bits, which = np.unique(block.ravel().view(np.int64), return_inverse=True)
        values = [(repr(v) if fmt == "csv" or math.isfinite(v) else json.dumps(v)) + tail
                  for v in bits.view(np.float64).tolist()]
        # Row k is parts[3k:3k+3]: separator and lead, the trailing
        # directions, the value (the file's first row has no separator).
        # The block's text is one join of existing strings, none per row.
        parts = [between + lead + directions[ia]] * (3 * len(rest))
        parts[0] = parts[0] if ia else parts[0][len(between):]
        parts[1::3] = rest
        parts[2::3] = map(values.__getitem__, which.tolist())
        yield "".join(parts)
    yield closing


def _emit(args, cfg: dict, payload, table) -> None:
    """Write a command's result: payload to stdout, then the --output artifact.

    payload prints as JSON, or as plain text when it is a string (version).
    table says what the artifact is: None, payload's JSON (main refuses a
    CSV artifact for these commands before any work); a (header, rows)
    pair, whose CSV artifact is the header line then one line per row; or
    a function of the format that gives the artifact piece by piece.
    """
    if isinstance(payload, str):
        print(payload)
        return
    # a few thousand chunks per write: with python -u each write is a system call
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    sys.stdout.writelines(iter(lambda: "".join(itertools.islice(chunks, 4096)), ""))
    print()
    path = _pick(args, cfg, "output")
    if not path:
        return
    fmt = _pick(args, cfg, "format")
    with open(path, "w", encoding="utf-8") as fh:
        if callable(table):
            fh.writelines(table(fmt))
        elif fmt == "csv":
            header, rows = table
            fh.writelines(_csv_line(row) + "\n" for row in (header, *rows))
        else:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _cmd_correlate(args, cfg: dict) -> tuple:
    state = _state_from(args, cfg)
    a, b = _directions_from(args, cfg, 2)
    mode = _pick(args, cfg, "mode")
    payload = correlation(state, a, b, mode=mode).to_dict()
    return 0, payload, (list(payload), [payload.values()])


def _cmd_check(args, cfg: dict) -> tuple:
    state = _state_from(args, cfg)
    kind = _kind_of(args, cfg)
    dirs = _directions_from(args, cfg, INEQUALITIES[kind].arity)
    provider = _provider_from(args, cfg, state)
    report = check(provider, kind, *dirs)
    payload = {**report.to_dict(), "provenance": provider.provenance}
    angles = [v for d in report.config for v in (d.theta, d.phi)]
    header = ["kind", *_angle_columns(len(dirs)), "lhs", "rhs", "margin", "violated"]
    rows = [(report.kind, *angles, report.lhs, report.rhs, report.margin, report.violated)]
    return 10 if report.violated else 0, payload, (header, rows)


def _cmd_sweep(args, cfg: dict) -> tuple:
    state = _state_from(args, cfg)
    kind = _kind_of(args, cfg)
    resolution = _pick(args, cfg, "resolution", required="sweep requires --resolution")
    provider = _provider_from(args, cfg, state)
    kept: list = []
    path = _pick(args, cfg, "output")
    result = grid_sweep(provider, kind, resolution,
                        sink=(lambda *block_angles: kept.append(block_angles)) if path else None)
    payload = {**result.to_dict(), "provenance": provider.provenance}
    return 0, payload, lambda fmt: _sweep_pieces(fmt, kind, payload, kept)


def _cmd_optimize(args, cfg: dict) -> tuple:
    state = _state_from(args, cfg)
    kind = _kind_of(args, cfg)
    starts = _pick(args, cfg, "starts", required="optimize requires --starts")
    seed = _pick(args, cfg, "seed", "optimize.seed",
                 required="optimize requires an explicit --seed")
    max_iter = _pick(args, cfg, "max_iter")
    tol = float(_pick(args, cfg, "tol"))
    resolution = _pick(args, cfg, "resolution", "optimize.resolution")
    provider = _provider_from(args, cfg, state)
    # the sweep's winner is one more start: refuse bad search arguments before sweeping
    _check_starts(starts, resolution is not None, seed, max_iter, tol)
    extra = () if resolution is None else (grid_sweep(provider, kind, resolution).best_config,)
    result = multistart_refine(provider, kind, starts, seed, max_iter=max_iter, tol=tol,
                               extra_starts=extra)
    return 0, {**result.to_dict(), "provenance": provider.provenance}, None


def _cmd_sample(args, cfg: dict) -> tuple:
    state = _state_from(args, cfg)
    a, b = _directions_from(args, cfg, 2)
    n = _pick(args, cfg, "n", required="sample requires --n")
    seed = _pick(args, cfg, "seed", required="sample requires an explicit --seed")
    postselect = _pick(args, cfg, "postselect")
    if _pick(args, cfg, "photon"):
        if postselect:
            raise ConfigError("--photon ignores postselect; the photon emulation draws raw")
        record = photon_emulation(state, a, b, n, seed)
        payload, stats = record.to_dict(), record.stats
    else:
        stats = sample_outcomes(state, a, b, n, seed, postselect=postselect)
        payload = stats.to_dict()
    header = ["theta_a", "phi_a", "theta_b", "phi_b", "n", "count_pp", "count_pm",
              "count_mp", "count_mm", "count_inconclusive", "estimate", "stderr", "seed"]
    rows = [(a.theta, a.phi, b.theta, b.phi, stats.n_total,
             *(stats.counts[c] for c in CATEGORIES), stats.estimate, stats.stderr, stats.seed)]
    return 0, payload, (header, rows)


def _cmd_coherent(args, cfg: dict) -> tuple:
    s = _spin_from(args, cfg)
    if args.dir is None:
        raise ConfigError("coherent requires --dir theta,phi")
    t, p = _parse_pair(args.dir, args.degrees)
    sign = {"+": +1, "+1": +1, "1": +1, "-": -1, "-1": -1}.get(args.sign)
    if sign is None:
        raise ConfigError(f"sign must be '+' or '-', got {args.sign!r}")
    d = Direction(t, p)
    ket = coherent_state(s, d, sign)
    return 0, {
        "two_s": s.two_s,
        "direction": {"theta": d.theta, "phi": d.phi},
        "sign": sign,
        "m_values": [float(m) for m in s.m_values()],
        "amplitudes": [[z.real, z.imag] for z in ket.amps],
    }, None


def _cmd_version(_args, _cfg: dict) -> tuple:
    return 0, __version__, None


_SCENARIO = "config degrees two_s alpha gamma1 gamma2 "
_PROVIDER = "kind provider mode n seed postselect "

# command -> (handler, help, the _OPTIONS it takes, whether it writes a table);
# a handler returns (exit code, payload, table) for main to pass to _emit.
_COMMANDS = {
    "correlate": (_cmd_correlate, "correlation breakdown for two axes",
                  _SCENARIO + "a b mode output format", True),
    "check": (_cmd_check, "evaluate one inequality at given axes",
              _SCENARIO + "a b c d " + _PROVIDER + "output format", True),
    "sweep": (_cmd_sweep, "grid sweep for the largest violation",
              _SCENARIO + _PROVIDER + "resolution output format", True),
    "optimize": (_cmd_optimize, "multistart simplex refinement",
                 _SCENARIO + _PROVIDER + "starts max_iter tol resolution output format", False),
    "sample": (_cmd_sample, "Monte Carlo outcome sampling",
               _SCENARIO + "a b n seed postselect photon output format", True),
    "coherent": (_cmd_coherent, "coherent-state amplitudes",
                 "config degrees two_s dir sign output format", False),
    "version": (_cmd_version, "print the package version", "", False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcat", allow_abbrev=False,
        description="Bell-type inequality laboratory for bipartite spin-s cat states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, summary, dests, _table) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for dest in dests.split():
            flag, keys, kind, default, help_text = _OPTIONS[dest]
            typed = ({"action": "store_true"} if kind is bool
                     else {"choices": kind} if isinstance(kind, tuple)
                     else {} if kind is str else {"type": kind})
            p.add_argument(flag, dest=dest, default=None if keys else default,
                           help=help_text, **typed)
    return parser


_DIRECTION_FLAGS = {_OPTIONS[dest][0] for dest in ("a", "b", "c", "d", "dir")}


def _join_directions(argv: list[str]) -> list[str]:
    """argv with each direction flag joined to a following value that starts
    with a single minus sign ("--a", "-0.3,0.2" -> "--a=-0.3,0.2"), which
    argparse would otherwise take for an option."""
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1] in _DIRECTION_FLAGS
                and token.startswith("-") and not token.startswith("--")):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_directions(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _load_config(getattr(args, "config", None))
        handler, _summary, _dests, tabular = _COMMANDS[args.command]
        if not tabular and _pick(args, cfg, "output") and _pick(args, cfg, "format") == "csv":
            raise ConfigError(f"{args.command} artifacts support only --format json")
        code, payload, table = handler(args, cfg)
        _emit(args, cfg, payload, table)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
