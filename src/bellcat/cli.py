"""Command line front end.

Scenario options come from an optional JSON config file plus flags; flags
win.  Direction flags take "theta,phi" pairs in radians, or degrees with
--degrees (config-file angles are always radians).  Results print to
stdout as JSON; --output writes an artifact in JSON or CSV.

Exit codes: 0 success, 10 the inequality given to check is violated
(sweep and optimize exit 0 whatever they find), 2 configuration or parse
error, 3 numeric domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import __version__
from .correlations import CorrelationBreakdown, correlation
from .inequalities import (INEQUALITIES, CorrelationProvider, check, full_provider,
                           lc_provider, sampled_provider)
from .optimize import AngleConfig, grid_sweep, multistart_refine
from .sampling import photon_emulation, sample_outcomes
from .spins import Direction, SpinQuantum, coherent_state
from .states import CatCoefficients, CatState

__all__ = ["main", "build_parser", "ConfigError"]


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


_TOP_KEYS = {"state", "provider", "mode", "kind", "angles", "sweep", "optimize",
             "sample", "output"}
_INT, _FLOAT = (int,), (int, float)
# Config keys per section: the JSON types a numeric key accepts, else None.
_SECTION_KEYS = {
    "state": {"two_s": _INT, "alpha": _FLOAT, "gamma1": _FLOAT, "gamma2": _FLOAT},
    "sweep": {"resolution": _INT},
    "optimize": {"starts": _INT, "seed": _INT, "max_iter": _INT, "tol": _FLOAT,
                 "resolution": _INT},
    "sample": {"n": _INT, "seed": _INT, "postselect": None, "photon": None},
    "output": {"path": None, "format": None},
}


def _is_number(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section, allowed in _SECTION_KEYS.items():
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"config section {section!r} must be an object")
            bad = set(cfg[section]) - set(allowed)
            if bad:
                raise ConfigError(f"unknown keys in {section!r}: {sorted(bad)}")
            for key, value in cfg[section].items():
                types = allowed[key]
                if types is not None and not _is_number(value, types):
                    what = "an integer" if types is _INT else "a number"
                    raise ConfigError(f"config {section}.{key} must be {what}, got {value!r}")
    if "angles" in cfg:
        angles = cfg["angles"]
        ok = isinstance(angles, list) and all(
            isinstance(p, list) and len(p) == 2 and all(_is_number(v, _FLOAT) for v in p)
            for p in angles
        )
        if not ok:
            raise ConfigError("config 'angles' must be a list of [theta, phi] pairs")
    return cfg


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


def _pick(flag, cfg: dict, *keys, default=None):
    """Flag value if set, else the nested config value, else default."""
    if flag is not None:
        return flag
    node = cfg
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def _spin_from(args, cfg: dict) -> SpinQuantum:
    two_s = _pick(args.two_s, cfg, "state", "two_s")
    if two_s is None:
        raise ConfigError("two_s is required (flag --two-s or config state.two_s)")
    return SpinQuantum(two_s)


def _state_from(args, cfg: dict) -> CatState:
    alpha = _pick(args.alpha, cfg, "state", "alpha", default=-math.pi / 4.0)
    gamma1 = _pick(args.gamma1, cfg, "state", "gamma1", default=0.0)
    gamma2 = _pick(args.gamma2, cfg, "state", "gamma2", default=0.0)
    coeffs = CatCoefficients(float(alpha), float(gamma1), float(gamma2))
    return CatState(_spin_from(args, cfg), coeffs)


def _directions_from(args, cfg: dict, count: int) -> tuple[Direction, ...]:
    pairs: list[Optional[tuple[float, float]]] = [None] * count
    cfg_angles = cfg.get("angles")
    if cfg_angles:
        for i, pair in enumerate(cfg_angles[:count]):
            pairs[i] = (float(pair[0]), float(pair[1]))
    labels = ["a", "b", "c", "d"]
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


def _mode_from(args, cfg: dict) -> str:
    mode = _pick(getattr(args, "mode", None), cfg, "mode", default="raw")
    if mode not in ("raw", "postselected"):
        raise ConfigError(f"mode must be 'raw' or 'postselected', got {mode!r}")
    return mode


def _provider_from(args, cfg: dict, state: CatState) -> CorrelationProvider:
    name = _pick(getattr(args, "provider", None), cfg, "provider", default="full")
    if name == "lc":
        return lc_provider(state)
    if name == "full":
        return full_provider(state, mode=_mode_from(args, cfg))
    if name == "sampled":
        n = _pick(getattr(args, "n", None), cfg, "sample", "n")
        seed = _pick(getattr(args, "seed", None), cfg, "sample", "seed")
        if n is None:
            raise ConfigError("sampled provider requires --n")
        if seed is None:
            raise ConfigError("sampled provider requires an explicit --seed")
        postselect = bool(
            _pick(getattr(args, "postselect", None) or None, cfg,
                  "sample", "postselect", default=False)
        )
        return sampled_provider(state, n, seed, postselect=postselect)
    raise ConfigError(f"provider must be 'lc', 'full' or 'sampled', got {name!r}")


def _output_target(args, cfg: dict) -> tuple[Optional[str], str]:
    path = _pick(getattr(args, "output", None), cfg, "output", "path")
    fmt = _pick(getattr(args, "format", None), cfg, "output", "format", default="json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
    return path, fmt


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _kind_from(args, cfg: dict) -> str:
    kind = _pick(getattr(args, "kind", None), cfg, "kind")
    if kind is None:
        raise ConfigError("inequality kind is required (--kind)")
    if kind not in INEQUALITIES:
        raise ConfigError(f"kind must be one of {', '.join(INEQUALITIES)}, got {kind!r}")
    return kind


def _cmd_correlate(args, cfg: dict) -> int:
    state = _state_from(args, cfg)
    a, b = _directions_from(args, cfg, 2)
    result = correlation(state, a, b, mode=_mode_from(args, cfg))
    payload = result.to_dict()
    _print_json(payload)
    path, fmt = _output_target(args, cfg)
    if path:
        if fmt == "json":
            _write_text(path, json.dumps(payload, indent=2) + "\n")
        else:
            header = "p_total,p_lc,p_nlc,postselect_weight,mode"
            row = ",".join(
                [repr(result.p_total), repr(result.p_lc), repr(result.p_nlc),
                 repr(result.postselect_weight), result.mode]
            )
            _write_text(path, header + "\n" + row + "\n")
    return 0


def _cmd_check(args, cfg: dict) -> int:
    state = _state_from(args, cfg)
    kind = _kind_from(args, cfg)
    dirs = _directions_from(args, cfg, INEQUALITIES[kind].arity)
    provider = _provider_from(args, cfg, state)
    report = check(provider, kind, *dirs)
    payload = report.to_dict()
    payload["provenance"] = provider.provenance
    _print_json(payload)
    path, fmt = _output_target(args, cfg)
    if path:
        if fmt == "json":
            _write_text(path, json.dumps(payload, indent=2) + "\n")
        else:
            _write_text(path, report.csv_header() + "\n" + report.csv_row() + "\n")
    return 10 if report.violated else 0


def _cmd_sweep(args, cfg: dict) -> int:
    state = _state_from(args, cfg)
    kind = _kind_from(args, cfg)
    resolution = _pick(args.resolution, cfg, "sweep", "resolution")
    if resolution is None:
        raise ConfigError("sweep requires --resolution")
    provider = _provider_from(args, cfg, state)
    path, fmt = _output_target(args, cfg)

    labels = "abcd"[:INEQUALITIES[kind].arity]
    header = (
        "kind," + ",".join(f"theta_{x},phi_{x}" for x in labels) + ",value"
    )
    rows: list[tuple[tuple[float, ...], float]] = []
    sink = (lambda ang, val: rows.append((ang, val))) if path else None
    result = grid_sweep(provider, kind, resolution, sink=sink)
    payload = result.to_dict()
    payload["provenance"] = provider.provenance
    _print_json(payload)
    if path:
        if fmt == "csv":
            lines = [header]
            lines.extend(
                kind + "," + ",".join(repr(v) for v in ang) + "," + repr(val)
                for ang, val in rows
            )
            _write_text(path, "\n".join(lines) + "\n")
        else:
            _write_text(
                path,
                json.dumps(
                    {"result": payload,
                     "rows": [[*ang, val] for ang, val in rows]},
                    indent=2,
                ) + "\n",
            )
    return 0


def _cmd_optimize(args, cfg: dict) -> int:
    state = _state_from(args, cfg)
    kind = _kind_from(args, cfg)
    starts = _pick(args.starts, cfg, "optimize", "starts")
    seed = _pick(args.seed, cfg, "optimize", "seed")
    if starts is None:
        raise ConfigError("optimize requires --starts")
    if seed is None:
        raise ConfigError("optimize requires an explicit --seed")
    max_iter = _pick(args.max_iter, cfg, "optimize", "max_iter", default=2000)
    tol = float(_pick(args.tol, cfg, "optimize", "tol", default=1e-10))
    resolution = _pick(args.resolution, cfg, "optimize", "resolution")
    provider = _provider_from(args, cfg, state)
    extra: tuple[AngleConfig, ...] = ()
    if resolution is not None:
        extra = (grid_sweep(provider, kind, resolution).best_config,)
    result = multistart_refine(
        provider, kind, starts, seed, max_iter=max_iter, tol=tol,
        extra_starts=extra,
    )
    payload = result.to_dict()
    payload["provenance"] = provider.provenance
    _print_json(payload)
    path, fmt = _output_target(args, cfg)
    if path:
        if fmt != "json":
            raise ConfigError("optimize artifacts support only --format json")
        _write_text(path, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_sample(args, cfg: dict) -> int:
    state = _state_from(args, cfg)
    a, b = _directions_from(args, cfg, 2)
    n = _pick(args.n, cfg, "sample", "n")
    seed = _pick(args.seed, cfg, "sample", "seed")
    if n is None:
        raise ConfigError("sample requires --n")
    if seed is None:
        raise ConfigError("sample requires an explicit --seed")
    postselect = bool(
        _pick(args.postselect or None, cfg, "sample", "postselect", default=False)
    )
    photon = bool(_pick(args.photon or None, cfg, "sample", "photon", default=False))
    if photon:
        record = photon_emulation(state, a, b, n, seed)
        payload = record.to_dict()
        stats = record.stats
    else:
        stats = sample_outcomes(state, a, b, n, seed, postselect=postselect)
        payload = stats.to_dict()
    _print_json(payload)
    path, fmt = _output_target(args, cfg)
    if path:
        if fmt == "json":
            _write_text(path, json.dumps(payload, indent=2) + "\n")
        else:
            header = (
                "theta_a,phi_a,theta_b,phi_b,n,count_pp,count_pm,count_mp,"
                "count_mm,count_inconclusive,estimate,stderr,seed"
            )
            c = stats.counts
            row = ",".join(
                [repr(a.theta), repr(a.phi), repr(b.theta), repr(b.phi),
                 str(stats.n_total), str(c["++"]), str(c["+-"]), str(c["-+"]),
                 str(c["--"]), str(c["inconclusive"]), repr(stats.estimate),
                 repr(stats.stderr), str(stats.seed)]
            )
            _write_text(path, header + "\n" + row + "\n")
    return 0


def _cmd_coherent(args, cfg: dict) -> int:
    s = _spin_from(args, cfg)
    if args.dir is None:
        raise ConfigError("coherent requires --dir theta,phi")
    t, p = _parse_pair(args.dir, args.degrees)
    sign_text = args.sign
    if sign_text in ("+", "+1", "1"):
        sign = +1
    elif sign_text in ("-", "-1"):
        sign = -1
    else:
        raise ConfigError(f"sign must be '+' or '-', got {sign_text!r}")
    d = Direction(t, p)
    ket = coherent_state(s, d, sign)
    payload = {
        "two_s": s.two_s,
        "direction": {"theta": d.theta, "phi": d.phi},
        "sign": sign,
        "m_values": [float(m) for m in s.m_values()],
        "amplitudes": [[z.real, z.imag] for z in ket.amps],
    }
    _print_json(payload)
    path, fmt = _output_target(args, cfg)
    if path:
        if fmt != "json":
            raise ConfigError("coherent artifacts support only --format json")
        _write_text(path, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_version(_args, _cfg: dict) -> int:
    print(__version__)
    return 0


def _add_common(sub: argparse.ArgumentParser, *, state: bool = True,
                dirs: int = 0) -> None:
    """Shared flags; state=False keeps --two-s but drops the cat coefficients."""
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--degrees", action="store_true",
                     help="interpret direction flags in degrees")
    sub.add_argument("--two-s", dest="two_s", type=int,
                     help="twice the spin quantum number (1 for s=1/2)")
    if state:
        sub.add_argument("--alpha", type=float,
                         help="branch mixing angle (default -pi/4)")
        sub.add_argument("--gamma1", type=float, help="first branch phase")
        sub.add_argument("--gamma2", type=float, help="second branch phase")
    for label in "abcd"[:dirs]:
        sub.add_argument(f"--{label}", help=f"direction {label} as theta,phi")
    sub.add_argument("--output", help="write the result to this path")
    sub.add_argument("--format", choices=["json", "csv"],
                     help="artifact format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcat",
        description="Bell-type inequality laboratory for bipartite spin-s cat states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="correlation breakdown for two axes")
    _add_common(p, dirs=2)
    p.add_argument("--mode", choices=["raw", "postselected"])

    p = sub.add_parser("check", help="evaluate one inequality at given axes")
    _add_common(p, dirs=4)
    p.add_argument("--kind", choices=list(INEQUALITIES))
    p.add_argument("--provider", choices=["lc", "full", "sampled"])
    p.add_argument("--mode", choices=["raw", "postselected"])
    p.add_argument("--n", type=int, help="draws per pair (sampled provider)")
    p.add_argument("--seed", type=int, help="stream seed (sampled provider)")
    p.add_argument("--postselect", action="store_true")

    p = sub.add_parser("sweep", help="grid sweep for the largest violation")
    _add_common(p)
    p.add_argument("--kind", choices=list(INEQUALITIES))
    p.add_argument("--provider", choices=["lc", "full", "sampled"])
    p.add_argument("--mode", choices=["raw", "postselected"])
    p.add_argument("--resolution", type=int)
    p.add_argument("--n", type=int, help="draws per pair (sampled provider)")
    p.add_argument("--seed", type=int, help="stream seed (sampled provider)")
    p.add_argument("--postselect", action="store_true")

    p = sub.add_parser("optimize", help="multistart simplex refinement")
    _add_common(p)
    p.add_argument("--kind", choices=list(INEQUALITIES))
    p.add_argument("--provider", choices=["lc", "full", "sampled"])
    p.add_argument("--mode", choices=["raw", "postselected"])
    p.add_argument("--starts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--resolution", type=int,
                   help="also seed one start from a grid sweep at this resolution")
    p.add_argument("--n", type=int, help="draws per pair (sampled provider)")
    p.add_argument("--postselect", action="store_true")

    p = sub.add_parser("sample", help="Monte Carlo outcome sampling")
    _add_common(p, dirs=2)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--postselect", action="store_true")
    p.add_argument("--photon", action="store_true",
                   help="report photon-pair estimators (spin 1 only)")

    p = sub.add_parser("coherent", help="coherent-state amplitudes")
    _add_common(p, state=False)
    p.add_argument("--dir", help="direction as theta,phi")
    p.add_argument("--sign", default="+", help="+ or -")

    sub.add_parser("version", help="print the package version")

    return parser


_COMMANDS = {
    "correlate": _cmd_correlate,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "sample": _cmd_sample,
    "coherent": _cmd_coherent,
    "version": _cmd_version,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        cfg = _load_config(getattr(args, "config", None))
        return _COMMANDS[args.command](args, cfg)
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
