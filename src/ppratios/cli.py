"""Experiment runner: declarative config in, deterministic CSV/JSON out.

Subcommands: ``simulate | laws | verify | estimate | classify``.  Each takes
only the options it reads (``_SUBCOMMANDS``), as flags or as keys of an
optional flat ``key=value`` config file; a key it does not take, or a value
its flag would reject, is a config error, and so is an option that the
chosen verify target (``_TARGETS``) or law (``_LAWS``) does not read, or a
required one left unset.  Flags win over the file (a flag that changes a
value warns on the diagnostic stream).  Identical arguments and seed
produce byte-identical artifacts: floats are written with shortest
round-trip precision, JSON keys are sorted, and nothing wall-clock
dependent enters the outputs.

Exit codes: 0 success, 1 a verify experiment failed its threshold,
2 config, domain, file-system (``io``) or out-of-memory (``memory``)
errors.  Errors end with one machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import limit_laws as ll
from . import samplers as sp
from . import tail_models as tm
from . import verify as vf
from .tail_models import InversionError, TailModel

#: Fixed default master seed; never wall-clock derived.
DEFAULT_SEED = 20240613

#: CSV rows formatted and written per block; bounds the text held at once.
_BLOCK = 1 << 12

_TAIL = ("tail", "alpha", "beta", "c", "gamma")

#: Verify target -> (the options it reads besides those of every target
#: (``_PICKS``), its check on the merged config and trials/seed/threads).
_TARGETS = {
    **{target: (_TAIL + ("r", "n", "t", "t_grid"),
                lambda cfg, run, target=target: vf.convergence_sweep(
                    _tail_from(cfg), cfg["r"], cfg["n"], _t_grid_from(cfg),
                    target=target, **run))
       for target in sorted(vf.SWEEP_TARGETS)},
    "independence": (_TAIL + ("t", "r", "n"), lambda cfg, run: vf.independence_check(
        _tail_from(cfg), cfg["t"], cfg["r"], cfg["n"], **run)),
    "identities": (("alpha", "r", "n"), lambda cfg, run: vf.identity_checks(
        cfg["alpha"], cfg["r"], cfg["n"], **run)),
    "nb_functional": (("alpha", "n", "epsilon", "method", "probe_form",
                       "probe_amplitude", "probe_a", "probe_b"),
                      lambda cfg, run: vf.nb_functional_check(
                          cfg["n"], cfg["alpha"], ll.LaplaceProbe(
                              cfg["probe_amplitude"], cfg["probe_a"], cfg["probe_b"],
                              cfg["probe_form"]),
                          cfg["epsilon"], method=cfg["method"], **run)),
    "z_insensitivity": (_TAIL + ("t", "r", "n"),
                        lambda cfg, run: vf.z_insensitivity_check(
                            _tail_from(cfg), cfg["t"], cfg["r"], cfg["n"], **run)),
    "conditional_gamma": (_TAIL + ("t", "r", "n", "w", "half_width"),
                          lambda cfg, run: vf.conditional_gamma_check(
                              _tail_from(cfg), cfg["t"], cfg["r"], cfg["n"], cfg["w"],
                              cfg["half_width"], **run)),
}

#: Law -> (the options it reads besides ``law`` and ``grid``, its
#: ``(density, cdf)`` on the merged config and the grid; density is "" where
#: the law has none).
_LAWS = {
    "w": (("alpha", "r", "n"), lambda cfg, x: ll.w_law(cfg["r"], cfg["n"], cfg["alpha"], x)),
    "j": (("alpha", "u"), lambda cfg, x: ll.j_law(cfg["u"], cfg["alpha"], x)),
    "l": (("alpha",), lambda cfg, x: ll.l_law(cfg["alpha"], x)),
    "k_orderstat": (("alpha", "r", "n"), lambda cfg, x: (
        "", ll.k_orderstat_cdf(cfg["r"], cfg["n"], cfg["alpha"], x))),
    "successive": (("alpha", "r"), lambda cfg, x: (
        "", ll.successive_ratio_cdf(cfg["r"], cfg["alpha"], x))),
    "ratio_tail": (("alpha", "r"), lambda cfg, x: (
        "", 1.0 - ll.ratio_tail_n1(cfg["r"], cfg["alpha"], x))),
    # phi over lambda
    "phi": (("alpha", "u"), lambda cfg, x: (
        "", [ll.phi_conditional(v, cfg["u"], cfg["alpha"]) for v in x.tolist()])),
    # conditional_gamma over z
    "conditional_gamma": (("alpha", "r", "n", "w"), lambda cfg, x: (
        "", ll.conditional_gamma_cdf(cfg["r"], cfg["n"], cfg["alpha"], cfg["w"], x))),
}

#: Subcommand -> (the option that picks the run, the options every pick
#: reads, the table of picks), for the subcommands that take one.
_PICKS = {"verify": ("target", ("target", "trials", "seed", "threads"), _TARGETS),
          "laws": ("law", ("law", "grid"), _LAWS)}


def _reads(sub: str) -> tuple:
    """The options ``sub`` reads: the union over its table."""
    _, every, table = _PICKS[sub]
    return tuple(dict.fromkeys(every + sum((opts for opts, _ in table.values()), ())))


def _pick_help(sub: str) -> str:
    """What each pick of ``sub`` reads, as flag names, from its table."""
    pick, every, table = _PICKS[sub]
    reads = [(f"every {pick}", every[1:])] + [(name, opts) for name, (opts, _) in table.items()]
    return "reads, besides --config and --out-dir: " + "; ".join(
        f"{name}: {' '.join('--' + k.replace('_', '-') for k in keys)}" for name, keys in reads)


class _Option(NamedTuple):
    kind: type
    default: object = None
    choices: tuple | None = None
    help: str | None = None


#: Every option once.  Its flag is ``--name`` with ``-`` for ``_``; its
#: config key is the name (``-`` or ``_``).  A None default leaves it unset.
_OPTIONS = {
    "config": _Option(str, help="flat key=value file of this subcommand's options; "
                      "flags win"),
    "out_dir": _Option(str, "out"),
    "tail": _Option(str, choices=tuple(sorted(tm.KINDS))),
    "alpha": _Option(float), "beta": _Option(float), "c": _Option(float),
    "gamma": _Option(float),
    "r": _Option(int), "n": _Option(int), "t": _Option(float),
    "t_grid": _Option(str, help="comma list or lo:hi:count (log-spaced)"),
    "trials": _Option(int),
    "epsilon": _Option(float, 1e-3),
    "seed": _Option(int, DEFAULT_SEED),
    "threads": _Option(int, help="worker threads (default: usable CPUs, at most 4); "
                       "changes wall time only, never output"),
    "cap": _Option(int, 1_000_000),
    "target": _Option(str, choices=tuple(_TARGETS), help=_pick_help("verify")),
    "method": _Option(str, sp.LIMIT_RATIOS, tuple(sorted(sp.NB_METHODS))),
    "probe_form": _Option(str, ll.INDICATOR_STEP, tuple(sorted(ll.PROBE_FORMS))),
    "probe_amplitude": _Option(float, 1.0),
    "probe_a": _Option(float, 0.5),
    "probe_b": _Option(float, 1.0),
    "w": _Option(float),
    "half_width": _Option(float, 0.05),
    "law": _Option(str, choices=tuple(_LAWS), help=_pick_help("laws")),
    "grid": _Option(str, "0.01:0.99:99", help="abscissa grid lo:hi:count"),
    "u": _Option(float),
}

#: Subcommand -> (help, the options it reads; verify's and laws' are the
#: union over their tables).  Each also takes ``--config`` and ``--out-dir``.
_SUBCOMMANDS = {
    "simulate": ("dump per-trial ratio configurations to trials.csv",
                 _TAIL + ("t", "r", "n", "epsilon", "cap", "trials", "seed", "threads")),
    "laws": ("tabulate a closed-form limit law to law_table.csv",
             _reads("laws")),
    "verify": ("run a statistical check; report.json + sweep.csv",
               _reads("verify")),
    "estimate": ("estimate the tail index from simulated ratios",
                 _TAIL + ("t", "r", "trials", "seed", "threads")),
    "classify": ("classify the variation regime at small t",
                 _TAIL + ("t", "r", "trials", "seed", "threads")),
}


class _CliError(Exception):
    """Config/validation failure destined for exit code 2."""


class _Config(dict):
    """A run's merged options: a runner reads a required one as ``cfg[key]``
    (unset, a config error) and an optional one as ``cfg.get(key)``."""

    def __missing__(self, key):
        raise _CliError(f"missing field: {key}")


def _diag(reason: str, kind: str = "config"):
    print(json.dumps({"error": kind, "reason": reason}, sort_keys=True),
          file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _diag(message)
        raise SystemExit(2)


def _fmt(value) -> str:
    """Full round-trip text for one CSV cell."""
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _cell_texts(column, start: int, stop: int) -> list:
    """Text of cells ``start:stop`` of a list or 1-D ndarray column, as ``_fmt``."""
    part = column[start:stop]
    if isinstance(part, np.ndarray):
        kind = part.dtype.kind
        if kind == "f":
            return list(map(float.__repr__, part.astype(np.float64, copy=False).tolist()))
        if kind in "iu":
            return list(map(str, part.tolist()))
        if kind == "b":
            return ["true" if v else "false" for v in part.tolist()]
        part = part.tolist()
    return [_fmt(v) for v in part]


def _write_csv(path: Path, meta: dict, header: list, columns: list) -> None:
    """Write one column per header name, ``_BLOCK`` rows at a time.

    A column is a scalar (its ``_fmt`` text on every row), a 1-D ndarray or
    a list; all non-scalar columns have one length, the row count.  Every
    cell reads exactly as ``_fmt`` writes it.  The directory is created
    if missing.
    """
    sized = [j for j, col in enumerate(columns) if isinstance(col, (list, np.ndarray))]
    lengths = {len(columns[j]) for j in sized}
    if (len(columns) != len(header) or len(lengths) > 1 or (columns and not sized)
            or any(getattr(columns[j], "ndim", 1) != 1 for j in sized)):
        raise ValueError("CSV columns must match the header and hold at least one "
                         "1-D column, all of one length")
    rows = lengths.pop() if lengths else 0
    # one row's cells, each followed by its separator; scalar cells filled once
    template = []
    for j, col in enumerate(columns):
        template += [None if j in sized else _fmt(col),
                     "," if j < len(columns) - 1 else "\n"]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={_fmt(meta[key])}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK):
            stop = min(start + _BLOCK, rows)
            cells = template * (stop - start)
            for j in sized:
                cells[2 * j::len(template)] = _cell_texts(columns[j], start, stop)
            fh.write("".join(cells))


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _parse_grid(text: str, log_spaced: bool = False) -> np.ndarray:
    """``lo:hi:count`` (inclusive, optionally log-spaced) or comma list."""
    if ":" in text:
        try:
            lo_s, hi_s, count_s = text.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        except ValueError:
            raise _CliError(f"grid {text!r} is not lo:hi:count "
                            "(two numbers and an integer count)") from None
        if count < 1:
            raise _CliError(f"grid needs a positive count: {text!r}")
        if log_spaced:
            return np.geomspace(lo, hi, count)
        return np.linspace(lo, hi, count)
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise _CliError(f"grid {text!r} is not a comma list of numbers "
                        "or lo:hi:count") from None


def _build_parser() -> _Parser:
    # no abbreviations: a flag is read only under its full name, as its
    # config key is
    parser = _Parser(prog="ppratios", description=__doc__.splitlines()[0],
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (blurb, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=blurb, allow_abbrev=False)
        for key in ("config", "out_dir") + options:
            opt = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=opt.kind,
                           choices=opt.choices, help=opt.help)
    return parser


def _load_config(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _typed(key: str, text: str):
    """A config value, typed and checked against its choices as its flag is."""
    opt = _OPTIONS[key]
    try:
        value = opt.kind(text)
    except ValueError:
        raise _CliError(f"config value {key}={text!r} is not "
                        f"{'an integer' if opt.kind is int else 'a number'}") from None
    if opt.choices is not None and value not in opt.choices:
        raise _CliError(f"config value {key}={text!r} is not one of "
                        f"{', '.join(opt.choices)}")
    return value


def _merge(args: argparse.Namespace) -> _Config:
    """Defaults < config file < explicit flags, for the options the run reads.

    Those are the subcommand's options, and for verify its target's and for
    laws its law's (``_PICKS``).  A set option the pick does not read is an
    error.  A flag that changes a config value warns.
    """
    keys = ("out_dir",) + _SUBCOMMANDS[args.experiment][1]
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("config", "experiment")}
    given = {}
    if args.config:
        for key, text in _load_config(args.config).items():
            if key not in keys:
                raise _CliError(f"config key {key!r} is not an option of "
                                f"{args.experiment}")
            value = _typed(key, text)
            if key in flags and flags[key] != value:
                _diag(f"config value {key}={text!r} overridden by flag "
                      f"{key}={flags[key]!r}", kind="warning")
                continue
            given[key] = value
    given.update(flags)
    if args.experiment in _PICKS:
        pick, every, table = _PICKS[args.experiment]
        name = _Config(given)[pick]
        keys = ("out_dir",) + every + table[name][0]
        for key in given:
            if key not in keys:
                raise _CliError(f"option {key!r} is not read by "
                                f"{args.experiment} --{pick} {name}")
    merged = _Config({k: _OPTIONS[k].default for k in keys
                      if _OPTIONS[k].default is not None})
    merged.update(given)
    return merged


def _tail_from(cfg: dict) -> TailModel:
    record = {"kind": cfg["tail"]}
    for key in ("alpha", "beta", "c", "gamma"):
        if cfg.get(key) is not None:
            record[key] = cfg[key]
    return TailModel.from_record(record)


def _t_grid_from(cfg: dict) -> list:
    """t grid for sweeps, from ``t`` or ``t_grid``; t=1.0 when neither is given.

    Exact-law sweep targets are t-free for the pure power family, so a
    default single point keeps quick checks one-liner friendly.  Each sweep
    statistic records its own t.
    """
    t, t_grid = cfg.get("t"), cfg.get("t_grid")
    if t is not None and t_grid is not None:
        raise _CliError("options 't' and 't_grid' both set; give one")
    if t_grid is not None:
        grid = _parse_grid(t_grid, log_spaced=True)
        grid = np.sort(grid)[::-1]
        return [float(v) for v in grid]
    return [1.0 if t is None else t]


def _run_simulate(cfg: dict) -> int:
    model = _tail_from(cfg)
    t, r, n, trials = (cfg[k] for k in ("t", "r", "n", "trials"))
    above, w, counts = sp.ratio_configuration_batch(
        model, t, r, n, cfg["epsilon"], trials, cfg["seed"], cap=cfg["cap"],
        threads=cfg.get("threads"))
    header = ["trial_index", "w_rn", "count_below"] + [f"above_{k}" for k in range(1, n)]
    columns = [np.arange(trials), "" if w is None else w, counts] + [
        above[:, k] for k in range(n - 1)]
    meta = {"seed": cfg["seed"], "trials": trials, "epsilon": cfg["epsilon"], "t": t,
            "r": r, "n": n, "cap": cfg["cap"],
            **{f"tail_{key}": value for key, value in model.to_record().items()}}
    _write_csv(Path(cfg["out_dir"]) / "trials.csv", meta, header, columns)
    return 0


def _run_laws(cfg: dict) -> int:
    """``law_table.csv``: the options the law read as meta lines, then x, density, cdf."""
    grid = _parse_grid(cfg["grid"])
    density, cdf = _LAWS[cfg["law"]][1](cfg, grid)
    meta = {k: v for k, v in cfg.items() if k != "out_dir"}
    _write_csv(Path(cfg["out_dir"]) / "law_table.csv", meta, ["x", "density", "cdf"],
               [grid, density, cdf])
    return 0


def _run_verify(cfg: dict) -> int:
    run = {"trials": cfg["trials"], "seed": cfg["seed"], "threads": cfg.get("threads")}
    report = _TARGETS[cfg["target"]][1](cfg, run)
    out = Path(cfg["out_dir"])
    payload = report.to_json_dict()
    payload["parameters"] = {k: v for k, v in sorted(cfg.items())
                             if k not in ("out_dir", "threads")}
    _write_json(out / "report.json", payload)
    keys, columns = report.csv_columns()
    meta = {"experiment_id": report.experiment_id, "seed": run["seed"],
            "trials": run["trials"], "threshold": report.threshold, "pass": report.passed}
    _write_csv(out / "sweep.csv", meta, keys, columns)
    return 0 if report.passed else 1


def _run_estimate(cfg: dict) -> int:
    model = _tail_from(cfg)
    t, r, trials, seed = (cfg[k] for k in ("t", "r", "trials", "seed"))
    ly = sp.log_trim_ratio_batch(model, t, r, trials, seed, threads=cfg.get("threads"))
    alpha_hat, stderr = vf.estimate_alpha(np.exp(ly, out=ly), r)
    _write_json(Path(cfg["out_dir"]) / "estimate.json", {
        "alpha_hat": alpha_hat, "stderr": stderr, "r": r, "t": t,
        "trials": trials, "seed": seed, "tail": model.to_record(),
    })
    return 0


def _run_classify(cfg: dict) -> int:
    model = _tail_from(cfg)
    t, r, trials, seed = (cfg[k] for k in ("t", "r", "trials", "seed"))
    out = Path(cfg["out_dir"])
    base = {"t": t, "r": r, "trials": trials, "seed": seed, "tail": model.to_record()}
    try:
        result = vf.classify_tail(model, t, r, trials, seed, threads=cfg.get("threads"))
    except vf.ClassificationError as exc:
        _write_json(out / "classification.json", {
            **base, "verdict": None, "alpha_hat": None,
            "error": str(exc), "evidence": vf._jsonable(exc.diagnostics),
        })
        _diag(str(exc), kind="classification")
        return 1
    _write_json(out / "classification.json", {**base, **result.to_json_dict()})
    return 0


_RUNNERS = {
    "simulate": _run_simulate,
    "laws": _run_laws,
    "verify": _run_verify,
    "estimate": _run_estimate,
    "classify": _run_classify,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.experiment](_merge(args))
    except _CliError as exc:
        _diag(str(exc))
        return 2
    except (ValueError, sp.TruncationError, InversionError, ll.QuadratureError) as exc:
        _diag(str(exc), kind="domain")
        return 2
    except OSError as exc:
        _diag(str(exc), kind="io")
        return 2
    except MemoryError as exc:  # e.g. an output array for a huge --trials
        _diag(str(exc) or "out of memory", kind="memory")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
