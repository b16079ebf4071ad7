"""Run configuration: flat `section.key = value` text with range checks.

Lines are `section.key = value`, `#` starts a comment, blank lines are
skipped.  The keys are those of `KEYS`, and any other is rejected as
unknown, as is a key given twice.  Every value is parsed and range-checked
as it is read, with the line and column of the offending token, so a config
either loads completely or fails loudly before any computation starts.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import actions as _actions
from . import expr as _expr
from . import spectral as _spectral
from .errors import ConfigError
from .surface import load_profile_table, make_ellipsoid, make_round_sphere, read_table

COMMANDS = ("validate", "density", "spectrum", "converge", "verify-sphere")
_PROFILES = {"round_sphere": lambda cfg: make_round_sphere(),
             "ellipsoid": lambda cfg: make_ellipsoid(cfg.profile_aspect),
             "custom_table": lambda cfg: load_profile_table(cfg.profile_table_path)}

_LINE = re.compile(r"^\s*([A-Za-z_]+)\s*\.\s*([A-Za-z_]+)\s*=\s*(.*?)\s*$")


@dataclass(frozen=True)
class RunConfig:
    """Every settable value of a run, each named after its `section.key`."""
    profile_kind: str = "round_sphere"
    profile_aspect: float = 1.0
    profile_table_path: str | None = None
    grid_size: int = 4000
    symbol_kind: str | None = None
    symbol_expr: str | None = None
    symbol_table_path: str | None = None
    command: str | None = None
    ells: tuple = ()
    out_dir: str = "out"
    density_n: int = 2000


def _int_at_least(lo: int):
    def parse(raw: str) -> int:
        val = int(raw)
        if val < lo:
            raise ValueError(f"must be >= {lo}, got {val}")
        return val
    return parse


def _aspect(raw: str) -> float:
    val = float(raw)
    if not 0.0 < val <= 1000.0:
        raise ValueError(f"must be in (0, 1000], got {val}")
    return val


def _choice(choices):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}; got {raw!r}")
        return raw
    return parse


def _ells(raw: str) -> tuple:
    items = raw.split(",")
    ells = tuple(int(p) for p in items if p.strip())
    if len(ells) < len(items) or ells[0] < 1 or any(b <= a for a, b in zip(ells, ells[1:])):
        raise ValueError(f"expects a strictly ascending list of integers >= 1, got {raw!r}")
    return ells


# `section.key` -> (RunConfig field, value parser raising ValueError)
KEYS = {
    "profile.kind": ("profile_kind", _choice(_PROFILES)),
    "profile.aspect": ("profile_aspect", _aspect),
    "profile.table_path": ("profile_table_path", str),
    "spectral.grid_size": ("grid_size", _int_at_least(_spectral.MIN_GRID)),
    "symbol.kind": ("symbol_kind", _choice(_actions.SYMBOL_KINDS)),
    "symbol.expr": ("symbol_expr", str),
    "symbol.table_path": ("symbol_table_path", str),
    "run.command": ("command", _choice(COMMANDS)),
    "run.ells": ("ells", _ells),
    "run.out_dir": ("out_dir", str),
    "density.n": ("density_n", _int_at_least(8)),
}


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig, rejecting anything unknown."""
    # keys absent from the text keep the dataclass defaults
    values = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0]
        if not stripped.strip():
            continue
        m = _LINE.match(stripped)
        if m is None:
            raise ConfigError("expected 'section.key = value'", line=lineno,
                              col=len(stripped) - len(stripped.lstrip()) + 1)
        full, raw = f"{m.group(1)}.{m.group(2)}", m.group(3)
        if full not in KEYS:
            raise ConfigError(f"unknown key {full!r}", line=lineno, col=m.start(1) + 1)
        name, parse = KEYS[full]
        if name in values:
            raise ConfigError(f"{full} given twice", line=lineno, col=m.start(1) + 1)
        try:
            values[name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{full}: {exc}", line=lineno,
                              col=(m.start(3) + 1) if raw else m.end(0) + 1) from None

    cfg = RunConfig(**values)
    if cfg.profile_kind == "custom_table" and not cfg.profile_table_path:
        raise ConfigError("profile.kind = custom_table needs profile.table_path")
    # an empty `symbol.expr =` is still a symbol key, so presence is `is not None`
    if cfg.symbol_kind is None and (cfg.symbol_expr, cfg.symbol_table_path) != (None, None):
        raise ConfigError("symbol block needs symbol.kind")
    if cfg.symbol_kind is not None and (cfg.symbol_expr is None) == (cfg.symbol_table_path is None):
        raise ConfigError("symbol needs exactly one of symbol.expr or symbol.table_path")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return parse_config(text)


def build_profile(cfg: RunConfig):
    return _PROFILES[cfg.profile_kind](cfg)


def build_evaluator(cfg: RunConfig, profile) -> _actions.ActionEvaluator:
    return _actions.ActionEvaluator(profile)


def build_symbol(cfg: RunConfig, profile) -> _actions.SymbolFn | None:
    """The run's symbol in its kind's variable; as a spline extrapolates, a table must span
    the kind's domain on `profile` (`actions.SYMBOL_KINDS`)."""
    if cfg.symbol_kind is None:
        return None
    var, domain = _actions.SYMBOL_KINDS[cfg.symbol_kind]
    if cfg.symbol_expr is not None:
        fn, name = _expr.parse_expr(cfg.symbol_expr, var), cfg.symbol_expr
    else:
        fn, name = read_table(cfg.symbol_table_path, "symbol table", 4), cfg.symbol_table_path
        lo, hi = domain(profile)
        if fn.x[0] > lo + 1e-9 * (hi - lo) or fn.x[-1] < hi - 1e-9 * (hi - lo):
            raise ConfigError(f"symbol table {name!r} spans x in {fn.x[[0, -1]].tolist()}, not "
                              f"the {cfg.symbol_kind} domain [{lo!r}, {hi!r}]")
    return _actions.SymbolFn(cfg.symbol_kind, fn, name)
