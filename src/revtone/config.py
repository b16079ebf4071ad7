"""Run configuration: flat `section.key = value` text with range checks.

Lines are `section.key = value`, `#` starts a comment, blank lines are
skipped.  Unknown sections or keys are rejected, and every numeric
value is range-checked at parse time with the line and column of the
offending token, so a config either loads completely or fails loudly
before any computation starts.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import actions as _actions
from . import expr as _expr
from .errors import ConfigError
from .surface import load_profile_table, make_ellipsoid, make_round_sphere, read_table

COMMANDS = ("validate", "density", "spectrum", "converge", "verify-sphere")
PROFILE_KINDS = ("round_sphere", "ellipsoid", "custom_table")
SYMBOL_KINDS = ("radial_mult", "angular_ratio")

_LINE = re.compile(r"^\s*([A-Za-z_]+)\s*\.\s*([A-Za-z_]+)\s*=\s*(.*?)\s*$")


@dataclass(frozen=True)
class ProfileConfig:
    kind: str = "round_sphere"
    aspect: float = 1.0
    table_path: str | None = None


@dataclass(frozen=True)
class ActionsConfig:
    quad_nodes: int = 256


@dataclass(frozen=True)
class SpectralConfig:
    grid_size: int = 4000


@dataclass(frozen=True)
class SymbolConfig:
    kind: str
    expr: str | None = None
    table_path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    actions: ActionsConfig = field(default_factory=ActionsConfig)
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    command: str | None = None
    ells: tuple = ()
    symbol: SymbolConfig | None = None
    out_dir: str = "out"
    density_n: int = 2000


def _parse_int(raw: str, line: int, col: int, key: str, lo: int, hi: int | None = None) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {raw!r}", line=line, col=col)
    if val < lo or (hi is not None and val > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{key} must be {bound}, got {val}", line=line, col=col)
    return val


def _parse_float(raw: str, line: int, col: int, key: str, lo: float, hi: float) -> float:
    """A number in the half-open range (lo, hi]."""
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {raw!r}", line=line, col=col)
    if not (lo < val <= hi):
        raise ConfigError(f"{key} out of range, got {val}", line=line, col=col)
    return val


def _parse_choice(raw: str, line: int, col: int, key: str, choices) -> str:
    if raw not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}; got {raw!r}",
                          line=line, col=col)
    return raw


def _parse_ells(raw: str, line: int, col: int) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("run.ells expects a comma-separated integer list", line=line, col=col)
    ells = []
    for p in parts:
        try:
            v = int(p)
        except ValueError:
            raise ConfigError(f"run.ells entry {p!r} is not an integer", line=line, col=col)
        if v < 1:
            raise ConfigError(f"run.ells entries must be >= 1, got {v}", line=line, col=col)
        ells.append(v)
    if any(b <= a for a, b in zip(ells, ells[1:])):
        raise ConfigError("run.ells must be strictly ascending", line=line, col=col)
    return tuple(ells)


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig, rejecting anything unknown."""
    # keys absent from the text keep the dataclass defaults; `run` holds
    # the top-level RunConfig fields (run.* keys and density.n)
    profile, actions, spectral, symbol, run = {}, {}, {}, {}, {}
    kind_line = 0

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0]
        if not stripped.strip():
            continue
        m = _LINE.match(stripped)
        if m is None:
            raise ConfigError("expected 'section.key = value'", line=lineno,
                              col=len(stripped) - len(stripped.lstrip()) + 1)
        section, key, raw = m.group(1), m.group(2), m.group(3)
        key_col = m.start(1) + 1
        val_col = (m.start(3) + 1) if raw else m.end(0) + 1
        full = f"{section}.{key}"

        if section == "profile":
            if key == "kind":
                profile["kind"] = _parse_choice(raw, lineno, val_col, full, PROFILE_KINDS)
                kind_line = lineno
            elif key == "aspect":
                profile["aspect"] = _parse_float(raw, lineno, val_col, full, 0.0, 1000.0)
            elif key == "table_path":
                profile["table_path"] = raw
            else:
                raise ConfigError(f"unknown key {full!r}", line=lineno, col=key_col)
        elif section == "actions":
            if key == "quad_nodes":
                actions["quad_nodes"] = _parse_int(raw, lineno, val_col, full,
                                                   _actions.MIN_QUAD_NODES)
            else:
                raise ConfigError(f"unknown key {full!r}", line=lineno, col=key_col)
        elif section == "spectral":
            if key == "grid_size":
                spectral["grid_size"] = _parse_int(raw, lineno, val_col, full, 8)
            else:
                raise ConfigError(f"unknown key {full!r}", line=lineno, col=key_col)
        elif section == "symbol":
            if key == "kind":
                symbol["kind"] = _parse_choice(raw, lineno, val_col, full, SYMBOL_KINDS)
            elif key == "expr":
                symbol["expr"] = raw
            elif key == "table_path":
                symbol["table_path"] = raw
            else:
                raise ConfigError(f"unknown key {full!r}", line=lineno, col=key_col)
            symbol.setdefault("_line", lineno)
        elif section == "run":
            if key == "command":
                run["command"] = _parse_choice(raw, lineno, val_col, full, COMMANDS)
            elif key == "ells":
                run["ells"] = _parse_ells(raw, lineno, val_col)
            elif key == "out_dir":
                run["out_dir"] = raw
            else:
                raise ConfigError(f"unknown key {full!r}", line=lineno, col=key_col)
        elif section == "density":
            if key == "n":
                run["density_n"] = _parse_int(raw, lineno, val_col, full, 8)
            else:
                raise ConfigError(f"unknown key {full!r}", line=lineno, col=key_col)
        else:
            raise ConfigError(f"unknown section {section!r}", line=lineno, col=key_col)

    if profile.get("kind") == "custom_table" and not profile.get("table_path"):
        raise ConfigError("profile.kind = custom_table needs profile.table_path",
                          line=kind_line or 1, col=1)
    sym_cfg = None
    if symbol:
        sym_line = symbol.pop("_line", 1)
        if "kind" not in symbol:
            raise ConfigError("symbol block needs symbol.kind", line=sym_line, col=1)
        if bool(symbol.get("expr")) == bool(symbol.get("table_path")):
            raise ConfigError("symbol needs exactly one of symbol.expr or symbol.table_path",
                              line=sym_line, col=1)
        sym_cfg = SymbolConfig(kind=symbol["kind"], expr=symbol.get("expr"),
                               table_path=symbol.get("table_path"))

    return RunConfig(profile=ProfileConfig(**profile), actions=ActionsConfig(**actions),
                     spectral=SpectralConfig(**spectral), symbol=sym_cfg, **run)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return parse_config(text)


def build_profile(cfg: RunConfig):
    p = cfg.profile
    if p.kind == "round_sphere":
        return make_round_sphere()
    if p.kind == "ellipsoid":
        return make_ellipsoid(p.aspect)
    return load_profile_table(p.table_path)


def build_evaluator(cfg: RunConfig, profile) -> _actions.ActionEvaluator:
    return _actions.ActionEvaluator(profile, quad_nodes=cfg.actions.quad_nodes)


def build_symbol(cfg: RunConfig) -> _actions.SymbolFn | None:
    if cfg.symbol is None:
        return None
    sc = cfg.symbol
    var = "r" if sc.kind == "radial_mult" else "s"
    if sc.expr is not None:
        fn = _expr.parse_expr(sc.expr, var)
        name = sc.expr
    else:
        fn = read_table(sc.table_path, "symbol table", 4)
        name = sc.table_path
    if sc.kind == "radial_mult":
        return _actions.radial_symbol(fn, name=name)
    return _actions.angular_symbol(fn, name=name)
