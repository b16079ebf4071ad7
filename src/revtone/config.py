"""Run configuration: flat `section.key = value` text with range checks.

Lines are `section.key = value`, `#` starts a comment, blank lines are
skipped.  The keys are those of `_KEYS`, and any other is rejected as
unknown, as is a key given twice.  Every value is parsed and range-checked
as it is read, with the line and column of the offending token, so a config
either loads completely or fails loudly before any computation starts.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import actions as _actions
from . import expr as _expr
from . import spectral as _spectral
from .errors import ConfigError
from .surface import load_profile_table, make_ellipsoid, make_round_sphere, read_table

COMMANDS = ("validate", "density", "spectrum", "converge", "verify-sphere")
PROFILE_KINDS = ("round_sphere", "ellipsoid", "custom_table")

_LINE = re.compile(r"^\s*([A-Za-z_]+)\s*\.\s*([A-Za-z_]+)\s*=\s*(.*?)\s*$")


@dataclass(frozen=True)
class ProfileConfig:
    kind: str = "round_sphere"
    aspect: float = 1.0
    table_path: str | None = None


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
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    command: str | None = None
    ells: tuple = ()
    symbol: SymbolConfig | None = None
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
    ells = tuple(int(p) for p in raw.split(",") if p.strip())
    if not ells or ells[0] < 1 or any(b <= a for a, b in zip(ells, ells[1:])):
        raise ValueError(f"expects a strictly ascending list of integers >= 1, got {raw!r}")
    return ells


# `section.key` -> (block, field, value parser raising ValueError); the `run`
# block holds the top-level RunConfig fields
_KEYS = {
    "profile.kind": ("profile", "kind", _choice(PROFILE_KINDS)),
    "profile.aspect": ("profile", "aspect", _aspect),
    "profile.table_path": ("profile", "table_path", str),
    "spectral.grid_size": ("spectral", "grid_size", _int_at_least(_spectral.MIN_GRID)),
    "symbol.kind": ("symbol", "kind", _choice(_actions.SYMBOL_KINDS)),
    "symbol.expr": ("symbol", "expr", str),
    "symbol.table_path": ("symbol", "table_path", str),
    "run.command": ("run", "command", _choice(COMMANDS)),
    "run.ells": ("run", "ells", _ells),
    "run.out_dir": ("run", "out_dir", str),
    "density.n": ("run", "density_n", _int_at_least(8)),
}


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig, rejecting anything unknown."""
    # keys absent from the text keep the dataclass defaults
    blocks = {"profile": {}, "spectral": {}, "symbol": {}, "run": {}}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0]
        if not stripped.strip():
            continue
        m = _LINE.match(stripped)
        if m is None:
            raise ConfigError("expected 'section.key = value'", line=lineno,
                              col=len(stripped) - len(stripped.lstrip()) + 1)
        full, raw = f"{m.group(1)}.{m.group(2)}", m.group(3)
        if full not in _KEYS:
            raise ConfigError(f"unknown key {full!r}", line=lineno, col=m.start(1) + 1)
        block, name, parse = _KEYS[full]
        if name in blocks[block]:
            raise ConfigError(f"{full} given twice", line=lineno, col=m.start(1) + 1)
        try:
            blocks[block][name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{full}: {exc}", line=lineno,
                              col=(m.start(3) + 1) if raw else m.end(0) + 1) from None

    profile, symbol = blocks["profile"], blocks["symbol"]
    if profile.get("kind") == "custom_table" and not profile.get("table_path"):
        raise ConfigError("profile.kind = custom_table needs profile.table_path")
    if symbol and "kind" not in symbol:
        raise ConfigError("symbol block needs symbol.kind")
    if symbol and bool(symbol.get("expr")) == bool(symbol.get("table_path")):
        raise ConfigError("symbol needs exactly one of symbol.expr or symbol.table_path")
    return RunConfig(profile=ProfileConfig(**profile),
                     spectral=SpectralConfig(**blocks["spectral"]),
                     symbol=SymbolConfig(**symbol) if symbol else None, **blocks["run"])


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
    return _actions.ActionEvaluator(profile)


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
    return _actions.SymbolFn(sc.kind, fn, name)
