"""Run configuration: protocol defaults, key=value config files, overrides.

Config files are flat ``key=value`` lines with ``#`` comments; CLI flags
override file values.  Unknown keys are rejected.  The effective (fully
merged) config is written next to a run's outputs so the run can be
reproduced from it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .backtest import REBALANCE_SETTINGS
from .errors import ValidationError, opened
from .gan import MODEL_KINDS, TrainConfig

_MODEL_CHOICES = MODEL_KINDS + ("markowitz",)


@dataclass
class RunConfig:
    """Everything a pipeline run needs; defaults follow the study protocol."""

    data: str = ""
    tickers: str = ""  # comma-separated; empty = header order
    split_date: str = ""
    model: str = TrainConfig.model_kind
    h: int = TrainConfig.h
    f: int = TrainConfig.f
    m: int = TrainConfig.m
    epochs: int = TrainConfig.epochs
    lambda1: float = TrainConfig.lambda1
    lambda2: float = TrainConfig.lambda2
    lr: float = TrainConfig.lr
    beta1: float = TrainConfig.beta1
    beta2: float = TrainConfig.beta2
    eta: int = REBALANCE_SETTINGS["balanced"]
    n_draws: int = 1000
    seed: int = TrainConfig.seed
    r_f: float = 0.0  # annual risk-free rate
    regime: str = TrainConfig.regime
    allow_forward_bias: bool = TrainConfig.allow_forward_bias
    bundle: str = ""
    out: str = ""

    def __post_init__(self):
        if self.model not in _MODEL_CHOICES:
            raise ValidationError(f"unknown model {self.model!r}; expected one of {_MODEL_CHOICES}")
        if min(self.h, self.f, self.m) < 1:
            raise ValidationError("h, f, m must be positive")
        if self.epochs < 1 or self.n_draws < 1 or self.eta < 1:
            raise ValidationError("epochs, n_draws, eta must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        # beyond 100% a year either way, Sharpe ratios overflow or lose their meaning
        if not -1.0 <= self.r_f <= 1.0:
            raise ValidationError(f"r_f must be an annual rate in [-1, 1], got {self.r_f}")

    def ticker_list(self) -> list[str] | None:
        if not self.tickers:
            return None
        return [t.strip() for t in self.tickers.split(",") if t.strip()]

    def train_config(self) -> TrainConfig:
        if self.model == "markowitz":
            raise ValidationError("the markowitz baseline has no training configuration")
        return TrainConfig(model_kind=self.model,
                           **{key: getattr(self, key) for key in _TRAIN_KEYS})


_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_TRAIN_KEYS = [f.name for f in fields(TrainConfig) if f.name in _FIELDS]
_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _coerce(key: str, raw: str):
    kind = _FIELDS[key]
    raw = raw.strip()
    if kind == "bool":
        lowered = raw.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise ValidationError(f"config key {key}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ValidationError(f"config key {key}: cannot parse {raw!r} as {kind}") from None
    return raw


def parse_config_text(text: str) -> dict:
    """Parse key=value lines (``#`` comments, blank lines allowed)."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {line_no}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ValidationError(
                f"config line {line_no}: unknown key {key!r}; known keys: {sorted(_FIELDS)}")
        values[key] = _coerce(key, raw)
    return values


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus CLI overrides."""
    values = {}
    if path is not None:
        with opened(path, "config file") as handle:
            values.update(parse_config_text(handle.read()))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ValidationError(f"unknown config key {key!r}")
        values[key] = value
    return RunConfig(**values)


def write_effective_config(config: RunConfig, path) -> None:
    """Write the merged config as a re-runnable key=value file."""
    lines = ["# effective configuration (defaults merged with file and flags)"]
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    Path(path).write_text("\n".join(lines) + "\n")
