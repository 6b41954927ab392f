"""Flat key-value run configuration with dotted section names.

The format is one `section.key = value` assignment per line, `#` comments,
blank lines ignored.  RunConfig keeps the normalized key-value map, so
serialize/parse round-trips losslessly; typed accessors validate on access
and report the offending key (and line, at parse time) in their messages.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .blowup1d import Regularization
from .snapshots import read_snapshot
from .solver import SolverParams
from .spectral import (Domain, PhysicalField, SpectralField, dealias,
                       forward_transform, random_field)

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Normalized key-value configuration map."""

    values: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if not _KEY_RE.match(key):
                raise ConfigError(f"line {lineno}: malformed key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            if not val:
                raise ConfigError(f"line {lineno}: empty value for {key!r}")
            values[key] = val
        return cls(values)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.parse(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def serialize(self) -> str:
        return "".join(f"{k} = {self.values[k]}\n" for k in sorted(self.values))

    # typed accessors -----------------------------------------------------
    def get_str(self, key, default=None, choices=None):
        val = self.values.get(key, default)
        if val is None:
            raise ConfigError(f"missing required key {key!r}")
        if choices is not None and val not in choices:
            raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {val!r}")
        return val

    def get_float(self, key, default=None):
        val = self.values.get(key)
        if val is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return float(default)
        try:
            return float(val)
        except ValueError:
            raise ConfigError(f"{key}: not a number: {val!r}") from None

    def get_int(self, key, default=None):
        val = self.values.get(key)
        if val is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return int(default)
        try:
            return int(val)
        except ValueError:
            raise ConfigError(f"{key}: not an integer: {val!r}") from None

    def get_bool(self, key, default=None):
        val = self.values.get(key)
        if val is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return bool(default)
        low = val.lower()
        if low in ("true", "on", "yes", "1"):
            return True
        if low in ("false", "off", "no", "0"):
            return False
        raise ConfigError(f"{key}: not a boolean: {val!r}")

    def get_float_list(self, key, default=""):
        val = self.values.get(key, default)
        out = []
        for item in val.split(","):
            item = item.strip()
            if not item:
                continue
            if item in ("inf", "infinity"):
                out.append(math.inf)
                continue
            try:
                out.append(float(item))
            except ValueError:
                raise ConfigError(f"{key}: not a number: {item!r}") from None
        return out

    def get_int_list(self, key, default=None):
        val = self.values.get(key, default)
        if val is None:
            raise ConfigError(f"missing required key {key!r}")
        try:
            return [int(item) for item in val.split(",") if item.strip()]
        except ValueError:
            raise ConfigError(f"{key}: not an integer list: {val!r}") from None


# builders ----------------------------------------------------------------

def build_domain(cfg: RunConfig) -> Domain:
    dim = cfg.get_int("domain.dim")
    n = cfg.get_int_list("domain.n")
    if len(n) == 1:
        n = n * dim
    if len(n) != dim:
        raise ConfigError(f"domain.n: expected {dim} entries, got {len(n)}")
    baxis = cfg.get_int("domain.buoyancy_axis", default=dim - 1)
    try:
        return Domain(tuple(n), baxis)
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from exc


def build_solver_params(cfg: RunConfig) -> SolverParams:
    if not cfg.get_bool("solver.dealias", default=True):
        raise ConfigError("solver.dealias = false: the 2/3 rule is always applied")
    try:
        return SolverParams(
            nu=cfg.get_float("solver.nu"),
            alpha=cfg.get_float("solver.alpha"),
            dt=cfg.get_float("solver.dt"),
            t_end=cfg.get_float("solver.t_end"),
            scheme=cfg.get_str("solver.scheme", default="ifrk4",
                               choices=("ifrk4", "ifeuler")),
            adaptive=cfg.get_bool("solver.adaptive", default=False),
            cfl_safety=cfg.get_float("solver.cfl_safety", default=0.9),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _field(prefix, make, *args, **kwargs) -> PhysicalField:
    """make(*args, **kwargs), a ValueError (such as non-finite data) as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def _mode_field(cfg, prefix, domain) -> PhysicalField:
    amplitude = cfg.get_float(f"{prefix}.amplitude", default=1.0)
    shape = cfg.get_str(f"{prefix}.function", default="sin", choices=("sin", "cos"))
    if f"{prefix}.wavevector" in cfg.values:
        kvec = cfg.get_int_list(f"{prefix}.wavevector")
        if len(kvec) != domain.dim:
            raise ConfigError(f"{prefix}.wavevector: expected {domain.dim} entries")
    else:
        axis = cfg.get_int(f"{prefix}.axis", default=0)
        if not 0 <= axis < domain.dim:
            raise ConfigError(f"{prefix}.axis: out of range for dim {domain.dim}")
        kvec = [0] * domain.dim
        kvec[axis] = cfg.get_int(f"{prefix}.wavenumber", default=1)
    phase = sum(k * x for k, x in zip(kvec, domain.grid))
    fn = np.sin if shape == "sin" else np.cos
    return _field(prefix, PhysicalField, domain, np.ascontiguousarray(
        np.broadcast_to(amplitude * fn(phase), domain.n)))


def build_initial(cfg: RunConfig, domain: Domain):
    """Initial data plus its start time (nonzero when restarting from file)."""
    kind = cfg.get_str("initial.kind", default="random",
                       choices=("single_mode", "random", "file"))
    if kind == "single_mode":
        return _mode_field(cfg, "initial", domain), 0.0
    if kind == "random":
        return _field(
            "initial", random_field, domain,
            spectrum_decay=cfg.get_float("initial.spectrum_decay", default=3.0),
            cutoff=cfg.get_float("initial.cutoff", default=5.0),
            seed=cfg.get_int("initial.seed", default=0),
            l2_norm=cfg.get_float("initial.l2_norm", default=1.0)), 0.0
    path = cfg.get_str("initial.path")
    try:
        time, fld, _ = read_snapshot(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"initial.path: {exc}") from exc
    if fld.domain.n != domain.n:
        raise ConfigError(f"initial.path: snapshot grid {fld.domain.n} "
                          f"does not match domain.n {domain.n}")
    return PhysicalField(domain, fld.values), time


def build_forcing(cfg: RunConfig, domain: Domain) -> SpectralField | None:
    """The dealiased forcing spectrum, or None for an unforced run."""
    kind = cfg.get_str("forcing.kind", default="none",
                       choices=("none", "single_mode", "file"))
    if kind == "none":
        return None
    if kind == "single_mode":
        fld = _mode_field(cfg, "forcing", domain)
    else:
        path = cfg.get_str("forcing.path")
        try:
            _, fld, _ = read_snapshot(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"forcing.path: {exc}") from exc
        if fld.domain.n != domain.n:
            raise ConfigError(f"forcing.path: snapshot grid {fld.domain.n} "
                              f"does not match domain.n {domain.n}")
        fld = PhysicalField(domain, fld.values)
    return dealias(forward_transform(fld))


def build_regularization(cfg: RunConfig) -> Regularization:
    try:
        return Regularization(
            mode=cfg.get_str("blowup.mode", default="none",
                             choices=("none", "spectral", "quasilinear")),
            nu=cfg.get_float("blowup.nu", default=0.0),
            alpha=cfg.get_float("blowup.alpha", default=2.0),
            sign=cfg.get_str("blowup.sign", default="oracle",
                             choices=("oracle", "dissipative")),
        )
    except ValueError as exc:
        raise ConfigError(f"blowup: {exc}") from exc


def build_stream_initial(cfg: RunConfig) -> PhysicalField:
    kind = cfg.get_str("blowup.initial", default="cos", choices=("cos", "random"))
    # single-mode studies are spectrally trivial; generic data is not
    n = cfg.get_int("blowup.n", default=256 if kind == "cos" else 2048)
    try:
        domain = Domain((n,))
    except ValueError as exc:
        raise ConfigError(f"blowup.n: {exc}") from exc
    if kind == "cos":
        amp = cfg.get_float("blowup.amplitude", default=1.0)
        return _field("blowup", PhysicalField, domain, amp * np.cos(domain.grid[0]))
    return _field(
        "blowup", random_field, domain,
        spectrum_decay=cfg.get_float("blowup.spectrum_decay", default=3.0),
        cutoff=cfg.get_float("blowup.cutoff", default=5.0),
        seed=cfg.get_int("blowup.seed", default=0),
        l2_norm=cfg.get_float("blowup.l2_norm", default=1.0))
