"""Flat key-value run configuration with dotted section names.

The format is one `section.key = value` assignment per line, `#` comments,
blank lines ignored.  RunConfig keeps the normalized key-value map, so
serialize/parse round-trips losslessly; typed accessors validate on access
and report the offending key (and line, at parse time) in their messages.
Every read goes through one accessor, which records the key, so that a key
no command reads (a misspelt one, say) is refused instead of ignored.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .blowup1d import REG_MODES, SIGN_CONVENTIONS, Regularization, _check_mean_zero
from .snapshots import read_snapshot
from .solver import SolverParams
from .spectral import (Domain, PhysicalField, SpectralField, dealias,
                       forward_transform, random_field)

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
REQUIRED = object()  # the default of an accessor whose key must be set


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Normalized key-value configuration map."""

    values: dict = field(default_factory=dict)
    read: set = field(default_factory=set, compare=False, repr=False)

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
    def _get(self, key, default, parse, what):
        """parse(value of key) or, when key is unset, parse(default): an error
        for the default REQUIRED and None for the default None."""
        self.read.add(key)
        val = self.values.get(key)
        if val is None:
            if default is REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            if default is None:
                return None
            val = default
        try:
            return parse(val)
        except ValueError:
            raise ConfigError(f"{key}: not {what}: {val!r}") from None

    def get_str(self, key, default=REQUIRED, choices=None):
        val = self._get(key, default, str, "a string")
        if choices is not None and val not in choices:
            raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {val!r}")
        return val

    def get_float(self, key, default=REQUIRED):
        return self._get(key, default, float, "a number")

    def get_int(self, key, default=REQUIRED):
        return self._get(key, default, int, "an integer")

    def get_bool(self, key, default=REQUIRED):
        return self._get(key, default, _bool, "true or false")

    def get_float_list(self, key, default=""):
        return self._get(key, default, lambda v: _list(v, float), "a number list")

    def get_int_list(self, key, default=REQUIRED):
        return self._get(key, default, lambda v: _list(v, int), "an integer list")

    def refuse_unread(self):
        """Raise a ConfigError naming every key that no accessor call has read."""
        unread = sorted(set(self.values) - self.read)
        if unread:
            raise ConfigError(f"{', '.join(unread)}: not read by this command "
                              "(misspelt, or unused with these settings)")


_BOOLS = {"true": True, "false": False}


def _bool(val):
    if isinstance(val, bool):  # an accessor's default
        return val
    try:
        return _BOOLS[val]
    except KeyError:
        raise ValueError(val) from None


def _list(val, parse):
    return [parse(item) for item in val.split(",") if item.strip()]


# builders ----------------------------------------------------------------

def _checked(prefix, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError (such as non-finite data) as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def build_domain(cfg: RunConfig) -> Domain:
    dim = cfg.get_int("domain.dim")
    n = cfg.get_int_list("domain.n")
    if len(n) == 1:
        n = n * dim
    if len(n) != dim:
        raise ConfigError(f"domain.n: expected {dim} entries, got {len(n)}")
    return _checked("domain", Domain, tuple(n))


def build_solver_params(cfg: RunConfig) -> SolverParams:
    return _checked("solver", SolverParams, nu=cfg.get_float("solver.nu"),
                    alpha=cfg.get_float("solver.alpha"), dt=cfg.get_float("solver.dt"),
                    t_end=cfg.get_float("solver.t_end"),
                    adaptive=cfg.get_bool("solver.adaptive", default=False))


def _mode_field(cfg, prefix, domain) -> PhysicalField:
    amplitude = cfg.get_float(f"{prefix}.amplitude", default=1.0)
    shape = cfg.get_str(f"{prefix}.function", default="sin", choices=("sin", "cos"))
    kvec = cfg.get_int_list(f"{prefix}.wavevector", default="1" + ", 0" * (domain.dim - 1))
    if len(kvec) != domain.dim:
        raise ConfigError(f"{prefix}.wavevector: expected {domain.dim} entries")
    # a mode outside the 2/3 box would be truncated to rounding noise
    cuts = [m // 3 for m in domain.n]
    if any(abs(k) > cut for k, cut in zip(kvec, cuts)):
        raise ConfigError(f"{prefix}.wavevector: {kvec} lies outside the 2/3 box "
                          f"|k_j| <= {cuts} of domain.n")
    phase = sum(k * x for k, x in zip(kvec, domain.grid))
    fn = np.sin if shape == "sin" else np.cos
    return _checked(prefix, PhysicalField, domain, np.ascontiguousarray(
        np.broadcast_to(amplitude * fn(phase), domain.n)))


def _random_input(cfg, prefix, domain) -> PhysicalField:
    return _checked(
        prefix, random_field, domain,
        spectrum_decay=cfg.get_float(f"{prefix}.spectrum_decay", default=3.0),
        cutoff=cfg.get_float(f"{prefix}.cutoff", default=5.0),
        seed=cfg.get_int(f"{prefix}.seed", default=0),
        l2_norm=cfg.get_float(f"{prefix}.l2_norm", default=1.0))


def _snapshot_input(cfg, key, grid=None, grid_key="domain.n"):
    """(time, field, g) of the snapshot named by key, its grid checked against
    grid (that of grid_key) when given; any failure is a ConfigError on key."""
    try:
        time, fld, g = read_snapshot(cfg.get_str(key))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if grid is not None and fld.domain.n != grid:
        raise ConfigError(f"{key}: snapshot grid {fld.domain.n} "
                          f"does not match {grid_key} {grid}")
    return time, fld, g


def build_initial(cfg: RunConfig, domain: Domain):
    """Initial data plus its start time (nonzero when restarting from file)."""
    kind = cfg.get_str("initial.kind", default="random",
                       choices=("single_mode", "random", "file"))
    if kind == "single_mode":
        return _mode_field(cfg, "initial", domain), 0.0
    if kind == "random":
        return _random_input(cfg, "initial", domain), 0.0
    time, fld, _ = _snapshot_input(cfg, "initial.path", domain.n)
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
        fld = PhysicalField(domain, _snapshot_input(cfg, "forcing.path", domain.n)[1].values)
    full = forward_transform(fld)
    kept = dealias(full)
    peak = np.abs(full.coeffs).max()
    tail = np.abs(full.coeffs - kept.coeffs).max() / peak if peak else 0.0
    if tail > 1e-10:
        warnings.warn(f"forcing is marginally resolved: spectral tail {tail:.2e} "
                      "of peak beyond the 2/3 cutoff", stacklevel=2)
    return kept


def build_regularization(cfg: RunConfig) -> Regularization:
    """The 1D regularization; each key is read only in the modes where it acts."""
    mode = cfg.get_str("blowup.mode", default="none", choices=REG_MODES)
    keys = {}
    if mode != "none":
        keys["nu"] = cfg.get_float("blowup.nu", default=0.0)
    if mode == "spectral":
        keys["alpha"] = cfg.get_float("blowup.alpha", default=2.0)
        keys["sign"] = cfg.get_str("blowup.sign", default="oracle", choices=SIGN_CONVENTIONS)
    return _checked("blowup", Regularization, mode=mode, **keys)


def build_stream_initial(cfg: RunConfig):
    """The 1D start state (w0, start time, start g) and the amplitude of cosine
    data (None for random or file data); nonzero times from a checkpoint."""
    kind = cfg.get_str("blowup.initial", default="cos", choices=("cos", "random", "file"))
    if kind == "file":
        n = cfg.get_int("blowup.n", default=None)
        time, w0, g = _snapshot_input(cfg, "blowup.path", None if n is None else (n,),
                                      "blowup.n")
        if w0.domain.dim != 1:
            raise ConfigError(f"blowup.path: snapshot is {w0.domain.dim}D, need 1D")
        _checked("blowup.path", _check_mean_zero, w0)
        return w0, time, g or 0.0, None
    # single-mode studies are spectrally trivial; generic data is not
    n = cfg.get_int("blowup.n", default=256 if kind == "cos" else 2048)
    domain = _checked("blowup.n", Domain, (n,))
    if kind == "cos":
        amp = cfg.get_float("blowup.amplitude", default=1.0)
        return (_checked("blowup", PhysicalField, domain, amp * np.cos(domain.grid[0])),
                0.0, 0.0, amp)
    return _random_input(cfg, "blowup", domain), 0.0, 0.0, None
