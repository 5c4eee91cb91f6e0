"""Flat key-value experiment configs with dotted section prefixes.

Grammar: one `key = value` pair per line, `#` comments, blank lines ignored.
Values are typed by the schema (int, float, bool, str, non-empty float
list); unknown keys are rejected with the full dotted path, syntax errors
with the line number.  Every experiment kind declares its own key set;
potential-shaped sub-sections (name + registry coefficients) share one
sub-schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import ParseError, ValidationError
from .geometry import PotentialField, make_potential

EXPERIMENT_KINDS = ("steer", "exit-time", "wkb", "obstruction", "spectral")


def _as_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _as_float_list(raw: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in raw.split(",") if v.strip() != "")
    if not values:
        raise ValueError("needs at least one value")
    return values


@dataclass(frozen=True)
class Field:
    caster: Callable[[str], Any]
    default: Any = None
    check: Optional[Callable[[Any], bool]] = None


POTENTIAL_FIELDS = {
    "name": Field(str, "zero"),
    "k": Field(_as_float_list, (1.0,)),
    "center": Field(_as_float_list, (0.0,)),
    "slope": Field(_as_float_list, (1.0,)),
    "offset": Field(float, 0.0),
    "amplitude": Field(_as_float_list, (1.0,)),
    "width": Field(_as_float_list, (1.0,)),
    "freq": Field(_as_float_list, (1.0,)),
    "phase": Field(_as_float_list, (0.0,)),
    "c": Field(_as_float_list, (0.0,)),
}


def _potential_section(prefix: str) -> dict[str, Field]:
    return {f"{prefix}.{key}": fld for key, fld in POTENTIAL_FIELDS.items()}


def build_potential(cfg: "ExperimentConfig", prefix: str, dim: int) -> PotentialField:
    """Instantiate the registry potential described by a config sub-section."""
    name = cfg[f"{prefix}.name"]
    if name == "zero":
        return make_potential("zero", dim)
    if name == "harmonic":
        return make_potential("harmonic", dim, k=cfg[f"{prefix}.k"],
                              center=cfg[f"{prefix}.center"])
    if name == "linear":
        return make_potential("linear", dim, slope=cfg[f"{prefix}.slope"],
                              offset=cfg[f"{prefix}.offset"])
    if name == "gaussian":
        return make_potential("gaussian", dim, amplitude=cfg[f"{prefix}.amplitude"][0],
                              center=cfg[f"{prefix}.center"],
                              width=cfg[f"{prefix}.width"])
    if name == "cosine":
        return make_potential("cosine", dim, amplitude=cfg[f"{prefix}.amplitude"],
                              freq=cfg[f"{prefix}.freq"], phase=cfg[f"{prefix}.phase"])
    if name == "polynomial":
        return make_potential("polynomial", dim, c=cfg[f"{prefix}.c"])
    raise ValidationError(f"unknown potential name {name!r}", key=f"{prefix}.name")


_positive = lambda v: v > 0
_nonnegative = lambda v: v >= 0

SCHEMAS: dict[str, dict[str, Field]] = {
    "steer": {
        "steer.maneuver": Field(str, "impulse",
                                lambda v: v in ("impulse", "burst",
                                                "gradient-curve", "full-rank")),
        "steer.dimension": Field(int, 1, _positive),
        "steer.k": Field(float, 1.0),
        "steer.eps_sweep": Field(_as_float_list, (1e-1, 1e-2, 1e-3)),
        "steer.tol": Field(float, 1e-2, _positive),
        "steer.x0": Field(_as_float_list, (0.0,)),
        "steer.p0": Field(_as_float_list, (0.0,)),
        "steer.target": Field(_as_float_list, (1.0,)),
        "steer.target_p": Field(_as_float_list, (0.0,)),
        **_potential_section("steer.v"),
        **_potential_section("steer.w"),
        **_potential_section("steer.w2"),
    },
    "exit-time": {
        "exit.force_bound": Field(float, 1.0, _positive),
        "exit.omega": Field(_as_float_list, (-1.0, 1.0)),
        "exit.x0": Field(_as_float_list, (0.0, 0.0)),
        "exit.p0": Field(_as_float_list, (0.0, 0.0)),
        "exit.ensemble": Field(int, 1000, _nonnegative),
        "exit.amplitude": Field(float, 100.0, _positive),
        "exit.breakpoints": Field(int, 6, _positive),
        "exit.horizon": Field(float, 3.0, _positive),
        "exit.step": Field(float, 2e-3, _positive),
        **_potential_section("exit.w2"),
    },
    "wkb": {
        "wkb.seed_lo": Field(float, -1.0),
        "wkb.seed_hi": Field(float, 1.0),
        "wkb.n_seeds": Field(int, 400, lambda v: v >= 8),
        "wkb.horizon": Field(float, 0.5, _positive),
        "wkb.step": Field(float, 1e-3, _positive),
        "wkb.hbar": Field(float, 1.0, _positive),
        "wkb.grid_n": Field(int, 512, lambda v: v >= 4),
        "wkb.grid_lo": Field(float, -3.141592653589793),
        "wkb.grid_len": Field(float, 6.283185307179586, _positive),
        "wkb.snapshot_t": Field(float, 0.2, _nonnegative),
        **_potential_section("wkb.s0"),
        **_potential_section("wkb.v"),
        **_potential_section("wkb.a0"),
    },
    "obstruction": {
        "obstruction.grid_n": Field(int, 512, lambda v: v >= 4),
        "obstruction.grid_lo": Field(float, -3.141592653589793),
        "obstruction.grid_len": Field(float, 6.283185307179586, _positive),
        "obstruction.omega": Field(_as_float_list, (-0.9, 0.9)),
        "obstruction.omega_prime": Field(_as_float_list, (-0.6, 0.6)),
        "obstruction.eps_grid": Field(_as_float_list, (0.01, 0.02, 0.04, 0.08)),
        "obstruction.n_seeds": Field(int, 1200, lambda v: v >= 8),
        "obstruction.fan_step": Field(float, 1e-3, _positive),
        "obstruction.n_samples": Field(int, 24, lambda v: v >= 2),
        "obstruction.ensemble": Field(int, 200, _nonnegative),
        "obstruction.amplitude": Field(float, 50.0, _positive),
        "obstruction.breakpoints": Field(int, 8, _positive),
        "obstruction.distance_floor": Field(float, 0.1, lambda v: 0.0 <= v < 1.0),
        "obstruction.enforce_hypothesis": Field(_as_bool, True),
        "obstruction.a0_width": Field(float, 0.18, _positive),
        **_potential_section("obstruction.v"),
        **_potential_section("obstruction.w"),
        **_potential_section("obstruction.s0"),
    },
    "spectral": {
        "spectral.a": Field(float, -1.0, lambda v: v < 1.0),
        "spectral.b": Field(float, 1.0),
        "spectral.c": Field(float, 0.0),
        "spectral.eps": Field(float, 0.5, _nonnegative),
        "spectral.N": Field(int, 12, lambda v: v >= 2),
        "spectral.coeff_bound": Field(int, 50, _positive),
        "spectral.precision": Field(float, 1e-9, _positive),
        "spectral.mu": Field(float, 1.0),
        "spectral.N_big": Field(int, 48, lambda v: v >= 4),
        "spectral.disc_r0": Field(float, 0.1, _positive),
    },
}

GLOBAL_FIELDS: dict[str, Field] = {
    "experiment": Field(str, None, lambda v: v in EXPERIMENT_KINDS),
    "seed": Field(int, 0, _nonnegative),
    "out": Field(str, "out"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated key-value map for one experiment run."""

    kind: str
    seed: int
    out: str
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical_text(self) -> str:
        lines = [f"experiment = {self.kind}", f"seed = {self.seed}"]
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, tuple):
                val = ",".join(repr(float(v)) for v in val)
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        # imported here: hashlib loads OpenSSL (+3.5 MB RSS), which an
        # obstruction run otherwise needs only after its engine is built
        import hashlib
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; fills documented defaults.

    Raises ParseError with the line number on bad syntax and ValidationError
    with the dotted key path on unknown keys or out-of-range values.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        raw[key] = value

    if "experiment" not in raw:
        raise ValidationError("missing required key", key="experiment")
    kind = raw.pop("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ValidationError(f"unknown experiment kind {kind!r}", key="experiment")

    schema = SCHEMAS[kind]
    values: dict[str, Any] = {}
    seed = GLOBAL_FIELDS["seed"].default
    out = GLOBAL_FIELDS["out"].default
    for key, rawval in raw.items():
        if key == "seed":
            seed = _cast(key, GLOBAL_FIELDS["seed"], rawval)
            continue
        if key == "out":
            out = rawval
            continue
        if key not in schema:
            raise ValidationError("unknown key", key=key)
        values[key] = _cast(key, schema[key], rawval)
    for key, fld in schema.items():
        if key not in values:
            if fld.check is not None and fld.default is not None \
                    and not fld.check(fld.default):
                raise ValidationError("invalid default", key=key)
            values[key] = fld.default
    return ExperimentConfig(kind=kind, seed=seed, out=out, values=values)


def _cast(key: str, fld: Field, rawval: str):
    try:
        val = fld.caster(rawval)
    except (ValueError, TypeError) as exc:
        raise ValidationError(str(exc), key=key) from exc
    if fld.check is not None and not fld.check(val):
        raise ValidationError(f"value {val!r} out of range", key=key)
    return val
