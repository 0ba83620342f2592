"""Machine configuration (Table 1 of the paper) and presets.

:class:`MachineConfig` collects every knob of the timing model. The
defaults reproduce the paper's simulated machine: 8-wide, deeply
pipelined, 128-entry issue window, 512-entry ROB, 512 physical
registers, two-stage bypass network, 3-cycle monolithic register file or
a single-cycle register cache backed by a 2-cycle backing file.

Factory helpers build the named configurations used throughout the
evaluation: ``use_based``, ``lru``, ``non_bypass`` register caches, the
``monolithic`` baseline, and the optimistic ``two_level`` register file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.isa.opcodes import OpClass


@dataclass(frozen=True)
class MachineConfig:
    """Full configuration of the simulated machine.

    Attributes are grouped to mirror Table 1; register-storage options
    select among the storage schemes the paper compares.
    """

    # --- widths and structure sizes (Table 1: Issue) ---
    fetch_width: int = 8
    dispatch_width: int = 8
    issue_width: int = 8
    retire_width: int = 8
    max_store_retire: int = 2
    window_size: int = 128
    rob_size: int = 512
    num_pregs: int = 512

    # --- pipeline depths (Table 1: Pipeline) ---
    front_depth: int = 11  # fetch 4 + decode 2 + rename 3 + dispatch 2
    bypass_stages: int = 2
    retire_delay: int = 3  # execute to earliest retirement

    # --- functional-unit pools (Table 1: Execution) ---
    fu_counts: dict[OpClass, int] = field(default_factory=lambda: {
        OpClass.INT_ALU: 6,
        OpClass.BRANCH: 2,
        OpClass.INT_MUL: 2,
        OpClass.FP_ALU: 4,
        OpClass.FP_MUL: 2,
        OpClass.FP_DIV: 2,
        OpClass.LOAD: 4,
        OpClass.STORE: 2,
        OpClass.SYSTEM: 8,
    })

    # --- register storage scheme ---
    storage: str = "register_cache"  # register_cache | monolithic | two_level

    # monolithic register file
    rf_read_latency: int = 3
    rf_write_latency: int | None = None  # defaults to read latency

    # register cache organization and policies
    cache_entries: int = 64
    cache_assoc: int = 2  # 0 = fully associative
    insertion: str = "use_based"  # always | non_bypass | use_based
    replacement: str = "use_based"  # lru | use_based
    indexing: str = "filtered_rr"  # preg | round_robin | minimum | filtered_rr
    backing_read_latency: int = 2
    backing_write_latency: int | None = None
    backing_read_ports: int = 1

    # use-count handling (paper §3.3 / §5.3)
    max_use: int = 7
    unknown_default: int = 1
    fill_default: int = 0
    pin_at_max: bool = True

    # degree-of-use predictor (Table 1: Use predictor)
    predictor_entries: int = 4_096
    predictor_assoc: int = 4
    predictor_enabled: bool = True
    wrongpath_use_noise: float = 0.0

    # two-level register file (paper §5.5)
    two_level_l1_extra: int = 32  # L1 size = cache_entries + this
    two_level_l2_latency: int = 2
    two_level_bandwidth: int = 4
    two_level_free_threshold: int = 12

    # Wrong-path register pressure: a mispredicted branch holds this many
    # speculatively allocated destination registers from dispatch until
    # resolution (the trace-driven front end does not inject wrong-path
    # instructions, so their rename-stage register demand is modelled as
    # a reservation; see DESIGN.md fidelity notes). The 512-register
    # machines rarely feel this; a 96-entry two-level L1 feels it hard,
    # which is the paper's point.
    wrongpath_alloc: int = 24

    # memory hierarchy toggles and latencies (Table 1: Memory). The
    # latencies feed HierarchyConfig; raising memory_latency moves a
    # memory-resident workload deeper into the stall-dominated regime
    # (the paper's mcf-like points).
    model_memory: bool = True
    model_icache: bool = True
    l2_latency: int = 12
    memory_latency: int = 180

    # Keep per-instruction issue/execute timestamps on the pipeline
    # (``Pipeline.issue_log``) for the dataflow-timing checks of
    # ``repro.testing.validate``.
    record_timing: bool = False

    # Log four ints per physical-register allocation into
    # ``SimStats.lifetimes`` (the Figure 1/2 input). Off by default: the
    # log costs host time and result size, and only the lifetime
    # analyses read it. Being a field, it enters config_key and so the
    # engine's result-cache key.
    record_lifetimes: bool = False

    # safety valve for the simulation loop
    max_cycles: int = 30_000_000

    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        # 64.0 and 64 are one config (config_key already collapses
        # them), so an integral float in an int field becomes that int
        # here, before anything is sized from it. A fractional value is
        # left for validate() to reject.
        for name, value in zip(_INT_FIELDS, _int_values(self)):
            if type(value) is float and value.is_integer():
                object.__setattr__(self, name, int(value))

    def validate(self) -> None:
        """Check internal consistency.

        Raises:
            ConfigError: when fields are mutually inconsistent, or an
                int field holds a non-integral number.
        """
        for name, value in zip(_INT_FIELDS, _int_values(self)):
            if type(value) is float:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.storage not in ("register_cache", "monolithic", "two_level"):
            raise ConfigError(f"unknown storage scheme {self.storage!r}")
        if self.cache_entries <= 0:
            raise ConfigError("cache_entries must be positive")
        if self.cache_assoc < 0:
            raise ConfigError("cache_assoc must be >= 0")
        if self.cache_assoc and self.cache_entries % self.cache_assoc:
            raise ConfigError(
                "cache_entries must be a multiple of cache_assoc"
            )
        if self.rf_read_latency < 1:
            raise ConfigError("rf_read_latency must be >= 1")
        if self.max_use < 1:
            raise ConfigError("max_use must be >= 1")
        if self.unknown_default < 0 or self.fill_default < 0:
            raise ConfigError("defaults must be non-negative")
        if self.bypass_stages < 1:
            raise ConfigError("bypass_stages must be >= 1")
        if self.num_pregs <= 64:
            raise ConfigError("num_pregs must exceed the architectural count")
        if self.l2_latency < 1:
            raise ConfigError("l2_latency must be >= 1")
        if self.memory_latency < self.l2_latency:
            raise ConfigError("memory_latency must be >= l2_latency")

    @property
    def read_latency(self) -> int:
        """Operand-storage read latency seen by the issue pipeline."""
        if self.storage == "monolithic":
            return self.rf_read_latency
        return 1  # register cache or two-level L1

    @property
    def effective_rf_write_latency(self) -> int:
        """Monolithic write latency (defaults to the read latency)."""
        return (
            self.rf_read_latency
            if self.rf_write_latency is None
            else self.rf_write_latency
        )

    @property
    def effective_backing_write_latency(self) -> int:
        """Backing-file write latency (defaults to its read latency)."""
        return (
            self.backing_read_latency
            if self.backing_write_latency is None
            else self.backing_write_latency
        )

    @property
    def two_level_l1_size(self) -> int:
        """L1 register count for the two-level scheme."""
        return self.cache_entries + self.two_level_l1_extra

    def replace(self, **changes) -> "MachineConfig":
        """Return a copy with *changes* applied (validated)."""
        config = dataclasses.replace(self, **changes)
        config.validate()
        return config

    def config_key(self) -> tuple[tuple[str, object], ...]:
        """Canonical, order- and type-stable identity of this config.

        Two configs that compare equal produce identical keys no matter
        how they were constructed: fields are sorted by name, numeric
        values are normalized (``64`` and ``64.0`` collapse, bools stay
        distinct from ints), and enum-keyed dicts such as ``fu_counts``
        become name-sorted tuples. The key is JSON-serializable, so it
        doubles as the configuration part of the experiment engine's
        content-addressed cache key and as a stable sweep label.

        The key is computed once per (frozen) config and memoized on it:
        the engine asks for it several times per job.
        """
        key = self.__dict__.get("_config_key")
        if key is None:
            # Most fields hold a value _normalize would return as it is;
            # only the rest pay for the generic call.
            items = []
            for name, value in zip(_FIELD_NAMES, _field_values(self)):
                kind = type(value)
                if kind is int:
                    if not -_EXACT_INT <= value <= _EXACT_INT:
                        value = _normalize(value)
                elif kind not in _PLAIN_TYPES:
                    value = _normalize(value)
                items.append((name, value))
            key = tuple(items)
            object.__setattr__(self, "_config_key", key)
        return key

    def config_hash(self) -> str:
        """SHA-256 hex digest of :meth:`config_key` (memoized)."""
        digest = self.__dict__.get("_config_hash")
        if digest is None:
            payload = json.dumps(self.config_key(), sort_keys=True)
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_config_hash", digest)
        return digest


#: Field names in :meth:`MachineConfig.config_key` order, sorted once,
#: and a getter returning their values as a tuple.
_FIELD_NAMES = tuple(sorted(f.name for f in dataclasses.fields(MachineConfig)))
_field_values = operator.attrgetter(*_FIELD_NAMES)

#: Value types :func:`_normalize` returns unchanged, as are ints that a
#: float holds exactly (its int -> float -> int trip could move others).
_PLAIN_TYPES = frozenset({str, bool, type(None)})
_EXACT_INT = 2**53

#: The int-typed fields, and a getter returning their values as a tuple.
_INT_FIELDS = tuple(
    f.name for f in dataclasses.fields(MachineConfig)
    if f.type in ("int", "int | None")
)
_int_values = operator.attrgetter(*_INT_FIELDS)


def _normalize(value: object) -> object:
    """Normalize one config value for :meth:`MachineConfig.config_key`."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):
        # 64 and 64.0 are equal configs; keep the key equal too. Floats
        # with fractional parts stay floats (repr round-trips exactly).
        as_float = float(value)
        return int(as_float) if as_float.is_integer() else as_float
    if isinstance(value, dict):
        return tuple(sorted(
            (getattr(key, "name", str(key)), _normalize(val))
            for key, val in value.items()
        ))
    if isinstance(value, (tuple, list)):
        return tuple(_normalize(item) for item in value)
    raise ConfigError(
        f"cannot canonicalize config value of type {type(value).__name__}"
    )


# ----------------------------------------------------------------------
# Named configurations used by the evaluation.


def use_based_config(**overrides) -> MachineConfig:
    """The paper's proposal: use-based policies, filtered round-robin."""
    return MachineConfig(**overrides)


def lru_config(**overrides) -> MachineConfig:
    """Yung & Wilhelm-style cache: write everything, evict LRU."""
    defaults = dict(
        insertion="always", replacement="lru", indexing="round_robin",
    )
    defaults.update(overrides)
    return MachineConfig(**defaults)


def non_bypass_config(**overrides) -> MachineConfig:
    """Cruz et al.-style cache: skip bypassed values, evict LRU."""
    defaults = dict(
        insertion="non_bypass", replacement="lru", indexing="round_robin",
    )
    defaults.update(overrides)
    return MachineConfig(**defaults)


def monolithic_config(read_latency: int = 3, **overrides) -> MachineConfig:
    """No register cache: a multi-cycle monolithic register file."""
    defaults = dict(storage="monolithic", rf_read_latency=read_latency)
    defaults.update(overrides)
    return MachineConfig(**defaults)


def two_level_config(**overrides) -> MachineConfig:
    """Optimistic two-level register file (paper §5.5 reference)."""
    defaults = dict(storage="two_level")
    defaults.update(overrides)
    return MachineConfig(**defaults)


#: Scheme name -> factory, used by sweeps and the CLI-style examples.
NAMED_CONFIGS = {
    "use_based": use_based_config,
    "lru": lru_config,
    "non_bypass": non_bypass_config,
    "monolithic": monolithic_config,
    "two_level": two_level_config,
}
