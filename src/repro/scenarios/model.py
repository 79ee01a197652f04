"""The declarative scenario DSL.

A scenario is a plain dataclass tree, loadable from (and dumpable to) a
dict, so incident definitions can live in code or in JSON files.  Loading
is *strict*: unknown keys, unknown fault kinds, negative offsets, or a
missing verdict raise :class:`~repro.errors.ScenarioError` at load time —
a malformed scenario never reaches the runner.

Composition model:

* a :class:`Scenario` owns ordered :class:`Phase`\\ s;
* a phase fires its :class:`FaultEntry` list at ``phase.at``, optionally
  ``repeat`` times spaced ``every`` seconds (crashloops, rolling
  restarts);
* entries within a phase carry *relative* offsets, so phases compose and
  overlap freely (compound incidents are just phases that interleave);
* :class:`WorkloadSpec` shapes the synthetic chain (depth/parallelism/
  rate, zoned cluster, input bursts, hot-key skew);
* :class:`VerdictSpec` states what the run must satisfy to pass.

Determinism contract: ``scenario.seed`` fully determines the fault plan
and the job, so the same scenario + seed reproduces the same transcript
byte for byte (the runner digests it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.plan import FaultPlan, FaultSpec
from repro.errors import ChaosError, ScenarioError
from repro.workloads.synthetic import HotKeySkew, InputBurst, WorkloadShaping


def _check_keys(data: Dict[str, Any], allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown}")


def _require(data: Dict[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return data[key]


@dataclass(frozen=True)
class FaultEntry:
    """One fault primitive inside a phase; ``at`` is relative to the
    phase's (repetition's) start time.  All other fields mirror
    :class:`~repro.chaos.plan.FaultSpec` and are validated by it."""

    kind: str
    at: float = 0.0
    target: str = "*"
    duration: float = 0.0
    count: int = 1
    rate: float = 0.0
    dup_rate: float = 0.0
    factor: float = 1.0
    fail_node: bool = False

    def validate(self) -> None:
        try:
            self.to_spec(0.0).validate()
        except ChaosError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"fault entry: {exc}") from exc

    def to_spec(self, base: float) -> FaultSpec:
        return FaultSpec(
            at=base + self.at,
            kind=self.kind,
            target=self.target,
            duration=self.duration,
            count=self.count,
            rate=self.rate,
            dup_rate=self.dup_rate,
            factor=self.factor,
            fail_node=self.fail_node,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEntry":
        if not isinstance(data, dict):
            raise ScenarioError(f"fault entry must be a dict, got {data!r}")
        names = tuple(f.name for f in fields(cls))
        _check_keys(data, names, "fault entry")
        _require(data, "kind", "fault entry")
        entry = cls(**data)
        entry.validate()
        return entry


@dataclass(frozen=True)
class Phase:
    """A named stage of the incident: its faults fire at ``at`` (+ the
    entries' relative offsets), repeated ``repeat`` times ``every``
    seconds apart."""

    name: str
    at: float
    faults: Tuple[FaultEntry, ...]
    repeat: int = 1
    every: float = 0.0

    def validate(self) -> None:
        if not self.name:
            raise ScenarioError("phase: name must be non-empty")
        if self.at < 0:
            raise ScenarioError(f"phase {self.name!r}: offset must be >= 0")
        if self.repeat < 1:
            raise ScenarioError(f"phase {self.name!r}: repeat must be >= 1")
        if self.repeat > 1 and self.every <= 0:
            raise ScenarioError(
                f"phase {self.name!r}: repeat > 1 needs every > 0"
            )
        if self.every < 0:
            raise ScenarioError(f"phase {self.name!r}: every must be >= 0")
        if not self.faults:
            raise ScenarioError(f"phase {self.name!r}: needs at least one fault")
        for entry in self.faults:
            entry.validate()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "at": self.at,
            "faults": [entry.to_dict() for entry in self.faults],
            "repeat": self.repeat,
            "every": self.every,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Phase":
        if not isinstance(data, dict):
            raise ScenarioError(f"phase must be a dict, got {data!r}")
        _check_keys(data, ("name", "at", "faults", "repeat", "every"), "phase")
        name = _require(data, "name", "phase")
        faults = _require(data, "faults", f"phase {name!r}")
        if not isinstance(faults, (list, tuple)):
            raise ScenarioError(f"phase {name!r}: faults must be a list")
        phase = cls(
            name=name,
            at=_require(data, "at", f"phase {name!r}"),
            faults=tuple(FaultEntry.from_dict(f) for f in faults),
            repeat=data.get("repeat", 1),
            every=data.get("every", 0.0),
        )
        phase.validate()
        return phase


def _shaping_to_dict(shaping: Optional[WorkloadShaping]) -> Optional[Dict[str, Any]]:
    if shaping is None:
        return None
    hot = shaping.hot_keys
    return {
        "bursts": [
            {"start": b.start, "duration": b.duration, "factor": b.factor}
            for b in shaping.bursts
        ],
        "hot_keys": None
        if hot is None
        else {
            "start_offset": hot.start_offset,
            "end_offset": hot.end_offset,
            "fraction": hot.fraction,
            "hot_key": hot.hot_key,
        },
    }


def _shaping_from_dict(data: Optional[Dict[str, Any]]) -> Optional[WorkloadShaping]:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ScenarioError(f"shaping must be a dict, got {data!r}")
    _check_keys(data, ("bursts", "hot_keys"), "shaping")
    bursts = data.get("bursts", [])
    if not isinstance(bursts, (list, tuple)):
        raise ScenarioError("shaping: bursts must be a list")
    burst_objs = []
    for b in bursts:
        if not isinstance(b, dict):
            raise ScenarioError(f"input burst must be a dict, got {b!r}")
        _check_keys(b, ("start", "duration", "factor"), "input burst")
        burst_objs.append(
            InputBurst(
                start=_require(b, "start", "input burst"),
                duration=_require(b, "duration", "input burst"),
                factor=_require(b, "factor", "input burst"),
            )
        )
    hot_data = data.get("hot_keys")
    hot = None
    if hot_data is not None:
        if not isinstance(hot_data, dict):
            raise ScenarioError(f"hot_keys must be a dict, got {hot_data!r}")
        _check_keys(
            hot_data,
            ("start_offset", "end_offset", "fraction", "hot_key"),
            "hot_keys",
        )
        hot = HotKeySkew(
            start_offset=_require(hot_data, "start_offset", "hot_keys"),
            end_offset=_require(hot_data, "end_offset", "hot_keys"),
            fraction=_require(hot_data, "fraction", "hot_keys"),
            hot_key=hot_data.get("hot_key", 0),
        )
    shaping = WorkloadShaping(bursts=tuple(burst_objs), hot_keys=hot)
    try:
        shaping.validate()
    except ScenarioError:
        raise
    except ChaosError as exc:  # pragma: no cover — defensive
        raise ScenarioError(str(exc)) from exc
    return shaping


@dataclass(frozen=True)
class WorkloadSpec:
    """The synthetic chain the incident plays out against."""

    depth: int = 3
    parallelism: int = 2
    n_records: int = 1200
    rate: float = 2000.0
    state_bytes: int = 8192
    num_keys: int = 16
    zones: int = 1
    spare_nodes: int = 2
    shaping: Optional[WorkloadShaping] = None

    def validate(self) -> None:
        if self.depth < 2:
            raise ScenarioError("workload: depth must be >= 2")
        if self.parallelism < 1:
            raise ScenarioError("workload: parallelism must be >= 1")
        if self.n_records < 1:
            raise ScenarioError("workload: n_records must be >= 1")
        if self.rate <= 0:
            raise ScenarioError("workload: rate must be > 0")
        if self.zones < 1:
            raise ScenarioError("workload: zones must be >= 1")
        if self.spare_nodes < 0:
            raise ScenarioError("workload: spare_nodes must be >= 0")
        if self.shaping is not None:
            self.shaping.validate()

    @property
    def horizon(self) -> float:
        """Failure-free ingest time (the window faults should land in)."""
        return self.n_records / self.rate

    def to_dict(self) -> Dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "shaping"}
        out["shaping"] = _shaping_to_dict(self.shaping)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        if not isinstance(data, dict):
            raise ScenarioError(f"workload must be a dict, got {data!r}")
        names = tuple(f.name for f in fields(cls))
        _check_keys(data, names, "workload")
        kwargs = dict(data)
        kwargs["shaping"] = _shaping_from_dict(data.get("shaping"))
        spec = cls(**kwargs)
        spec.validate()
        return spec


@dataclass(frozen=True)
class VerdictSpec:
    """What the run must satisfy to pass.

    * ``exactly_once`` — the sink-output projection must equal the
      failure-free baseline's, each origin exactly once.
    * ``allow_announced_divergence`` — relaxation: duplicates are
      acceptable if the run *announced* a degradation, and loss is
      acceptable only for records the poison registry quarantined
      (announced).  Silent divergence always fails.
    * ``max_recovery_s`` — every detected failure must reach
      ``recovered`` within this many simulated seconds.
    * ``require_watchdog_ok`` — the recovery-liveness watchdog must not
      have detected a stall (``stall_summary()['verdict'] == 'ok'``).
    """

    exactly_once: bool = True
    allow_announced_divergence: bool = False
    max_recovery_s: Optional[float] = None
    require_watchdog_ok: bool = True

    def validate(self) -> None:
        if self.max_recovery_s is not None and self.max_recovery_s <= 0:
            raise ScenarioError("verdict: max_recovery_s must be > 0")
        if not self.exactly_once and not self.allow_announced_divergence:
            raise ScenarioError(
                "verdict: exactly_once=False requires allow_announced_divergence"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerdictSpec":
        if not isinstance(data, dict):
            raise ScenarioError(f"verdict must be a dict, got {data!r}")
        names = tuple(f.name for f in fields(cls))
        _check_keys(data, names, "verdict")
        spec = cls(**data)
        spec.validate()
        return spec


@dataclass(frozen=True)
class Scenario:
    """One named production incident: phases + workload + verdict."""

    name: str
    description: str
    phases: Tuple[Phase, ...]
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    verdict: VerdictSpec = field(default_factory=VerdictSpec)
    seed: int = 0
    limit: float = 120.0
    checkpoint_interval: float = 0.5

    def validate(self) -> None:
        if not self.name:
            raise ScenarioError("scenario: name must be non-empty")
        if not self.phases:
            raise ScenarioError(f"scenario {self.name!r}: needs at least one phase")
        for phase in self.phases:
            phase.validate()
        self.workload.validate()
        self.verdict.validate()
        if self.limit <= 0:
            raise ScenarioError(f"scenario {self.name!r}: limit must be > 0")
        if self.checkpoint_interval <= 0:
            raise ScenarioError(
                f"scenario {self.name!r}: checkpoint_interval must be > 0"
            )

    def fault_plan(self, seed: Optional[int] = None) -> FaultPlan:
        """Flatten phases into an absolute-time :class:`FaultPlan`."""
        self.validate()
        plan = FaultPlan(seed=self.seed if seed is None else seed)
        for phase in self.phases:
            for rep in range(phase.repeat):
                base = phase.at + rep * phase.every
                for entry in phase.faults:
                    spec = entry.to_spec(base)
                    spec.validate()
                    plan.specs.append(spec)
        plan.specs.sort(key=lambda s: s.at)
        return plan

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "phases": [phase.to_dict() for phase in self.phases],
            "workload": self.workload.to_dict(),
            "verdict": self.verdict.to_dict(),
            "seed": self.seed,
            "limit": self.limit,
            "checkpoint_interval": self.checkpoint_interval,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError(f"scenario must be a dict, got {data!r}")
        _check_keys(
            data,
            (
                "name",
                "description",
                "phases",
                "workload",
                "verdict",
                "seed",
                "limit",
                "checkpoint_interval",
            ),
            "scenario",
        )
        name = _require(data, "name", "scenario")
        phases = _require(data, "phases", f"scenario {name!r}")
        if not isinstance(phases, (list, tuple)):
            raise ScenarioError(f"scenario {name!r}: phases must be a list")
        verdict = _require(data, "verdict", f"scenario {name!r}")
        scenario = cls(
            name=name,
            description=data.get("description", ""),
            phases=tuple(Phase.from_dict(p) for p in phases),
            workload=WorkloadSpec.from_dict(data.get("workload", {})),
            verdict=VerdictSpec.from_dict(verdict),
            seed=data.get("seed", 0),
            limit=data.get("limit", 120.0),
            checkpoint_interval=data.get("checkpoint_interval", 0.5),
        )
        scenario.validate()
        return scenario
