"""Extensible scenario-axis registry: the vocabulary of sweepable knobs.

Every dimension a :class:`~repro.orchestration.matrix.ScenarioMatrix`
can grid over — system size, synchrony topology, adversary strategy,
value diversity, per-cell fault count and placement, proposal profile,
the Section 5.4 ``k`` knob, timing budgets — is a registered
:class:`Axis`.  An axis bundles everything the engine needs to treat a
knob generically:

* a **parser** (``parse``) turning one CLI token into a value
  (``repro sweep --axis k=0,1,2`` works for *any* registered axis);
* a **canonical codec** (``canonical`` / ``encode`` / ``decode``) whose
  output feeds the JSONL records, the content-addressed cache keys and
  the structural seed derivation — one codec, four subsystems;
* **feasibility hooks** (``check`` drops infeasible cells, ``clamp``
  adjusts them) applied during matrix expansion;
* an optional **apply hook** mapping the value onto
  :class:`~repro.orchestration.config.RunConfig` keyword arguments, so
  axes that live outside :class:`ScenarioSpec`'s built-in fields (the
  ``extras`` mapping) still reach the runner.

Schema versioning
-----------------
The spec codec is *omit-defaults*: a spec whose non-legacy axes all sit
at their defaults serializes to exactly the schema-1 (PR-2) record, so
its SHA-256 cache key, shard-dedup key and derived seeds are unchanged —
pre-registry cache directories and JSONL shards keep working verbatim.
Only a spec using a new axis gains the new fields plus a
``"schema": 2`` marker; readers accept both and refuse records from a
*newer* schema loudly.  :data:`SCHEMA_VERSION` is the current writer
version.

Registering a custom axis (see ``examples/axis_sweep.py``)::

    from repro.orchestration.axes import AXES, Axis

    AXES.register(Axis(
        name="fifo", default=False, parse=parse_bool,
        apply=lambda kwargs, v: kwargs.__setitem__("fifo", v),
    ))

after which ``ScenarioMatrix(axes={"fifo": [False, True]})`` (or
``--axis fifo=false,true``) grids over it, outcomes carry it through
JSONL and the cache, and ``build_config`` applies it to every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, MutableMapping

from ..adversary import strategies
from ..adversary.strategies import AdversarySpec, normalize_placement
from ..analysis.feasibility import clamp_values, feasible_cell
from ..errors import ConfigurationError
from ..net.timing import normalize_timeout_schedule, timeout_schedule
from ..net.topology import Topology, fully_asynchronous, fully_timely
from .sweeps import normalize_profile

__all__ = [
    "SCHEMA_VERSION",
    "TOPOLOGY_KINDS",
    "ADVERSARY_KINDS",
    "Axis",
    "AxisRegistry",
    "AXES",
    "adversary_from_name",
    "normalize_topology",
    "topology_from_name",
    "parse_bool",
    "cell_extra_items",
    "decode_extras",
    "spec_schema2_fields",
    "spec_extra_labels",
]

#: Current writer version of the spec codec.  Schema 1 is the PR-2
#: fixed-field record; schema 2 adds registry axes (omit-defaults, so a
#: schema-1 record is exactly a schema-2 record with every new axis at
#: its default).
SCHEMA_VERSION = 2

#: Topology grid vocabulary (aliases accepted by :func:`normalize_topology`).
TOPOLOGY_KINDS = ("single_bisource", "fully_timely", "fully_asynchronous")

_TOPOLOGY_ALIASES = {
    "minimal": "single_bisource",
    "bisource": "single_bisource",
    "single_bisource": "single_bisource",
    "timely": "fully_timely",
    "fully_timely": "fully_timely",
    "async": "fully_asynchronous",
    "asynchronous": "fully_asynchronous",
    "fully_asynchronous": "fully_asynchronous",
}

#: ``kind -> (arg string -> AdversarySpec)``; the CLI shares this registry.
ADVERSARY_KINDS: dict[str, Callable[[str], AdversarySpec]] = {
    "crash": lambda arg: strategies.crash(),
    "noise": lambda arg: strategies.noise(float(arg) if arg else 0.5),
    "two_faced": lambda arg: strategies.two_faced(arg or "evil"),
    "flip_flop": lambda arg: strategies.flip_flop(
        arg.split("|") if arg else None
    ),
    "mute_coord": lambda arg: strategies.mute_coordinator(),
    "collude": lambda arg: strategies.collude(arg or "evil"),
    "spam_decide": lambda arg: strategies.spam_decide(arg or "evil"),
    "bot_relays": lambda arg: strategies.bot_relays(int(arg) if arg else 500),
    "crash_at": lambda arg: strategies.crash_at(float(arg) if arg else 25.0),
}


def adversary_from_name(name: str) -> AdversarySpec | None:
    """Build an :class:`AdversarySpec` from ``"kind"`` or ``"kind:arg"``.

    ``"none"`` (or the empty string) yields ``None`` — no adversary.
    """
    if name in ("", "none"):
        return None
    kind, _, arg = name.partition(":")
    if kind not in ADVERSARY_KINDS:
        raise ValueError(
            f"unknown adversary kind {kind!r} "
            f"(known: {', '.join(sorted(ADVERSARY_KINDS))}, none)"
        )
    return ADVERSARY_KINDS[kind](arg)


def normalize_topology(name: str) -> str:
    """Canonicalise a topology name (accepting CLI-style aliases)."""
    try:
        return _TOPOLOGY_ALIASES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r} (known: "
            f"{', '.join(sorted(set(_TOPOLOGY_ALIASES)))})"
        ) from None


def topology_from_name(kind: str, n: int) -> Topology | None:
    """Instantiate the named topology (``None`` = the runner's minimal
    single-bisource default, which depends on the correct set)."""
    kind = normalize_topology(kind)
    if kind == "single_bisource":
        return None
    if kind == "fully_timely":
        return fully_timely(n)
    return fully_asynchronous(n)


def parse_bool(text: str) -> bool:
    """Parse a CLI boolean token (``true/false``, ``1/0``, ``yes/no``)."""
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _identity(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class Axis:
    """One sweepable scenario dimension.

    Attributes:
        name: Axis (and, for built-ins, spec-field) name.
        default: Value cells take when the axis is not gridded.  For a
            *non-legacy* axis the default also controls serialization:
            default values are omitted from records and keys, which is
            what keeps pre-registry stores loading unchanged.
        parse: One CLI token -> value (``--axis name=tok1,tok2``).
        fields: The :class:`ScenarioSpec` fields this axis owns.
            ``("n", "t")`` for the size axis, a 1-tuple for most others,
            and ``()`` for axes stored in the spec's open ``extras``
            mapping (custom axes).
        aliases: Alternative CLI names (``--axis grid=...``).
        encode / decode: JSON-level codec for the value (defaults to
            identity; must be deterministic — the output feeds cache
            keys and seed derivation).
        canonical: Validator/normaliser applied to every gridded value
            (raises ``ValueError`` on junk, returns the canonical form).
        check: Cell-level feasibility predicate: given the full cell
            mapping, ``False`` drops the cell from the expansion.
        clamp: Cell-level adjuster, mutating the cell mapping in place
            (e.g. value diversity clamped to the feasibility bound).
        label: ``value -> cell-id fragment`` (``None`` = contribute
            nothing).  When unset, non-legacy axes auto-label non-default
            values as ``name=value``.
        apply: Hook mapping the value onto ``RunConfig`` kwargs during
            :func:`~repro.orchestration.matrix.build_config`.  Built-in
            axes are wired directly and leave this unset; extras-backed
            axes need it to reach the runner.
        legacy: True for the schema-1 (PR-2) field set, which is always
            serialized and participates in the fixed seed-key tuple.
        help: One-line description for CLI listings.
    """

    name: str
    default: Any
    parse: Callable[[str], Any]
    fields: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()
    encode: Callable[[Any], Any] = _identity
    decode: Callable[[Any], Any] = _identity
    canonical: Callable[[Any], Any] = _identity
    check: Callable[[Mapping[str, Any]], bool] | None = None
    clamp: Callable[[MutableMapping[str, Any]], None] | None = None
    label: Callable[[Any], str | None] | None = None
    apply: Callable[[MutableMapping[str, Any], Any], None] | None = None
    legacy: bool = False
    help: str = ""

    def set_on(self, cell: MutableMapping[str, Any], value: Any) -> None:
        """Store ``value`` into a cell mapping under this axis's fields."""
        if not self.fields:
            cell["extras"][self.name] = value
        elif len(self.fields) == 1:
            cell[self.fields[0]] = value
        else:
            for field_name, part in zip(self.fields, value):
                cell[field_name] = part

    def get_from_cell(self, cell: Mapping[str, Any]) -> Any:
        """Read this axis's value back out of a cell mapping."""
        if not self.fields:
            return cell["extras"].get(self.name, self.default)
        if len(self.fields) == 1:
            return cell[self.fields[0]]
        return tuple(cell[field_name] for field_name in self.fields)

    def of_spec(self, spec: Any) -> Any:
        """Read this axis's value from a :class:`ScenarioSpec`."""
        if not self.fields:
            return dict(spec.extras).get(self.name, self.default)
        if len(self.fields) == 1:
            return getattr(spec, self.fields[0])
        return tuple(getattr(spec, field_name) for field_name in self.fields)

    def label_for(self, value: Any) -> str | None:
        """The cell-id fragment for ``value`` (``None`` = omit)."""
        if self.label is not None:
            return self.label(value)
        if self.legacy or value == self.default:
            return None
        return f"{self.name}={value}"


class AxisRegistry:
    """Ordered registry of scenario axes.

    Registration order is load-bearing: it is the nesting order of the
    matrix cross-product (so the built-in axes reproduce the historical
    ``sizes × topologies × adversaries × value_counts`` expansion order
    exactly) and the order of cell-id label fragments.
    """

    def __init__(self) -> None:
        self._axes: dict[str, Axis] = {}
        self._aliases: dict[str, str] = {}

    def register(self, axis: Axis) -> Axis:
        """Add an axis; name/alias collisions raise ``ValueError``."""
        for name in (axis.name, *axis.aliases):
            if name in self._axes or name in self._aliases:
                raise ValueError(f"axis name {name!r} is already registered")
        self._axes[axis.name] = axis
        for alias in axis.aliases:
            self._aliases[alias] = axis.name
        return axis

    def unregister(self, name: str) -> None:
        """Remove a (typically custom) axis and its aliases."""
        axis = self.resolve(name)
        del self._axes[axis.name]
        for alias in axis.aliases:
            self._aliases.pop(alias, None)

    def resolve(self, name: str) -> Axis:
        """Look an axis up by name or alias; unknown names raise with
        the full vocabulary in the message."""
        canonical = self._aliases.get(name, name)
        try:
            return self._axes[canonical]
        except KeyError:
            raise ValueError(
                f"unknown axis {name!r} (known: {', '.join(self.names())})"
            ) from None

    def get(self, name: str) -> Axis | None:
        try:
            return self.resolve(name)
        except ValueError:
            return None

    def names(self) -> tuple[str, ...]:
        return tuple(self._axes)

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[Axis]:
        return iter(self._axes.values())

    def __len__(self) -> int:
        return len(self._axes)

    def describe(self) -> str:
        """One line per axis: name, aliases, default, help (CLI use)."""
        lines = []
        for axis in self:
            alias = f" (alias: {', '.join(axis.aliases)})" if axis.aliases else ""
            lines.append(
                f"{axis.name}{alias} [default: {axis.default!r}] {axis.help}"
            )
        return "\n".join(lines)


def _parse_size(text: str) -> tuple[int, int]:
    n_text, sep, t_text = text.partition(":")
    if not sep:
        raise ValueError(f"bad size {text!r} (expected N:T)")
    return (int(n_text), int(t_text))


def _canonical_size(value: Any) -> tuple[int, int]:
    n, t = value
    n, t = int(n), int(t)
    if n < 1 or t < 0:
        raise ValueError(f"bad size (n={n}, t={t})")
    return (n, t)


def _canonical_adversary(name: str) -> str:
    adversary_from_name(str(name))  # validate eagerly
    return str(name)


def _canonical_num_values(value: Any) -> int:
    m = int(value)
    if m < 1:
        raise ValueError(f"value diversity must be >= 1, got {m}")
    return m


def _parse_faults(text: str) -> int | None:
    return None if text in ("none", "t") else int(text)


def _canonical_faults(value: Any) -> int | None:
    if value is None:
        return None
    faults = int(value)
    if faults < 0:
        raise ValueError(f"faults must be >= 0, got {faults}")
    return faults


def _canonical_variant(value: Any) -> str:
    variant = str(value)
    if variant not in ("standard", "bot"):
        raise ValueError(f"unknown variant {variant!r}")
    return variant


def _canonical_k(value: Any) -> int:
    k = int(value)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return k


def _canonical_profile(value: Any) -> str:
    return normalize_profile(str(value))


def _clamp_num_values(cell: MutableMapping[str, Any]) -> None:
    cell["num_values"] = clamp_values(
        cell["n"], cell["t"], cell["num_values"],
        faults=cell["faults"], variant=cell["variant"],
    )


#: The global axis registry.  Registration order defines grid nesting
#: (legacy axes first, matching the pre-registry expansion order).
AXES = AxisRegistry()

AXES.register(Axis(
    name="size", default=(4, 1), parse=_parse_size, fields=("n", "t"),
    aliases=("grid",), canonical=_canonical_size,
    encode=lambda v: list(v), decode=lambda v: tuple(int(x) for x in v),
    check=lambda cell: cell["n"] > 3 * cell["t"],
    legacy=True, help="system size as N:T pairs (resilience n > 3t)",
))
AXES.register(Axis(
    name="topology", default="single_bisource", parse=str,
    fields=("topology",), canonical=normalize_topology, legacy=True,
    help="synchrony topology (minimal/timely/async)",
))
AXES.register(Axis(
    name="adversary", default="crash", parse=str, fields=("adversary",),
    canonical=_canonical_adversary, legacy=True,
    help="Byzantine strategy as KIND or KIND:ARG ('none' for none)",
))
AXES.register(Axis(
    name="num_values", default=2, parse=int, fields=("num_values",),
    aliases=("m",), canonical=_canonical_num_values,
    clamp=_clamp_num_values, legacy=True,
    help="distinct-proposal count, clamped to the feasibility bound",
))
AXES.register(Axis(
    name="faults", default=None, parse=_parse_faults, fields=("faults",),
    canonical=_canonical_faults,
    check=lambda cell: feasible_cell(
        cell["n"], cell["t"], faults=cell["faults"]
    ),
    legacy=True, help="per-cell Byzantine count (none = full budget t)",
))
AXES.register(Axis(
    name="variant", default="standard", parse=str, fields=("variant",),
    canonical=_canonical_variant, legacy=True,
    help="protocol variant (standard = Figure 4, bot = Section 7)",
))
AXES.register(Axis(
    name="k", default=0, parse=int, fields=("k",), canonical=_canonical_k,
    check=lambda cell: feasible_cell(cell["n"], cell["t"], k=cell["k"]),
    legacy=True, help="Section 5.4 knob (bisource width t+1+k; k <= t)",
))
AXES.register(Axis(
    name="max_time", default=1_000_000.0, parse=float, fields=("max_time",),
    canonical=float, legacy=True, help="virtual-time budget per run",
))
AXES.register(Axis(
    name="max_events", default=20_000_000, parse=int, fields=("max_events",),
    canonical=int, legacy=True, help="event budget per run",
))
AXES.register(Axis(
    name="placement", default="tail", parse=str, fields=("placement",),
    canonical=normalize_placement,
    label=lambda v: None if v == "tail" else f"place={v}",
    help="where the faulty pids sit (tail/head/spread)",
))
AXES.register(Axis(
    name="proposals", default="round_robin", parse=str, fields=("proposals",),
    canonical=_canonical_profile,
    label=lambda v: None if v == "round_robin" else f"prop={v}",
    help="proposal profile (round_robin/block/skewed/unanimous)",
))
AXES.register(Axis(
    name="fifo", default=False, parse=parse_bool,
    canonical=lambda v: bool(v),
    label=lambda v: "fifo" if v else None,
    apply=lambda kwargs, v: kwargs.__setitem__("fifo", bool(v)),
    help="FIFO channel delivery (extras-backed demonstration axis)",
))


def _canonical_timeouts(value: Any) -> str:
    try:
        return normalize_timeout_schedule(str(value))
    except ConfigurationError as exc:
        # The axis contract reports bad grid values as ValueError.
        raise ValueError(str(exc)) from None


def _apply_timeouts(kwargs: MutableMapping[str, Any], value: str) -> None:
    if value != "linear":
        kwargs["timeout_fn"] = timeout_schedule(value)


AXES.register(Axis(
    name="timeouts", default="linear", parse=str,
    canonical=_canonical_timeouts,
    label=lambda v: None if v == "linear" else f"to={v}",
    apply=_apply_timeouts,
    help="EA round-timeout schedule "
         "(linear[:SLOPE]/constant:VALUE/exponential:BASE[:SCALE])",
))


def _parse_schedule(text: str) -> tuple[int, ...] | None:
    if text in ("", "none"):
        return None
    return tuple(int(part) for part in text.split("-") if part != "")


def _canonical_schedule(value: Any) -> tuple[int, ...] | None:
    if value is None:
        return None
    schedule = tuple(int(c) for c in value)
    if any(c < 0 for c in schedule):
        raise ValueError(f"schedule indices must be >= 0, got {schedule}")
    return schedule


def _apply_schedule(
    kwargs: MutableMapping[str, Any], value: tuple[int, ...] | None
) -> None:
    if value is not None:
        kwargs["check_schedule"] = value


AXES.register(Axis(
    name="schedule", default=None, parse=_parse_schedule,
    canonical=_canonical_schedule,
    encode=lambda v: None if v is None else list(v),
    decode=lambda v: None if v is None else tuple(int(c) for c in v),
    label=lambda v: None if v is None else "sched=" + "-".join(map(str, v)),
    apply=_apply_schedule,
    help="checker schedule replay: '-'-joined choice indices "
         "(repro.checking counterexamples; forces check-mode semantics)",
))


def canonical_extras(
    extras: Mapping[str, Any],
) -> tuple[tuple[str, Any], ...]:
    """Canonical ``ScenarioSpec.extras`` tuple: sorted, defaults omitted
    (a spec with every custom axis at its default must compare — and
    hash — equal to one that never mentioned them)."""
    out = []
    for name, value in extras.items():
        axis = AXES.get(name)
        if axis is None or value != axis.default:
            out.append((name, value))
    return tuple(sorted(out))


def cell_extra_items(cell: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Sorted non-default ``(name, encoded value)`` pairs of a cell's
    non-legacy axes — the schema-2 extension of the structural seed key
    (empty for purely legacy cells, which therefore keep their
    pre-registry seeds)."""
    out = []
    for axis in AXES:
        if axis.legacy:
            continue
        value = axis.get_from_cell(cell)
        if value != axis.default:
            out.append((axis.name, axis.encode(value)))
    return tuple(sorted(out))


def spec_schema2_fields(spec: Any) -> dict[str, Any]:
    """The fields a spec's schema-2 record adds on top of the schema-1
    layout (empty for legacy-valued specs): non-default field-backed
    non-legacy axes flat under their names, and the open ``extras``
    mapping — registered entries through their codec, *unregistered*
    entries verbatim, so a record written with a custom axis round-trips
    byte-identically even through a process that never registered it."""
    out: dict[str, Any] = {}
    for axis in AXES:
        if axis.legacy or not axis.fields:
            continue
        value = axis.of_spec(spec)
        if value != axis.default:
            out[axis.name] = axis.encode(value)
    if spec.extras:
        encoded = {}
        for name, value in spec.extras:
            axis = AXES.get(name)
            encoded[name] = axis.encode(value) if axis is not None else value
        out["extras"] = encoded
    return out


def decode_extras(raw: Mapping[str, Any]) -> dict[str, Any]:
    """Decode a record's ``extras`` mapping: registered axes go through
    their codec and validator; unregistered names are preserved verbatim
    (dropping them would silently collapse distinct scenarios)."""
    out: dict[str, Any] = {}
    for name, value in raw.items():
        axis = AXES.get(name)
        if axis is not None and not axis.fields:
            out[name] = axis.canonical(axis.decode(value))
        else:
            out[name] = value
    return out


def spec_extra_labels(spec: Any) -> list[str]:
    """Cell-id fragments contributed by non-legacy axes, in registry
    order (empty for legacy specs, keeping historical cell ids).
    Extras of axes not currently registered label as ``name=value`` so
    distinct scenarios keep distinct cell ids on foreign machines."""
    labels = []
    for axis in AXES:
        if axis.legacy:
            continue
        text = axis.label_for(axis.of_spec(spec))
        if text:
            labels.append(text)
    for name, value in spec.extras:
        if AXES.get(name) is None:
            labels.append(f"{name}={value}")
    return labels
