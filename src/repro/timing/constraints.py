"""Building the constraint system from a document (paper section 5.3.1).

"The basic tree structure of CMIF documents imposes a default
synchronization that is based on the node type of the ancestors of a data
(leaf) node":

* a sequential node has a default arc from its start to its first child,
  arcs "from the end of leaf nodes to the start of the successor leaf",
  and an arc "from the last child of a sequential node to the end of its
  parent"; the relationship is "start the successor as soon as possible";
* a parallel node has default arcs "from the parallel parent node to each
  of the children" and "from the end of each of the children to the end
  of the parent"; the join relationship is "start the successor when the
  slowest parallel node finishes";
* events on one channel are serialized "in linear time order, with the
  start of the second of two events occurring at a (possibly constrained)
  time after the completion of the first" (section 3.1);
* explicit arcs contribute the window ``tref + delta <= t <= tref +
  epsilon``.

Every rule becomes a difference constraint between two *anchor variables*
(the begin or end time of a node).  The paper's fork/join observation
("default synchronization arcs correspond to fork and join operations")
is literally how the constraints read: par-node begins are forks, ends
are joins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.document import CmifDocument, CompiledDocument
from repro.core.errors import SyncArcError
from repro.core.nodes import ContainerNode, Node, NodeKind
from repro.core.paths import node_path, resolve_path
from repro.core.syncarc import Anchor, ConditionalArc, Strictness, SyncArc
from repro.core.tree import iter_preorder


class VarKind(enum.Enum):
    """The two anchor variables of every node."""

    BEGIN = "begin"
    END = "end"

    @classmethod
    def from_anchor(cls, anchor: Anchor) -> "VarKind":
        """Map an arc anchor to its time variable."""
        return cls.BEGIN if anchor is Anchor.BEGIN else cls.END


@dataclass(frozen=True)
class TimeVar:
    """One time variable: a node anchor identified by its path."""

    path: str
    kind: VarKind

    def __str__(self) -> str:
        return f"{self.kind.value}({self.path})"


class ConstraintKind(enum.Enum):
    """The origin categories of constraints, for diagnosis and ablation."""

    DURATION = "duration"
    SEQ_DEFAULT = "seq-default"
    PAR_DEFAULT = "par-default"
    CHANNEL_ORDER = "channel-order"
    EXPLICIT_ARC = "explicit-arc"
    ROOT_ANCHOR = "root-anchor"


@dataclass(frozen=True)
class Constraint:
    """A difference constraint ``var - base >= weight_ms``.

    Upper bounds ``var - base <= w`` are stored as the equivalent
    ``base - var >= -w`` so the solver deals with one form only;
    ``describe_upper`` remembers the original orientation for messages.
    ``relaxable`` marks constraints originating from *may* arcs, which the
    scheduler is allowed to drop to resolve a conflict (paper section
    5.3.2: may synchronization "is desirable but not essential").
    """

    var: TimeVar
    base: TimeVar
    weight_ms: float
    kind: ConstraintKind
    relaxable: bool = False
    arc: SyncArc | None = None
    note: str = ""

    def describe(self) -> str:
        tail = f" [{self.note}]" if self.note else ""
        relax = " (may)" if self.relaxable else ""
        return (f"{self.var} >= {self.base} + {self.weight_ms:g}ms "
                f"<{self.kind.value}>{relax}{tail}")


@dataclass
class ConstraintSystem:
    """All variables and constraints of one compiled document."""

    variables: list[TimeVar] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    root_begin: TimeVar | None = None
    var_index: dict[TimeVar, int] = field(default_factory=dict)

    def variable(self, var: TimeVar) -> TimeVar:
        """Intern ``var``, assigning it an index on first sight."""
        if var not in self.var_index:
            self.var_index[var] = len(self.variables)
            self.variables.append(var)
        return var

    def add(self, constraint: Constraint) -> None:
        """Register a constraint (interning both endpoints)."""
        self.variable(constraint.var)
        self.variable(constraint.base)
        self.constraints.append(constraint)

    def lower(self, var: TimeVar, base: TimeVar, weight_ms: float,
              kind: ConstraintKind, *, relaxable: bool = False,
              arc: SyncArc | None = None, note: str = "") -> None:
        """Add ``var >= base + weight_ms``."""
        self.add(Constraint(var, base, weight_ms, kind,
                            relaxable=relaxable, arc=arc, note=note))

    def upper(self, var: TimeVar, base: TimeVar, weight_ms: float,
              kind: ConstraintKind, *, relaxable: bool = False,
              arc: SyncArc | None = None, note: str = "") -> None:
        """Add ``var <= base + weight_ms`` (stored in >= form)."""
        self.add(Constraint(base, var, -weight_ms, kind,
                            relaxable=relaxable, arc=arc,
                            note=note or "upper bound"))

    def remove_all(self, removed: list["Constraint"]) -> None:
        """Remove constraints *by identity* in one pass.

        Identity matters: the system may hold several value-equal
        constraints (two identical arcs on one node, say) and a delta
        must only take out the instances it names.
        """
        removed_ids = {id(constraint) for constraint in removed}
        self.constraints = [constraint for constraint in self.constraints
                            if id(constraint) not in removed_ids]

    def apply_delta(self, delta: "ConstraintDelta") -> None:
        """Mutate the system per ``delta`` (adds intern new variables).

        Full-rebuild deltas cannot be applied in place; callers must
        rebuild via :func:`build_constraints`.
        """
        if delta.full_rebuild:
            raise SyncArcError(
                f"delta requires a full rebuild ({delta.reason}); "
                f"apply_delta only handles in-place changes")
        if delta.removed:
            self.remove_all(delta.removed)
        for constraint in delta.added:
            self.add(constraint)

    def without(self, dropped: "Constraint") -> "ConstraintSystem":
        """A copy of the system with one constraint removed."""
        clone = ConstraintSystem()
        clone.root_begin = self.root_begin
        for constraint in self.constraints:
            if constraint is not dropped:
                clone.add(constraint)
        if self.root_begin is not None:
            clone.variable(self.root_begin)
        return clone

    @property
    def size(self) -> tuple[int, int]:
        """``(variable count, constraint count)``."""
        return len(self.variables), len(self.constraints)


def begin_var(node_or_path: Node | str) -> TimeVar:
    """The begin-time variable of a node."""
    path = (node_or_path if isinstance(node_or_path, str)
            else node_path(node_or_path))
    return TimeVar(path, VarKind.BEGIN)


def end_var(node_or_path: Node | str) -> TimeVar:
    """The end-time variable of a node."""
    path = (node_or_path if isinstance(node_or_path, str)
            else node_path(node_or_path))
    return TimeVar(path, VarKind.END)


def anchor_var(node: Node, anchor: Anchor) -> TimeVar:
    """The variable an arc endpoint refers to."""
    return begin_var(node) if anchor is Anchor.BEGIN else end_var(node)


def build_constraints(compiled: CompiledDocument, *,
                      channel_serialization: bool = True,
                      include_conditional: bool = False) -> ConstraintSystem:
    """Build the full constraint system for a compiled document.

    ``channel_serialization`` exists for the ablation bench: disabling it
    removes the section-3.1 per-channel ordering constraints so their
    effect can be measured.  ``include_conditional`` folds conditional
    (hyper-navigation) arcs into the static schedule; by default they are
    runtime-only, as DESIGN.md notes.
    """
    document = compiled.document
    system = ConstraintSystem()
    root = document.root
    system.root_begin = begin_var(root)
    system.variable(system.root_begin)

    for node in iter_preorder(root):
        _add_node_constraints(system, compiled, node)
    if channel_serialization:
        _add_channel_constraints(system, compiled)
    _add_explicit_arcs(system, document, include_conditional)
    return system


def _add_node_constraints(system: ConstraintSystem,
                          compiled: CompiledDocument, node: Node) -> None:
    """Durations for leaves; default fork/join arcs for containers."""
    begin = begin_var(node)
    end = end_var(node)
    if node.is_leaf:
        event = compiled.event_for(node)
        duration = event.duration_ms
        note = f"duration of {event.event_id}"
        system.lower(end, begin, duration, ConstraintKind.DURATION, note=note)
        system.upper(end, begin, duration, ConstraintKind.DURATION, note=note)
        return

    children = node.children
    # A container never ends before it begins, even when empty.
    kind = (ConstraintKind.SEQ_DEFAULT if node.kind is NodeKind.SEQ
            else ConstraintKind.PAR_DEFAULT)
    system.lower(end, begin, 0.0, kind, note="container non-negative span")
    if not children:
        return
    if node.kind is NodeKind.SEQ:
        system.lower(begin_var(children[0]), begin, 0.0, kind,
                     note="seq start -> first child")
        for before, after in zip(children, children[1:]):
            system.lower(begin_var(after), end_var(before), 0.0, kind,
                         note=f"seq chain {before.label()} -> "
                              f"{after.label()}")
        system.lower(end, end_var(children[-1]), 0.0, kind,
                     note="last child -> seq end")
    else:
        for child in children:
            system.lower(begin_var(child), begin, 0.0, kind,
                         note=f"par fork -> {child.label()}")
            system.lower(end, end_var(child), 0.0, kind,
                         note=f"par join <- {child.label()}")


def _add_channel_constraints(system: ConstraintSystem,
                             compiled: CompiledDocument) -> None:
    """Serialize events sharing a channel, in document order."""
    for channel, events in compiled.per_channel.items():
        for before, after in zip(events, events[1:]):
            system.lower(
                begin_var(after.node_path), end_var(before.node_path), 0.0,
                ConstraintKind.CHANNEL_ORDER,
                note=f"channel {channel!r} order")


def _add_explicit_arcs(system: ConstraintSystem, document: CmifDocument,
                       include_conditional: bool) -> None:
    """Translate every explicit arc into its window constraints."""
    for node in iter_preorder(document.root):
        for arc in node.arcs:
            if isinstance(arc, ConditionalArc) and not include_conditional:
                continue
            source = resolve_path(node, arc.source)
            destination = resolve_path(node, arc.destination)
            src = anchor_var(source, arc.src_anchor)
            dst = anchor_var(destination, arc.dst_anchor)
            delta_ms, epsilon_ms = arc.window_ms(document.timebase)
            offset_ms = document.timebase.to_ms(arc.offset)
            relaxable = arc.strictness is Strictness.MAY
            note = f"arc at {node_path(node)}: {arc.describe()}"
            system.lower(dst, src, offset_ms + delta_ms,
                         ConstraintKind.EXPLICIT_ARC,
                         relaxable=relaxable, arc=arc, note=note)
            if epsilon_ms is not None:
                system.upper(dst, src, offset_ms + epsilon_ms,
                             ConstraintKind.EXPLICIT_ARC,
                             relaxable=relaxable, arc=arc, note=note)


# ---------------------------------------------------------------------------
# Incremental deltas: the constraint-level effect of one authoring edit.
#
# The authoring loop of section 2 ("view or (possibly) edit a document")
# re-schedules after every edit.  Rather than rebuilding the whole
# constraint system, each operation in :mod:`repro.core.edit` maps to a
# small set of added/removed constraints; the incremental solver
# (:class:`repro.timing.solver.IncrementalSolver`) then re-relaxes only
# the affected region.  Edits that change the tree topology (reorder,
# splice, duplicate, remove) invalidate node paths and the per-channel
# event order wholesale, so they are declared ``full_rebuild`` instead of
# being diffed constraint-by-constraint.


@dataclass
class ConstraintDelta:
    """Added/removed constraints equivalent to one document edit.

    ``removed`` lists live constraint *instances* from the system being
    edited (identity, not equality).  ``full_rebuild`` marks edits whose
    effect cannot be expressed as a local diff; ``reason`` says why, for
    diagnostics and engine statistics.
    """

    added: list[Constraint] = field(default_factory=list)
    removed: list[Constraint] = field(default_factory=list)
    full_rebuild: bool = False
    reason: str = ""

    @property
    def empty(self) -> bool:
        """True when the edit has no scheduling effect at all."""
        return not (self.added or self.removed or self.full_rebuild)

    def describe(self) -> str:
        if self.full_rebuild:
            return f"full rebuild ({self.reason})"
        return (f"+{len(self.added)}/-{len(self.removed)} constraints"
                + (f" ({self.reason})" if self.reason else ""))


class ConstraintIndex:
    """Anchor -> live-constraint lookup kept in sync with a system.

    The delta builders need the *current instances* of the constraints an
    edit replaces: the two duration constraints of a leaf, or every
    constraint an explicit arc contributed.  Scanning
    ``system.constraints`` per edit would cost O(E); this index keeps the
    lookups O(1) and is updated through :meth:`apply` alongside the
    system itself.
    """

    def __init__(self, system: ConstraintSystem) -> None:
        self._duration: dict[str, list[Constraint]] = {}
        self._by_arc: dict[int, list[Constraint]] = {}
        for constraint in system.constraints:
            self._note(constraint)

    def _note(self, constraint: Constraint) -> None:
        if constraint.arc is not None:
            self._by_arc.setdefault(id(constraint.arc), []).append(constraint)
        elif constraint.kind is ConstraintKind.DURATION:
            self._duration.setdefault(constraint.var.path,
                                      []).append(constraint)

    def _forget(self, constraint: Constraint) -> None:
        if constraint.arc is not None:
            bucket = self._by_arc.get(id(constraint.arc), [])
        elif constraint.kind is ConstraintKind.DURATION:
            bucket = self._duration.get(constraint.var.path, [])
        else:
            return
        for position, candidate in enumerate(bucket):
            if candidate is constraint:
                del bucket[position]
                break

    def duration_constraints(self, leaf_path: str) -> list[Constraint]:
        """The lower+upper duration constraints of the leaf at ``path``."""
        return list(self._duration.get(leaf_path, []))

    def arc_constraints(self, arc: SyncArc) -> list[Constraint]:
        """Every constraint contributed by this arc instance."""
        return list(self._by_arc.get(id(arc), []))

    def apply(self, delta: ConstraintDelta) -> None:
        """Track a delta that is being applied to the system."""
        for constraint in delta.removed:
            self._forget(constraint)
        for constraint in delta.added:
            self._note(constraint)


def retime_delta(index: ConstraintIndex, leaf_path: str,
                 new_duration_ms: float, *,
                 event_id: str | None = None) -> ConstraintDelta:
    """The delta for :func:`repro.core.edit.retime` on a leaf.

    Replaces the leaf's lower+upper duration constraints with a pair
    carrying the new weight — exactly the constraints
    :func:`build_constraints` would emit for the new duration.
    """
    removed = index.duration_constraints(leaf_path)
    begin = TimeVar(leaf_path, VarKind.BEGIN)
    end = TimeVar(leaf_path, VarKind.END)
    note = f"duration of {event_id or leaf_path}"
    added = [
        Constraint(end, begin, new_duration_ms, ConstraintKind.DURATION,
                   note=note),
        Constraint(begin, end, -new_duration_ms, ConstraintKind.DURATION,
                   note=note),
    ]
    return ConstraintDelta(added=added, removed=removed,
                           reason=f"retime {leaf_path}")


def add_arc_delta(document: CmifDocument, owner: Node, arc: SyncArc, *,
                  include_conditional: bool = False) -> ConstraintDelta:
    """The delta for :func:`repro.core.edit.add_arc`.

    Mirrors the per-arc translation of ``_add_explicit_arcs``: one lower
    constraint for the minimum delay, plus an upper constraint when the
    maximum delay is finite.  Conditional arcs are runtime-only by
    default and contribute an empty delta.
    """
    if isinstance(arc, ConditionalArc) and not include_conditional:
        return ConstraintDelta(reason="conditional arc (runtime-only)")
    source = resolve_path(owner, arc.source)
    destination = resolve_path(owner, arc.destination)
    src = anchor_var(source, arc.src_anchor)
    dst = anchor_var(destination, arc.dst_anchor)
    delta_ms, epsilon_ms = arc.window_ms(document.timebase)
    offset_ms = document.timebase.to_ms(arc.offset)
    relaxable = arc.strictness is Strictness.MAY
    note = f"arc at {node_path(owner)}: {arc.describe()}"
    added = [Constraint(dst, src, offset_ms + delta_ms,
                        ConstraintKind.EXPLICIT_ARC,
                        relaxable=relaxable, arc=arc, note=note)]
    if epsilon_ms is not None:
        added.append(Constraint(src, dst, -(offset_ms + epsilon_ms),
                                ConstraintKind.EXPLICIT_ARC,
                                relaxable=relaxable, arc=arc, note=note))
    return ConstraintDelta(added=added,
                           reason=f"add arc at {node_path(owner)}")


def remove_arc_delta(index: ConstraintIndex,
                     arc: SyncArc) -> ConstraintDelta:
    """The delta for :func:`repro.core.edit.remove_arc`."""
    return ConstraintDelta(removed=index.arc_constraints(arc),
                           reason="remove arc")


def arc_table(compiled: CompiledDocument, *,
              channel_serialization: bool = True) -> list[dict[str, str]]:
    """The figure-9 tabular rendering of every constraint in a document.

    Includes the implied (default) arcs, which the paper notes exist even
    when "the synchronization arc can be omitted from the description".
    Each row carries the figure's six columns plus the constraint origin.
    """
    system = build_constraints(compiled,
                               channel_serialization=channel_serialization)
    rows: list[dict[str, str]] = []
    seen_arcs: set[int] = set()
    for constraint in system.constraints:
        if constraint.arc is not None:
            # An explicit arc yields a lower and possibly an upper
            # constraint; the table shows the arc once.
            if id(constraint.arc) in seen_arcs:
                continue
            seen_arcs.add(id(constraint.arc))
            arc = constraint.arc
            epsilon = ("inf" if arc.max_delay is None
                       else f"{arc.max_delay.value:g}"
                            f"{arc.max_delay.unit.value}")
            rows.append({
                "type": arc.type_field(),
                "source": f"{arc.source or '.'}@{arc.src_anchor.value}",
                "offset": f"{arc.offset.value:g}{arc.offset.unit.value}",
                "destination":
                    f"{arc.destination or '.'}@{arc.dst_anchor.value}",
                "min_delay": f"{arc.min_delay.value:g}"
                             f"{arc.min_delay.unit.value}",
                "max_delay": epsilon,
                "origin": constraint.kind.value,
            })
        else:
            rows.append({
                "type": "begin/must",
                "source": str(constraint.base),
                "offset": f"{max(constraint.weight_ms, 0.0):g}ms",
                "destination": str(constraint.var),
                "min_delay": "0",
                "max_delay": "inf",
                "origin": constraint.kind.value,
            })
    return rows
