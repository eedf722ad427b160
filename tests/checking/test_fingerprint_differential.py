"""Differential test: the plan-compiled fingerprint walk against the
``isinstance``-ladder walker it replaced (``reference_fingerprint.py``).

The rewrite must be invisible: same tokens in the same order, hence the
same SHA-256 and the same visited-state sets.  Two angles:

* the real thing — the full token stream at every branching choice point
  of the two exhausted n=2 FIFO models and of the n=4 mutant's default
  descent (which also covers coroutine stacks, timers and the pending
  multiset around the walk);
* hypothesis object graphs that reach what protocol state does not —
  slots/``__dict__`` mixes, enum flavours, containers nested past the
  depth cut-off, cycles, shared references, callables, excluded kernel
  types and foreign objects.
"""

import collections
import enum
import random

import pytest
from hypothesis import given, strategies as st

from repro.checking import MUTANTS, Explorer, apply_mutant, canon
from repro.checking import explorer as explorer_module
from repro.checking.fingerprint import _walk, state_tokens
from repro.orchestration.config import RunConfig
from repro.sim import Future, Simulator
from tests.checking import reference_fingerprint as reference


def walk_tokens(value):
    out = []
    _walk(value, "root", out, set())
    return out


# -- the real models -----------------------------------------------------


@pytest.fixture
def compared(monkeypatch):
    """Route the explorer's fingerprints through both walkers."""
    calls = []

    def fingerprint(frame, candidates, tasks=(), extra_stacks=(), fifo=False):
        extra_stacks = list(extra_stacks)
        got = state_tokens(frame, candidates, tasks, extra_stacks, fifo)
        want = reference.state_tokens(frame, candidates, tasks, extra_stacks, fifo)
        assert got == want
        calls.append(len(got))
        return explorer_module_fingerprint(
            frame, candidates, tasks=tasks, extra_stacks=extra_stacks, fifo=fifo
        )

    explorer_module_fingerprint = explorer_module.state_fingerprint
    monkeypatch.setattr(explorer_module, "state_fingerprint", fingerprint)
    return calls


@pytest.mark.parametrize("proposals, states", [
    ({1: "a", 2: "a"}, 133),
    ({1: "a", 2: "b"}, 121),
])
def test_exhausted_fifo_models_token_for_token(compared, proposals, states):
    result = Explorer(
        RunConfig(n=2, t=0, proposals=proposals, max_rounds=1, fifo=True)
    ).run()
    assert result.exhausted and result.stats.states == states
    assert len(compared) == result.fingerprints > states
    assert min(compared) > 100  # whole states were compared, not stubs


def test_mutant_default_descent_token_for_token(compared):
    name = "decide-any-support"
    with apply_mutant(name):
        result = Explorer(MUTANTS[name].scenario(), minimize=False).run()
    assert result.verdict == "violation"
    assert len(compared) == result.fingerprints == result.stats.states == 217


# -- generated object graphs ---------------------------------------------


class Colour(enum.Enum):
    RED = "r"
    BLUE = "b"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Text(str):
    """A scalar subclass: hashed by ``repr`` like the real thing."""


class Pair(tuple):
    pass


Point = collections.namedtuple("Point", "x y")


class Slotted:
    __module__ = "repro.fake"
    __slots__ = ("a", "b", "c")  # generated instances leave some unset


class Open:
    __module__ = "repro.fake"


class SlottedBase:
    __module__ = "repro.fake"
    __slots__ = ("a", "inherited")


class Mixed(SlottedBase):
    """Slots below a ``__dict__``."""

    __module__ = "repro.fake"


class StringSlots:
    __module__ = "repro.fake"
    __slots__ = "ab"  # one slot named "ab"; the MRO scan sees "a", "b"


class WeakSlotted:
    __module__ = "repro.fake"
    __slots__ = ("a", "__dict__", "__weakref__")


class CallableState:
    __module__ = "repro.fake"

    def __init__(self):
        self.hidden = 1

    def __call__(self):
        return None


class Outsider:
    """Not under ``repro.``: only its type name is hashed."""

    def __init__(self):
        self.ignored = 1


class AwaitedFuture(Future):
    pass


OBJECT_TYPES = (Slotted, Open, Mixed, StringSlots, WeakSlotted)
ATTRS = ("a", "b", "c", "ab", "inherited", "zeta")

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.floats(allow_nan=False), st.text(max_size=3), st.binary(max_size=3),
    st.sampled_from(list(Colour) + list(Level)),
    st.text(max_size=3).map(Text),
)

#: Values with no (mutable) inside: fixed per draw, never wired further.
leaves = st.one_of(
    scalars,
    st.builds(Pair, st.tuples(scalars, scalars)),
    st.builds(Point, scalars, scalars),
    st.frozensets(scalars, max_size=3),
    st.sampled_from([
        len, print, Slotted, "".join, CallableState(), lambda: None,
        Simulator(), Future(), AwaitedFuture(), random.Random(7),
        object(), Outsider(), complex(1, 2), collections.deque([1]),
        range(3),
    ]),
)


@st.composite
def graphs(draw):
    """A pool of mutable nodes wired to each other at random: cycles and
    shared references fall out of the wiring."""
    makers = draw(st.lists(
        st.sampled_from(
            OBJECT_TYPES
            + (list, dict, set, collections.OrderedDict, collections.defaultdict)
        ),
        min_size=1, max_size=7,
    ))
    nodes = [maker() for maker in makers]

    def target():
        if draw(st.booleans()):
            return draw(leaves)
        chosen = nodes[draw(st.integers(0, len(nodes) - 1))]
        shape = draw(st.sampled_from(["bare", "bare", "tuple", "nested"]))
        if shape == "tuple":
            return (chosen, draw(scalars))
        if shape == "nested":
            return [(draw(scalars), [chosen])]
        return chosen

    for node in nodes:
        for _ in range(draw(st.integers(0, 4))):
            if isinstance(node, list):
                node.append(target())
            elif isinstance(node, set):
                node.add(draw(leaves.filter(_hashable)))
            elif isinstance(node, dict):
                key = draw(st.one_of(
                    scalars,
                    st.tuples(scalars, scalars),
                    st.sampled_from([Outsider(), len]),
                ))
                node[key] = target()
            else:
                name = draw(st.sampled_from(ATTRS))
                try:
                    setattr(node, name, target())
                except AttributeError:
                    pass  # no such slot on this type
    return nodes[0]


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@given(graphs())
def test_generated_graphs_walk_identically(root):
    assert walk_tokens(root) == reference.walk_tokens(root)


plain_trees = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=2).map(Pair),
        st.dictionaries(scalars, inner, max_size=3),
        st.dictionaries(scalars, inner, max_size=2).map(collections.OrderedDict),
        st.frozensets(scalars, max_size=3),
        st.frozensets(scalars, max_size=3).map(set),
        st.tuples(inner, st.sampled_from([object(), len, Outsider()])),
    ),
    max_leaves=12,
)


@given(plain_trees)
def test_canon_agrees_on_value_trees(value):
    assert canon(value) == reference.canon(value)
    assert walk_tokens(value) == reference.walk_tokens(value)


@pytest.mark.parametrize("depth", range(6, 12))
@pytest.mark.parametrize("wrap", [list, tuple, lambda v: {"k": v}, lambda v: Pair((v,))])
def test_depth_cut_off_is_where_it_was(depth, wrap):
    # canon gives up on containers at depth 8; the walk then descends
    # item by item and canon gets a fresh budget below.
    value = 1
    for _ in range(depth):
        value = wrap([value]) if wrap in (list, tuple) else wrap(value)
    assert canon(value) == reference.canon(value)
    assert (canon(value) is None) == (depth > 8)
    assert walk_tokens(value) == reference.walk_tokens(value)


def test_cycles_and_shared_references():
    ring = []
    ring.append(ring)
    shared = Open()
    shared.payload = [Open()]
    holder = Open()
    holder.left = shared
    holder.right = shared
    holder.ring = ring
    holder.me = holder
    tokens = walk_tokens(holder)
    assert tokens == reference.walk_tokens(holder)
    assert "root.right=<cycle>" in tokens and "root.me=<cycle>" in tokens


def test_one_seen_set_spans_consecutive_walks():
    # state_tokens walks every process with the same memo: an object
    # reached from two roots is expanded once.
    shared = Open()
    shared.value = 3
    first, second = [shared], [shared]
    got, want, seen_got, seen_want = [], [], set(), set()
    for label, root in (("p1", first), ("p2", second)):
        _walk(root, label, got, seen_got)
        reference._walk(root, label, want, seen_want)
    assert got == want
    assert "p2[0]=<cycle>" in got


def test_enum_flavours_and_scalar_subclasses():
    state = Open()
    state.colour = Colour.RED
    state.level = Level.HIGH
    state.text = Text("x")
    state.mixed = (Colour.BLUE, Level.LOW, Text("y"), True, None)
    tokens = walk_tokens(state)
    assert tokens == reference.walk_tokens(state)
    assert "root.colour=Colour.RED" in tokens
    assert f"root.level={Level.HIGH!r}" in tokens


def test_instance_dict_shadows_a_slot_of_the_same_name():
    node = Mixed()
    node.a = "slot"
    node.inherited = "slot"
    node.own = "dict"
    node.__dict__["a"] = "dict"
    tokens = walk_tokens(node)
    assert tokens == reference.walk_tokens(node)
    assert tokens == [
        "root:Mixed", "root.a='dict'", "root.inherited='slot'", "root.own='dict'",
    ]
    bare = WeakSlotted()
    assert walk_tokens(bare) == reference.walk_tokens(bare)
    bare.extra = Slotted()
    assert walk_tokens(bare) == reference.walk_tokens(bare)
