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

Since the explorer serves per-process token blocks and message keys
from its execution's ``TokenCache``, "the real thing" is the *cached*
stream: what the explorer hashes is compared with the reference's full
walk of the same state, so a stale block is a failing test here.  The
cache's two invalidation rules, the hole a clock-keyed rule would have,
and the fact the per-process memo rests on (no walked object reachable
from two processes) have their own tests at the end of the first part.
"""

import collections
import contextlib
import enum
import random
import types
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.strategies import collude
from repro.checking import (
    MUTANTS, Explorer, ScheduleChooser, apply_mutant, canon, execute_run,
)
from repro.checking import explorer as explorer_module
from repro.checking.explorer import ExplorationChooser
from repro.checking.fingerprint import (
    TokenCache, _process_roots, _walk, state_tokens,
)
from repro.net.network import Network
from repro.net.timing import Instant
from repro.orchestration.config import RunConfig
from repro.runtime.process import Process
from repro.sim import Future, Simulator
from tests.checking import reference_fingerprint as reference


def walk_tokens(value):
    out = []
    _walk(value, "root", out, set())
    return out


# -- the real models -----------------------------------------------------


@contextlib.contextmanager
def comparing(inspect=None):
    """Route the explorer's fingerprints through both walkers: the
    stream the explorer hashes — per-process blocks and message keys
    served from its execution's cache — against the reference's full
    walk of the same state, and against the cache-less public call.
    Yields the token count of every fingerprint compared; ``inspect``
    sees ``(frame, extra_stacks, cache)`` at each one."""
    calls = []
    real = explorer_module.state_fingerprint

    def fingerprint(
        frame, candidates, tasks=(), extra_stacks=(), fifo=False, cache=None
    ):
        extra_stacks = list(extra_stacks)
        assert cache is not None  # the explorer always brings one
        got = state_tokens(frame, candidates, tasks, extra_stacks, fifo, cache)
        want = reference.state_tokens(frame, candidates, tasks, extra_stacks, fifo)
        assert got == want
        assert state_tokens(frame, candidates, tasks, extra_stacks, fifo) == want
        if inspect is not None:
            inspect(frame, extra_stacks, cache)
        calls.append(len(got))
        return real(
            frame, candidates, tasks=tasks, extra_stacks=extra_stacks,
            fifo=fifo, cache=cache,
        )

    with mock.patch.object(explorer_module, "state_fingerprint", fingerprint):
        yield calls


@pytest.fixture
def compared():
    with comparing() as calls:
        yield calls


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
    # Three tracked stacks (the forging adversary runs none): 651 walks
    # without the cache.
    assert result.process_walks == 188


@pytest.mark.parametrize("name, fingerprints", [
    ("cb-valid-any", 64),
    ("rb-echo-deliver", 2),
])
def test_the_other_mutants_descents_token_for_token(compared, name, fingerprints):
    # Both run a protocol stack on the Byzantine pid: its block is one
    # of the cached ones.
    with apply_mutant(name):
        result = Explorer(MUTANTS[name].scenario(), minimize=False).run()
    assert result.verdict == "violation"
    assert len(compared) == result.fingerprints == fingerprints
    assert result.process_walks < 4 * fingerprints


def test_unordered_budgeted_search_token_for_token(compared):
    # The multiset branch of the pending tokens, 300 executions deep
    # into sibling retraces: most blocks and nearly all keys are served
    # from the cache.
    result = Explorer(
        RunConfig(n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1),
        max_executions=300, minimize=False,
    ).run()
    assert (result.stats.states, result.stats.steps) == (171, 31077)
    assert len(compared) == result.fingerprints == 309
    assert result.process_walks == 451 < 2 * 309


def adversary_model() -> RunConfig:
    """A correct protocol next to an adversary that runs it too."""
    return RunConfig(
        n=4, t=1, proposals={1: "a", 2: "a", 3: "b"},
        adversaries={4: collude("evil")}, max_rounds=1, fifo=True,
    )


def test_adversary_stacks_are_cached_blocks_too(compared):
    served = collections.Counter()
    real_delivered = TokenCache.delivered

    def delivered(cache, dest, last):
        served[dest] += dest in cache.blocks
        real_delivered(cache, dest, last)

    with mock.patch.object(TokenCache, "delivered", delivered):
        result = Explorer(adversary_model(), max_executions=12).run()
    assert result.verdict == "ok" and not result.exhausted
    assert len(compared) == result.fingerprints > 100
    # Four blocks a fingerprint without the cache; pid 4's is one of them
    # and deliveries to it dropped a block that had been walked.
    assert result.process_walks < 2 * result.fingerprints
    assert served[4] > 0 and set(served) == {1, 2, 3, 4}


# -- the cache's footing -------------------------------------------------


def test_the_two_invalidation_rules():
    cache = TokenCache()
    cache.blocks.update({1: ["p1"], 2: ["p2"], 3: ["p3"]})
    cache.delivered(2, last=False)
    assert sorted(cache.blocks) == [1, 3]  # the destination's, nothing else
    cache.delivered(2, last=False)          # nothing cached: nothing to do
    assert sorted(cache.blocks) == [1, 3]
    cache.delivered(3, last=True)           # quiescence may follow: a timer
    assert cache.blocks == {}               # can touch anybody


@pytest.mark.parametrize("model", [
    RunConfig(n=2, t=0, proposals={1: "a", 2: "b"}, max_rounds=1, fifo=True),
    RunConfig(n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1),
])
def test_every_delivery_the_chooser_returns_is_reported_once(model):
    # Forced, replayed or chosen, in one place: what `choose()` returns
    # is what `delivered()` hears, and "last" is "no other delivery
    # pending" — which no registered model ever reaches (a protocol is
    # done, or has sent more, before its last message is out; the
    # hand-built case below is what exercises that rule).
    heard = []
    real_choose = ExplorationChooser.choose
    real_delivered = TokenCache.delivered

    def choose(chooser, candidates):
        before = len(heard)
        index = real_choose(chooser, candidates)
        assert heard[before:] == [
            (chooser.cache, candidates[index]._args[0].dest, len(candidates) == 1)
        ]
        assert candidates[index]._args[0].dest not in chooser.cache.blocks
        if len(candidates) == 1:
            assert not chooser.cache.blocks
        return index

    def delivered(cache, dest, last):
        heard.append((cache, dest, last))
        real_delivered(cache, dest, last)

    with mock.patch.object(ExplorationChooser, "choose", choose), \
            mock.patch.object(TokenCache, "delivered", delivered):
        result = Explorer(model, max_executions=40).run()
    # A branching choose() either returns a delivery or aborts its run.
    stats = result.stats
    assert len(heard) >= stats.choice_points - stats.executions > 1000


def test_no_walked_object_is_reachable_from_two_processes():
    # What lets a block be walked under a memo of its own and still emit
    # the tokens the shared memo would: if a future protocol object is
    # shared between processes, this is the test that says so.
    checked = []

    def disjoint(frame, extra_stacks, cache):
        owners = {}
        for pid, roots in _process_roots(frame, extra_stacks, cache.extra_pids):
            seen = set()
            for label, root in roots:
                _walk(root, label, [], seen)
            for ident in seen:
                assert owners.setdefault(ident, pid) == pid
        checked.append(len(owners))

    with comparing(disjoint):
        Explorer(
            RunConfig(n=2, t=0, proposals={1: "a", 2: "b"}, max_rounds=1, fifo=True)
        ).run()
        Explorer(adversary_model(), max_executions=6).run()
        for name in MUTANTS:
            with apply_mutant(name):
                Explorer(MUTANTS[name].scenario(), minimize=False).run()
    assert len(checked) > 500 and min(checked) > 10


class Ticker:
    """A stand-in protocol stack: one counter a timer bumps."""

    __module__ = "repro.fake"

    def __init__(self):
        self.ticks = 0
        self.decision = Future()


class ClockKeyedCache(TokenCache):
    """The rule the cache does *not* use: keep every block until the
    clock moves (next to "a delivery drops its destination's")."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim
        self.now = sim.now

    def delivered(self, dest, last):
        super().delivered(dest, last=False)

    def expire(self):
        if self.sim.now != self.now:
            self.now = self.sim.now
            self.blocks.clear()


@pytest.mark.parametrize("rule", ["quiescence", "clock"])
def test_two_timers_at_one_instant_with_a_choice_point_between(rule):
    # Timers armed for the same instant fire one per quiescence.  Each
    # bumps *p2's* state and sends p1 two messages — a branching choice
    # point between the two expiries, at one clock value.  Deliveries to
    # p1 never drop p2's block, the clock does not move between the two
    # fingerprints: only "the last pending delivery drops everything"
    # keeps the second fingerprint from serving p2's block stale.
    sim = Simulator()
    network = Network(sim, 2, default_timing=Instant(), recycle=True)
    network._self_timing = Instant()
    processes = {pid: Process(pid, sim, network) for pid in (1, 2)}
    stacks = {pid: Ticker() for pid in processes}
    frame = types.SimpleNamespace(
        sim=sim, network=network, consensi=stacks,
        rb_engines={pid: None for pid in stacks},
        decision_times={}, adversary_consensi={},
    )

    def expire():
        stacks[2].ticks += 1
        processes[2].send(1, "TICK", ("first", stacks[2].ticks))
        processes[2].send(1, "TICK", ("second", stacks[2].ticks))

    chooser = ExplorationChooser(
        Explorer(RunConfig(n=2, t=0, proposals={1: "a", 2: "a"})), (), frozenset()
    )
    sim.set_chooser(chooser)
    chooser.bind(network)
    chooser.attach(frame)
    if rule == "clock":
        chooser.cache = ClockKeyedCache(sim)
    sim.call_at(1.0, expire)
    sim.call_at(1.0, expire)

    stale = []

    def fingerprint(frame, candidates, tasks=(), extra_stacks=(), fifo=False,
                    cache=None):
        if rule == "clock":
            cache.expire()
        got = state_tokens(frame, candidates, tasks, extra_stacks, fifo, cache)
        want = reference.state_tokens(frame, candidates, tasks, extra_stacks, fifo)
        stale.append(got != want)
        return str(len(stale))

    with mock.patch.object(explorer_module, "state_fingerprint", fingerprint):
        while sim.step():
            pass
    assert stacks[2].ticks == 2 and sim.now == 1.0
    # One fingerprint per expiry; the clock-keyed rule gets the second wrong.
    assert stale == [False, rule == "clock"]


class PrefixWalk(ScheduleChooser):
    """Branch ``picks[i] % (enabled heads)`` at the i-th branching point,
    then first-candidate: turns any integers into a schedule prefix the
    model contains."""

    def __init__(self, picks):
        super().__init__(())
        self.picks = list(picks)

    def choose(self, candidates):
        heads = self.channel_heads(candidates)
        if len(heads) > 1 and len(self.trail) < len(self.picks):
            index = heads[self.picks[len(self.trail)] % len(heads)]
            self.trail.append(index)
            return index
        return super().choose(candidates)


@settings(max_examples=12)
@given(
    model=st.sampled_from([
        RunConfig(n=2, t=0, proposals={1: "a", 2: "b"}, max_rounds=1, fifo=True),
        RunConfig(n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1),
        RunConfig(n=3, t=0, proposals={1: "a", 2: "b", 3: "a"}, max_rounds=1,
                  fifo=True),
        RunConfig(n=3, t=0, proposals={1: "a", 2: "a", 3: "a"}, max_rounds=1),
    ]),
    picks=st.lists(st.integers(0, 11), max_size=25),
)
def test_cached_equals_full_below_random_schedule_prefixes(model, picks):
    walk = PrefixWalk(picks)
    execute_run(model, walk)
    prefix = tuple(walk.trail[:len(picks)])
    with comparing() as compared:
        result = Explorer(model, roots=(prefix,), max_executions=6).run()
    assert result.verdict == "ok"
    assert len(compared) == result.fingerprints
    if result.stats.executions > 1:
        assert result.retraced_steps > 0


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
