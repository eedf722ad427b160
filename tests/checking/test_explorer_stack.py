"""The DFS stack holds one record per open branching point.

Siblings used to be materialised eagerly — one ``(trail, frozenset)``
tuple per unexplored alternative, pushed when the choice point was
passed — which made the stack as *wide* as the tree (17 885 entries
after the ``decide-any-support`` mutant's first execution, most of its
82 MB).  ``_Branch`` builds each sibling's entry when the DFS pops it.
The eager construction survives here as the oracle.
"""

from hypothesis import given, strategies as st

from repro.checking import MUTANTS, Explorer, apply_mutant
from repro.checking.explorer import _Branch
from repro.orchestration.config import RunConfig
from tests.golden_check import _sha256


def eager_siblings(base_trail, explorable, keys, sleep, prune):
    """The push-time loop the explorer ran at every choice point, in
    the order LIFO pops consumed its entries."""
    earlier = [keys[explorable[0]]]
    siblings = []
    for index in explorable[1:]:
        dest = keys[index][1]
        sibling_sleep = frozenset(
            key for key in sleep.union(earlier) if key[1] != dest
        )
        siblings.append((base_trail + (index,), sibling_sleep))
        earlier.append(keys[index])
    if not prune:
        siblings = [(trail, frozenset()) for trail, _ in siblings]
    return siblings


message_keys = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.sampled_from(["INIT", "ECHO"]),
    st.sampled_from(["'a'", "'b'"]),
)


@given(
    base_trail=st.lists(st.integers(0, 5), max_size=4).map(tuple),
    keys=st.lists(message_keys, min_size=2, max_size=8, unique=True),
    sleep=st.frozensets(message_keys, max_size=4),
    prune=st.booleans(),
    data=st.data(),
)
def test_lazy_siblings_equal_the_eager_ones(base_trail, keys, sleep, prune, data):
    indices = data.draw(st.lists(
        st.integers(0, 20), min_size=len(keys), max_size=len(keys), unique=True,
    ).map(sorted))
    by_index = dict(zip(indices, keys))
    branch = _Branch(base_trail, indices, by_index, sleep)
    popped = []
    while not branch.exhausted:
        popped.append(branch.pop_sibling(prune))
    assert popped == eager_siblings(base_trail, indices, by_index, sleep, prune)
    assert len(popped) == len(indices) - 1


def test_stack_is_as_deep_as_the_tree_not_as_wide():
    name = "decide-any-support"
    high_water = []
    with apply_mutant(name):
        explorer = Explorer(
            MUTANTS[name].scenario(), minimize=False,
            on_execution=lambda prefix, outcome: high_water.append(
                len(explorer.stack)
            ),
        )
        result = explorer.run()
    assert result.stats.executions == 1
    # One record per branching point of the first execution, each still
    # holding at least one unexplored sibling.
    assert 0 < high_water[0] <= result.stats.max_depth + 1
    unexplored = sum(
        len(branch.explorable) - branch.cursor for branch in explorer.stack
    )
    assert unexplored > 50 * high_water[0]  # what eager pushing stored


def test_plain_dfs_visits_the_same_states_in_the_same_order():
    # prune=False hands every sibling an empty sleep set; journal and
    # visited-set digests were captured with eager siblings (the golden
    # fixture pins the pruned search the same way).
    journal = []
    result = Explorer(
        RunConfig(n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1, fifo=True),
        prune=False, keep_states=True,
        on_execution=lambda prefix, outcome: journal.append(
            [list(prefix), outcome.status, list(outcome.trail)]
        ),
    ).run()
    assert result.exhausted
    assert (result.stats.executions, result.stats.states) == (573, 572)
    assert result.stats.pruned == 0
    assert _sha256(journal) == (
        "a67e88854aae62f7ee071d6b0fa9e1b3ee97064c6f0c020e19a6fe883ed3bc45"
    )
    assert _sha256(sorted(result.visited)) == (
        "69791453f57d7204d67ab83b2eb71e1c6cc56fb48e5a51df8e6b600ee37abf3a"
    )


def test_roots_are_started_in_order_after_each_subtree_drains():
    model = RunConfig(n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1, fifo=True)
    started = []
    Explorer(
        model, roots=((0,), (1,)),
        on_execution=lambda prefix, outcome: started.append(prefix),
    ).run()
    assert started[0] == (0,)
    switch = started.index((1,))
    assert all(prefix[0] == 0 for prefix in started[:switch])
    assert all(prefix[0] == 1 for prefix in started[switch:])
