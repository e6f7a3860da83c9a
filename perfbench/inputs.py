"""Seeded inputs and the expected answers the harness checks against.

Every input comes from the workload seed: the tree collection, the store
churn plan and the serve arrival schedule.  The program only ever sees
the generated trees (as Newick files), and the frames built from them.
Expected values come from the paper's reference engine, the dict-backed
``bfhrf`` method, computed before any timed call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.api import average_rf
from repro.core.bfhrf import bfhrf_average_rf
from repro.hashing.bfh import BipartitionFrequencyHash
from repro.newick import write_newick
from repro.simulation.coalescent import gene_tree_msc
from repro.simulation.datasets import insect_like
from repro.util.rng import resolve_rng

#: The paper's Insect shape: n=144 taxa, r=1000 reference trees.
N_REFERENCE = 1000
#: Trees held out of the reference for store churn and serve queries.
N_HELD_OUT = 400

STORE_BATCH = 20
STORE_QUERY = 16
STORE_LAG = 3

LARGE_FRAME = 16
LARGE_SHARE = 0.1


#: The species tree is ``insect_like``'s own, fixed across seeds: the seed
#: draws the gene trees.  A seed-drawn species tree changes how much the
#: gene trees disagree, and with it the number of unique splits, which
#: moved store timings by 15% from seed to seed.
SPECIES_SEED = 2017


def insect_trees(seed: int, count: int):
    """``count`` unweighted n=144 MSC gene trees drawn with ``seed``."""
    species = insect_like(1, seed=SPECIES_SEED).species_tree
    rng = resolve_rng(seed)
    trees = []
    for _ in range(count):
        gene = gene_tree_msc(species, rng=rng)
        for node in gene.preorder():
            node.length = None
        trees.append(gene)
    return trees


def newick_lines(trees) -> list[str]:
    return [write_newick(tree) for tree in trees]


def bfhrf_values(query, reference=None) -> list[float]:
    return average_rf(query, reference, method="bfhrf")


# -- store churn -------------------------------------------------------------


def store_plan(seed: int) -> dict:
    """Batches of held-out trees to add and remove, and per-round queries.

    Indices address ``reference + held_out`` (1400 trees).  Round ``k``
    adds batch ``k % B``, removes batch ``(k - lag) % B`` once
    ``k >= lag`` and then queries ``queries[k % B]``; the live reference
    set is therefore periodic in ``k`` with period ``B``.
    """
    rng = random.Random(f"store-{seed}")
    held = list(range(N_REFERENCE, N_REFERENCE + N_HELD_OUT))
    rng.shuffle(held)
    batches = [held[i:i + STORE_BATCH]
               for i in range(0, N_HELD_OUT, STORE_BATCH)]
    everything = range(N_REFERENCE + N_HELD_OUT)
    queries = [rng.sample(everything, STORE_QUERY) for _ in batches]
    return {"batches": batches, "queries": queries, "lag": STORE_LAG}


def store_expected(trees, plan: dict) -> list[list[float]]:
    """Expected answers of rounds ``0 .. lag + B - 1`` (then periodic).

    A dict BFH is kept in step with the plan by the reference hash's own
    ``add_tree``/``remove_tree`` and queried through ``bfhrf``; the last
    round is re-checked against a hash built from scratch.
    """
    batches, queries, lag = plan["batches"], plan["queries"], plan["lag"]
    oracle = BipartitionFrequencyHash.from_trees(trees[:N_REFERENCE])
    live: list[int] = []
    expected = []
    for k in range(lag + len(batches)):
        for i in batches[k % len(batches)]:
            oracle.add_tree(trees[i])
        live.extend(batches[k % len(batches)])
        if k >= lag:
            for i in batches[(k - lag) % len(batches)]:
                oracle.remove_tree(trees[i])
            live = live[len(batches[0]):]
        query = [trees[i] for i in queries[k % len(queries)]]
        expected.append(bfhrf_average_rf(query, bfh=oracle))
    reference = list(trees[:N_REFERENCE]) + [trees[i] for i in live]
    if bfhrf_values(query, reference) != expected[-1]:
        raise AssertionError("incremental store oracle drifted from bfhrf")
    return expected


def store_round_expected(expected: list[list[float]], k: int,
                         plan: dict) -> list[float]:
    lag, period = plan["lag"], len(plan["batches"])
    return expected[k if k < lag else lag + (k - lag) % period]


# -- serve -------------------------------------------------------------------


@dataclass(frozen=True)
class Arrival:
    due: float          # seconds after the load starts
    conn: int           # connection the frame is sent on
    trees: tuple        # held-out tree indices (0 .. N_HELD_OUT-1)


def serve_schedule(seed: int, rate: float, seconds: float,
                   connections: int) -> list[Arrival]:
    """Poisson arrivals at ``rate``/s; 10% of frames carry 16 trees.

    The count is fixed at ``rate * seconds`` and the times are its
    uniform order statistics, i.e. a Poisson process conditioned on its
    count, so that the offered load does not vary from seed to seed.
    Exactly one frame in each run of ten is large, at a seeded position.
    """
    rng = random.Random(f"serve-{seed}-{rate}")
    count = round(rate * seconds)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    block = round(1 / LARGE_SHARE)
    arrivals = []
    for i, due in enumerate(times):
        if i % block == 0:
            large_at = rng.randrange(block)
        size = LARGE_FRAME if i % block == large_at else 1
        picks = tuple(rng.randrange(N_HELD_OUT) for _ in range(size))
        arrivals.append(Arrival(due, i % connections, picks))
    return arrivals
