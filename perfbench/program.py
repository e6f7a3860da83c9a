"""Program-side runner: the process whose calls into ``repro`` are timed.

The harness (``run.py``) starts this file as a child process so that the
program's peak memory is measured without the harness's own inputs and
oracle in the same address space.  Usage::

    python3 perfbench/program.py <batch|store> JOB.json

The child imports the program, prints ``ready`` and waits for one line
on stdin: ``go`` runs the job, anything else exits.  The job's result is
the last line of stdout, one JSON object.  The child never sees an
expected value; the harness checks every answer it returns.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import calibrate, peak_rss_mb, read_json, speed_scale  # noqa: E402
from tracing import Target, Tracer, format_layer_table  # noqa: E402

from repro.bipartitions import extract  # noqa: E402
from repro.core import api, shmrf, table as core_table  # noqa: E402
from repro.core.table import BipartitionTable, CodecSpec  # noqa: E402
from repro.core.vectorized import VectorizedBFH  # noqa: E402
from repro.hashing.bfh import BipartitionFrequencyHash  # noqa: E402
from repro.newick import io as newick_io  # noqa: E402
from repro.runtime.shm import SharedBFH, SharedTreeCollection  # noqa: E402
from repro.store.store import BFHStore, build_store  # noqa: E402

N_WORKERS = len(os.sched_getaffinity(0))
CALIBRATE_EVERY = 30  # store rounds between calibrations


def _parse_attrs(args, kwargs, result):
    source = args[0]
    if isinstance(source, str) and ";" in source:
        return {"trees": len(result), "bytes": len(source.encode("utf-8"))}
    return {"trees": len(result), "bytes": os.path.getsize(source)}


def _probe_attrs(args, kwargs, result):
    return {"keys": int(len(result)), "hits": int((result > 0).sum())}


#: The hot-path public functions whose calls become spans.
TARGETS = [
    Target("newick.parse", newick_io, "read_newick_file", after=_parse_attrs),
    Target("newick.parse", newick_io, "trees_from_string", after=_parse_attrs),
    Target("bipartitions.extract", extract, "bipartition_masks",
           after=lambda a, k, r: {"splits": len(r)}),
    Target("hashing.bfh_build", BipartitionFrequencyHash, "from_trees"),
    Target("table.pack", core_table, "masks_to_words"),
    Target("table.build", BipartitionTable, "from_bfh",
           after=lambda a, k, r: {"unique": len(r)}),
    Target("table.build", VectorizedBFH, "from_table"),
    Target("table.encode", CodecSpec, "encode",
           after=lambda a, k, r: {"bytes": r.nbytes}),
    Target("table.decode", CodecSpec, "decode"),
    Target("vectorized.probe", VectorizedBFH, "lookup_frequencies",
           after=_probe_attrs),
    Target("vectorized.batch", VectorizedBFH, "average_rf_batch"),
    Target("runtime.segment_build", SharedBFH, "from_bfh",
           after=lambda a, k, r: {"bytes": r.segment_nbytes()}),
    Target("runtime.collection_release", SharedTreeCollection, "release",
           before=lambda a, k: {"bytes": a[0].segment_nbytes()}),
    Target("core.shmrf", shmrf, "shm_average_rf"),
    Target("store.add", BFHStore, "add_trees"),
    Target("store.remove", BFHStore, "remove_trees"),
    Target("store.query", BFHStore, "average_rf"),
    Target("store.bfh_materialize", BFHStore, "bfh"),
    Target("store.table", BFHStore, "table"),
    Target("store.compact", BFHStore, "compact"),
    Target("store.open", BFHStore, "open"),
]


def _attr_sum(tracer: Tracer, root: int, name: str, key: str) -> float:
    return sum(r["attrs"].get(key, 0) for r in tracer.subtree(root)
               if r["name"] == name)


def _self(table: dict, name: str, per: float = 1.0) -> float:
    return table.get(name, {}).get("self_s", 0.0) / per


# -- batch -----------------------------------------------------------------


def _batch_calls(path: str, tracer: Tracer | None = None):
    """One serial and one fan-out ``average_rf(path)``, each timed.

    Untraced calls are bracketed by calibrations; each tuple carries the
    wall time and the factor scaling it to reference-machine time.
    """
    out = []
    for mode, workers in (("serial", 1), ("fanout", N_WORKERS)):
        if tracer is None:
            before = calibrate()
            gc.collect()
            t0 = time.perf_counter()
            values = api.average_rf(path, n_workers=workers)
            wall = time.perf_counter() - t0
            out.append((mode, wall, values,
                        speed_scale(before, calibrate())))
        else:
            gc.collect()
            with tracer.span(f"batch.{mode}") as root:
                values = api.average_rf(path, n_workers=workers)
            out.append((mode, root["end"] - root["start"], values,
                        root["id"]))
    return out


def run_batch(job: dict) -> dict:
    path, seconds = job["nwk"], job["seconds"]
    result = {"serial_s": [], "fanout_s": [], "serial_scale": [],
              "fanout_scale": [], "values": []}
    # The first call in a fresh process runs ~10% slower (allocator
    # arenas, lazy imports); it is checked but not timed.
    result["values"].append(api.average_rf(path))
    start = time.perf_counter()
    while True:
        for mode, wall, values, scale in _batch_calls(path):
            result[f"{mode}_s"].append(wall)
            result[f"{mode}_scale"].append(scale)
            result["values"].append(values)
        if job["trace"] or time.perf_counter() - start >= seconds:
            break
    result["peak_rss_mb"] = peak_rss_mb()
    if not job["trace"]:
        return result

    tracer = Tracer(job["run_id"])
    with tracer.installed(TARGETS):
        calls = _batch_calls(path, tracer)
    roots = {mode: root for mode, _, _, root in calls}
    walls = {mode: wall for mode, wall, _, _ in calls}
    result["values"].extend(values for _, _, values, _ in calls)
    serial = tracer.layer_table(roots["serial"])
    fanout = tracer.layer_table(roots["fanout"])
    rs = roots["serial"]
    keys = _attr_sum(tracer, rs, "vectorized.probe", "keys")
    coverage = 1.0 - _self(serial, "batch.serial") / walls["serial"]
    result["layers"] = {
        "newick.parse_s": _self(serial, "newick.parse"),
        "newick.trees": _attr_sum(tracer, rs, "newick.parse", "trees"),
        "newick.bytes": _attr_sum(tracer, rs, "newick.parse", "bytes"),
        "bipartitions.extract_s": _self(serial, "bipartitions.extract"),
        "bipartitions.splits": _attr_sum(tracer, rs, "bipartitions.extract",
                                         "splits"),
        "hashing.bfh_build_s": _self(serial, "hashing.bfh_build"),
        "table.pack_s": _self(serial, "table.pack"),
        "table.build_s": _self(serial, "table.build"),
        "table.unique_splits": _attr_sum(tracer, rs, "table.build", "unique"),
        "vectorized.probe_s": _self(serial, "vectorized.probe"),
        "vectorized.probe_keys": keys,
        "vectorized.hit_ratio": (_attr_sum(tracer, rs, "vectorized.probe",
                                           "hits") / keys) if keys else 0.0,
        "vectorized.batch_s": _self(serial, "vectorized.batch"),
        "runtime.segment_build_s": _self(fanout, "runtime.segment_build"),
        "runtime.segment_bytes": (
            _attr_sum(tracer, roots["fanout"], "runtime.segment_build",
                      "bytes")
            + _attr_sum(tracer, roots["fanout"],
                        "runtime.collection_release", "bytes")),
        "runtime.fanout_s": _self(fanout, "core.shmrf"),
        "trace.batch_coverage": coverage,
        "trace.overhead_ratio": (walls["serial"] + walls["fanout"])
        / (result["serial_s"][0] + result["fanout_s"][0]),
    }
    result["report"] = (
        format_layer_table("traced serial average_rf(path)", serial,
                           walls["serial"])
        + format_layer_table(f"traced fan-out average_rf(path, n_workers="
                             f"{N_WORKERS})", fanout, walls["fanout"]))
    tracer.write_jsonl(Path(job["spans_out"]))
    return result


# -- store -----------------------------------------------------------------


def _rounds(store: BFHStore, trees, plan: dict, first: int, count: int | None,
            deadline: float | None, tracer: Tracer | None = None) -> list:
    """Churn rounds: add a batch, remove an older one, query 16 trees.

    ``plan`` holds tree indices into ``trees``; round ``k`` adds batch
    ``k`` and removes the batch added ``lag`` rounds earlier, cycling.
    Untraced rounds are calibrated every ``CALIBRATE_EVERY`` rounds.
    """
    batches, queries, lag = plan["batches"], plan["queries"], plan["lag"]
    rounds = []
    block_start, cal = 0, (calibrate() if tracer is None else None)
    k = first
    while (count is not None and k - first < count) or \
            (deadline is not None and time.perf_counter() < deadline):
        added = [trees[i] for i in batches[k % len(batches)]]
        removed = ([trees[i] for i in batches[(k - lag) % len(batches)]]
                   if k >= lag else [])
        query = [trees[i] for i in queries[k % len(queries)]]
        with (nullcontext() if tracer is None
              else tracer.span("store.round", round=k)):
            t0 = time.perf_counter()
            store.add_trees(added)
            t1 = time.perf_counter()
            store.remove_trees(removed)
            t2 = time.perf_counter()
            values = store.average_rf(query)
            t3 = time.perf_counter()
        rounds.append({"k": k, "added": len(added), "add_s": t1 - t0,
                       "remove_s": t2 - t1, "query_s": t3 - t2,
                       "values": values})
        k += 1
        if cal is not None and len(rounds) - block_start == CALIBRATE_EVERY:
            block_start, cal = _scale_block(rounds, block_start, cal)
    if cal is not None:
        _scale_block(rounds, block_start, cal)
    return rounds


def _scale_block(rounds: list, start: int, before: float):
    """Calibrate and give rounds ``start:`` the bracketing speed scale."""
    after = calibrate()
    for r in rounds[start:]:
        r["scale"] = speed_scale(before, after)
    return len(rounds), after


def _compact_and_open(store: BFHStore, calibrated: bool = True):
    """Time ``compact()`` and a cold ``BFHStore.open``; also the scale."""
    before = calibrate() if calibrated else None
    t0 = time.perf_counter()
    store.compact()
    t1 = time.perf_counter()
    reopened = BFHStore.open(store.path)
    t2 = time.perf_counter()
    scale = speed_scale(before, calibrate()) if calibrated else None
    return t1 - t0, t2 - t1, reopened, scale


def run_store(job: dict) -> dict:
    base = newick_io.read_newick_file(job["base"])
    pool = newick_io.read_newick_file(job["pool"], base[0].taxon_namespace)
    # Round k draws added/removed/query trees by index from base + pool.
    trees = base + pool
    plan = read_json(Path(job["plan"]))
    root = Path(job["store_dir"])
    builds = []
    cal = calibrate()
    for i in range(1 if job["trace"] else job["setup_repeats"]):
        if i:
            shutil.rmtree(root / f"s{i - 1}")
        gc.collect()
        t0 = time.perf_counter()
        store = build_store(root / f"s{i}", base)
        wall = time.perf_counter() - t0
        after = calibrate()
        builds.append(wall * speed_scale(cal, after))
        cal = after
    result = {"setup_s": builds}
    gc.collect()
    if job["trace"]:
        rounds = _rounds(store, trees, plan, 0, job["trace_rounds"], None)
    else:
        deadline = time.perf_counter() + job["seconds"]
        rounds = _rounds(store, trees, plan, 0, job["min_rounds"], None)
        rounds += _rounds(store, trees, plan, len(rounds), None, deadline)
    compact_s, open_s, reopened, scale = _compact_and_open(store)
    result.update(rounds=rounds, compact_s=compact_s, open_s=open_s,
                  compact_scale=scale)
    last_query = plan["queries"][rounds[-1]["k"] % len(plan["queries"])]
    result["reopened_values"] = reopened.average_rf(
        [trees[i] for i in last_query])
    result["peak_rss_mb"] = peak_rss_mb()
    if not job["trace"]:
        return result

    def wall_of(rounds_, compact_, open_):
        return sum(r["add_s"] + r["remove_s"] + r["query_s"]
                   for r in rounds_) + compact_ + open_

    tracer = Tracer(job["run_id"])
    first = rounds[-1]["k"] + 1
    with tracer.installed(TARGETS):
        with tracer.span("store.traced") as top:
            traced = _rounds(reopened, trees, plan, first,
                             job["trace_rounds"], None, tracer)
            with tracer.span("store.inspect"):
                info = reopened.info()
            compact2_s, open2_s, again, _ = _compact_and_open(
                reopened, calibrated=False)
    snapshot_bytes = again.info()["snapshot_bytes"]
    result["traced_rounds"] = traced
    last_query = plan["queries"][traced[-1]["k"] % len(plan["queries"])]
    result["traced_reopened_values"] = again.average_rf(
        [trees[i] for i in last_query])
    wall = top["end"] - top["start"]
    layers = tracer.layer_table(top["id"])
    n = len(traced)
    tid = top["id"]
    result["layers"] = {
        "bipartitions.extract_s": _self(layers, "bipartitions.extract", n),
        "bipartitions.splits": _attr_sum(tracer, tid, "bipartitions.extract",
                                         "splits") / n,
        "table.pack_s": _self(layers, "table.pack"),
        "table.build_s": _self(layers, "table.build"),
        "table.encode_s": _self(layers, "table.encode"),
        "table.decode_s": _self(layers, "table.decode"),
        "table.snapshot_bytes": _attr_sum(tracer, tid, "table.encode",
                                          "bytes"),
        "store.add_s": _self(layers, "store.add", n),
        "store.remove_s": _self(layers, "store.remove", n),
        "store.query_s": _self(layers, "store.query", n),
        "store.bfh_materialize_s": _self(layers, "store.bfh_materialize", n),
        "store.table_s": _self(layers, "store.table"),
        "store.compact_s": _self(layers, "store.compact"),
        "store.open_s": _self(layers, "store.open"),
        "store.journal_bytes": info["journal_bytes"],
        "store.snapshot_bytes": snapshot_bytes,
        "trace.overhead_ratio": wall_of(traced, compact2_s, open2_s)
        / wall_of(rounds, compact_s, open_s),
    }
    result["report"] = format_layer_table(
        f"traced store churn ({n} rounds, compact, open)", layers, wall)
    tracer.write_jsonl(Path(job["spans_out"]))
    return result


def main(argv: list[str]) -> int:
    kind, job_path = argv[1], Path(argv[2])
    job = read_json(job_path)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    runner = {"batch": run_batch, "store": run_store}[kind]
    print(json.dumps(runner(job)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
