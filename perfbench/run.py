"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload batch_insect --seed 1 \\
        --seconds 10 --trace 0

Prints a human-readable report, then, as the last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` a separate traced run reports the per-layer metrics
and writes its spans to ``.perfbench_out/``.  Exits 1 when any answer
differs from the dict ``bfhrf`` reference, 2 when the program source is
missing, 3 when the load generator ran too late for the run to count.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (CALIBRATION_NOMINAL_S, OUT_DIR, ROOT, SRC,  # noqa: E402
                    WORK_DIR, calibrate, cpu_seconds, peak_rss_mb,
                    program_env, quantile, speed_scale, tail_percentile,
                    write_json)

#: Every run ends (or fails) within this many seconds.
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 3
#: Share of a traced batch call the wrapped layers must account for.
MIN_COVERAGE = 0.9
STORE_MIN_ROUNDS = 200
TRACE_STORE_ROUNDS = 40
#: Offered loads in requests per reference-machine second (see
#: common.calibrate).  The daemon answers about 135 of these per second.
#: Steady runs at about 0.2x capacity: at 0.5x the median request sits
#: on the boundary between waiting and not waiting behind a 16-tree
#: frame, and it moved 12% from seed to seed.  Overload runs at twice
#: capacity.
SERVE_STEADY_RATE = 30.0
SERVE_OVERLOAD_RATE = 260.0
OVERLOAD_ARGS = ["--queue-max-trees", "64", "--queue-max-requests", "32"]
#: Calibration loops on each side of a serve load (about 0.75 s each):
#: fewer left the serve median swinging 30% on a noisy host.
SERVE_CALIBRATION_SAMPLES = 25
SERVE_DRAIN_S = 30.0
#: A run whose generator sent its 99th-percentile request later than
#: this is invalid: the client, not the daemon, set the latency.
GENERATOR_LAG_LIMIT_S = 0.025

#: Per-layer metrics of the traced run, with their units.  A layer the
#: workload does not reach reports 0 (see perfbench/layers.json).
PER_LAYER = {
    "newick.parse_s": "s", "newick.trees": "count", "newick.bytes": "bytes",
    "bipartitions.extract_s": "s", "bipartitions.splits": "count",
    "hashing.bfh_build_s": "s",
    "table.pack_s": "s", "table.build_s": "s", "table.unique_splits": "count",
    "table.encode_s": "s", "table.decode_s": "s",
    "table.snapshot_bytes": "bytes",
    "vectorized.probe_s": "s", "vectorized.probe_keys": "count",
    "vectorized.hit_ratio": "ratio", "vectorized.batch_s": "s",
    "runtime.segment_build_s": "s", "runtime.segment_bytes": "bytes",
    "runtime.fanout_s": "s",
    "store.add_s": "s", "store.remove_s": "s", "store.query_s": "s",
    "store.bfh_materialize_s": "s", "store.table_s": "s",
    "store.compact_s": "s", "store.open_s": "s",
    "store.journal_bytes": "bytes", "store.snapshot_bytes": "bytes",
    "serve.rtt_small_ms": "ms", "serve.rtt_large_ms": "ms",
    "serve.shed_rtt_ms": "ms", "serve.daemon_cpu_ms_per_request": "ms",
    "serve.queue_wait_ms": "ms", "serve.probe_ms": "ms",
    "serve.request_ms": "ms", "serve.batch_requests": "count",
    "serve.admission_rejected.inflight": "count",
    "serve.admission_rejected.queue_requests": "count",
    "serve.admission_rejected.queue_trees": "count",
    "serve.generator_lag_ms": "ms",
    "trace.batch_coverage": "ratio", "trace.overhead_ratio": "ratio",
}


def scaled(walls, scales) -> list[float]:
    """Wall times in reference-machine seconds (see common.calibrate)."""
    return [wall * scale for wall, scale in zip(walls, scales)]


def p95_line(name: str, seconds: list[float]) -> list[str]:
    """The p95 report line, when at least ten samples lie beyond it.

    p95 is the highest percentile every workload supports in a 10-second
    run (p99 would need 1000 samples; serve_steady sends 300).
    """
    if tail_percentile(len(seconds)) not in (95, 99):
        return [f"{name:<27}n/a (only {len(seconds)} samples)"]
    return [f"{name:<27}{1000 * quantile(seconds, 0.95):.3f} ms"]


class InvalidRun(RuntimeError):
    """The measurement itself is not trustworthy (not: the program is slow)."""


class Run:
    """One invocation: arguments, scratch directory and the outcome tally."""

    def __init__(self, args):
        self.args = args
        self.seed, self.seconds, self.trace = args.seed, args.seconds, \
            bool(args.trace)
        self.run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.work = WORK_DIR / self.run_id
        self.spans_out = OUT_DIR / f"{args.workload}-seed{args.seed}" \
                                   f"-trace.spans.jsonl"
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.report: list[str] = []
        self.children: list[subprocess.Popen] = []
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def remaining(self) -> float:
        """Seconds left before the run must have ended."""
        return max(1.0, self.deadline - time.perf_counter())

    def check(self, got, expected) -> None:
        """Count one answer; bitwise float equality with the reference."""
        self.attempted += 1
        if got != expected:
            self.failed += 1

    def spawn(self, kind: str, job: dict) -> subprocess.Popen:
        path = self.work / f"job-{kind}.json"
        write_json(path, job)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "program.py"), kind, str(path)],
            cwd=ROOT, env=program_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.children.append(proc)
        if proc.stdout.readline().strip() != "ready":
            proc.kill()
            proc.wait()
            raise RuntimeError(f"program runner for {kind} did not start")
        return proc

    def finish(self, proc: subprocess.Popen, timeout: float) -> dict:
        try:
            out, _ = proc.communicate("go\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"program runner exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


# -- batch_insect ------------------------------------------------------------


def workload_batch(run: Run) -> None:
    from inputs import N_REFERENCE, bfhrf_values, insect_trees, newick_lines

    trees = insect_trees(run.seed, N_REFERENCE)
    nwk = run.work / "insect.nwk"
    nwk.write_text("\n".join(newick_lines(trees)) + "\n", encoding="utf-8")
    expected = bfhrf_values(trees)
    del trees
    gc.collect()

    job = {"nwk": str(nwk), "seconds": run.seconds, "trace": run.trace,
           "run_id": run.run_id, "spans_out": str(run.spans_out)}
    starts, proc = [], None
    cal = calibrate()
    for i in range(1 if run.trace else SETUP_REPEATS):
        if proc is not None:
            proc.communicate("exit\n", timeout=30)
            cal = calibrate()
        t0 = time.perf_counter()
        proc = run.spawn("batch", job)
        wall = time.perf_counter() - t0
        starts.append((wall, speed_scale(cal, calibrate())))
    result = run.finish(proc, timeout=run.remaining())
    for values in result["values"]:
        run.check(values, expected)
    serial = scaled(result["serial_s"], result["serial_scale"])
    fanout = scaled(result["fanout_s"], result["fanout_scale"])
    run.metrics.update(
        setup_s=median(scaled(*zip(*starts))),
        peak_rss_mb=result["peak_rss_mb"],
        throughput_per_s=N_REFERENCE / median(serial),
        p50_ms=1000 * median(serial))
    run.report += [
        f"batch_trees_per_s          {N_REFERENCE / median(serial):.2f} "
        f"trees/s  ({len(serial)} serial calls; raw "
        f"{N_REFERENCE / median(result['serial_s']):.2f})",
        f"batch_fanout_trees_per_s   {N_REFERENCE / median(fanout):.2f} "
        f"trees/s  ({len(fanout)} calls, n_workers="
        f"{len(os.sched_getaffinity(0))}; raw "
        f"{N_REFERENCE / median(result['fanout_s']):.2f})"]
    if run.trace:
        run.layers = result["layers"]
        run.report += result["report"]
        coverage = run.layers["trace.batch_coverage"]
        run.report.append(
            f"trace coverage: wrapped layers cover {100 * coverage:.1f}% of "
            f"the traced serial wall "
            f"({'ok' if coverage >= MIN_COVERAGE else 'LOW'})")


# -- store_churn -------------------------------------------------------------


def workload_store(run: Run) -> None:
    from inputs import (N_HELD_OUT, N_REFERENCE, insect_trees, newick_lines,
                        store_expected, store_plan, store_round_expected)

    trees = insect_trees(run.seed, N_REFERENCE + N_HELD_OUT)
    lines = newick_lines(trees)
    (run.work / "base.nwk").write_text(
        "\n".join(lines[:N_REFERENCE]) + "\n", encoding="utf-8")
    (run.work / "pool.nwk").write_text(
        "\n".join(lines[N_REFERENCE:]) + "\n", encoding="utf-8")
    plan = store_plan(run.seed)
    write_json(run.work / "plan.json", plan)
    expected = store_expected(trees, plan)
    del trees, lines
    gc.collect()

    (run.work / "stores").mkdir()
    proc = run.spawn("store", {
        "base": str(run.work / "base.nwk"), "pool": str(run.work / "pool.nwk"),
        "plan": str(run.work / "plan.json"),
        "store_dir": str(run.work / "stores"), "seconds": run.seconds,
        "setup_repeats": SETUP_REPEATS, "min_rounds": STORE_MIN_ROUNDS,
        "trace": run.trace, "trace_rounds": TRACE_STORE_ROUNDS,
        "run_id": run.run_id, "spans_out": str(run.spans_out)})
    result = run.finish(proc, timeout=run.remaining())
    rounds = result["rounds"] + result.get("traced_rounds", [])
    for r in rounds:
        run.check(r["values"], store_round_expected(expected, r["k"], plan))
    run.check(result["reopened_values"], store_round_expected(
        expected, result["rounds"][-1]["k"], plan))
    if run.trace:
        run.check(result["traced_reopened_values"], store_round_expected(
            expected, result["traced_rounds"][-1]["k"], plan))
        run.layers = result["layers"]
        run.report += result["report"]
        return

    rounds = result["rounds"]
    queries = [r["query_s"] * r["scale"] for r in rounds]
    add_rate = sum(r["added"] for r in rounds) / sum(
        r["add_s"] * r["scale"] for r in rounds)
    scale = result["compact_scale"]
    run.metrics.update(
        setup_s=median(result["setup_s"]), peak_rss_mb=result["peak_rss_mb"],
        throughput_per_s=add_rate, p50_ms=1000 * median(queries))
    run.report += [
        f"store_add_trees_per_s      {add_rate:.2f} trees/s  "
        f"({len(rounds)} rounds of {rounds[0]['added']} trees)",
        f"store_query_p50_ms         {1000 * median(queries):.3f} ms  "
        f"({len(queries)} queries of 16 trees)",
        *p95_line("store_query_p95_ms", queries),
        f"store_compact_s            {result['compact_s'] * scale:.4f} s",
        f"store_open_s               {result['open_s'] * scale:.4f} s"]


# -- serve_steady / serve_overload -------------------------------------------


def _stats_delta(before: dict, after: dict) -> dict[str, float]:
    """Per-load means of the daemon's own ``stats`` histograms/counters."""
    def hist(name):
        b = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        a = after["histograms"].get(name, {"count": 0, "sum": 0.0})
        n = a["count"] - b["count"]
        return (a["sum"] - b["sum"]) / n if n else 0.0

    def count(name):
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    out = {"serve.queue_wait_ms": 1000 * hist("serve.queue_wait_seconds"),
           "serve.probe_ms": 1000 * hist("serve.probe_seconds"),
           "serve.request_ms": 1000 * hist("serve.request_seconds"),
           "serve.batch_requests": hist("serve.batch_requests")}
    for reason in ("inflight", "queue_requests", "queue_trees"):
        out[f"serve.admission_rejected.{reason}"] = count(
            f"serve.admission_rejected.{reason}")
    return out


def _serve_load(run: Run, conns, frames, schedule, expected_of):
    """One open-loop load: answered, shed, duration (reference s), lag.

    The schedule is in reference-machine seconds and is stretched to the
    speed measured just before, so that the offered load keeps the same
    ratio to the daemon's capacity when the host slows down.  Latencies
    are scaled by the calibrations on both sides of the load; the load's
    duration is converted back with the same stretch that set it.
    """
    from loadgen import run_open_loop

    before = calibrate(SERVE_CALIBRATION_SAMPLES)
    stretch = min(2.0, max(0.5, before / CALIBRATION_NOMINAL_S))
    outcomes, start, end = run_open_loop(conns, frames, schedule, stretch,
                                         SERVE_DRAIN_S)
    scale = speed_scale(before, calibrate(SERVE_CALIBRATION_SAMPLES))
    ok, shed = [], []
    for outcome, arrival in zip(outcomes, schedule):
        reply = outcome.reply
        if reply is not None and not reply.get("ok") and \
                reply.get("error", {}).get("type") == "overloaded":
            run.attempted += 1
            shed.append(outcome)
            continue
        run.check(None if reply is None or not reply.get("ok")
                  else reply["values"], expected_of(arrival))
        if reply is not None and reply.get("ok"):
            ok.append((outcome, arrival))
    for outcome, _ in ok:
        outcome.latency_ref = outcome.latency * scale
    return ok, shed, (end - start) / stretch, generator_lag(outcomes)


def generator_lag(outcomes) -> float:
    """Tail of (actual - intended) send time; raises if the run is invalid."""
    lags = [o.sent - o.intended for o in outcomes]
    pct = tail_percentile(len(lags)) or 50
    lag = quantile(lags, pct / 100)
    if lag > GENERATOR_LAG_LIMIT_S:
        raise InvalidRun(f"generator p{pct} lag {1000 * lag:.1f} ms "
                         f"exceeds {1000 * GENERATOR_LAG_LIMIT_S:.0f} ms")
    return lag


def workload_serve(run: Run, overload: bool) -> None:
    from inputs import (N_HELD_OUT, N_REFERENCE, bfhrf_values, insect_trees,
                        newick_lines, serve_schedule)
    from loadgen import Daemon
    from repro.store.store import build_store

    trees = insect_trees(run.seed, N_REFERENCE + N_HELD_OUT)
    reference, held = trees[:N_REFERENCE], trees[N_REFERENCE:]
    held_lines = newick_lines(held)
    expected = bfhrf_values(held, reference)
    connections = len(os.sched_getaffinity(0))
    rate = SERVE_OVERLOAD_RATE if overload else SERVE_STEADY_RATE
    schedule = serve_schedule(run.seed, rate, run.seconds, connections)
    frames = [(json.dumps({"id": i, "op": "query", "trees": "\n".join(
        held_lines[j] for j in a.trees)}) + "\n").encode()
        for i, a in enumerate(schedule)]

    def expected_of(arrival):
        return [expected[j] for j in arrival.trees]

    extra = OVERLOAD_ARGS if overload else []
    setups, daemon = [], None
    try:
        for i in range(1 if run.trace else SETUP_REPEATS):
            if daemon is not None:
                conn.close()
                daemon.stop()
                shutil.rmtree(run.work / f"store{i - 1}")
            cal = calibrate()
            t0 = time.perf_counter()
            build_store(run.work / f"store{i}", reference)
            daemon = Daemon(run.work / f"store{i}", run.work / f"s{i}.sock",
                            run.work / "daemon.log", extra)
            conn = daemon.connect()
            warm = conn.request({"id": "warm", "op": "query",
                                 "trees": held_lines[0]})
            wall = time.perf_counter() - t0
            setups.append(wall * speed_scale(cal, calibrate()))
            run.check(warm.get("values"), [expected[0]])
        del trees, reference, held
        gc.collect()
        conns = [conn] + [daemon.connect()
                          for _ in range(connections - 1)]
        if run.trace:
            _serve_traced(run, daemon, conns, frames, schedule, expected_of)
            return
        ok, shed, duration, lag = _serve_load(run, conns, frames, schedule,
                                              expected_of)
        rss = peak_rss_mb(daemon.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    if not ok:
        raise RuntimeError("no request was answered")
    latencies = [o.latency_ref for o, _ in ok]
    goodput = len(ok) / duration
    run.metrics.update(setup_s=median(setups), peak_rss_mb=rss,
                       throughput_per_s=goodput,
                       p50_ms=1000 * median(latencies))
    prefix = "serve_overload" if overload else "serve"
    run.report += [
        f"{prefix + '_p50_ms':<27}{1000 * median(latencies):.3f} ms  "
        f"({len(latencies)} answered of {len(schedule)} sent at "
        f"{rate:g} req/s, open loop)",
        *p95_line(f"{prefix}_p95_ms", latencies)]
    if overload:
        run.report += [
            f"serve_overload_goodput_rps {goodput:.2f} req/s",
            f"serve_shed_ratio           {len(shed) / len(schedule):.4f}"]
    run.report.append(f"generator lag (tail)       {1000 * lag:.3f} ms")


def _serve_traced(run: Run, daemon, conns, frames, schedule, expected_of):
    """Untraced load, then the same load with spans and daemon counters."""
    from tracing import Tracer

    _, _, untraced, _ = _serve_load(run, conns, frames, schedule,
                                    expected_of)
    before = conns[0].request({"id": "stats0", "op": "stats"})["stats"]
    cpu0 = cpu_seconds(daemon.pid)
    ok, shed, traced, lag = _serve_load(run, conns, frames, schedule,
                                        expected_of)
    cpu1 = cpu_seconds(daemon.pid)
    after = conns[0].request({"id": "stats1", "op": "stats"})["stats"]

    # Request spans overlap (the loop is open), so they are summarized by
    # kind rather than by self time.
    tracer = Tracer(run.run_id)
    start = min(o.sent for o in [*(o for o, _ in ok), *shed])
    end = max(o.replied for o in [*(o for o, _ in ok), *shed])
    top = tracer.record("serve.load", start, end, requests=len(schedule))
    for outcome, arrival in ok:
        kind = "small" if len(arrival.trees) == 1 else "large"
        tracer.record(f"serve.request.{kind}", outcome.sent, outcome.replied,
                      top["id"], request=outcome.index,
                      trees=len(arrival.trees))
    for outcome in shed:
        tracer.record("serve.request.shed", outcome.sent, outcome.replied,
                      top["id"], request=outcome.index)
    rtts = {}
    for record in tracer.spans[1:]:
        rtts.setdefault(record["name"], []).append(
            1000 * (record["end"] - record["start"]))

    def rtt_ms(kind):
        values = rtts.get(f"serve.request.{kind}")
        return median(values) if values else 0.0

    run.layers = {
        "serve.rtt_small_ms": rtt_ms("small"),
        "serve.rtt_large_ms": rtt_ms("large"),
        "serve.shed_rtt_ms": rtt_ms("shed"),
        "serve.daemon_cpu_ms_per_request": 1000 * (cpu1 - cpu0)
        / len(schedule),
        **_stats_delta(before["metrics"], after["metrics"]),
        "serve.generator_lag_ms": 1000 * lag,
        "trace.overhead_ratio": traced / untraced,
    }
    run.report.append(f"traced serve load: wall {end - start:.4f} s")
    run.report.append(f"  {'span':<28}{'calls':>7}{'p50_rtt_ms':>12}")
    for name, values in sorted(rtts.items()):
        run.report.append(f"  {name:<28}{len(values):>7}"
                          f"{median(values):>12.3f}")
    tracer.write_jsonl(run.spans_out)


WORKLOADS = {
    "batch_insect": workload_batch,
    "store_churn": workload_store,
    "serve_steady": lambda run: workload_serve(run, overload=False),
    "serve_overload": lambda run: workload_serve(run, overload=True),
}

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB",
             "throughput_per_s": "1/s", "p50_ms": "ms"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # A terminated run still stops its daemon and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    run.work.mkdir(parents=True)
    try:
        WORKLOADS[args.workload](run)
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        for proc in run.children:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(run.work, ignore_errors=True)

    return emit(run)


def emit(run: Run) -> int:
    """Print the report and the result line; the exit code says correct."""
    if run.trace:
        values = {name: float(run.layers.get(name, 0.0))
                  for name in PER_LAYER}
        units = PER_LAYER
    else:
        values, units = run.metrics, E2E_UNITS
    args = run.args
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in run.report:
        print(line)
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_ratio               {ratio:.4f}  "
          f"({run.failed} of {run.attempted} answers differ from bfhrf)")
    for name, value in values.items():
        print(f"{name:<40}{value:>16.6g} {units[name]}")
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
