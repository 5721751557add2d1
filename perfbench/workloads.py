"""The four benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the seed, sets the program up
:data:`~common.SETUP_REPEATS` times, computes its reference outputs
outside all timing, then runs operations for the given seconds and
checks every one; the closed-loop workloads set up again between rounds
(``setup_s`` is the median of all set-ups). See ``perfbench/README.md`` for why
each workload exists and which layer each metric should move.

All timings are host time of the simulator and serving stack, not the
modelled GEO cycles of ``repro.arch.perfsim``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    COLD,
    INFER,
    MODES,
    SERVE,
    SETUP_PER_ROUND,
    SETUP_REPEATS,
    SLO_MS,
    SPAWN_REPEATS,
    TRAIN,
    Scenario,
    Tally,
    images,
    model_seed,
    now,
    peak_rss_mb,
    process_peak_rss_mb,
    quantile,
)
from repro import cluster
from repro.errors import ReproError
from repro.nn import functional as F
from repro.nn.data import DataLoader
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.scnn.sim import clear_table_cache
from repro.serve.policy import ServePolicy
from repro.serve.registry import ModelRegistry
from repro.serve.service import InferenceService

BATCH = 32
NUM_CLASSES = 10
LR = 2e-3

#: Open-loop arrival rate of ``serve-cluster``, requests per second:
#: about half the knee measured on the bench host (README).
SERVE_RATE = 40.0

#: Home operations between two rounds of side samples.
COLD_ROUND = 8
TRAIN_ROUND = 4

#: Untimed open-loop stretch before ``serve-cluster`` measures, s. A
#: fresh replica answers the first second of open-loop load 3-4x slower
#: than the rest (its first batches of each size), which alone decided
#: a run's p99.
SERVE_WARM_S = 2.0

#: Open-loop segments of an untraced ``serve-cluster`` run; side
#: samples are taken between segments, while the replica is idle.
SERVE_SEGMENTS = 8

#: Batch of the side inference and training measurements.
SIDE_BATCH = 8

#: Seconds past the router's own queue-wait limit after which an
#: admitted request that has no answer counts as dropped.
ANSWER_GRACE_S = 5.0

#: Stats polling period of the traced half of ``serve-cluster``, s.
POLL_S = 0.5


# -- checks (pure; the benchmark's tests feed them corrupted outputs) -------


def check_logits(out, ref) -> bool:
    """Bit-identical logits."""
    return out is not None and out.shape == ref.shape and bool(np.array_equal(out, ref))


def check_tiers(forward_at, x, refs) -> bool:
    """A loaded model's output at every tier equals the in-memory model's."""
    return all(check_logits(forward_at(x, tier), ref) for tier, ref in enumerate(refs))


def check_first_step(loss, params, ref_loss, ref_params) -> bool:
    """First training step bit-identical to the reference engine's."""
    return (
        loss == ref_loss
        and len(params) == len(ref_params)
        and all(np.array_equal(p, r) for p, r in zip(params, ref_params))
    )


def check_answer(answer, max_tier: int) -> bool:
    """One served answer: 10 finite logits at a tier inside the ladder.

    ``answer`` is the decoded HTTP 200 body; ``None`` (dropped, refused
    or failed request) fails.
    """
    if not isinstance(answer, dict):
        return False
    outputs = np.asarray(answer.get("outputs", []), dtype=np.float64)
    tier = answer.get("tier")
    return (
        outputs.shape == (NUM_CLASSES,)
        and bool(np.isfinite(outputs).all())
        and isinstance(tier, int)
        and 0 <= tier <= max_tier
    )


# -- program calls shared by the home loops and the side measurements ------


def forward(model, x: np.ndarray) -> np.ndarray:
    with no_grad():
        return model(Tensor(x)).data


def warm(model, shape) -> None:
    """One batch-1 eval forward: fills the stream-table cache."""
    was_training = model.training
    model.eval()
    forward(model, np.zeros((1, *shape), dtype=np.float32))
    if was_training:
        model.train()


def train_step(model, optimizer, images_, labels) -> float:
    """One SC-in-the-loop step, as ``repro.scnn.train.train_model`` runs it."""
    optimizer.zero_grad()
    logits = model(Tensor(images_))
    loss = F.cross_entropy(logits, labels)
    loss.backward()
    optimizer.step()
    return float(loss.data)


def samples_per_s(batch: int, op_seconds) -> float:
    """Samples completed per second of operation time, over the run.

    A total, not the median operation: this host's speed drifts by
    20-30% in phases of several seconds, and a median jumps between the
    fast and the slow phase's times as their shares of a run cross one
    half, where a total moves only with the shares.
    """
    return batch * len(op_seconds) / float(np.sum(op_seconds))


def param_copy(model) -> list[np.ndarray]:
    return [p.data.copy() for p in model.parameters()]


def tier_refs(model, shape, x) -> list[np.ndarray]:
    """In-memory model's logits at every tier of its serving ladder."""
    entry = ModelRegistry().register("ref", model, shape, warm=False)
    refs = [entry.forward(x, tier=t)[0] for t in range(entry.max_tier + 1)]
    entry.set_tier(0)
    return refs


def load(path: Path):
    """``clear_table_cache()`` is the caller's; this is the timed part."""
    return ModelRegistry().load("cnn4", path)


def entry_forward(entry):
    return lambda x, tier: entry.forward(x, tier=tier)[0]


# -- run bookkeeping --------------------------------------------------------


@dataclass
class Run:
    """What one workload run measured."""

    seed: int
    seconds: float
    trace: bool
    tracer: object = None
    tally: Tally = field(default_factory=Tally)
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    setup_times: list = field(default_factory=list)
    tmp: Path | None = None


class Timed:
    """Times one operation; traces it when given a tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.dt = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.begin()
        self.start = now()
        return self

    def __exit__(self, *exc):
        self.dt = now() - self.start
        if self.tracer is not None:
            self.tracer.end()
        return False


def repeat_setup(run: Run, setup, teardown=None, repeats: int = SETUP_REPEATS):
    """Run ``setup`` ``repeats`` times, record each duration, return the
    last result. ``teardown`` (untimed) undoes all but the last."""
    result = None
    for k in range(repeats):
        if k and teardown is not None:
            teardown(result)
        start = now()
        result = setup()
        run.setup_times.append(now() - start)
    run.e2e["setup_s"] = float(np.median(run.setup_times))
    return result


def closed_loop(run: Run, op, round_size: int = 1, sides=(), rewarm=None):
    """Rounds of ``op(i, timed)`` until ``run.seconds`` elapse.

    After each round every side measurement takes one sample, so home
    and side samples spread over the same stretch of host time (this
    host's speed drifts over tens of seconds). ``rewarm`` (untimed)
    restores the home models' stream tables after a side load cleared
    them. In a traced run there are no side samples; odd rounds are
    traced and even rounds are not, so the two interleave and their
    difference is the tracing overhead.

    Returns ``(op_seconds, traced)`` per round.
    """
    rounds = []
    i = 0
    start = now()
    while now() - start < run.seconds or (run.trace and len(rounds) < 2):
        traced = run.trace and len(rounds) % 2 == 1
        dts = []
        for _ in range(round_size):
            timed = Timed(run.tracer if traced else None)
            op(i, timed)
            dts.append(timed.dt)
            i += 1
        rounds.append((dts, traced))
        for side in sides:
            side.sample()
        if sides and rewarm is not None:
            rewarm()
    return rounds


def finish(run: Run, rounds, sides) -> list[list[float]]:
    """Close a closed-loop workload: tracing overhead on a traced run;
    otherwise peak memory and the side metrics. Returns the op times of
    the untraced rounds."""
    plain = [dts for dts, traced in rounds if not traced]
    if run.trace:
        traced = [sum(dts) for dts, traced in rounds if traced]
        untraced = [sum(dts) for dts in plain]
        run.layer["trace.overhead_ratio"] = float(np.median(traced) / np.median(untraced) - 1.0)
    else:
        run.e2e["peak_rss_mb"] = peak_rss_mb()
    for side in sides:
        side.finish()
    return plain


def make_sides(run: Run, mseed: int, counts: dict, setup=None) -> list:
    """The side measurements of an untraced run (none when traced);
    ``counts`` maps each kind to its operations per round. With
    ``setup`` the workload's set-up is repeated between rounds too."""
    if run.trace:
        return []
    sides = [kind(run, mseed, n) for kind, n in counts.items()]
    if setup is not None:
        sides.append(SideSetup(run, SETUP_PER_ROUND, setup))
    return sides


# -- infer-warm --------------------------------------------------------------


def run_infer_warm(run: Run) -> None:
    scn = INFER
    mseed = model_seed(run.seed, 1)
    data = images(run.seed, BATCH * len(MODES), scn.channels)
    batches = {m: data.images[k * BATCH : (k + 1) * BATCH] for k, m in enumerate(MODES)}

    def setup():
        clear_table_cache()
        models = {m: scn.build(mseed, accumulation=m).eval() for m in MODES}
        for model in models.values():
            warm(model, scn.input_shape)
        return models

    models = repeat_setup(run, setup)
    refs = {
        m: forward(scn.build(mseed, accumulation=m, engine="reference").eval(), batches[m])
        for m in MODES
    }

    def op(i, timed):
        mode = MODES[i % len(MODES)]
        with timed:
            out = forward(models[mode], batches[mode])
        run.tally.record(check_logits(out, refs[mode]))

    def rewarm():
        for model in models.values():
            warm(model, scn.input_shape)

    sides = make_sides(run, mseed, {SideLoad: 6, SideTrain: 4, SideServe: 96}, setup)
    rounds = closed_loop(run, op, len(MODES), sides, rewarm)
    plain = finish(run, rounds, sides)
    run.e2e["infer_samples_per_s"] = samples_per_s(BATCH, [dt for dts in plain for dt in dts])


# -- cold-load ---------------------------------------------------------------


def run_cold_load(run: Run) -> None:
    scn = COLD
    mseed = model_seed(run.seed, 2)
    x = images(run.seed, 2, scn.channels).images
    path = run.tmp / "cold.npz"

    def setup():
        model = scn.build(mseed)
        scn.save(model, path, mseed)
        return model

    model = repeat_setup(run, setup)
    refs = tier_refs(model, scn.input_shape, x)

    def op(i, timed):
        clear_table_cache()
        with timed:
            entry = load(path)
        run.tally.record(check_tiers(entry_forward(entry), x, refs))

    sides = make_sides(run, mseed, {SideInfer: 4, SideTrain: 4, SideServe: 64}, setup)
    rounds = closed_loop(run, op, COLD_ROUND, sides)
    loads = [dt for dts in finish(run, rounds, sides) for dt in dts]
    run.e2e["load_ms_p50"] = quantile(loads, 0.5) * 1e3
    run.e2e["load_ms_p90"] = quantile(loads, 0.9) * 1e3


# -- train-step --------------------------------------------------------------


def first_step_reference(scn: Scenario, mseed: int, images_, labels):
    """Loss and weights after one step on the reference engine."""
    model = scn.build(mseed, engine="reference")
    model.train()
    optimizer = Adam(model.parameters(), lr=LR)
    loss = train_step(model, optimizer, images_, labels)
    return loss, param_copy(model)


def run_train_step(run: Run) -> None:
    scn = TRAIN
    mseed = model_seed(run.seed, 3)
    data = images(run.seed, BATCH * 8, scn.channels)

    def setup():
        model = scn.build(mseed)
        model.train()
        optimizer = Adam(model.parameters(), lr=LR)
        loader = DataLoader(data, batch_size=BATCH, seed=run.seed)
        warm(model, scn.input_shape)
        return model, optimizer, loader

    model, optimizer, loader = repeat_setup(run, setup)
    first_images, first_labels = next(iter(DataLoader(data, batch_size=BATCH, seed=run.seed)))
    ref_loss, ref_params = first_step_reference(scn, mseed, first_images, first_labels)
    state = {"it": iter(loader)}

    def next_batch():
        try:
            return next(state["it"])
        except StopIteration:
            state["it"] = iter(loader)
            return next(state["it"])

    def op(i, timed):
        with timed:
            start = now()
            images_, labels = next_batch()
            if timed.tracer is not None:
                timed.tracer.busy["data"] += now() - start
            loss = train_step(model, optimizer, images_, labels)
        ok = bool(np.isfinite(loss))
        if i == 0:
            ok = ok and check_first_step(loss, param_copy(model), ref_loss, ref_params)
        run.tally.record(ok)

    def rewarm():
        warm(model, scn.input_shape)

    sides = make_sides(run, mseed, {SideInfer: 4, SideLoad: 6, SideServe: 48}, setup)
    rounds = closed_loop(run, op, TRAIN_ROUND, sides, rewarm)
    steps = [dt for dts in finish(run, rounds, sides) for dt in dts]
    run.e2e["train_samples_per_s"] = samples_per_s(BATCH, steps)


# -- serve-cluster -------------------------------------------------------------


@dataclass
class Request:
    """One open-loop request: bench-side timestamps plus the answer."""

    sample: int
    scheduled: float
    sent: float = 0.0
    done: float = 0.0
    answer: dict | None = None
    error: str | None = None


def poisson_schedule(seed: int, rate: float, seconds: float, pool: int, salt: int = 17):
    """Arrival offsets (s) and sample indices of an open-loop run."""
    rng = np.random.default_rng((seed, salt))
    offsets = []
    t = rng.exponential(1.0 / rate)
    while t < seconds:
        offsets.append(t)
        t += rng.exponential(1.0 / rate)
    return offsets, rng.integers(0, pool, size=len(offsets))


def serve_summary(requests: list[Request], max_tier: int, tally: Tally) -> dict:
    """Check every answer and derive the end-to-end serving metrics.

    A failed, refused or dropped request, or a wrong answer, counts as
    a failed operation and as a miss of the latency objective. The
    latency quantiles are over every correct answer of the run.
    """
    latencies, top = [], 0
    within = 0
    for req in requests:
        ok = tally.record(req.error is None and check_answer(req.answer, max_tier))
        if not ok:
            continue
        latency = (req.done - req.scheduled) * 1e3
        latencies.append(latency)
        within += latency <= SLO_MS
        top += req.answer["tier"] == 0
    return {
        "serve_ms_p50": quantile(latencies, 0.5),
        "serve_ms_p99": quantile(latencies, 0.99),
        "serve_slo_share": within / max(len(requests), 1),
        "serve_top_tier_share": top / max(len(latencies), 1),
    }


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return json.loads(response.read())


def stamp_when_set(event: threading.Event) -> list[float]:
    """Record when ``event`` is set: the returned list receives the time.

    Only this instance's ``set`` is wrapped, so the event stays the one
    the router resolves, and an answer is timed when the router resolves
    it even while the collector still waits on an older request.
    """
    at: list[float] = []
    original = event.set

    def set_() -> None:
        at.append(now())
        original()

    event.set = set_
    if event.is_set() and not at:  # resolved before the wrapper
        at.append(now())
    return at


class Collector(threading.Thread):
    """Waits for answers, in send order, and records each one.

    A request unanswered :attr:`answer_timeout_s` after it was sent (the
    router's own queue-wait limit plus :data:`ANSWER_GRACE_S`) is
    recorded as dropped, so a lost answer fails its check instead of
    stalling the run. With ``poll`` set the collector also reads the
    router's and the replica's stats every :data:`POLL_S` seconds (the
    traced phase's extra work).
    """

    def __init__(self, router, endpoint: str):
        super().__init__(name="perfbench-collector", daemon=True)
        self.router = router
        self.endpoint = endpoint
        self.answer_timeout_s = router.policy.queue_wait_timeout_s + ANSWER_GRACE_S
        self.queue: queue.Queue = queue.Queue()
        self.poll = threading.Event()
        self.last_poll = now()

    def close(self) -> None:
        self.queue.put(None)

    def run(self) -> None:
        while (entry := self.queue.get()) is not None:
            if isinstance(entry, threading.Event):  # end of a segment
                entry.set()
                continue
            req, item, stamped = entry
            if not self.wait(item.event, req.sent + self.answer_timeout_s):
                req.done = now()
                req.error = f"dropped: no answer within {self.answer_timeout_s:g} s"
                continue
            req.done = stamped[0] if stamped else now()
            if item.error is not None:
                req.error = f"{type(item.error).__name__}: {item.error}"
            else:
                req.answer = item.result

    def wait(self, event: threading.Event, deadline: float) -> bool:
        """Block until ``event`` is set or ``deadline`` passes, polling
        stats meanwhile when asked to."""
        while True:
            left = deadline - now()
            if left <= 0:
                return event.is_set()
            polling = self.poll.is_set()
            answered = event.wait(min(left, POLL_S) if polling else left)
            if polling and now() - self.last_poll >= POLL_S:
                self.router.stats()
                _get_json(f"{self.endpoint}/stats")
                self.last_poll = now()
            if answered:
                return True


def drive(router, collector: Collector, bodies, offsets, samples):
    """Generator: send each request at its scheduled offset, then wait
    until the collector has recorded every answer or drop."""
    requests = []
    origin = now()
    for offset, sample in zip(offsets, samples):
        req = Request(int(sample), origin + offset)
        delay = req.scheduled - now()
        if delay > 0:
            time.sleep(delay)
        req.sent = now()
        try:
            item = router.submit("cnn4", bodies[sample])
        except ReproError as error:
            req.done = req.sent
            req.error = f"{type(error).__name__}: {error}"
        else:
            collector.queue.put((req, item, stamp_when_set(item.event)))
        requests.append(req)
    recorded = threading.Event()
    collector.queue.put(recorded)
    # Every request's own deadline has passed by then; the rest is
    # room for one stats poll (10 s HTTP timeout).
    if not recorded.wait(collector.answer_timeout_s + 15.0):
        raise RuntimeError("serve-cluster collector stopped recording answers")
    return requests


def run_serve_cluster(run: Run) -> None:
    scn = SERVE
    mseed = model_seed(run.seed, 4)
    pool = images(run.seed, 64, scn.channels).images
    bodies = [json.dumps({"model": "cnn4", "inputs": x.tolist()}).encode() for x in pool]
    offsets, samples = poisson_schedule(run.seed, SERVE_RATE, run.seconds, len(pool))
    spawn_times = []

    def setup():
        model = scn.build(mseed)
        spec = cluster.ClusterModel("cnn4", model, scn.input_shape)
        start = now()
        manager = cluster.ReplicaManager([spec], num_replicas=1).start()
        spawn_times.append(now() - start)
        return model, manager, cluster.ClusterRouter(manager).start()

    def teardown(stack):
        stack[2].stop()
        stack[1].stop()

    model, manager, router = repeat_setup(run, setup, teardown, SPAWN_REPEATS)
    sides = make_sides(run, mseed, {SideInfer: 4, SideLoad: 6, SideTrain: 4})
    try:
        endpoint = manager.endpoint("r0")
        collector = Collector(router, endpoint)
        collector.start()
        drive(router, collector, bodies, *poisson_schedule(
            run.seed, SERVE_RATE, SERVE_WARM_S, len(pool), salt=18,
        ))
        segments = 2 if run.trace else SERVE_SEGMENTS
        length = run.seconds / segments
        requests, half = [], 0
        for k in range(segments):
            chosen = [j for j, o in enumerate(offsets) if k * length <= o < (k + 1) * length]
            if run.trace and k == 1:
                half = len(requests)
                collector.poll.set()
            requests += drive(
                router, collector, bodies,
                [offsets[j] - k * length for j in chosen], samples[chosen],
            )
            if k < segments - 1:
                for side in sides:
                    side.sample()
        collector.close()
        collector.join(timeout=60.0)
        replica = _get_json(f"{endpoint}/stats")
        router_stats = router.stats()
        pid = router_stats["cluster"]["replicas"]["r0"]["pid"]
        rss = peak_rss_mb() + process_peak_rss_mb(pid)
    finally:
        router.stop()
        manager.stop()
    for side in sides:
        side.finish()
    max_tier = replica["models"]["cnn4"]["max_tier"]
    summary = serve_summary(requests, max_tier, run.tally)
    run.e2e["peak_rss_mb"] = rss
    if not run.trace:
        run.e2e.update(summary)
    else:
        run.e2e.update(serve_summary(requests[:half], max_tier, Tally()))
        plain = run.e2e["serve_ms_p50"]
        traced = serve_summary(requests[half:], max_tier, Tally())["serve_ms_p50"]
        run.layer.update(
            serve_breakdown(requests, replica, router_stats, max_tier),
            **solo_mismatch(scn, model, pool, requests, max_tier),
        )
        run.layer["cluster.spawn_s"] = float(np.median(spawn_times))
        run.layer["trace.overhead_ratio"] = traced / plain - 1.0


def serve_breakdown(requests, replica: dict, router_stats: dict, max_tier: int) -> dict:
    """Split each answered request into generator lag, router+HTTP hop,
    replica queue/batch-formation wait and batch forward.

    The replica reports each request's enqueue-to-response time
    (``latency_ms``); ``/stats`` gives the batch-forward histogram, whose
    mean is exact (sum over count) while its percentiles are only
    resolved to the bucket width (10 ms at this scale). Queue wait is
    the replica time beyond the mean batch forward; the hop is what
    remains of send-to-answer time.
    """
    answered = [r for r in requests if r.error is None and check_answer(r.answer, max_tier)]
    lag = [(r.sent - r.scheduled) * 1e3 for r in requests]
    inner = [r.answer["latency_ms"] for r in answered]
    hop = [(r.done - r.sent) * 1e3 - r.answer["latency_ms"] for r in answered]
    batch_forward = replica["resilience"]["batch_latency_ms"]["mean"]
    return {
        "loadgen.lag_ms_p50": quantile(lag, 0.5),
        "loadgen.lag_ms_p99": quantile(lag, 0.99),
        "cluster.hop_ms_p50": quantile(hop, 0.5),
        "serve.queue_ms_p50": max(0.0, quantile(inner, 0.5) - batch_forward),
        "serve.batch_forward_ms_mean": batch_forward,
        "serve.batch_size_mean": replica["batches"]["size"]["mean"],
        "serve.failed": float(replica["requests"]["failed"] + replica["requests"]["expired"]),
        "cluster.failovers": float(router_stats["requests"]["failovers"]),
    }


def solo_mismatch(scn: Scenario, model, pool, requests, max_tier: int) -> dict:
    """Answers whose logits differ from the same sample's solo (batch-1)
    forward at the tier it was served at. Batch-mates change each
    other's answers through ``QuantizedBatchNorm2d``'s batch-wide
    quantization scale; this counts it without gating on it."""
    entry = ModelRegistry().register("solo", model, scn.input_shape, warm=False)
    solo: dict[tuple[int, int], np.ndarray] = {}
    mismatches = answered = 0
    for req in requests:
        if req.error is not None or not check_answer(req.answer, max_tier):
            continue
        key = (req.sample, req.answer["tier"])
        if key not in solo:
            solo[key] = entry.forward(pool[req.sample][None], tier=key[1])[0][0]
        got = np.asarray(req.answer["outputs"], dtype=np.float32)
        answered += 1
        mismatches += not np.array_equal(got, solo[key])
    return {
        "serve.solo_mismatches": float(mismatches),
        "serve.solo_mismatch_share": mismatches / max(answered, 1),
    }


# -- side measurements ---------------------------------------------------------
#
# Every end-to-end metric is reported on every workload. A workload
# measures its own metrics in its timed loop; the side measurements
# below measure the other operations between home rounds, each checked
# like the home loop checks it. They all run ``serve-cluster``'s model
# (CNN-4 width 0.5, 1x16x16, 64-bit) on every workload: a side value
# then means the same on each workload, and its operations are short
# enough for a run to hold many. Traced runs take no side samples.


class Side:
    """One side measurement; :meth:`sample` rewarms its model's stream
    tables (untimed: a home operation may have cleared the cache) and
    runs :meth:`once` :attr:`repeats` times.

    The count is fixed, not timed: the first operation after a home
    round is slower than the next ones (allocator and cache state), and a
    count that varied with speed would shift the quantiles between those
    two groups from run to run.
    """

    def __init__(self, run: Run, repeats: int):
        self.run, self.repeats = run, repeats

    def rewarm(self) -> None:
        pass

    def sample(self) -> None:
        self.rewarm()
        for _ in range(self.repeats):
            self.once()


class SideSetup(Side):
    """``setup_s``: the workload's set-up once more, its result dropped,
    so set-up samples spread over the run like the others."""

    def __init__(self, run: Run, repeats: int, setup):
        super().__init__(run, repeats)
        self.setup = setup

    def once(self) -> None:
        start = now()
        self.setup()
        self.run.setup_times.append(now() - start)

    def finish(self) -> None:
        self.run.e2e["setup_s"] = float(np.median(self.run.setup_times))


class SideInfer(Side):
    """``infer_samples_per_s``: warm no-grad forwards of a
    :data:`SIDE_BATCH` batch, each bit-identical to the reference engine."""

    def __init__(self, run: Run, mseed: int, repeats: int):
        super().__init__(run, repeats)
        self.times = []
        self.x = images(run.seed, SIDE_BATCH, SERVE.channels, split="test").images
        self.model = SERVE.build(mseed).eval()
        self.ref = forward(SERVE.build(mseed, engine="reference").eval(), self.x)

    def rewarm(self) -> None:
        warm(self.model, SERVE.input_shape)

    def once(self) -> None:
        start = now()
        out = forward(self.model, self.x)
        self.times.append(now() - start)
        self.run.tally.record(check_logits(out, self.ref))

    def finish(self) -> None:
        self.run.e2e["infer_samples_per_s"] = samples_per_s(SIDE_BATCH, self.times)


class SideLoad(Side):
    """``load_ms_p50`` / ``load_ms_p90``: cold-cache registry loads,
    each checked at every tier."""

    def __init__(self, run: Run, mseed: int, repeats: int):
        super().__init__(run, repeats)
        self.times = []
        self.x = images(run.seed, 2, SERVE.channels, split="test").images
        model = SERVE.build(mseed)
        self.path = SERVE.save(model, run.tmp / "side.npz", mseed)
        self.refs = tier_refs(model, SERVE.input_shape, self.x)

    def once(self) -> None:
        clear_table_cache()
        start = now()
        entry = load(self.path)
        self.times.append(now() - start)
        self.run.tally.record(check_tiers(entry_forward(entry), self.x, self.refs))

    def finish(self) -> None:
        self.run.e2e["load_ms_p50"] = quantile(self.times, 0.5) * 1e3
        self.run.e2e["load_ms_p90"] = quantile(self.times, 0.9) * 1e3


class SideTrain(Side):
    """``train_samples_per_s``: SC-in-the-loop steps on a
    :data:`SIDE_BATCH` batch; the first bit-identical to the reference
    engine's, every loss finite."""

    def __init__(self, run: Run, mseed: int, repeats: int):
        super().__init__(run, repeats)
        self.times = []
        data = images(run.seed, SIDE_BATCH, SERVE.channels, split="test")
        self.images, self.labels = data.images, data.labels
        self.ref = first_step_reference(SERVE, mseed, self.images, self.labels)
        self.model = SERVE.build(mseed)
        self.model.train()
        self.optimizer = Adam(self.model.parameters(), lr=LR)

    def rewarm(self) -> None:
        warm(self.model, SERVE.input_shape)

    def once(self) -> None:
        start = now()
        loss = train_step(self.model, self.optimizer, self.images, self.labels)
        self.times.append(now() - start)
        ok = bool(np.isfinite(loss))
        if len(self.times) == 1:
            ok = ok and check_first_step(loss, param_copy(self.model), *self.ref)
        self.run.tally.record(ok)

    def finish(self) -> None:
        self.run.e2e["train_samples_per_s"] = samples_per_s(SIDE_BATCH, self.times)


class SideServe(Side):
    """``serve_*``: closed-loop single-sample requests into an in-process
    :class:`InferenceService` with the default ``ServePolicy`` — a
    replica's serve stack without HTTP or the router."""

    def __init__(self, run: Run, mseed: int, repeats: int):
        super().__init__(run, repeats)
        self.requests = []
        self.pool = images(run.seed, 16, SERVE.channels, split="test").images
        self.registry = ModelRegistry()
        self.entry = self.registry.register("cnn4", SERVE.build(mseed), SERVE.input_shape)
        self.service = InferenceService(self.registry, policy=ServePolicy()).start()

    def rewarm(self) -> None:
        self.registry.warm(self.entry)

    def once(self) -> None:
        req = Request(len(self.requests) % len(self.pool), now())
        req.sent = req.scheduled
        try:
            req.answer = self.service.predict("cnn4", self.pool[req.sample]).to_dict()
        except ReproError as error:
            req.error = f"{type(error).__name__}: {error}"
        req.done = now()
        self.requests.append(req)

    def finish(self) -> None:
        self.service.stop()
        summary = serve_summary(self.requests, self.entry.max_tier, self.run.tally)
        self.run.e2e.update(summary)


WORKLOADS = {
    "infer-warm": run_infer_warm,
    "cold-load": run_cold_load,
    "train-step": run_train_step,
    "serve-cluster": run_serve_cluster,
}
