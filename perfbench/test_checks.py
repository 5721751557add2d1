"""The benchmark's own tests: every workload's check fires on a bad output.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py
"""

import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro.scnn.sim as sim  # noqa: E402
from common import Tally  # noqa: E402
from layers import Tracer  # noqa: E402
from repro.sc.sng import SNG  # noqa: E402
from workloads import (  # noqa: E402
    Collector,
    Request,
    check_first_step,
    check_logits,
    check_tiers,
    drive,
    serve_summary,
)

LOGITS = np.linspace(-1.0, 1.0, 40, dtype=np.float32).reshape(4, 10)


def flip_one(logits: np.ndarray) -> np.ndarray:
    """The same logits with one value moved by one ulp."""
    bad = logits.copy()
    bad[1, 3] = np.nextafter(bad[1, 3], np.float32(np.inf))
    return bad


def answer(tier: int = 0, outputs=None) -> dict:
    outputs = LOGITS[0] if outputs is None else outputs
    return {"outputs": [float(v) for v in outputs], "tier": tier, "latency_ms": 5.0}


def test_infer_flipped_logit_fails():
    tally = Tally()
    tally.record(check_logits(LOGITS.copy(), LOGITS))
    tally.record(check_logits(flip_one(LOGITS), LOGITS))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_cold_load_flipped_logit_at_one_tier_fails():
    refs = [LOGITS, LOGITS * 0.5, LOGITS * 0.25]

    def loaded(x, tier):
        return flip_one(refs[tier]) if tier == 2 else refs[tier].copy()

    tally = Tally()
    tally.record(check_tiers(lambda x, tier: refs[tier].copy(), None, refs))
    tally.record(check_tiers(loaded, None, refs))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_train_first_step_flipped_weight_or_nan_loss_fails():
    params = [np.ones((3, 3), np.float32), np.zeros(3, np.float32)]
    bad = [p.copy() for p in params]
    bad[0][2, 2] = np.nextafter(np.float32(1.0), np.float32(2.0))
    assert check_first_step(0.5, [p.copy() for p in params], 0.5, params)
    assert not check_first_step(0.5, bad, 0.5, params)
    assert not check_first_step(0.5 + 1e-12, params, 0.5, params)
    assert not check_first_step(float("nan"), params, float("nan"), params)


def test_serve_wrong_tier_dropped_and_bad_logits_fail():
    reqs = [Request(0, 0.0, 0.0, 0.010, answer(tier=0))]  # good
    reqs.append(Request(1, 0.0, 0.0, 0.010, answer(tier=3)))  # tier outside 0..2
    reqs.append(Request(2, 0.0, 0.0, 0.010, None))  # dropped response
    reqs.append(Request(3, 0.0, 0.0, 0.0, None, "QueueFullError: full"))  # refused
    nan = LOGITS[0].copy()
    nan[4] = np.nan
    reqs.append(Request(4, 0.0, 0.0, 0.010, answer(outputs=nan)))  # non-finite logit
    reqs.append(Request(5, 0.0, 0.0, 0.010, answer(outputs=LOGITS[0][:9])))  # 9 logits
    tally = Tally()
    summary = serve_summary(reqs, max_tier=2, tally=tally)
    assert (tally.attempted, tally.failed) == (6, 5)
    # Failed and refused requests count as misses of the objective.
    assert summary["serve_slo_share"] == 1 / 6
    assert summary["serve_top_tier_share"] == 1.0


def test_serve_late_answer_misses_objective_but_is_not_failed():
    reqs = [
        Request(0, 0.0, 0.0, 0.010, answer()),
        Request(1, 0.0, 0.0, 0.400, answer(tier=1)),
    ]
    tally = Tally()
    summary = serve_summary(reqs, max_tier=2, tally=tally)
    assert tally.failed == 0
    assert summary["serve_slo_share"] == 0.5
    assert summary["serve_top_tier_share"] == 0.5


class FakeRouter:
    """``ClusterRouter.submit`` stand-in: answers the body ``b"answer"``
    after 20 ms from another thread and never answers anything else."""

    policy = SimpleNamespace(queue_wait_timeout_s=0.0)

    def submit(self, model, body):
        item = SimpleNamespace(event=threading.Event(), result=None, error=None)
        if body == b"answer":
            item.result = answer()
            threading.Timer(0.02, item.event.set).start()
        return item


def test_serve_collector_counts_unanswered_request_as_dropped():
    router = FakeRouter()
    collector = Collector(router, endpoint="")
    collector.answer_timeout_s = 0.3
    collector.start()
    reqs = drive(router, collector, [b"answer", b"lost"], [0.0, 0.01], [0, 1])
    collector.close()
    collector.join(timeout=5.0)
    assert reqs[0].error is None and 0.015 <= reqs[0].done - reqs[0].sent < 0.25
    assert reqs[1].error.startswith("dropped") and reqs[1].answer is None
    tally = Tally()
    summary = serve_summary(reqs, max_tier=2, tally=tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert summary["serve_slo_share"] == 0.5


def test_tracer_restores_every_patched_function():
    originals = (SNG.generate, sim.fused_conv_counts, sim.im2col, sim.SCConvSimulator.__call__)
    tracer = Tracer()
    tracer.begin()
    assert sim.fused_conv_counts is not originals[1]
    tracer.end()
    assert (SNG.generate, sim.fused_conv_counts, sim.im2col,
            sim.SCConvSimulator.__call__) == originals
    assert tracer.ops == 1
