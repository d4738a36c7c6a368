"""The event tap forwards what a full tracer records of the FM track and
of PI-5 — in the same order, with the same fields — and keeps none of
it, nor anything of the tracks it does not forward."""

import gc

from repro.experiments.runner import build_simulation
from repro.obs.span import Instant, Span, SpanTracer
from repro.service.tap import EventTap
from repro.topology.registry import resolve_topology

ROUNDS = 4


def _drive(tracer):
    """mesh9 with ``tracer`` attached from power-up: each round a
    switch is removed and restored (PI-5 and assimilation) and a
    rediscovery is forced; run to quiescence after every step.
    Returns what the simulation counted."""
    setup = build_simulation(resolve_topology("mesh9"))
    setup.fm.attach_tracer(tracer)
    env, fm = setup.env, setup.fm
    env.run()
    for _ in range(ROUNDS):
        setup.fabric.remove_device("sw_1_1")
        env.run()
        setup.fabric.restore_device("sw_1_1")
        env.run()
        fm.start_discovery(trigger="change", force=True)
        env.run()
    return env.vitals(), fm.counters.asdict(), len(fm.history)


def _feed_of(tracer):
    """The feed a tap forwards, derived from a tracer that kept it all."""
    documents = [
        (span.seq_end, {
            "event": "span", "name": span.name, "kind": span.cat,
            "sim_time": span.end, "start": span.start,
            "duration": span.end - span.start, "args": dict(span.args),
        })
        for span in tracer.spans if span.track == "fm" and span.end is not None
    ]
    documents += [(instant.seq, {"event": "pi5", "sim_time": instant.time,
                                 **instant.args})
                  for instant in tracer.instants if instant.cat == "pi5"]
    return [document for _, document in sorted(documents,
                                                key=lambda d: d[0])]


def _alive(kind):
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, kind)]


def test_the_feed_is_what_a_full_tracer_records_and_nothing_is_kept():
    reference = SpanTracer()
    counted = _drive(reference)
    expected = _feed_of(reference)
    kinds = {document["event"] for document in expected}
    assert kinds == {"pi5", "span"}
    assert counted[2] > 2 * ROUNDS  # every round rediscovered
    # Most of what the full tracer kept is never forwarded.
    assert len(reference.spans) > 10 * len(expected)
    del reference

    feed = []
    tap = EventTap(sink=feed.append)
    assert _drive(tap) == counted  # non-perturbing
    assert feed == expected
    assert tap.forwarded == {
        kind: sum(document["event"] == kind for document in expected)
        for kind in ("pi5", "span")}
    # What survives the run is what the FM itself still holds: no
    # instant, and no span off the FM track.
    assert not _alive(Instant)
    spans = _alive(Span)
    assert len(spans) <= 2
    assert {span.track for span in spans} <= {"fm"}
