"""Streaming workload driver: Poisson packet arrivals, mixed traffic.

A live baseband system never sees a neat pre-built batch: packets
arrive as a point process with varying carrier offsets, SNRs and frame
lengths.  :func:`poisson_stream` generates exactly that, reproducibly —
exponential inter-arrival times from a seeded generator, each packet
drawn through :func:`repro.runtime.workload.make_packet` with its CFO,
SNR and trailing pad (the *shape* mixer for the ``shape_affinity``
dispatch policy) picked from caller-supplied choice sets.

:func:`run_stream` pushes a stream into a :class:`~repro.fabric.Fabric`
either as fast as backpressure allows (throughput benches) or paced on
the wall clock (the serving example).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.params import PARAMS_20MHZ_2X2, OfdmParams
from repro.runtime.workload import PacketCase, make_packet


@dataclass
class StreamEvent:
    """One scheduled packet arrival."""

    #: Arrival time in seconds since stream start.
    time_s: float
    #: Sequence number within the stream.
    seq: int
    case: PacketCase


def poisson_stream(
    rate_hz: float,
    duration_s: Optional[float] = None,
    n_packets: Optional[int] = None,
    base_seed: int = 0,
    cfo_choices: Sequence[float] = (50e3,),
    snr_choices: Sequence[Optional[float]] = (None,),
    pad_choices: Sequence[int] = (0,),
    scenario_choices: Sequence[Optional[str]] = (None,),
    params: OfdmParams = PARAMS_20MHZ_2X2,
) -> Iterator[StreamEvent]:
    """Yield a reproducible Poisson arrival process of mixed packets.

    Bounded by *duration_s* and/or *n_packets* (at least one must be
    given).  The same ``base_seed`` always produces the same arrival
    times and the same packets.

    *scenario_choices* mixes named impairment presets
    (:mod:`repro.phy.scenario`) into the traffic; ``None`` entries keep
    the classic identity-channel packet.  A scenario entry overrides the
    per-packet CFO draw (the preset defines its own offset + jitter).
    """
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive, got %r" % (rate_hz,))
    if duration_s is None and n_packets is None:
        raise ValueError("bound the stream with duration_s and/or n_packets")
    rng = np.random.default_rng(base_seed)
    t = 0.0
    seq = 0
    while n_packets is None or seq < n_packets:
        t += float(rng.exponential(1.0 / rate_hz))
        if duration_s is not None and t >= duration_s:
            return
        cfo = float(cfo_choices[int(rng.integers(len(cfo_choices)))])
        snr = snr_choices[int(rng.integers(len(snr_choices)))]
        pad = int(pad_choices[int(rng.integers(len(pad_choices)))])
        # Singleton choice sets skip the extra RNG draw so classic
        # streams replay byte-identically to the pre-scenario generator.
        if len(scenario_choices) == 1:
            scenario = scenario_choices[0]
        else:
            scenario = scenario_choices[int(rng.integers(len(scenario_choices)))]
        case = make_packet(
            seed=base_seed + 1000 + seq,
            cfo_hz=cfo,
            snr_db=snr,
            params=params,
            extra_pad=pad,
            scenario=scenario,
        )
        yield StreamEvent(time_s=t, seq=seq, case=case)
        seq += 1


#: Default traffic mix for :func:`mixed_scenario_stream` — the presets
#: a serving fabric is expected to see concurrently (timing/quantisation
#: stress excluded: those target the golden-modem estimator tests).
DEFAULT_SCENARIO_MIX: Tuple[Optional[str], ...] = (
    None,
    "awgn",
    "flat_fading",
    "indoor_multipath",
    "cfo_stress",
)


def mixed_scenario_stream(
    rate_hz: float,
    duration_s: Optional[float] = None,
    n_packets: Optional[int] = None,
    base_seed: int = 0,
    scenarios: Sequence[Optional[str]] = DEFAULT_SCENARIO_MIX,
    snr_choices: Sequence[Optional[float]] = (35.0, 25.0),
    pad_choices: Sequence[int] = (0,),
    params: OfdmParams = PARAMS_20MHZ_2X2,
) -> Iterator[StreamEvent]:
    """A Poisson stream cycling through the scenario matrix.

    The one-call entry point for serving realistic heterogeneous
    traffic: every packet draws a preset from *scenarios* (``None`` =
    the classic reference packet) and an SNR from *snr_choices*, all
    reproducibly seeded.
    """
    return poisson_stream(
        rate_hz,
        duration_s=duration_s,
        n_packets=n_packets,
        base_seed=base_seed,
        snr_choices=snr_choices,
        pad_choices=pad_choices,
        scenario_choices=tuple(scenarios),
        params=params,
    )


def run_stream(
    fabric,
    events: Iterable[StreamEvent],
    realtime: bool = False,
    n_symbols: int = 2,
    detect_hint: Optional[int] = None,
) -> List[Tuple[Optional[int], StreamEvent]]:
    """Submit every stream event to *fabric*; returns (task_id, event).

    With ``realtime`` the submission is paced to each event's arrival
    time (a live front-end); otherwise packets are offered back-to-back
    and only the fabric's backpressure throttles the stream.  A ``None``
    task id records a shed packet (``drop``/``deadline`` modes).
    """
    t0 = time.perf_counter()
    offered: List[Tuple[Optional[int], StreamEvent]] = []
    for event in events:
        if realtime:
            delay = event.time_s - (time.perf_counter() - t0)
            if delay > 0:
                time.sleep(delay)
        task_id = fabric.offer(
            event.case.rx, n_symbols=n_symbols, detect_hint=detect_hint
        ).task_id
        offered.append((task_id, event))
    return offered


def stream_truth(offered: Sequence[Tuple[Optional[int], StreamEvent]]) -> Dict[int, PacketCase]:
    """Map accepted task ids back to their ground-truth packet cases."""
    return {task_id: ev.case for task_id, ev in offered if task_id is not None}
