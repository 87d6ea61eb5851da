"""Reproducible multi-packet workloads for the modem runtime.

Packets are built exactly like the evaluation's reference packet
(:func:`repro.eval.tables.run_reference_modem`): random payload bits,
the reference transmitter, an identity MIMO channel with a carrier
frequency offset, 32 leading noise samples and 64 trailing zeros.  Each
packet gets its own seed so payloads differ while every packet keeps the
same *shape* (sample count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.phy.channel import MimoChannel
from repro.phy.modem_ref import transmit
from repro.phy.params import PARAMS_20MHZ_2X2, OfdmParams
from repro.phy.scenario import Scenario, apply_scenario, get_scenario


@dataclass
class PacketCase:
    """One generated packet: the waveform plus its ground truth."""

    seed: int
    cfo_hz: float
    snr_db: Optional[float]
    bits: np.ndarray
    rx: np.ndarray  # (2, n_samples) complex128
    #: Preset name when the packet was impaired by a named scenario
    #: (``None`` for the classic identity-channel reference packet).
    scenario: Optional[str] = None


def make_packet(
    seed: int,
    cfo_hz: float = 50e3,
    snr_db: Optional[float] = None,
    params: OfdmParams = PARAMS_20MHZ_2X2,
    channel: Optional[MimoChannel] = None,
    extra_pad: int = 0,
    scenario: "Optional[Scenario | str]" = None,
) -> PacketCase:
    """Transmit one packet through the reference chain.

    *extra_pad* appends that many additional trailing zero samples after
    the standard 64: the payload is untouched but the packet *shape*
    (sample count) changes, which is how streaming workloads exercise
    the per-packet sample-count patch and mixed-shape lockstep batches.

    *scenario* routes the waveform through a named impairment preset
    (:mod:`repro.phy.scenario`) instead of the bare channel: the
    scenario supplies the multipath realisation (re-drawn per packet
    seed — block fading), the carrier offset (fixed part plus seeded
    Doppler jitter; *cfo_hz* is ignored and the drawn value recorded in
    the returned case so receivers and ``build_cfo_rotate`` patching
    see the truth), IQ imbalance and quantisation.  *snr_db* still
    selects the noise level (``None`` keeps the preset's default).
    """
    if extra_pad < 0:
        raise ValueError("extra_pad must be >= 0, got %d" % extra_pad)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=2 * params.bits_per_symbol)
    tx = transmit(bits, params)
    scenario_name = None
    if scenario is not None:
        preset = get_scenario(scenario)
        scenario_name = preset.name
        snr_db = preset.snr_db_default if snr_db is None else snr_db
        cfo_hz = preset.packet_cfo_hz(seed)
        rx = apply_scenario(
            tx.waveform, preset, snr_db=snr_db, seed=seed, params=params
        )
    else:
        chan = channel if channel is not None else MimoChannel.identity(2)
        rx = chan.apply(tx.waveform, snr_db=snr_db, cfo_hz=cfo_hz)
    noise = 0.001 * (rng.normal(size=(2, 32)) + 1j * rng.normal(size=(2, 32)))
    rx = np.concatenate([noise, rx, np.zeros((2, 64 + extra_pad))], axis=1)
    return PacketCase(
        seed=seed,
        cfo_hz=cfo_hz,
        snr_db=snr_db,
        bits=bits,
        rx=rx,
        scenario=scenario_name,
    )


def generate_packets(
    count: int,
    base_seed: int = 42,
    cfo_hz: float = 50e3,
    snr_db: Optional[float] = None,
    params: OfdmParams = PARAMS_20MHZ_2X2,
) -> List[PacketCase]:
    """*count* same-shape packets with distinct payloads (seed, seed+1, ...)."""
    return [
        make_packet(base_seed + k, cfo_hz=cfo_hz, snr_db=snr_db, params=params)
        for k in range(count)
    ]
