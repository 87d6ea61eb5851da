"""Composable channel-impairment scenarios (the serving-realistic layer).

The golden link bench historically exercised one channel shape (AWGN or
the default 4-tap profile).  Real basebands are qualified against a
*matrix* of impairments — multipath profiles, carrier/Doppler offsets,
IQ imbalance, front-end quantisation — which is also what the related
baseband architectures in PAPERS.md benchmark against.  This module
defines that matrix once so the golden modem, the modem runtime's
packet generator and the fabric's mixed-traffic stream all draw from a
single scenario definition:

* :class:`Scenario` — a frozen bundle of impairment parameters;
* :data:`SCENARIOS` — the named presets (see the table in DESIGN.md);
* :func:`apply_scenario` — TX waveform -> impaired RX waveform;
* :func:`scenario_link` — end-to-end golden-modem run returning BER,
  the unit the BER-vs-SNR regression gates in ``benchmarks/`` check.

Impairment models
-----------------
multipath      :class:`~repro.phy.channel.MimoChannel` with the preset's
               tap count/decay; per-packet Rayleigh block fading.
CFO/Doppler    a fixed offset plus a seeded per-packet jitter term
               (``cfo_jitter_hz``), applied as ``exp(j*2*pi*f*n/fs)``
               inside the channel.  Downstream, the estimated offset is
               what the runtime stamps into packets through the
               ``build_cfo_rotate`` phasor tables via
               :func:`repro.sim.program.patch_constants`.
IQ imbalance   receive-side model ``y = alpha*x + beta*conj(x)`` with
               ``g = 10**(amp_db/20)``, ``phi = radians(phase_deg)``,
               ``alpha = (1 + g*e^{j*phi})/2``, ``beta = (1 - g*e^{j*phi})/2``
               (image-rejection ratio ``|beta/alpha|^2``).
quantisation   a Q15 analog-front-end round trip through
               :func:`repro.phy.fixed.quantize_complex`, scaled to 90%
               of full scale.
timing offset  extra leading noise-only samples before the packet, which
               shifts every downstream estimate by the same amount.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.phy.channel import MimoChannel
from repro.phy.fixed import complex_from_q15, quantize_complex
from repro.phy.params import PARAMS_20MHZ_2X2, OfdmParams


@dataclass(frozen=True)
class Scenario:
    """One named impairment bundle; every field composes independently."""

    name: str
    description: str
    #: Multipath profile: number of Rayleigh taps (1 = flat) and
    #: exponential decay per tap.  ``identity=True`` bypasses fading
    #: entirely (unit diagonal channel).
    identity: bool = False
    n_taps: int = 1
    tap_decay: float = 0.5
    #: Carrier frequency offset: fixed part plus a uniform +-jitter
    #: drawn per packet seed (models oscillator drift / Doppler).
    cfo_hz: float = 0.0
    cfo_jitter_hz: float = 0.0
    #: Receive IQ imbalance (0/0 = perfect front end).
    iq_amp_db: float = 0.0
    iq_phase_deg: float = 0.0
    #: Q15 front-end quantisation toggle.
    quantize: bool = False
    #: Extra leading noise-only samples (timing/detection stress).
    timing_offset: int = 0
    #: Default SNR when the caller does not sweep one.
    snr_db_default: Optional[float] = 35.0

    def channel(self, n_streams: int = 2, seed: int = 0) -> MimoChannel:
        """The block-fading channel realisation for *seed*."""
        if self.identity:
            return MimoChannel.identity(n_streams)
        return MimoChannel(
            n_tx=n_streams,
            n_rx=n_streams,
            n_taps=self.n_taps,
            tap_decay=self.tap_decay,
            seed=seed,
        )

    def packet_cfo_hz(self, seed: int = 0) -> float:
        """The per-packet offset: fixed part plus seeded jitter."""
        if self.cfo_jitter_hz == 0.0:
            return self.cfo_hz
        rng = np.random.default_rng(np.uint64(seed) * np.uint64(2654435761) + 17)
        return float(self.cfo_hz + rng.uniform(-self.cfo_jitter_hz, self.cfo_jitter_hz))

    def with_overrides(self, **kwargs) -> "Scenario":
        """A copy with individual impairments replaced (for sweeps)."""
        return replace(self, **kwargs)


def apply_iq_imbalance(x: np.ndarray, amp_db: float, phase_deg: float) -> np.ndarray:
    """Receive-side IQ imbalance: ``y = alpha*x + beta*conj(x)``."""
    if amp_db == 0.0 and phase_deg == 0.0:
        return np.asarray(x, dtype=np.complex128)
    g = 10.0 ** (amp_db / 20.0)
    rot = g * np.exp(1j * np.deg2rad(phase_deg))
    alpha = (1.0 + rot) / 2.0
    beta = (1.0 - rot) / 2.0
    x = np.asarray(x, dtype=np.complex128)
    return alpha * x + beta * np.conj(x)


def quantize_frontend(x: np.ndarray, headroom: float = 0.9) -> np.ndarray:
    """Q15 ADC round trip, scaled so the waveform peak sits at *headroom*."""
    x = np.asarray(x, dtype=np.complex128)
    peak = float(np.max(np.abs(np.concatenate([x.real.ravel(), x.imag.ravel()]))))
    if peak <= 0:
        return x.copy()
    scale = headroom / peak
    re, im = quantize_complex(x, scale=scale)
    return complex_from_q15(re, im) / scale


def apply_scenario(
    tx: np.ndarray,
    scenario: "Scenario | str",
    snr_db: Optional[float] = None,
    seed: int = 0,
    params: OfdmParams = PARAMS_20MHZ_2X2,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Propagate per-stream TX waveforms through the scenario's channel.

    Order of effects: multipath + CFO (channel), AWGN at *snr_db* (or
    the preset default), receive IQ imbalance, Q15 quantisation, then
    *timing_offset* leading noise samples.  Deterministic in
    ``(scenario, snr_db, seed)``.
    """
    scenario = get_scenario(scenario)
    tx = np.atleast_2d(np.asarray(tx, dtype=np.complex128))
    if snr_db is None:
        snr_db = scenario.snr_db_default
    chan = scenario.channel(n_streams=tx.shape[0], seed=seed)
    if rng is None:
        rng = np.random.default_rng(np.uint64(seed) * np.uint64(0x9E3779B9) + 1)
    rx = chan.apply(
        tx,
        snr_db=snr_db,
        cfo_hz=scenario.packet_cfo_hz(seed),
        sample_rate_hz=params.sample_rate_hz,
        rng=rng,
    )
    rx = apply_iq_imbalance(rx, scenario.iq_amp_db, scenario.iq_phase_deg)
    if scenario.quantize:
        rx = quantize_frontend(rx)
    if scenario.timing_offset > 0:
        sig = float(np.sqrt(np.mean(np.abs(rx) ** 2)))
        lead = (0.01 * sig) * (
            rng.normal(size=(rx.shape[0], scenario.timing_offset))
            + 1j * rng.normal(size=(rx.shape[0], scenario.timing_offset))
        )
        rx = np.concatenate([lead, rx], axis=1)
    return rx


def scenario_link(
    scenario: "Scenario | str",
    snr_db: Optional[float] = None,
    seed: int = 0,
    n_symbols: int = 2,
    params: OfdmParams = PARAMS_20MHZ_2X2,
):
    """End-to-end golden-modem run under a scenario; returns (tx, rx, ber).

    The unit of the BER-vs-SNR regression gates: transmit seeded random
    bits, impair with :func:`apply_scenario`, run the full golden
    receiver, compare bits.
    """
    # Imported here: modem_ref imports nothing from this module, but a
    # top-level import would still be a cycle risk as both grow.
    from repro.phy.modem_ref import receive, transmit

    scenario = get_scenario(scenario)
    rng = np.random.default_rng(seed)
    per_symbol = params.n_data_carriers * params.bits_per_qam_symbol * params.n_streams
    bits = rng.integers(0, 2, size=n_symbols * per_symbol)
    tx = transmit(bits, params)
    rx_wave = apply_scenario(tx.waveform, scenario, snr_db=snr_db, seed=seed, params=params)
    rx_wave = np.pad(rx_wave, ((0, 0), (0, 2 * params.symbol_samples)))
    result = receive(rx_wave, n_symbols, params)
    n = min(len(result.bits), len(bits))
    ber = float(np.mean(result.bits[:n] != bits[:n])) if n else 1.0
    return tx, result, ber


#: The named scenario matrix.  Presets are ordered roughly by severity;
#: ``indoor_multipath`` reproduces the historical link-quality channel
#: (MimoChannel defaults) so the tightened waterfall gates stay
#: comparable with the pre-fix trajectory.
SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="awgn",
            description="Ideal front end, identity channel, AWGN only",
            identity=True,
        ),
        Scenario(
            name="flat_fading",
            description="Single-tap Rayleigh block fading per packet",
            n_taps=1,
        ),
        Scenario(
            name="indoor_multipath",
            description="4-tap exponential PDP (the historical link channel)",
            n_taps=4,
            tap_decay=0.5,
        ),
        Scenario(
            name="dense_multipath",
            description="6-tap slow-decay PDP pushing the 16-sample CP",
            n_taps=6,
            tap_decay=0.7,
        ),
        Scenario(
            name="cfo_stress",
            description="Indoor multipath with 200 kHz offset +-2 kHz Doppler jitter",
            n_taps=4,
            tap_decay=0.5,
            cfo_hz=200e3,
            cfo_jitter_hz=2e3,
        ),
        Scenario(
            name="iq_imbalance",
            description="Indoor multipath behind a 0.5 dB / 3 deg IQ-imbalanced front end",
            n_taps=4,
            tap_decay=0.5,
            iq_amp_db=0.5,
            iq_phase_deg=3.0,
        ),
        Scenario(
            name="quantized_frontend",
            description="Indoor multipath through a Q15 ADC round trip",
            n_taps=4,
            tap_decay=0.5,
            quantize=True,
        ),
        Scenario(
            name="timing_stress",
            description="Indoor multipath with 48 leading noise-only samples",
            n_taps=4,
            tap_decay=0.5,
            timing_offset=48,
        ),
        Scenario(
            name="worst_case",
            description="Dense multipath + 150 kHz CFO + IQ imbalance + Q15 ADC",
            n_taps=6,
            tap_decay=0.7,
            cfo_hz=150e3,
            cfo_jitter_hz=2e3,
            iq_amp_db=0.5,
            iq_phase_deg=3.0,
            quantize=True,
        ),
    )
}


def get_scenario(scenario: "Scenario | str") -> Scenario:
    """Resolve a preset name (or pass a :class:`Scenario` through)."""
    if isinstance(scenario, Scenario):
        return scenario
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise KeyError(
            "unknown scenario %r; presets: %s" % (scenario, ", ".join(sorted(SCENARIOS)))
        ) from None


def list_scenarios() -> Tuple[str, ...]:
    """Preset names in severity order (the matrix rows)."""
    return tuple(SCENARIOS)
