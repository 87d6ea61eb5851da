"""OFDM numerology of the paper's application: 20 MHz 2x2 MIMO-OFDM.

The workload is "a 20MHz 2x2 MIMO-OFDM modem as in IEEE802.11n
applications": 64-point FFT at 20 Msps, 52 data + 4 pilot subcarriers,
16-sample cyclic prefix (4 us symbols), two spatial streams with 64-QAM
— the configuration that crosses 100 Mbps with rate-5/6 coding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class OfdmParams:
    """Numerology of one MIMO-OFDM configuration."""

    sample_rate_hz: float = 20e6
    n_fft: int = 64
    n_cp: int = 16
    n_streams: int = 2
    bits_per_qam_symbol: int = 6  # 64-QAM
    #: Data subcarrier indices (FFT bin numbers, DC = 0), 802.11a/n-style
    #: occupancy of +-1..26 minus the pilot positions.
    pilot_carriers: Tuple[int, ...] = (7, 21, 64 - 21, 64 - 7)
    code_rate: float = 5.0 / 6.0

    @property
    def used_carriers(self) -> Tuple[int, ...]:
        """All occupied bins: +-1..28 as in 802.11n (52 data + 4 pilots)."""
        positive = list(range(1, 29))
        negative = [self.n_fft - k for k in range(1, 29)]
        return tuple(positive + negative)

    @property
    def data_carriers(self) -> Tuple[int, ...]:
        """Occupied bins that carry data (pilots excluded)."""
        return tuple(k for k in self.used_carriers if k not in self.pilot_carriers)

    @property
    def n_data_carriers(self) -> int:
        return len(self.data_carriers)

    @property
    def symbol_samples(self) -> int:
        """Samples per OFDM symbol including the cyclic prefix."""
        return self.n_fft + self.n_cp

    @property
    def symbol_duration_s(self) -> float:
        """Symbol time: 80 samples at 20 Msps = 4 us."""
        return self.symbol_samples / self.sample_rate_hz

    @property
    def bits_per_symbol(self) -> int:
        """Uncoded bits per OFDM symbol over all streams."""
        return self.n_data_carriers * self.bits_per_qam_symbol * self.n_streams

    @property
    def phy_rate_bps(self) -> float:
        """Uncoded PHY rate."""
        return self.bits_per_symbol / self.symbol_duration_s

    @property
    def coded_rate_bps(self) -> float:
        """Net data rate after the outer code (the paper's 100 Mbps+)."""
        return self.phy_rate_bps * self.code_rate


#: The paper's configuration: 52 data carriers x 6 bits x 2 streams per
#: 4 us symbol = 156 Mbps raw, 130 Mbps at rate 5/6.
PARAMS_20MHZ_2X2 = OfdmParams()

#: Data symbols in every packet the simulated receiver decodes: one
#: merged pair (Table 2's "data processing ... 2 symbols").  The ingest
#: layer writes off a packet whose header claims any other count.
DATA_SYMBOLS = 2
