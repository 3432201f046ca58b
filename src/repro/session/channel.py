"""The channel protocol: one measurement loop for every covert channel.

Section V measures every channel one way, whatever boundary it
crosses or medium it contends for: prime, send, time the probe, and
vote the timings against a threshold calibrated on known bits.
:class:`ChannelSession` defines ``calibrate``, ``send_bits`` and
``transmit`` (with optional Reed-Solomon framing) once.  A driver
supplies only :meth:`~ChannelSession._episode`, one timed observation
of one bit, and :attr:`~ChannelSession._votes`, the number of episodes
voted into one received bit; its ``params`` carry
``calibration_rounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.coding.reed_solomon import RSCodec, RSDecodeError
from repro.core.timing import ProbeTiming
from repro.session.base import AttackSession


@dataclass
class ChannelReport:
    """Outcome of one transmission (Table I columns)."""

    bits_sent: int
    bit_errors: int
    total_cycles: int
    freq_ghz: float
    payload_bytes: int = 0
    corrected_ok: Optional[bool] = None
    ecc_overhead: float = 1.0
    timing: Optional[ProbeTiming] = None

    @property
    def error_rate(self) -> float:
        """Raw bit error rate."""
        return self.bit_errors / self.bits_sent if self.bits_sent else 0.0

    @property
    def seconds(self) -> float:
        """Simulated wall-clock time of the whole transmission."""
        return self.total_cycles / (self.freq_ghz * 1e9)

    @property
    def bandwidth_kbps(self) -> float:
        """Raw channel bandwidth in Kbit/s."""
        if self.total_cycles == 0:
            return 0.0
        return self.bits_sent / self.seconds / 1e3

    @property
    def corrected_bandwidth_kbps(self) -> float:
        """Goodput after error-correction overhead, in Kbit/s."""
        return self.bandwidth_kbps / self.ecc_overhead


def _bytes_to_bits(data: bytes) -> List[int]:
    return [(byte >> i) & 1 for byte in data for i in range(8)]


def _bits_to_bytes(bits: Sequence[int]) -> bytes:
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i // 8] |= 1 << (i % 8)
    return bytes(out)


class ChannelSession(AttackSession):
    """An attack session that is a covert channel: calibrate on known
    bits, then send bits one voted episode at a time."""

    def _episode(self, bit: int) -> float:
        """Transmit ``bit`` once and return the receiver's timing."""
        raise NotImplementedError

    @property
    def _votes(self) -> int:
        """Episodes majority-voted into one received bit."""
        return 1

    def secret_episode(self, bit: int) -> None:
        """One episode sending the secret ``bit`` from a reset core
        (lint's XC004 differential)."""
        self.setup()
        self._episode(bit)

    def calibrate(self) -> ProbeTiming:
        """Time both channel states with known bits and fit the
        threshold, exactly as an attacker would during setup."""
        return self._fit(
            *self._pairs(self.params.calibration_rounds, self._episode))

    def send_bits(self, bits: Sequence[int]) -> List[int]:
        """Transmit a bit string; returns the received bits."""
        if self.classifier is None:
            self.calibrate()
        votes = self._votes
        return [
            self.classifier.vote([self._episode(bit) for _ in range(votes)])
            for bit in bits
        ]

    def transmit(self, payload: bytes, ecc: bool = False,
                 ecc_nsym: Optional[int] = None) -> ChannelReport:
        """Send ``payload`` over the channel and report Table-I stats.

        Calibrates first if needed, then zeroes ``total_cycles``, so
        the report charges only the transmission.  With ``ecc=True``
        the payload is Reed-Solomon encoded first and the report
        records whether decoding recovered it exactly.  ``ecc_nsym``
        defaults to ~20% parity (the paper's inflation), with a floor
        of 4 symbols for tiny payloads.
        """
        if self.classifier is None:
            self.calibrate()
        self.total_cycles = 0
        wire = payload
        overhead = 1.0
        if ecc:
            if ecc_nsym is None:
                ecc_nsym = max(4, min(32, -(-len(payload) // 5)))
            codec = RSCodec(nsym=ecc_nsym,
                            block=min(255, ecc_nsym + len(payload)))
            wire = codec.encode(payload)
            overhead = len(wire) / len(payload)
        sent = _bytes_to_bits(wire)
        received = self.send_bits(sent)
        errors = sum(1 for a, b in zip(sent, received) if a != b)
        corrected_ok = None
        if ecc:
            try:
                corrected_ok = codec.decode(_bits_to_bytes(received)) == payload
            except RSDecodeError:
                corrected_ok = False
        return ChannelReport(
            bits_sent=len(sent),
            bit_errors=errors,
            total_cycles=self.total_cycles,
            freq_ghz=self.config.freq_ghz,
            payload_bytes=len(payload),
            corrected_ok=corrected_ok,
            ecc_overhead=overhead,
            timing=self.timing,
        )
