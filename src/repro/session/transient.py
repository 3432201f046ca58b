"""The leak protocol: one loop for every transient-execution attack.

Section VI leaks every secret one way: a transient episode sends one
symbol of the secret through a transmitter, the attacker times a
probe, and a classifier fitted on public values votes the samples into
the symbol.  :class:`TransientSession` defines ``leak``,
``leak_symbol``, the secret install and lint's XC004
``secret_episode`` once.  A driver supplies only ``_episode``,
``_target`` and a ``calibrate`` that installs ``self.classifier``
(anything with ``vote(samples)``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.session.base import AttackSession, AttackStats


class TransientSession(AttackSession):
    """An attack session that leaks ``self.secret`` from transient
    episodes, ``bits`` bits per symbol and ``samples`` votes each."""

    #: Secret bits leaked per symbol (a divisor of 8).
    bits = 1
    #: Episodes voted into one symbol, after one warm-up episode.
    samples = 1

    def _episode(self, index: int, arg: int):
        """Run one transient episode and return the probe observation."""
        raise NotImplementedError

    def _target(self, byte_index: int, symbol_index: int) -> Tuple[int, int]:
        """The ``_episode`` arguments that leak one secret symbol."""
        raise NotImplementedError

    def _install_secret(self) -> None:
        base = self.core.addr_of("secret")
        for i, byte in enumerate(self.secret):
            self.core.write_mem(base + i, byte, size=1)

    def secret_episode(self, value: int) -> None:
        """One episode on ``secret[0] = value`` from a reset core
        (lint's XC004 differential)."""
        self.setup()
        self._install_secret()
        self.core.write_mem(self.core.addr_of("secret"), value, size=1)
        self._episode(*self._target(0, 0))

    def leak_symbol(self, byte_index: int, symbol_index: int) -> int:
        """Leak one symbol of ``secret[byte_index]`` (calibrate first).

        The warm-up episode pulls the secret into the L1D, so the voted
        episodes resolve the secret-dependent transmit inside the
        transient window.
        """
        target = self._target(byte_index, symbol_index)
        self._episode(*target)
        return self.classifier.vote(
            [self._episode(*target) for _ in range(self.samples)]
        )

    def leak(self, nbytes: Optional[int] = None) -> AttackStats:
        """Leak the first ``nbytes`` of the secret (all by default),
        ``bits`` at a time, least significant first; returns Table-II
        stats.  Calibrates first if needed and then zeroes the cycle
        account, so the calibration is not charged to the leak."""
        if self.classifier is None:
            self.calibrate()
        nbytes = nbytes if nbytes is not None else len(self.secret)
        self.total_cycles = 0
        before = self.core.counters().snapshot()
        leaked = bytearray()
        for k in range(nbytes):
            value = 0
            for s in range(8 // self.bits):
                value |= self.leak_symbol(k, s) << (self.bits * s)
            leaked.append(value)
        return AttackStats(
            leaked=bytes(leaked),
            secret=self.secret[:nbytes],
            total_cycles=self.total_cycles,
            freq_ghz=self.config.freq_ghz,
            counters=self.core.counters().delta(before),
        )
