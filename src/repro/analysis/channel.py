"""Channel-quality analysis: capacity and error-correction budgeting.

A covert channel with bit error rate ``p`` is a binary symmetric
channel; its capacity bounds any coding scheme's goodput.  These
helpers turn a measured :class:`~repro.session.channel.ChannelReport` into
the numbers a channel designer actually wants: achievable goodput, and
how much Reed-Solomon parity is needed to push residual errors to a
target.
"""

from __future__ import annotations

import math
from typing import Optional


def _h2(p: float) -> float:
    """Binary entropy."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def bsc_capacity(error_rate: float) -> float:
    """Capacity (bits per channel use) of a BSC with the given bit
    error rate: ``1 - H2(p)``.

    A 5.59% error rate (the paper's SMT channel) still leaves ~0.69
    bits/use -- which is why moderate-error channels remain dangerous.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError("error_rate must be a probability")
    p = min(error_rate, 1.0 - error_rate)
    return 1.0 - _h2(p)


def effective_goodput_kbps(bandwidth_kbps: float, error_rate: float) -> float:
    """Capacity-scaled goodput: raw rate times the BSC capacity."""
    return bandwidth_kbps * bsc_capacity(error_rate)


def _binom_tail(n: int, k: int, p: float) -> float:
    """P[X > k] for X ~ Binomial(n, p)."""
    if p <= 0.0:
        return 0.0
    total = 0.0
    # sum P[X <= k] then complement; n <= 255 so this is cheap
    for i in range(0, k + 1):
        total += math.comb(n, i) * (p ** i) * ((1 - p) ** (n - i))
    return max(0.0, 1.0 - total)


def recommend_rs_parity(
    bit_error_rate: float,
    block: int = 255,
    target_block_failure: float = 1e-6,
    max_nsym: Optional[int] = None,
) -> int:
    """Smallest even RS parity-symbol count so a ``block``-byte block
    decodes with failure probability below the target.

    Bit errors are assumed independent; a byte is bad if any of its 8
    bits flipped.  RS(n, k) corrects up to ``nsym/2`` bad bytes, so we
    need ``P[#bad > nsym/2] < target``.
    """
    if not 0.0 <= bit_error_rate < 0.5:
        raise ValueError("bit_error_rate must be in [0, 0.5)")
    byte_error = 1.0 - (1.0 - bit_error_rate) ** 8
    ceiling = max_nsym if max_nsym is not None else block - 1
    for nsym in range(2, ceiling + 1, 2):
        if _binom_tail(block, nsym // 2, byte_error) < target_block_failure:
            return nsym
    raise ValueError(
        f"no parity budget <= {ceiling} meets the target at "
        f"p_bit={bit_error_rate}"
    )
