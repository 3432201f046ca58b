"""The x86 decode pipeline model: fetch, predecode, decoders, MSROM,
and delivery either from the micro-op cache (DSB path) or the legacy
decode pipeline (MITE path), with the one-cycle switch penalty the
paper identifies as the root of the timing channel.
"""

from repro.frontend.decode import DecodeResult, decode_cost, effective_msrom
from repro.frontend.pipeline import FrontEnd

__all__ = [
    "DecodeResult",
    "FrontEnd",
    "decode_cost",
    "effective_msrom",
]
