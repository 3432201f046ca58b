"""Instruction TLB model.

Only the properties the paper relies on are modelled:

- misses add a page-walk latency to an instruction fetch;
- a *flush* of the iTLB forces a flush of the entire micro-op cache
  (Section II-B: "In the event of an iTLB flush ... the entire micro-op
  cache is flushed"), which is both the SGX behaviour the paper notes
  and the flush-at-domain-crossing mitigation of Section VIII.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional


class TLB:
    """Fully-associative translation buffer with LRU replacement."""

    __slots__ = ("entries", "page_size", "walk_latency", "on_flush",
                 "refs", "misses", "flushes", "_pages")

    def __init__(
        self,
        entries: int = 128,
        page_size: int = 4096,
        walk_latency: int = 30,
        on_flush: Optional[Callable[[], None]] = None,
    ):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page_size must be a power of two")
        self.entries = entries
        self.page_size = page_size
        self.walk_latency = walk_latency
        self.on_flush = on_flush
        self.refs = 0
        self.misses = 0
        self.flushes = 0
        #: Resident pages as keys, in LRU order (most recent last).
        self._pages: OrderedDict[int, None] = OrderedDict()

    def page_of(self, addr: int) -> int:
        """Virtual page number containing ``addr``."""
        return addr // self.page_size

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns added latency (0 on a TLB hit)."""
        page = addr // self.page_size
        self.refs += 1
        pages = self._pages
        if page in pages:
            pages.move_to_end(page)
            return 0
        self.misses += 1
        if len(pages) >= self.entries:
            pages.popitem(last=False)
        pages[page] = None
        return self.walk_latency

    def flush(self) -> None:
        """Drop all translations and notify the micro-op cache."""
        self.flushes += 1
        self._pages.clear()
        if self.on_flush is not None:
            self.on_flush()

    def reset(self) -> None:
        """Restore post-construction state without firing ``on_flush``
        (``Core.reset()`` clears the micro-op cache itself)."""
        self._pages.clear()
        self.refs = 0
        self.misses = 0
        self.flushes = 0
