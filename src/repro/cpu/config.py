"""CPU configuration presets.

Structural parameters follow the paper's Section II description of
Skylake/Coffee Lake and AMD Zen; latency parameters are chosen for
plausible *ordering* rather than cycle-exact fidelity (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


@dataclass
class CPUConfig:
    """Every knob of the simulated core.

    Use the :meth:`skylake` / :meth:`zen` / :meth:`sunny_cove`
    constructors; ``replace()`` (dataclasses) or :meth:`with_options`
    derive variants for mitigation and ablation studies.
    """

    name: str = "skylake"

    # ---- front end -------------------------------------------------
    fetch_bytes_per_cycle: int = 16
    macro_op_queue: int = 50
    decode_style: str = "skylake"  # "skylake" (4x1:1 + 1x1:4) or "zen" (4x1:2)
    max_decode_uops_per_cycle: int = 5
    msrom_threshold: int = 4  # uop count above which decode goes to MSROM
    msrom_uops_per_cycle: int = 4
    msrom_min_cycles: int = 2
    lcp_penalty: int = 3  # cycles per length-changing prefix
    macro_fusion: bool = True  # cmp/test+jcc share one decode slot
    dsb_mite_switch_penalty: int = 1  # one-cycle DSB<->MITE switch (paper, II-B)

    # ---- micro-op cache ---------------------------------------------
    uop_cache_enabled: bool = True
    uop_cache_sets: int = 32
    uop_cache_ways: int = 8
    uops_per_line: int = 6
    max_lines_per_region: int = 3
    uop_cache_sharing: str = "static"  # "static" (Intel) / "competitive" (AMD)
    uop_cache_policy: str = "hotness"  # "hotness" / "lru" (ablation)
    dsb_uops_per_cycle: int = 6
    region_bytes: int = 32

    # ---- backend -----------------------------------------------------
    idq_size: int = 64  # IDQ entries; bounds how far fetch runs ahead
    dispatch_width: int = 4
    rob_size: int = 224
    mispredict_penalty: int = 16
    redirect_penalty: int = 8  # resteer after an unpredicted indirect/ret

    # ---- memory ------------------------------------------------------
    l1_latency: int = 4
    l2_latency: int = 14
    llc_latency: int = 44
    dram_latency: int = 200

    # ---- TLBs --------------------------------------------------------
    itlb_entries: int = 128
    itlb_walk_latency: int = 30
    # The data-side TLB is modelled only when enabled: the paper's
    # attacks never exercise it, and keeping the default data path
    # identical preserves every existing calibration.  The contention
    # suite (repro.contention) switches it on per-resource.
    dtlb_enabled: bool = False
    dtlb_entries: int = 64
    dtlb_walk_latency: int = 30

    # ---- store buffer ------------------------------------------------
    # Timing-only drain model (repro.backend.execute): stores retire
    # into a bounded per-thread buffer whose entries commit through an
    # L1D write port at one commit per ``store_drain_interval`` cycles.
    # Under "competitive" sharing both SMT threads contend for one
    # port (the cross-thread signal the contention suite measures);
    # "partitioned" gives each thread a private port.
    store_buffer_entries: int = 56
    store_drain_interval: int = 2
    store_buffer_sharing: str = "competitive"  # "competitive" / "partitioned"

    # ---- SMT ---------------------------------------------------------
    smt_decode_shared: bool = True  # both vendors share the legacy decoders

    # ---- mitigations (Sections VII/VIII) --------------------------------
    flush_uop_cache_on_domain_crossing: bool = False
    privilege_partition_uop_cache: bool = False
    # Invisible speculation (InvisiSpec/SafeSpec-class, Section VII):
    # loads on a known-transient path leave no data-cache footprint.
    # The paper's point -- reproduced by tests -- is that this blocks
    # data-cache disclosure but not the micro-op cache, which is filled
    # by *fetch*, upstream of any such defense.
    invisible_speculation: bool = False

    # ---- reporting -----------------------------------------------------
    freq_ghz: float = 2.7  # i7-8700T nominal; converts cycles -> seconds

    def __post_init__(self) -> None:
        if self.decode_style not in ("skylake", "zen"):
            raise ConfigError(f"unknown decode style {self.decode_style!r}")
        if self.uop_cache_sharing not in ("static", "competitive"):
            raise ConfigError(f"unknown sharing {self.uop_cache_sharing!r}")
        if self.uop_cache_sets & (self.uop_cache_sets - 1):
            raise ConfigError("uop_cache_sets must be a power of two")
        if self.store_buffer_sharing not in ("competitive", "partitioned"):
            raise ConfigError(
                f"unknown store buffer sharing {self.store_buffer_sharing!r}"
            )

    @property
    def uop_cache_capacity(self) -> int:
        """Total micro-op capacity of the cache."""
        return self.uop_cache_sets * self.uop_cache_ways * self.uops_per_line

    def with_options(self, **kwargs) -> "CPUConfig":
        """Derived config with the given fields replaced."""
        return replace(self, **kwargs)

    # ---- presets --------------------------------------------------------

    @classmethod
    def skylake(cls, **overrides) -> "CPUConfig":
        """Intel Skylake/Coffee Lake-class front end (the paper's
        characterization target): 32x8x6 DSB, statically partitioned
        across SMT threads, 5-uop legacy decode."""
        return cls(name="skylake", **overrides)

    @classmethod
    def zen(cls, **overrides) -> "CPUConfig":
        """AMD Zen-class front end: 4x(1:2) decoders with a 2-uop
        microcode threshold and a *competitively shared* 2K-uop cache
        (8 uops/line) -- the configuration the cross-SMT channel of
        Section V-B requires."""
        params = dict(
            name="zen",
            decode_style="zen",
            msrom_threshold=2,
            max_decode_uops_per_cycle=8,
            uops_per_line=8,
            dsb_uops_per_cycle=8,
            uop_cache_sharing="competitive",
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def zen2(cls, **overrides) -> "CPUConfig":
        """AMD Zen 2-class: the paper notes its micro-op cache holds
        as many as 4K micro-ops; modelled as 64 sets x 8 ways x 8."""
        params = dict(
            name="zen2",
            decode_style="zen",
            msrom_threshold=2,
            max_decode_uops_per_cycle=8,
            uop_cache_sets=64,
            uops_per_line=8,
            dsb_uops_per_cycle=8,
            uop_cache_sharing="competitive",
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def sunny_cove(cls, **overrides) -> "CPUConfig":
        """Sunny Cove-class: the paper notes its micro-op cache is 1.5x
        Skylake's; modelled as 12 ways (32x12x6 = 2304 uops)."""
        params = dict(name="sunny_cove", uop_cache_ways=12)
        params.update(overrides)
        return cls(**params)

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert simulated cycles to wall-clock seconds at freq_ghz."""
        return cycles / (self.freq_ghz * 1e9)
