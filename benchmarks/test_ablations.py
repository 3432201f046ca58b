"""Ablations of the design choices DESIGN.md calls out:

- replacement policy: the hotness wear-down policy vs plain LRU
  (LRU destroys the Figure 5 diagonal -- a single conflicting access
  evicts, so retention no longer encodes access counts);
- sharing policy: static partitioning closes the SMT channel that
  competitive sharing leaves open;
- mitigations: flush-at-crossing and privilege partitioning close the
  user/kernel channel, at a measurable performance cost, while
  variant-1 sails through privilege partitioning.
"""

from benchmarks.conftest import banner, run_once
from repro.core.mitigations import (
    evaluate_crossdomain_mitigations,
    variant1_under_partitioning,
)
from repro.core.smtchannel import SMTChannel, SMTChannelParams
from repro.cpu.config import CPUConfig
from repro.harness import Sweep
from repro.harness.experiments import run_sweeps


def test_ablation_replacement_policy(benchmark):
    """The policies' signatures differ in *pressure sensitivity*: under
    the hotness policy a hot resident loop degrades gradually as the
    evicting loop's iteration count grows (retention encodes a count);
    under LRU a single evicting pass already evicts everything, so the
    retention curve is flat in E (retention encodes one bit)."""

    def measure():
        # Figure 5's M=8 row under each policy
        return {
            policy: run_sweeps({"fig5_replacement": Sweep(
                "characterize.replacement",
                axes={"main_iters": [8], "evict_iters": [1, 4, 8, 12]},
                base={"rounds": 10},
                config=CPUConfig.skylake(uop_cache_policy=policy),
            )})[0]["fig5_replacement"]
            for policy in ("hotness", "lru")
        }

    results = run_once(benchmark, measure)
    banner("Ablation -- hotness vs LRU replacement "
           "(M=8 row of Figure 5 under eviction pressure E)")
    for policy, r in results.items():
        cells = "  ".join(f"E={e}:{r.cell(8, e):5.1f}"
                          for e in r.evict_iters)
        print(f"  {policy:8s}: {cells}")
    hot = results["hotness"]
    lru = results["lru"]
    hot_range = hot.cell(8, 1) - hot.cell(8, 12)
    lru_range = lru.cell(8, 1) - lru.cell(8, 12)
    # hotness leaks the access count: retention falls with pressure
    assert hot_range > 20
    # LRU leaks a single bit: pressure beyond one pass changes nothing
    assert abs(lru_range) < 5
    benchmark.extra_info["hotness_range"] = hot_range
    benchmark.extra_info["lru_range"] = lru_range


def test_ablation_smt_sharing(benchmark):
    def measure():
        zen = SMTChannel(SMTChannelParams(calibration_rounds=4))
        intel = SMTChannel(
            SMTChannelParams(calibration_rounds=4),
            config=CPUConfig.skylake(),
        )
        return zen.calibrate().delta, intel.calibrate().delta

    zen_delta, intel_delta = run_once(benchmark, measure)
    banner("Ablation -- competitive vs static SMT sharing")
    print(f"  Zen (competitive) cross-thread signal:   {zen_delta:8.1f} cyc")
    print(f"  Skylake (static) cross-thread signal:    {intel_delta:8.1f} cyc")
    assert zen_delta > 200
    assert abs(intel_delta) < 50
    benchmark.extra_info["zen_delta"] = zen_delta
    benchmark.extra_info["intel_delta"] = intel_delta


def test_ablation_mitigations(benchmark):
    def measure():
        outcomes = evaluate_crossdomain_mitigations(b"\xa5")
        v1 = variant1_under_partitioning(b"\x5a")
        return outcomes, v1

    outcomes, (v1_base, v1_part) = run_once(benchmark, measure)
    banner("Ablation -- Section VIII mitigations vs the channels")
    for o in outcomes:
        print(f"  {o.name:22s} signal={o.signal_delta:8.1f} "
              f"err={o.error_rate * 100:5.1f}% closed={o.channel_closed} "
              f"cycles={o.kernel_cycles}")
    print(f"  variant-1 byte accuracy: baseline={v1_base:.2f}, "
          f"privilege-partitioned={v1_part:.2f} (paper: not mitigated)")
    by_name = {o.name: o for o in outcomes}
    assert not by_name["baseline"].channel_closed
    assert by_name["flush-on-crossing"].channel_closed
    assert by_name["privilege-partition"].channel_closed
    assert by_name["flush-on-crossing"].kernel_cycles > \
        by_name["baseline"].kernel_cycles
    assert v1_base == 1.0
    assert v1_part == 1.0  # partitioning does NOT stop variant-1


def test_ablation_invisible_speculation(benchmark):
    """Section VII as an executable claim: an invisible-speculation
    defense closes the data-cache disclosure (classic Spectre-v1) and
    leaves the front-end disclosure wide open."""
    from repro.core.transient import ClassicSpectreV1, UopCacheSpectreV1

    def measure():
        invisible = CPUConfig.skylake(invisible_speculation=True)
        classic = ClassicSpectreV1(secret=b"\xa5\x3c",
                                   config=invisible).leak()
        uop = UopCacheSpectreV1(secret=b"\xa5\x3c", config=invisible,
                                deep_window=True).leak()
        return classic, uop

    classic, uop = run_once(benchmark, measure)
    banner("Ablation -- invisible speculation (Section VII)")
    print(f"  classic Spectre-v1 accuracy:  {classic.byte_accuracy * 100:.0f}%"
          " (data-cache side closed)")
    print(f"  uop-cache variant-1 accuracy: {uop.byte_accuracy * 100:.0f}%"
          " (front-end side wide open)")
    assert classic.byte_accuracy == 0.0
    assert uop.byte_accuracy == 1.0
    benchmark.extra_info["classic_acc"] = classic.byte_accuracy
    benchmark.extra_info["uop_acc"] = uop.byte_accuracy
