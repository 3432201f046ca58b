"""Extension benchmark: the jump-table multi-bit leak the paper
sketches as a bandwidth optimisation ("for example, using a jump
table", Section VI-A).

Compares symbols-per-invocation 1 vs 2 within the same framework: the
2-bit variant halves the victim invocations per byte; whether wall
clock improves depends on the probe cost per group, which this
benchmark reports honestly.
"""

from benchmarks.conftest import banner, run_once
from repro.core.transient_multibit import JumpTableSpectre

SECRET = b"\xa5\x3c"


def test_jump_table_multibit(benchmark):
    episodes = {}

    def measure():
        out = {}
        for bits in (1, 2):
            attack = JumpTableSpectre(secret=SECRET, bits_per_symbol=bits,
                                      samples=2)
            attack.calibrate()
            episode, calls = attack._episode, []

            def counted(*args, episode=episode, calls=calls):
                calls.append(args)
                return episode(*args)

            attack._episode = counted
            out[bits] = attack.leak()
            episodes[bits] = len(calls)
        return out

    results = run_once(benchmark, measure)
    banner("Extension -- jump-table transmitter, bits per transient window")
    for bits, stats in results.items():
        print(f"  {bits} bit(s)/window: leaked={stats.leaked.hex()} "
              f"accuracy={stats.byte_accuracy * 100:.0f}% "
              f"cycles={stats.total_cycles} "
              f"rate={stats.bandwidth_kbps:.1f} Kbps")
    for bits, stats in results.items():
        assert stats.leaked == SECRET, f"{bits}-bit variant failed"
    # per-byte victim invocations halve with 2 bits/symbol: one warm-up
    # episode and 2 votes per symbol
    for bits, count in episodes.items():
        assert count == len(SECRET) * (8 // bits) * (2 + 1), bits
    assert 2 * episodes[2] == episodes[1]
    benchmark.extra_info["rate_1bit"] = results[1].bandwidth_kbps
    benchmark.extra_info["rate_2bit"] = results[2].bandwidth_kbps
