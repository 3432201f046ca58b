"""Structured observability tests: event bus mechanics, hook coverage,
tiger/zebra occupancy heatmaps, windowed counter sampling, Chrome
trace export, session integration and artifact persistence."""

import json

import pytest

from repro.core.exploitgen import FootprintSpec, emit_chain, striped_sets
from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.isa import encodings as enc
from repro.isa.assembler import Assembler
from repro.observe import (
    ALL_KINDS,
    BRANCH_PREDICT,
    BRANCH_RESOLVE,
    DSB_EVICT,
    DSB_FILL,
    DSB_FLUSH,
    FETCH_BLOCK,
    SQUASH,
    STORE_COMMIT,
    CounterSampler,
    Event,
    EventBus,
    OccupancySnapshot,
    TraceRecorder,
    chrome_trace,
    owner_classifier,
    validate_chrome_trace,
    write_chrome_trace,
)

TIGER_SETS = striped_sets(8)
ZEBRA_SETS = striped_sets(8, offset=2)


def conflict_core():
    """Tiger/zebra/second-tiger chains from Listing 1's recipe."""
    asm = Assembler()
    emit_chain(asm, "tiger", FootprintSpec(TIGER_SETS, 8, 0x44_0000))
    emit_chain(asm, "zebra", FootprintSpec(ZEBRA_SETS, 8, 0x48_0000))
    emit_chain(asm, "tiger2", FootprintSpec(TIGER_SETS, 8, 0x4C_0000))
    return Core(CPUConfig.skylake(), asm.assemble(entry="tiger"))


def tiny_core():
    asm = Assembler()
    asm.label("main")
    asm.emit(enc.alu_imm("add", "r1", 1))
    asm.emit(enc.halt())
    return Core(CPUConfig.skylake(), asm.assemble(entry="main"))


# ----------------------------------------------------------------------
# bus mechanics


class TestEventBus:
    def test_emit_without_subscribers_is_noop(self):
        bus = EventBus()
        bus.emit(FETCH_BLOCK, 0, 0, entry=1)  # must not raise
        assert not bus.active
        assert not bus.wants(FETCH_BLOCK)

    def test_subscribe_filters_by_kind(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, (DSB_FILL,))
        assert bus.wants(DSB_FILL)
        assert not bus.wants(FETCH_BLOCK)
        bus.emit(FETCH_BLOCK, 1, 0)
        bus.emit(DSB_FILL, 2, 0, entry=7)
        assert len(seen) == 1
        assert seen[0].kind == DSB_FILL
        assert seen[0].get("entry") == 7

    def test_subscribe_all_kinds_by_default(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        for kind in ALL_KINDS:
            bus.emit(kind, 0, 0)
        assert [e.kind for e in seen] == list(ALL_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventBus().subscribe(lambda e: None, ("fetch_blok",))

    def test_unsubscribe_removes_everywhere(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, (FETCH_BLOCK, SQUASH))
        bus.unsubscribe(seen.append)
        bus.emit(FETCH_BLOCK, 0, 0)
        bus.emit(SQUASH, 0, 0)
        assert not seen
        assert not bus.active

    def test_event_as_dict_is_flat(self):
        event = Event(DSB_EVICT, 10, 1, {"set": 4, "cause": "conflict"})
        assert event.as_dict() == {
            "kind": DSB_EVICT,
            "cycle": 10,
            "thread": 1,
            "set": 4,
            "cause": "conflict",
        }


# ----------------------------------------------------------------------
# core hooks


class TestCoreHooks:
    def test_unobserved_core_carries_no_bus(self):
        core = tiny_core()
        core.call("main")
        assert core.observer is None
        assert core.frontend.observer is None
        assert core.uop_cache.observer is None

    def test_observe_wires_all_components(self):
        core = tiny_core()
        bus = core.observe()
        assert core.observer is bus
        assert core.frontend.observer is bus
        assert core.uop_cache.observer is bus
        assert core.observe() is bus  # idempotent

    def test_unobserve_detaches(self):
        core = tiny_core()
        rec = TraceRecorder().connect(core)
        core.unobserve()
        core.call("main")
        assert len(rec) == 0
        assert core.observer is None

    def test_fetch_and_fill_events(self):
        core = conflict_core()
        with TraceRecorder(core=core) as rec:
            core.call("tiger")
        counts = rec.counts()
        assert counts[FETCH_BLOCK] == core.counters().fetch_blocks
        assert counts[DSB_FILL] > 0
        assert counts[BRANCH_PREDICT] > 0  # the jmp chain predicts
        # every fetch event carries the structured payload
        for event in rec.of(FETCH_BLOCK):
            assert event.get("kind") in (
                "seq", "taken", "stall_indirect", "halt", "cpuid", "fault"
            )
            assert event.get("source") in ("dsb", "mite", "msrom", "none")
            assert event.get("cycles") >= 0

    def test_uops_by_source_matches_counters(self):
        core = conflict_core()
        with TraceRecorder(core=core) as rec:
            core.call("tiger")
            core.call("tiger")
        by_source = rec.uops_by_source()
        counters = core.counters()
        assert by_source.get("dsb", 0) == counters.uops_dsb
        assert by_source.get("mite", 0) == counters.uops_mite

    def test_flush_event(self):
        core = conflict_core()
        core.call("tiger")
        with TraceRecorder(core=core, kinds=(DSB_FLUSH,)) as rec:
            core.flush_uop_cache()
        assert len(rec) == 1
        assert rec.events[0].get("dropped") > 0

    def test_squash_resolve_and_store_commit_events(self):
        from repro.core.transient import ClassicSpectreV1

        attack = ClassicSpectreV1(secret=b"\xa5")
        rec = TraceRecorder().connect(attack.core)
        attack.leak()
        rec.close()
        counts = rec.counts()
        assert counts.get(BRANCH_RESOLVE, 0) > 0
        assert counts.get(SQUASH, 0) > 0  # the transient attack squashes
        assert counts.get(STORE_COMMIT, 0) > 0
        mispredicted = [
            e for e in rec.of(BRANCH_RESOLVE) if e.get("mispredicted")
        ]
        assert len(mispredicted) >= counts[SQUASH]
        for event in rec.of(SQUASH):
            assert event.get("squashed") > 0
            assert event.get("correct_rip") is not None

    def test_conflict_evictions_carry_set_and_cause(self):
        core = conflict_core()
        core.call("tiger")
        with TraceRecorder(core=core, kinds=(DSB_EVICT,)) as rec:
            for _ in range(6):  # wear down the hot tiger lines
                core.call("tiger2")
        conflicts = [e for e in rec.events if e.get("cause") == "conflict"]
        assert conflicts, "second tiger must conflict-evict the first"
        assert {e.get("set") for e in conflicts} <= set(TIGER_SETS)

    def test_noise_evictions_carry_noise_cause(self):
        from repro.cpu.noise import NoiseModel

        asm = Assembler()
        emit_chain(asm, "tiger", FootprintSpec(TIGER_SETS, 8, 0x44_0000))
        core = Core(
            CPUConfig.skylake(),
            asm.assemble(entry="tiger"),
            noise=NoiseModel(evict_prob=0.5, seed=1),
        )
        with TraceRecorder(core=core, kinds=(DSB_EVICT,)) as rec:
            core.call("tiger")
            core.call("tiger")
        assert any(e.get("cause") == "noise" for e in rec.events)

    def test_fetch_block_recorder_payload_domains(self):
        core = tiny_core()
        with TraceRecorder(core=core, kinds=(FETCH_BLOCK,)) as rec:
            core.call("main")
        assert rec.events, "a FETCH_BLOCK recorder must collect"
        for event in rec.events:
            assert isinstance(event.cycle, int) and event.cycle >= 0
            assert isinstance(event.get("entry"), int)
            assert event.get("kind") in ("seq", "taken", "stall_indirect",
                                         "halt", "cpuid", "fault")
            assert event.get("source") in ("dsb", "mite", "msrom", "none")
            assert isinstance(event.get("n_uops"), int)


class TestPayPerUse:
    def test_observation_does_not_perturb_results(self):
        from repro.core.covert import ChannelParams, CovertChannel

        plain = CovertChannel(ChannelParams()).transmit(b"u")
        observed_channel = CovertChannel(ChannelParams())
        rec = TraceRecorder().connect(observed_channel.core)
        observed = observed_channel.transmit(b"u")
        rec.close()
        assert len(rec) > 0
        assert observed.bits_sent == plain.bits_sent
        assert observed.bit_errors == plain.bit_errors
        assert observed.total_cycles == plain.total_cycles
        assert observed.timing.hit_times == plain.timing.hit_times
        assert observed.timing.miss_times == plain.timing.miss_times


# ----------------------------------------------------------------------
# heatmaps


class TestHeatmap:
    def test_tiger_zebra_eight_way_set_conflict(self):
        """Listing 1's pattern: a tiger owns its eight striped sets
        completely (8/8 ways); the zebra's complementary stripes stay
        empty, then fill without evicting a single tiger line."""
        core = conflict_core()
        core.call("tiger")
        after_tiger = OccupancySnapshot.capture(core.uop_cache, "tiger")
        for s in TIGER_SETS:
            assert after_tiger.occupancy[s] == 8  # eight-way conflict rows
        for s in ZEBRA_SETS:
            assert after_tiger.occupancy[s] == 0

        evictions_before = core.uop_cache.stats.evictions
        core.call("zebra")
        after_zebra = OccupancySnapshot.capture(core.uop_cache, "zebra")
        assert core.uop_cache.stats.evictions == evictions_before
        for s in TIGER_SETS:
            assert after_zebra.occupancy[s] == 8  # tiger untouched
        for s in ZEBRA_SETS:
            assert after_zebra.occupancy[s] == 8  # zebra now resident
        diff = after_zebra.diff(after_tiger)
        assert all(diff[s] == 8 for s in ZEBRA_SETS)
        assert all(diff[s] == 0 for s in TIGER_SETS)

    def test_render_text_with_owner_classifier(self):
        core = conflict_core()
        core.call("tiger")
        core.call("zebra")
        snap = OccupancySnapshot.capture(core.uop_cache)
        owner = owner_classifier(
            {"T": (0x44_0000, 0x48_0000), "Z": (0x48_0000, 0x4C_0000)},
            default="?",
        )
        text = snap.render_text(owner)
        lines = text.splitlines()
        assert len(lines) == 32 + 2  # header + sets + total
        assert "TTTTTTTT" in lines[1 + TIGER_SETS[0]]
        assert "ZZZZZZZZ" in lines[1 + ZEBRA_SETS[0]]

    def test_json_roundtrip(self):
        core = conflict_core()
        core.call("tiger")
        snap = OccupancySnapshot.capture(core.uop_cache, "roundtrip")
        doc = json.loads(json.dumps(snap.to_json()))  # via real JSON
        back = OccupancySnapshot.from_json(doc)
        assert back.label == "roundtrip"
        assert back.occupancy == snap.occupancy
        assert back.lines[TIGER_SETS[0]][0] == snap.lines[TIGER_SETS[0]][0]

    def test_from_json_rejects_foreign_docs(self):
        with pytest.raises(ValueError):
            OccupancySnapshot.from_json({"schema": "something-else"})

    def test_occupied_sets_and_entries(self):
        core = conflict_core()
        core.call("tiger")
        snap = OccupancySnapshot.capture(core.uop_cache)
        occupied = set(snap.occupied_sets())
        assert set(TIGER_SETS) <= occupied
        assert not occupied & set(ZEBRA_SETS)
        assert len(snap.entries_in_set(TIGER_SETS[0])) == 8


# ----------------------------------------------------------------------
# counter timeseries


class TestCounterSampler:
    def test_window_cutting_and_zero_fill(self):
        sampler = CounterSampler(window=10)
        sampler._on_event(
            Event(FETCH_BLOCK, 5, 0, {"source": "dsb", "n_uops": 4})
        )
        sampler._on_event(
            Event(FETCH_BLOCK, 25, 0, {"source": "mite", "n_uops": 2})
        )
        rows = sampler.finish()
        assert [row["t0"] for row in rows] == [0, 10, 20]
        assert rows[0]["uops_dsb"] == 4
        assert rows[1]["fetch_blocks"] == 0  # interior window zero-filled
        assert rows[2]["uops_mite"] == 2

    def test_clock_reset_splices_timeline(self):
        sampler = CounterSampler(window=10)
        sampler._on_event(
            Event(FETCH_BLOCK, 25, 0, {"source": "dsb", "n_uops": 1})
        )
        # fetch clock reset between Core.call boundaries: raw cycle 3
        # lands at 25 + 3 = 28 on the continuous timeline
        sampler._on_event(
            Event(FETCH_BLOCK, 3, 0, {"source": "dsb", "n_uops": 1})
        )
        rows = sampler.finish()
        assert rows[-1]["t0"] == 20
        assert rows[-1]["uops_dsb"] == 2

    def test_integration_conserves_uops(self):
        core = conflict_core()
        rec = TraceRecorder(kinds=(FETCH_BLOCK,)).connect(core)
        sampler = CounterSampler(window=100).connect(core)
        core.call("tiger")
        core.call("tiger")
        rec.close()
        sampler.close()
        rows = sampler.finish()
        by_source = rec.uops_by_source()
        assert sum(r["uops_dsb"] for r in rows) == by_source.get("dsb", 0)
        assert sum(r["uops_mite"] for r in rows) == by_source.get("mite", 0)
        assert sum(r["fetch_blocks"] for r in rows) == len(rec.events)

    def test_as_json_shape(self):
        sampler = CounterSampler(window=50)
        sampler._on_event(Event(FETCH_BLOCK, 1, 0, {"source": "dsb",
                                                    "n_uops": 1}))
        doc = sampler.as_json()
        assert doc["window"] == 50
        assert doc["samples"][0]["t0"] == 0
        json.dumps(doc)  # JSON-serialisable throughout

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            CounterSampler(window=0)


# ----------------------------------------------------------------------
# chrome export


class TestChromeTrace:
    def _recorded(self):
        core = conflict_core()
        with TraceRecorder(core=core) as rec:
            core.call("tiger")
            core.call("zebra")  # second call: fetch clock resets
        return rec

    def test_export_is_valid(self):
        rec = self._recorded()
        doc = chrome_trace(rec.events)
        assert validate_chrome_trace(doc) == []
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert any(e["ph"] == "M" for e in doc["traceEvents"])

    def test_timestamps_are_monotonic_per_thread(self):
        rec = self._recorded()
        doc = chrome_trace(rec.events)
        last_end = {}
        for event in doc["traceEvents"]:
            if event["ph"] != "X":
                continue
            tid = event["tid"]
            assert event["ts"] >= 0
            assert event["ts"] >= last_end.get(tid, 0) - event["dur"]
            last_end[tid] = event["ts"] + event["dur"]
        # two calls' worth of slices ended up on one timeline
        assert last_end[0] > 0

    def test_round_trips_through_json(self, tmp_path):
        rec = self._recorded()
        doc = chrome_trace(rec.events, process_name="repro:test")
        path = tmp_path / "trace.json"
        write_chrome_trace(path, doc)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        names = {e["name"] for e in loaded["traceEvents"]}
        assert "process_name" in names

    def test_validation_rejects_malformed_docs(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{}]}) != []
        missing_dur = {
            "traceEvents": [
                {"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(missing_dur))
        negative_ts = {
            "traceEvents": [
                {"name": "x", "ph": "i", "ts": -5, "pid": 0, "tid": 0}
            ]
        }
        assert validate_chrome_trace(negative_ts) != []

    def test_write_refuses_invalid_doc(self, tmp_path):
        with pytest.raises(ValueError):
            write_chrome_trace(tmp_path / "bad.json", {"traceEvents": "nope"})


# ----------------------------------------------------------------------
# session integration


class TestSessionObserve:
    def _session(self):
        from repro.session.base import AttackSession

        class TinySession(AttackSession):
            def __init__(self):
                super().__init__(CPUConfig.skylake())

            def build_program(self):
                asm = Assembler()
                asm.label("main")
                asm.emit(enc.alu_imm("add", "r1", 1))
                asm.emit(enc.halt())
                return asm.assemble(entry="main")

        return TinySession()

    def test_run_with_recorder(self):
        session = self._session()
        rec = TraceRecorder()
        result = session.run(
            lambda s: s._call("main").retired_instructions, observe=rec
        )
        assert result > 0
        assert rec.counts()[FETCH_BLOCK] > 0
        # detached afterwards: further runs record nothing
        n = len(rec)
        session.run(lambda s: s._call("main"))
        assert len(rec) == n

    def test_run_with_callable(self):
        session = self._session()
        seen = []
        session.run(lambda s: s._call("main"), observe=seen.append)
        assert seen
        assert not session.core.observer.active  # unsubscribed after run

    def test_run_without_observe_stays_unobserved(self):
        session = self._session()
        session.run(lambda s: s._call("main"))
        assert session.core.observer is None

    def test_run_trials_spans_resets(self):
        session = self._session()
        rec = TraceRecorder(kinds=(FETCH_BLOCK,))
        results = session.run_trials(
            lambda s: s._call("main").retired_instructions, 3, observe=rec
        )
        assert len(results) == 3
        assert len(rec) >= 3  # events from every trial, across resets

    def test_bad_observe_item_rejected(self):
        session = self._session()
        with pytest.raises(TypeError):
            session.run(lambda s: None, observe=42)


# ----------------------------------------------------------------------
# artifact persistence


class TestArtifacts:
    def test_roundtrip_and_clear(self, tmp_path):
        from repro.harness import ResultCache

        cache = ResultCache(tmp_path / "store")
        key = "ab" + "0" * 62
        cache.put_artifact(key, "chrome.json", '{"traceEvents": []}')
        cache.put_artifact(key, "heatmap-0.json", b"{}")
        assert cache.get_artifact(key, "chrome.json") == b'{"traceEvents": []}'
        assert cache.get_artifact(key, "missing.json") is None
        assert cache.artifact_path(key, "chrome.json").is_file()
        assert cache.clear() == 2
        assert cache.get_artifact(key, "chrome.json") is None

    def test_invalid_names_rejected(self, tmp_path):
        from repro.harness import ResultCache

        cache = ResultCache(tmp_path / "store")
        with pytest.raises(ValueError):
            cache.artifact_path("ab" + "0" * 62, "../escape.json")
        with pytest.raises(ValueError):
            cache.artifact_path("ab" + "0" * 62, ".hidden")

    def test_null_cache_artifact_noops(self):
        from repro.harness.cache import NullCache

        cache = NullCache()
        assert cache.put_artifact("k", "a.json", b"x") is None
        assert cache.get_artifact("k", "a.json") is None
