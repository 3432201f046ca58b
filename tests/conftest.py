"""Shared test helpers: tiny program construction and execution."""

import pytest
from hypothesis import settings

from repro.cpu.config import CPUConfig
from repro.cpu.core import Core
from repro.isa.assembler import Assembler

#: A larger example budget for property tests that leave
#: ``max_examples`` to the profile; select it with
#: ``--hypothesis-profile=ci``.  Tier-1 runs keep Hypothesis' default.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def skylake():
    """Fresh default Skylake-class configuration."""
    return CPUConfig.skylake()


def build_core(build_fn, config=None, entry=None):
    """Assemble a program via ``build_fn(asm)`` and wrap it in a Core."""
    asm = Assembler()
    build_fn(asm)
    program = asm.assemble(entry=entry)
    return Core(config or CPUConfig.skylake(), program)


def run(build_fn, regs=None, config=None, entry="main"):
    """Assemble, run to halt, return the core for inspection."""
    core = build_core(build_fn, config=config, entry=entry)
    core.call(entry, regs=regs)
    return core


@pytest.fixture(scope="session")
def fast_study(tmp_path_factory):
    """The fast-grid Figure 3-7 study, run once per session into a result
    cache that later runs (the CLI tests) answer from.  Returns
    ``(figures, cache_dir)``."""
    from repro.harness import ResultCache
    from repro.harness.experiments import characterize_sweeps, run_sweeps

    cache_dir = tmp_path_factory.mktemp("fast-study")
    figures, _, _ = run_sweeps(characterize_sweeps(fast=True),
                               cache=ResultCache(cache_dir))
    return figures, cache_dir


@pytest.fixture(scope="session")
def fast_attacks(tmp_path_factory):
    """The fast-grid attack evaluation (:data:`ATTACKS`), run cold once
    per session into a result cache.  Returns ``(artifacts, summary,
    cache)``."""
    from repro.harness import ResultCache
    from repro.harness.experiments import ATTACKS, artifact_sweeps, run_sweeps

    cache = ResultCache(tmp_path_factory.mktemp("attacks") / "store")
    artifacts, _, summary = run_sweeps(artifact_sweeps(ATTACKS, fast=True),
                                       cache=cache)
    return artifacts, summary, cache
