"""Golden paper artifacts: the oracle for Figures 3-7 and Tables I-II.

Each artifact is defined once, in
:data:`repro.harness.experiments.ARTIFACTS`.  The literals below were
captured from the implementation that preceded that registry; the
simulator is deterministic, so any drift is a model change, not noise.
"""

import dataclasses
import hashlib
import json

from repro.__main__ import main
from repro.core.report import Table1Row, Table2Row
from repro.harness.experiments import (
    ARTIFACTS,
    FIGURES,
    Claim,
    characterize_sweeps,
    check_claims,
)

#: SHA-256 of the fast-grid figures as canonical JSON (see _digest).
FAST_FIGURES_SHA256 = (
    "658aad38ab6a7779bd0e21623f7f11680047d445b9ff93ddc8abef6ed72aa47a"
)

#: The fast grid's Table I: payload b"u", noise seed 17.
TABLE1_FAST = [
    Table1Row("Same address space", 0.0,
              361.31276973001906, 301.0939747750159),
    Table1Row("Same address space (User/Kernel)", 0.0,
              332.07268702149247, 276.72723918457706),
    Table1Row("Cross-thread (SMT)", 0.0,
              217.33224667209996, 181.1102055600833),
    Table1Row("Transient Execution Attack", 0.0,
              542.9454792247946, 452.4545660206621),
]

#: The fast grid's Table II: secret b"\xa5".
TABLE2_FAST = [
    Table2Row("Spectre (original)", 4.736185185185185e-05,
              518, 518, 1052, 1.0),
    Table2Row("Spectre (uop cache)", 1.3737407407407407e-05,
              41, 41, 19892, 1.0),
]


def _as_json(figures):
    return {name: dataclasses.asdict(figure)
            for name, figure in figures.items()}


def _digest(figures) -> str:
    text = json.dumps(_as_json(figures), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _failing(artifacts):
    return [(name, claim.name)
            for name, claim, holds in check_claims(artifacts) if not holds]


def test_fast_figures_digest(fast_study):
    figures, _ = fast_study
    assert list(figures) == [n for n in FIGURES if n != "fig6_smt_chase"]
    assert _digest(figures) == FAST_FIGURES_SHA256


def test_every_figure_claim_holds_on_the_fast_grid(fast_study):
    figures, _ = fast_study
    assert {name for name, _, _ in check_claims(figures)} == set(figures)
    assert _failing(figures) == []


def test_table_rows_fast(fast_attacks):
    results, _, _ = fast_attacks
    assert results["table1"] == TABLE1_FAST
    assert results["table2"] == TABLE2_FAST


def test_every_table_claim_holds_on_the_fast_grid(fast_attacks):
    results, _, _ = fast_attacks
    tables = {"table1": results["table1"], "table2": results["table2"]}
    assert _failing(tables) == []


def test_full_grid_is_the_paper_resolution():
    sizes = {name: len(sweep) for name, sweep in characterize_sweeps().items()}
    assert sizes == {
        "fig3a_size": 24, "fig3b_associativity": 14, "fig4_placement": 72,
        "fig5_replacement": 156, "fig6_smt": 9, "fig6_smt_chase": 9,
        "fig7_sweep": 16, "fig7_groups": 9,
    }


def test_batch_characterize_reports_each_claim(fast_study, tmp_path, capsys):
    figures, cache_dir = fast_study
    path = tmp_path / "figures.json"
    assert main(["batch", "characterize", "--fast", "--cache-dir",
                 str(cache_dir), "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 executed, 100 from cache" in out
    (assoc,) = [line for line in out.splitlines()
                if "fig3b_associativity:" in line]
    assert assoc.split()[0] == "pass" and "8 ways" in assoc
    doc = json.loads(path.read_text())
    assert doc["artifacts"] == json.loads(json.dumps(_as_json(figures)))
    assert len(doc["claims"]) == len(check_claims(figures))
    assert all(claim["holds"] for claim in doc["claims"])


def test_a_failing_claim_fails_the_batch(fast_study, monkeypatch, capsys):
    _, cache_dir = fast_study
    artifact = ARTIFACTS["fig3b_associativity"]
    never = Claim("never holds", "§0", lambda result: False)
    monkeypatch.setitem(ARTIFACTS, artifact.name,
                        artifact._replace(claims=(never,)))
    assert main(["batch", "characterize", "--fast",
                 "--cache-dir", str(cache_dir)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  fig3b_associativity: never holds" in out
    assert "1 of " in out
