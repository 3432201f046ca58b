"""Golden lint document: the full ``repro lint --all --cross-check
--taint`` report, pinned by digest.

The document is what ``run_lint(cross=True, taint=True).as_dict()``
returns -- every target's diagnostics (in order), cross-check and
secret-check results and taint leak reports -- and also what a serve
``lint`` job answers, so the digest pins the lint verdicts and that
serve response together.  Only the wall-clock ``elapsed_s`` fields are
stripped.  A refactor of the claim machinery must leave it unchanged.
"""

import hashlib
import json

from repro.lint.runner import run_lint

#: SHA-256 of the stripped document serialized as the CLI's ``--json``
#: does (``json.dumps(doc, indent=2)``, key order as emitted).
GOLDEN_SHA256 = (
    "459ac2b4f1eb6ad55153b3860a13baa2e0dda87bba9a00ec41a9d650359c957e"
)
GOLDEN_EXIT_CODE = 0


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items()
                if k != "elapsed_s"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def test_full_lint_document_is_golden():
    run = run_lint(cross=True, taint=True)
    doc = json.dumps(_strip_elapsed(run.as_dict()), indent=2)
    assert run.exit_code == GOLDEN_EXIT_CODE
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_SHA256
