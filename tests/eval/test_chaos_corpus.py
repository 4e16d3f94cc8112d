"""Chaos over the corpus: generated workloads keep the PR 6 invariant.

The PR 6 chaos suite pinned "oracle answer or typed error" on three
hand-written queries; this module extends it to a *generated* scenario run
through the differential harness.  Whatever ``REPRO_FAILPOINTS`` the
environment (or this module) arms, every cell in the report must stay
``ok`` or ``typed_error`` — a fault may cost a fallback or a refusal, but
never a silently wrong answer.

CI's chaos matrix includes this file, so the env-driven test runs under
each armed spec; the in-process tests arm their own specs and restore the
environment's configuration afterwards.
"""

import pytest

from repro.backends.exec import reset_breakers
from repro.eval.harness import report_failures, run_scenario
from repro.util import failpoints

#: Specs chosen to cross the sites a corpus run actually exercises:
#: connection setup, catalog load, SQL rendering, and statement execution.
IN_PROCESS_SPECS = [
    "sqlite.execute=locked",
    "sqlite.connect=error",
    "sql.render=unsupported",
    "sqlite.execute=locked*2,catalog.load=error",
]


@pytest.fixture(autouse=True)
def clean_fault_state():
    # Arm nothing on entry; restore whatever the environment configured on
    # exit so this module composes with CI's REPRO_FAILPOINTS matrix.
    reset_breakers()
    yield
    failpoints.load_env()
    reset_breakers()


def _assert_invariant(report):
    assert report_failures(report) == []
    statuses = {cell["status"] for cell in report["cells"]}
    assert statuses <= {"ok", "typed_error"}
    for cell in report["cells"]:
        if cell["status"] == "typed_error":
            assert cell["error_type"], cell  # refusals carry a named type


def test_corpus_under_environment_failpoints():
    """The matrix entry: whatever CI armed via REPRO_FAILPOINTS holds."""
    failpoints.load_env()
    report = run_scenario(
        "eventlog", size="small", seed=0, backends=("sqlite",), run_nl=False
    )
    _assert_invariant(report)


@pytest.mark.parametrize("spec", IN_PROCESS_SPECS)
def test_corpus_under_injected_failpoints(spec):
    failpoints.configure(spec)
    try:
        report = run_scenario(
            "retail", size="small", seed=0, backends=("sqlite",), run_nl=False
        )
    finally:
        failpoints.reset()
    _assert_invariant(report)


def test_faults_do_not_corrupt_subsequent_clean_runs():
    failpoints.configure("sqlite.execute=locked*2,catalog.load=error")
    try:
        run_scenario(
            "retail", size="small", seed=0, backends=("sqlite",), run_nl=False
        )
    finally:
        failpoints.reset()
    reset_breakers()
    clean = run_scenario(
        "retail", size="small", seed=0, backends=("sqlite",), run_nl=False
    )
    _assert_invariant(clean)
    # With no faults armed the run must be fully clean, not merely typed.
    assert {cell["status"] for cell in clean["cells"]} == {"ok"}
