"""The run the benchmark times is the run a user gets.

For every workload, `run_sequence` on the prebuilt inputs (what the
benchmark times, with set-up split out) gives a `summary_dict()`
identical to `run_sequence` generating its own sequence from the seed,
and that summary passes the reference check.

Run from the repository root (about a minute):
    python3 -m pytest -q bench/check_equivalence.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_prebuilt_sequence_matches_generated(name):
    workload = wl.WORKLOADS[name]
    _, sequence = wl.build_inputs(workload, wl.REFERENCE_SEED)
    prebuilt = wl.run(workload, wl.REFERENCE_SEED, sequence)
    generated = wl.run(workload, wl.REFERENCE_SEED)
    assert prebuilt.summary_dict() == generated.summary_dict()
    recorded = wl.load_reference()[name]
    assert wl.check_reference(wl.summarize(prebuilt), recorded) == []
