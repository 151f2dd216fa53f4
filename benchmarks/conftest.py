"""Shared fixtures of the benchmark harness.

Every benchmark that trains models uses the SMALL experiment scale: the
paper's protocol structure (sessions 1-5 train / 6-10 test, inter-subject
pre-training, QAT) on the reduced synthetic dataset, so the whole harness
finishes in minutes on a laptop while preserving the qualitative shape of
every figure/table.  Deployment/complexity benchmarks always trace models
at the paper's full input geometry (14 channels x 300 samples), so their
counts are those of the paper's networks.
"""

import pytest

from repro.experiments import Scale, make_context


@pytest.fixture(scope="session")
def small_context():
    """SMALL-scale experiment context shared across the benchmark modules."""
    return make_context(Scale.SMALL, num_subjects=3)


def report(title: str, text: str) -> None:
    """Print a rendered experiment table under a visible banner."""
    print()
    print("=" * 79)
    print(title)
    print("=" * 79)
    print(text)
