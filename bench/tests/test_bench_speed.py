"""The reference sampler: every job is timed, however short the block.

Run with ``python3 -m pytest bench/tests``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from speed import INTERVAL_S, JOBS, SpeedSampler  # noqa: E402


def test_every_job_is_sampled_during_a_block():
    with SpeedSampler() as speed:
        time.sleep(10 * INTERVAL_S)
    assert all(len(times) >= 2 for times in speed.samples)
    assert speed.reference_s() > 0


def test_an_empty_block_times_each_job_once():
    with SpeedSampler() as speed:
        pass
    assert [len(times) for times in speed.samples] == [1] * len(JOBS)
    assert speed.reference_s() > 0
