"""What the generation barrier holds back: the same jobs released all at t = 0.

No search runs without a release rule (steady evolution has its own,
see ``test_walltime.py``); releasing every job at once is the bound the
barrier is measured against.
"""

import pytest

from repro.scheduler import fifo_schedule


def schedule(generations, n_gpus, *, barrier):
    seconds, waits = [], []
    for generation in generations:
        waits += [len(seconds) if barrier else 0] * len(generation)
        seconds += generation
    return fifo_schedule(seconds, n_gpus, waits)


class TestNoBarrier:
    def test_next_generation_starts_early(self):
        generations = [[10.0, 2.0], [1.0, 1.0]]
        placements, makespan, _ = schedule(generations, 2, barrier=False)
        # job 2 starts as soon as job 1's GPU frees at t=2
        assert placements[2][1] == pytest.approx(2.0)
        assert makespan < schedule(generations, 2, barrier=True)[1]

    def test_never_slower_than_barrier(self, rng):
        for trial in range(5):
            generations = [
                [float(sum(rng.uniform(1, 10, 3))) for _ in range(int(rng.integers(2, 8)))]
                for g in range(3)
            ]
            with_barrier = schedule(generations, 3, barrier=True)[1]
            without = schedule(generations, 3, barrier=False)[1]
            assert without <= with_barrier + 1e-9

    def test_work_conserved_without_barrier(self, rng):
        generations = [[float(sum(rng.uniform(1, 5, 2))) for _ in range(5)] for g in range(2)]
        total = sum(sum(gen) for gen in generations)
        _, _, busy = schedule(generations, 4, barrier=False)
        assert busy == pytest.approx(total)

    def test_identical_on_single_generation(self, rng):
        jobs = [float(sum(rng.uniform(1, 5, 2))) for _ in range(6)]
        a = schedule([jobs], 2, barrier=True)
        b = schedule([jobs], 2, barrier=False)
        assert a[1] == pytest.approx(b[1])

    def test_utilization_at_least_as_high(self, rng):
        generations = [[float(10 + 5 * i) for i in range(3)] for g in range(4)]
        _, with_barrier, busy = schedule(generations, 2, barrier=True)
        _, without, _ = schedule(generations, 2, barrier=False)
        # same busy seconds, so higher utilization is a shorter makespan
        assert busy / without >= busy / with_barrier - 1e-9
