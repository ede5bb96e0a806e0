"""The battery's draw, batch and record steps."""

import numpy as np

from hardylab import QuadratureConfig, TaylorSeries, hp_norm, norms, verify
from hardylab.membership import random_series


class TestSampleBlocks:
    @staticmethod
    def _sizes(block):
        return sum(x.order + 1 for draw in block for x in draw if isinstance(x, TaylorSeries))

    def test_blocks_are_consecutive_cover_every_draw_and_stay_in_budget(self):
        rng = np.random.default_rng(48)
        budget = norms._BLOCK_ELEMS
        # orders from 0 past the budget: some draws exceed it alone
        orders = [0, 5, budget - 1, budget, budget + 7, 3, 2 * budget, 1, 1, 4000, 4191, 2]
        orders += [int(k) for k in rng.integers(0, 300, 200)]
        draws = [(i, TaylorSeries([1.0] * (order + 1)), "scalar") for i, order in enumerate(orders)]
        drawn = []

        def lazily():
            for draw in draws:
                drawn.append(draw[0])
                yield draw

        blocks = []
        for block in norms._blocks(lazily()):
            # a block comes before the draw after it: at most one draw ahead
            assert drawn[-1] <= block[-1][0] + 1
            blocks.append(block)
        assert [draw for block in blocks for draw in block] == draws
        for block, after in zip(blocks, blocks[1:] + [None]):
            held = self._sizes(block)
            assert held <= budget or len(block) == 1
            if after is not None:  # closed only when the next draw would not fit
                assert held + self._sizes(after[:1]) > budget

    def test_every_series_of_a_draw_counts(self):
        f, g = TaylorSeries([1.0] * 5000), TaylorSeries([1.0] * 4000)
        blocks = list(norms._blocks([(0, f, g), (1, f), (2, g, f)]))
        assert [[draw[0] for draw in block] for block in blocks] == [[0], [1], [2]]

    def test_no_draws_no_blocks(self):
        assert list(norms._blocks([])) == []


class TestBatch:
    def test_each_request_reads_its_own_norms_in_queue_order(self):
        rng = np.random.default_rng(49)
        fs = [random_series(rng, 8) for _ in range(12)]
        cfgs = [QuadratureConfig(num_points=256), QuadratureConfig(num_points=64, mode="trapezoid")]
        requests = [(p, cfgs[i % 2], fs[i: i + 3]) for i in range(10) for p in (1.0, 2.0, 4.0)]
        batch = verify._Batch()
        for request in requests:
            batch.add(*request)
        batch.add(3.0, cfgs[0], fs[:2], sum)
        want = [[hp_norm(f, p, cfg) for f in rows] for p, cfg, rows in requests]
        assert batch.run() == want + [sum(hp_norm(f, 3.0, cfgs[0]) for f in fs[:2])]

    def test_one_call_per_exponent_and_config(self, monkeypatch):
        calls = []
        hp_norms = verify._hp_norms

        def spy(series, p, cfg):
            calls.append((len(series), p, cfg.num_points))
            return hp_norms(series, p, cfg)

        monkeypatch.setattr(verify, "_hp_norms", spy)
        f, g = TaylorSeries([1.0, 2.0]), TaylorSeries([1.0, 2.0, 3.0])
        cfg, other = QuadratureConfig(num_points=64), QuadratureConfig(num_points=128)
        batch = verify._Batch()
        batch.add(3.0, cfg, [f, g])
        batch.add(1.0, cfg, [f])
        batch.add(3.0, other, [g])
        batch.add(3.0, cfg, [g])
        got = batch.run()
        assert sorted(calls) == [(1, 1.0, 64), (1, 3.0, 128), (3, 3.0, 64)]
        assert got == [[hp_norm(f, 3.0, cfg), hp_norm(g, 3.0, cfg)], [hp_norm(f, 1.0, cfg)],
                       [hp_norm(g, 3.0, other)], [hp_norm(g, 3.0, cfg)]]
