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


class TestMeasured:
    @staticmethod
    def _tagged(rows, tag):
        # a stand-in measure: each row's value names the call and the row
        return [(tag, row) for row in rows]

    def test_values_are_the_one_series_values_bit_for_bit(self):
        rng = np.random.default_rng(49)
        fs = [random_series(rng, int(k)) for k in rng.integers(0, 40, 24)]
        cfgs = [QuadratureConfig(num_points=256), QuadratureConfig(num_points=64, mode="trapezoid")]

        def measure(i, f, g):
            return [((verify._hp_norms, (1.0, 2.0, 3.0)[i % 3], cfgs[i % 2]), [f, g], None),
                    ((verify._grid_peaks, (64, 256)[i % 2]), [g, f], None),
                    ((verify._hp_norms, 4.0, cfgs[0]), [g], None)]

        draws = [(i, fs[i], fs[-1 - i]) for i in range(len(fs))]
        for (i, f, g), (hp, peaks, (hp4,)) in verify._measured(draws, measure):
            p, cfg, floor = (1.0, 2.0, 3.0)[i % 3], cfgs[i % 2], (64, 256)[i % 2]
            assert [x.hex() for x in hp] == [hp_norm(h, p, cfg).hex() for h in (f, g)]
            assert hp4.hex() == hp_norm(g, 4.0, cfgs[0]).hex()
            for (peak, j, m), h in zip(peaks, (g, f)):
                one, = norms._grid_peaks([h], floor)
                assert (peak.hex(), j, m) == (one[0].hex(), *one[1:])

    def test_requests_keep_their_order_and_finish_applies(self):
        a, b = (self._tagged, "a"), (self._tagged, "b")

        def measure(i):
            if i == 1:
                return []
            return [(a, [i, i + 10], None), (b, [i], len), (a, [i + 20], None),
                    (b, [i + 30, i + 40], list.copy)]

        got = list(verify._measured([(0, TaylorSeries([1.0])), (1,), (2,)],
                                    lambda i, *_: measure(i)))
        assert [draw for draw, _ in got] == [(0, TaylorSeries([1.0])), (1,), (2,)]
        assert [values for _, values in got] == [
            [[("a", 0), ("a", 10)], 1, [("a", 20)], [("b", 30), ("b", 40)]],
            [],
            [[("a", 2), ("a", 12)], 1, [("a", 22)], [("b", 32), ("b", 42)]],
        ]

    def test_one_call_per_key_per_block(self, monkeypatch):
        monkeypatch.setattr(norms, "_BLOCK_ELEMS", 20)
        calls = []

        def spy(real):
            def call(rows, *args):
                calls.append((real.__name__, args, list(rows)))
                return real(rows, *args)
            return call

        hp, peaks = spy(verify._hp_norms), spy(verify._grid_peaks)
        cfg = QuadratureConfig(num_points=64)
        fs = [TaylorSeries([1.0 + k, 2.0, 0.5j][:1 + k % 3] * 3) for k in range(12)]
        draws = [(k, f) for k, f in enumerate(fs)]

        def measure(k, f):
            return [((hp, 2.0, cfg), [f], None), ((peaks, 64), [f], None),
                    ((hp, 1.0, cfg), [f, f], None), ((hp, 2.0, cfg), [f], None)]

        list(verify._measured(draws, measure))
        want = []
        for block in norms._blocks(draws):
            block_fs = [f for _, f in block]
            twice = [f for f in block_fs for _ in range(2)]
            want += [("_hp_norms", (2.0, cfg), twice), ("_grid_peaks", (64,), block_fs),
                     ("_hp_norms", (1.0, cfg), twice)]
        assert len(want) > 3  # the budget splits the draws
        assert calls == want

    def test_draws_are_pulled_at_most_one_ahead_of_the_block(self, monkeypatch):
        monkeypatch.setattr(norms, "_BLOCK_ELEMS", 10)
        draws = [(k, TaylorSeries([1.0] * (1 + k % 4))) for k in range(30)]
        ends = {draw[0]: block[-1][0] for block in norms._blocks(draws) for draw in block}
        assert len(set(ends.values())) > 3
        drawn = []

        def lazily():
            for draw in draws:
                drawn.append(draw[0])
                yield draw

        seen = []
        for (k, _), values in verify._measured(lazily(), lambda k, f: []):
            # the block holding draw k is measured before the draw after it
            assert drawn[-1] <= ends[k] + 1
            seen.append((k, values))
        assert seen == [(k, []) for k in range(30)]
