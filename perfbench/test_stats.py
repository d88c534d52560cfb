"""Tests of the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_ten_samples(self):
        values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertEqual(stats.percentile(values, 50), 5)
        self.assertEqual(stats.percentile(values, 90), 9)
        self.assertEqual(stats.percentile(values, 100), 10)
        self.assertEqual(stats.percentile(values, 0), 1)

    def test_p90_needs_a_hundred_samples_for_ten_beyond(self):
        values = list(range(1, 101))
        p90 = stats.percentile(values, 90)
        self.assertEqual(p90, 90)
        self.assertEqual(sum(1 for v in values if v > p90), 10)

    def test_rank_rounds_up(self):
        # ceil(0.9 * 11) = 10: the 10th smallest of 11.
        self.assertEqual(stats.percentile(list(range(11)), 90), 9)
        self.assertEqual(stats.percentile([42.0], 90), 42.0)

    def test_empty_sample_has_no_percentile(self):
        self.assertIsNone(stats.percentile([], 50))


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        spans = {
            1: (0, 0.0, 10.0),
            2: (1, 1.0, 4.0),
            3: (2, 2.0, 3.0),
            4: (1, 5.0, 6.0),
        }
        self_t = stats.self_times(spans)
        self.assertAlmostEqual(self_t[1], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(self_t[2], 3.0 - 1.0)
        self.assertAlmostEqual(self_t[3], 1.0)
        self.assertAlmostEqual(self_t[4], 1.0)

    def test_overlapping_children_are_counted_once(self):
        # Two parallel children covering [1, 7] between them.
        spans = {1: (0, 0.0, 10.0), 2: (1, 1.0, 5.0), 3: (1, 3.0, 7.0)}
        self.assertAlmostEqual(stats.self_times(spans)[1], 10.0 - 6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = {1: (0, 0.0, 2.0), 2: (1, 1.0, 5.0)}
        self.assertAlmostEqual(stats.self_times(spans)[1], 1.0)

    def test_union_length(self):
        self.assertAlmostEqual(stats.union_length([(0, 1), (0.5, 2), (3, 4), (4, 4)]), 3.0)
        self.assertEqual(stats.union_length([]), 0.0)


class WallShareTest(unittest.TestCase):
    @staticmethod
    def layer(names):
        return lambda sid: names[sid]

    def test_shares_add_up_to_the_root_wall_time(self):
        spans = {
            1: (0, 0.0, 10.0),   # root
            2: (1, 1.0, 5.0),    # core, thread A
            3: (1, 3.0, 7.0),    # core, thread B
            4: (3, 4.0, 5.0),    # context inside 3
        }
        names = {1: "bench", 2: "core", 3: "core", 4: "context"}
        shares = stats.wall_shares(spans, self.layer(names))
        self.assertAlmostEqual(sum(shares.values()), 10.0)
        # [1,3] core alone, [3,4] two cores, [4,5] core + context split,
        # [5,7] core alone: core 2 + 1 + 0.5 + 2, context 0.5.
        self.assertAlmostEqual(shares["core"], 5.5)
        self.assertAlmostEqual(shares["context"], 0.5)
        self.assertAlmostEqual(shares["bench"], 4.0)

    def test_time_outside_roots_is_not_counted(self):
        spans = {1: (0, 0.0, 1.0), 2: (1, 0.5, 3.0)}  # child outlives its root
        shares = stats.wall_shares(spans, self.layer({1: "bench", 2: "core"}))
        self.assertAlmostEqual(sum(shares.values()), 1.0)
        self.assertAlmostEqual(shares["core"], 0.5)


class SloTest(unittest.TestCase):
    def test_failed_and_refused_operations_are_misses(self):
        ops = [
            (True, 10.0, 5.0),
            (True, 10.0, 5.0),
            (False, 1.0, 0.0),    # failed, though fast
            (False, 0.0, 0.0),    # refused at admission
        ]
        self.assertAlmostEqual(stats.slo_ok_frac(ops, 100.0, 100.0), 0.5)

    def test_each_limit_is_inclusive_and_both_apply(self):
        ops = [(True, 100.0, 50.0), (True, 100.1, 1.0), (True, 1.0, 50.1)]
        self.assertAlmostEqual(stats.slo_ok_frac(ops, 100.0, 50.0), 1.0 / 3.0)

    def test_no_operations_has_no_fraction(self):
        self.assertIsNone(stats.slo_ok_frac([], 1.0, 1.0))


if __name__ == "__main__":
    unittest.main()
