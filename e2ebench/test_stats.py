"""Tests for the benchmark's own arithmetic (e2ebench/stats.py).

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

MS = 1_000_000  # ns per ms


def chunk_table(due, release, handout, deliver, match=None, deliveries=None,
                request=None):
    delivered = [1 if d >= 0 else 0 for d in deliver]
    return {"due": due, "release": release, "handout": handout, "deliver": deliver,
            "request": request if request is not None else [-1] * len(due),
            "match": match if match is not None else delivered,
            "deliveries": deliveries if deliveries is not None else delivered}


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_summary_states_the_sample_count(self):
        summary = stats.summarize([float(v) for v in range(1, 201)])
        self.assertEqual(summary["samples"], 200)
        self.assertEqual(summary["tail_p"], 95.0)
        self.assertAlmostEqual(summary["p50"], 100.5)
        self.assertAlmostEqual(summary["tail"], stats.percentile(range(1, 201), 95))

    def test_too_few_samples_report_no_tail(self):
        summary = stats.summarize([1.0] * 5)
        self.assertEqual(summary["samples"], 5)
        self.assertIsNone(summary["tail_p"])
        self.assertIsNone(summary["tail"])

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(stats.percentile([1, 2, 3], 100), 3)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class OpenLoopLatencyTest(unittest.TestCase):
    def test_latency_counts_from_due_time_not_send_time(self):
        # Due every 50 ms and released on time, but the pipeline stalled:
        # each chunk waited longer before it was handed to the compressor.
        due = [0, 50 * MS, 100 * MS]
        handout = [0, 80 * MS, 160 * MS]
        deliver = [30 * MS, 110 * MS, 190 * MS]
        table = chunk_table(due, list(due), handout, deliver)
        self.assertEqual(stats.latencies_ms(table), [30.0, 60.0, 90.0])
        # Timing from hand-out would hide the stall: 30 ms each.
        self.assertEqual(stats.stage_ms(table, "handout", "deliver"), [30.0, 30.0, 30.0])

    def test_late_generator_shows_in_latency_and_lateness(self):
        due = [0, 50 * MS]
        release = [0, 70 * MS]  # the generator itself ran 20 ms late
        deliver = [30 * MS, 100 * MS]
        table = chunk_table(due, release, list(release), deliver)
        # 30 ms in the pipeline plus the generator's 20 ms.
        self.assertEqual(stats.latencies_ms(table), [30.0, 50.0])
        self.assertEqual(stats.lateness_ms(table), [0.0, 20.0])

    def test_closed_loop_counts_from_the_freed_client_slot(self):
        # Chunk 1's slot opened at 40 ms, but the busy compressor asked for
        # it only at 50 ms; the copy took 2 ms. The wait is the pipeline's
        # latency, not the generator's lateness.
        table = chunk_table(due=[0, 40 * MS], release=[2 * MS, 52 * MS],
                            handout=[2 * MS, 52 * MS], deliver=[30 * MS, 90 * MS],
                            request=[0, 50 * MS])
        self.assertEqual(stats.latencies_ms(table), [30.0, 50.0])
        self.assertEqual(stats.lateness_ms(table), [2.0, 2.0])

    def test_undelivered_chunks_have_no_latency(self):
        table = chunk_table([0, 50 * MS], [0, 50 * MS], [0, 50 * MS], [10 * MS, -1])
        self.assertEqual(stats.latencies_ms(table), [10.0])


class AccountingTest(unittest.TestCase):
    def test_lost_mismatched_and_duplicated_chunks_fail(self):
        table = chunk_table(
            due=[0, 1, 2, 3, 4], release=[0, 1, 2, 3, -1], handout=[0, 1, 2, 3, -1],
            deliver=[5, 6, -1, 8, -1], match=[1, 0, 0, 1, 0], deliveries=[1, 1, 0, 2, 0])
        # Chunk 4 was never released, so it was never attempted.
        self.assertEqual(stats.accounting(table, True), (4, 3))

    def test_failed_pipeline_status_is_a_failure(self):
        table = chunk_table([0], [0], [0], [5])
        self.assertEqual(stats.accounting(table, True), (1, 0))
        self.assertEqual(stats.accounting(table, False), (1, 1))


class ThroughputTest(unittest.TestCase):
    def test_steady_delivery(self):
        # 10 chunks of 125 MB (1 Gbit), one delivered every second.
        deliver = [(k + 1) * 1000 * MS for k in range(10)]
        table = chunk_table([0] * 10, [0] * 10, [0] * 10, deliver)
        self.assertAlmostEqual(stats.throughput_gbps(table, 125_000_000), 1.0)

    def test_one_stalled_window_does_not_decide_the_run(self):
        deliver = [(k + 1) * 1000 * MS for k in range(10)]
        deliver[9] += 8000 * MS  # the last chunk stalls for 8 s
        table = chunk_table([0] * 10, [0] * 10, [0] * 10, deliver)
        self.assertAlmostEqual(stats.throughput_gbps(table, 125_000_000), 1.0)

    def test_mismatched_chunks_do_not_count(self):
        table = chunk_table([0, 0], [0, 0], [0, 0], [1000 * MS, 2000 * MS], match=[1, 0])
        self.assertEqual(stats.delivered_raw_bytes(table, 10), 10)


class UnattributedCpuTest(unittest.TestCase):
    def test_layer_costs_are_subtracted_from_end_to_end(self):
        layers = {
            "frame_encode": [1e9, 1e9, 1e9],      # 1.0 s/GB
            "frame_decode": [2e9],                # 0.5 s/GB
            "harness_copy_compare": [4e9],        # 0.25 s/GB
            "msg": {"cpu_s": 0.5, "wire_bytes": 1e9},  # 0.5 s per wire GB
        }
        costs = stats.layer_cpu_s_per_gb(layers, wire_per_raw=0.5)
        self.assertAlmostEqual(costs["frame_encode"], 1.0)
        self.assertAlmostEqual(costs["frame_decode"], 0.5)
        self.assertAlmostEqual(costs["harness"], 0.25)
        self.assertAlmostEqual(costs["msg"], 0.25)
        self.assertAlmostEqual(stats.unattributed_cpu_s_per_gb(3.0, costs), 1.0)

    def test_end_to_end_cpu_per_gb(self):
        self.assertAlmostEqual(stats.cpu_s_per_gb(6.0, 2e9), 3.0)
        self.assertEqual(stats.cpu_s_per_gb(6.0, 0), 0.0)


class MemPeakTest(unittest.TestCase):
    def test_reset_high_water_mark_is_used_when_allowed(self):
        mem = {"hwm_reset": True, "rss_before_kb": 100_000, "hwm_kb": 120_000,
               "sampled_max_kb": -1}
        self.assertEqual(stats.rss_peak_mb(mem), (20.48, "vmhwm_reset"))

    def test_refused_clear_refs_falls_back_to_sampling(self):
        # Without the reset VmHWM still includes the input pool; it must not
        # be used.
        mem = {"hwm_reset": False, "rss_before_kb": 100_000, "hwm_kb": 900_000,
               "sampled_max_kb": 110_000}
        self.assertEqual(stats.rss_peak_mb(mem), (10.24, "rss_sampled_1ms"))

    def test_heap_peak_is_the_mean_interval_peak(self):
        # One overlap of buffers in five intervals moves the figure by a
        # fifth of its size, not to the overlap's level.
        mem = {"heap_interval_peak_bytes": [11_000_000, 11_000_000, 16_000_000,
                                            11_000_000, 11_000_000]}
        self.assertAlmostEqual(stats.heap_peak_mb(mem), 12.0)
        self.assertEqual(stats.heap_peak_mb({"heap_interval_peak_bytes": []}), 0.0)

    def test_peak_is_never_negative(self):
        mem = {"hwm_reset": False, "rss_before_kb": 100_000, "hwm_kb": 0,
               "sampled_max_kb": 99_000}
        self.assertEqual(stats.rss_peak_mb(mem)[0], 0.0)


class OverheadTest(unittest.TestCase):
    def test_direction_follows_the_metric(self):
        self.assertAlmostEqual(stats.overhead_pct(2.0, 1.9, "higher"), 5.0)
        self.assertAlmostEqual(stats.overhead_pct(50.0, 55.0, "lower"), 10.0)


if __name__ == "__main__":
    unittest.main()
