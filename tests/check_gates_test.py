#!/usr/bin/env python3
"""Tests bench/check_gates.py on synthetic bench output; runs no bench."""
import contextlib
import io
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.dont_write_bytecode = True  # keep bench/ free of __pycache__
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench"))
import check_gates  # noqa: E402

BOUNDS = check_gates.load_bounds("""
# bench gate op bound [armed_by]
demo   ratio    <   1.0
demo   fewer    <   more
demo   speedup  >=  2     gated
demo   strict   <   0.5   !relaxed
demo   loose    <   0.8   relaxed
other  ratio    ==  7
""")

PASSING = """noise GATE-like text
GATE ratio 0.5
GATE fewer 1
GATE more 2
GATE speedup 2
GATE gated 1
GATE relaxed 0
GATE strict 0.4
GATE loose 0.9
"""


def verdicts(output, bench="demo"):
    return [v for v, _ in check_gates.check(bench, output, BOUNDS)]


def replace(output, line, new):
    assert line in output
    return output.replace(line, new)


class CheckGatesTest(unittest.TestCase):
    def test_pass(self):
        self.assertEqual(verdicts(PASSING),
                         ["PASS", "PASS", "PASS", "PASS", "DISABLED"])
        self.assertTrue(check_gates.report(
            check_gates.check("demo", PASSING, BOUNDS)))

    def test_fail_on_a_number_bound(self):
        out = replace(PASSING, "GATE ratio 0.5", "GATE ratio 1.0")
        self.assertEqual(verdicts(out)[0], "FAIL")
        self.assertFalse(check_gates.report(
            check_gates.check("demo", out, BOUNDS)))
        out = replace(PASSING, "GATE ratio 0.5", "GATE ratio null")
        self.assertEqual(verdicts(out)[0], "FAIL")

    def test_fail_on_a_gate_bound(self):
        out = replace(PASSING, "GATE more 2", "GATE more 1")
        self.assertEqual(verdicts(out)[1], "FAIL")

    def test_missing_gate_fails(self):
        out = replace(PASSING, "GATE ratio 0.5\n", "")
        self.assertEqual(verdicts(out)[0], "FAIL")
        out = replace(PASSING, "GATE more 2\n", "")
        self.assertEqual(verdicts(out)[1], "FAIL")

    def test_missing_arming_gate_fails(self):
        out = replace(PASSING, "GATE gated 1\n", "")
        self.assertEqual(verdicts(out)[2], "FAIL")

    def test_disarmed_gate_is_disabled_even_when_out_of_bounds(self):
        out = replace(PASSING, "GATE gated 1", "GATE gated 0")
        out = replace(out, "GATE speedup 2", "GATE speedup 1")
        self.assertEqual(verdicts(out)[2], "DISABLED")
        self.assertTrue(check_gates.report(
            check_gates.check("demo", out, BOUNDS)))

    def test_negated_arming_gate_swaps_the_armed_bound(self):
        out = replace(PASSING, "GATE relaxed 0", "GATE relaxed 1")
        self.assertEqual(verdicts(out)[3:], ["DISABLED", "FAIL"])

    def test_only_the_named_bench_is_checked(self):
        self.assertEqual(verdicts("GATE ratio 7\n", bench="other"), ["PASS"])

    def test_unknown_bench_and_malformed_bounds_are_errors(self):
        with self.assertRaises(ValueError):
            check_gates.check("nosuch", PASSING, BOUNDS)
        with self.assertRaises(ValueError):
            check_gates.load_bounds("demo ratio ~ 1\n")
        with self.assertRaises(ValueError):
            check_gates.load_bounds("demo ratio <\n")

    def test_a_missing_bench_binary_fails_without_running(self):
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as build_dir, \
                contextlib.redirect_stdout(out), \
                mock.patch.object(check_gates.subprocess, "run",
                                  side_effect=AssertionError("ran a bench")):
            ok = check_gates.run_all(build_dir, BOUNDS)
        self.assertFalse(ok)
        self.assertIn("FAIL     demo: not built", out.getvalue())
        self.assertIn("FAIL     other: not built", out.getvalue())

    def test_run_passes_the_scale_and_a_per_scale_data_dir(self):
        seen = []

        def fake_run(cmd, env, **kwargs):
            seen.append((os.path.basename(cmd[0]), env["X100IR_BENCH_SCALE"],
                         env["X100IR_BENCH_DIR"]))
            return mock.Mock(returncode=0, stdout=PASSING if "demo" in cmd[0]
                             else "GATE ratio 7\n")

        for scale, data in (("tiny", "bench_data"),
                            ("default", "bench_data_default")):
            seen.clear()
            with tempfile.TemporaryDirectory() as build_dir, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    mock.patch.dict(os.environ), \
                    mock.patch.object(check_gates.subprocess, "run",
                                      side_effect=fake_run):
                os.environ.pop("X100IR_BENCH_DIR", None)
                for bench in ("demo", "other"):
                    open(os.path.join(build_dir, "bench_" + bench), "w").close()
                self.assertTrue(check_gates.run_all(build_dir, BOUNDS, scale))
                want = os.path.join(build_dir, data)
            self.assertEqual(seen, [("bench_demo", scale, want),
                                    ("bench_other", scale, want)])

    def test_scale_argument(self):
        calls = []
        with mock.patch.object(check_gates, "run_all",
                               side_effect=lambda *a: calls.append(a) or True):
            self.assertEqual(check_gates.main(["x", "--run", "b"]), 0)
            self.assertEqual(check_gates.main(
                ["x", "--run", "b", "--scale", "default"]), 0)
            with self.assertRaises(SystemExit):
                check_gates.main(["x", "--run", "b", "--scale", "huge"])
            with self.assertRaises(SystemExit):
                check_gates.main(["x", "--run", "b", "--scale"])
        self.assertEqual([(c[0], c[2]) for c in calls],
                         [("b", "tiny"), ("b", "default")])

    def test_committed_bounds_parse(self):
        with open(check_gates.BOUNDS) as f:
            bounds = check_gates.load_bounds(f.read())
        self.assertGreater(len(bounds), 0)


if __name__ == "__main__":
    unittest.main()
