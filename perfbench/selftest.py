"""Tests of the benchmark itself: failures must reach ``failed``.

    python3 perfbench/selftest.py

Each test runs one or two passes of a few fast ops, so the whole file takes
seconds.  It is not named test_*.py, so the repository's pytest run does not
collect it.
"""

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the thread variables before NumPy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402
from ssm_resolve import cli  # noqa: E402


class BenchTests(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=HERE)
        cls.isola = workloads.build("reduced-path", 0,
                                    Path(cls.tmp.name) / "reduced")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def runner(self, labels):
        wl = self.isola
        sub = workloads.Workload(
            name=wl.name, seed=wl.seed, fixtures=wl.fixtures,
            systems=wl.systems, ops=[op for op in wl.ops if op.label in labels])
        return run.Runner(sub, cli, tracing, workloads.CheckFailed)

    def failed(self, runner):
        return [r for r in runner.records if not r.ok]

    def test_clean_ops_pass(self):
        r = self.runner({"isola:cubic", "beam:25"})
        r.run_pass(traced=False)
        self.assertEqual(self.failed(r), [])
        self.assertLess(max(rec.ref_err for rec in r.records), 1.0)

    def test_corrupted_reference_fails_the_op(self):
        refs = self.isola.refs  # the ops' checks read this dict
        original = refs["cubic"]
        refs["cubic"] = {"eps_m": [0.0030, 0.02]}
        try:
            r = self.runner({"isola:cubic"})
            r.run_pass(traced=False)
        finally:
            refs["cubic"] = original
        (bad,) = self.failed(r)
        self.assertIn("tolerance", bad.error)
        self.assertGreater(bad.ref_err, 1.0)

    def test_injected_exception_fails_the_op(self):
        original = cli.isola_report

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        cli.isola_report = boom
        try:
            r = self.runner({"isola:cubic", "beam:25"})
            r.run_pass(traced=False)
        finally:
            cli.isola_report = original
        (bad,) = self.failed(r)
        self.assertEqual(bad.label, "isola:cubic")
        self.assertIn("injected", bad.error)

    def test_changed_artifact_body_fails_the_repeat(self):
        r = self.runner({"isola:cubic"})
        r.run_pass(traced=False)
        original = cli.__version__
        cli.__version__ = original + "-changed"
        try:
            r.run_pass(traced=False)
        finally:
            cli.__version__ = original
        (bad,) = self.failed(r)
        self.assertEqual(bad.pass_index, 1)
        self.assertIn("differ", bad.error)

    def test_timestamp_line_is_not_part_of_the_body(self):
        a = '{\n  "timestamp": "2020-01-01T00:00:00Z",\n  "x": 1\n}\n'
        b = a.replace("2020", "2021")
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            pa, pb = Path(d, "a"), Path(d, "b")
            pa.write_text(a)
            pb.write_text(b)
            self.assertEqual(run.body_digest([pa], ""),
                             run.body_digest([pb], ""))
            pb.write_text(b.replace('"x": 1', '"x": 2'))
            self.assertNotEqual(run.body_digest([pa], ""),
                                run.body_digest([pb], ""))

    def test_traced_pass_counts_layers_and_restores_functions(self):
        original = cli.isola_report
        r = self.runner({"isola:cubic"})
        r.run_pass(traced=True)
        self.assertIs(cli.isola_report, original)
        m = tracing.layer_metrics(r.tracers[0], r.pass_ops[0], r.op_kind)
        self.assertEqual(m["cli.main.calls"], 1)
        self.assertEqual(m["isola_report.calls"], 1)
        self.assertEqual(m["classify_roots.calls"], 2)
        self.assertEqual(m["roots_of_a.calls"], 1)
        self.assertEqual(m["read_system.calls"], 1)
        self.assertEqual(m["compute_nonautonomous_ssm.calls"], 1)
        self.assertEqual(m["ssm_forced.trace_solves"], 0)
        for key, value in m.items():
            if key.endswith(".self_s"):
                self.assertGreaterEqual(value, 0.0, key)


if __name__ == "__main__":
    unittest.main()
