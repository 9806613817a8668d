"""Self-tests for the benchmark.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from pmlog import cli  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class WorkloadTests(unittest.TestCase):
    def test_same_seed_gives_same_invocations(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.invocations(name, 7), workloads.invocations(name, 7))

    def test_seed_drives_order_and_point_queries(self):
        a, b = workloads.invocations("scan", 7), workloads.invocations("scan", 8)
        self.assertNotEqual(a, b)
        for argvs in (a, b):
            self.assertEqual(len(argvs), len(workloads.FIXED["scan"]) + workloads.POINT_QUERIES)
            for argv in workloads.FIXED["scan"]:
                self.assertIn(argv, argvs)
        order = [workloads.invocations("interp", s) for s in range(6)]
        self.assertGreater(len({json.dumps(o) for o in order}), 1)

    def test_point_queries_stay_in_range(self):
        for argv in workloads.invocations("scan", 3):
            if argv[0] not in ("value", "bivalue"):
                continue
            opts = checks._options(argv)
            p = int(opts["p"])
            self.assertIn(p, workloads.POINT_PRIMES)
            self.assertTrue(1 <= int(opts["n"]) <= workloads.POINT_MAX_EXP)
            self.assertTrue(0 <= int(opts["a"]) < p ** int(opts["n"]))
            if argv[0] == "bivalue":
                self.assertTrue(1 <= int(opts["m"]) <= workloads.POINT_MAX_EXP)
                self.assertTrue(0 <= int(opts["b"]) < p ** int(opts["m"]))


class CheckTests(unittest.TestCase):
    def test_verify_report_with_a_flipped_case_is_rejected(self):
        argv = ["verify", "--suite", "amice", "--p", "3", "--max-n", "2"]
        code, out = run_cli(argv)
        self.assertIsNone(checks.check(argv, code, out))
        report = json.loads(out)

        flipped = copy.deepcopy(report)
        flipped["cases"][1]["pass"] = False
        self.assertIsNotNone(checks.check(argv, 0, json.dumps(flipped)))

        wrong = copy.deepcopy(report)
        wrong["cases"][1]["actual"] = "0"
        self.assertIsNotNone(checks.check(argv, 0, json.dumps(wrong)))

        short = copy.deepcopy(report)
        del short["cases"][0]
        self.assertIsNotNone(checks.check(argv, 0, json.dumps(short)))
        self.assertIsNotNone(checks.check(argv, 1, out))

    def test_logproduct_report_is_checked_by_valuation(self):
        argv = ["verify", "--suite", "logproduct", "--p", "2", "--tprec", "6", "--pprec", "4"]
        code, out = run_cli(argv)
        self.assertIsNone(checks.check(argv, code, out))
        report = json.loads(out)
        report["cases"][3]["actual"] = "v_p(residual) = -5"
        self.assertIsNotNone(checks.check(argv, 0, json.dumps(report)))

    def test_series_dump_with_one_changed_coefficient_is_rejected(self):
        (argv_text, reference), = checks.load_series_reference().items()
        argv = argv_text.split()
        code, out = run_cli(argv)
        self.assertIsNone(checks.check(argv, code, out))
        dump = json.loads(out)
        p = dump["p"]

        def changed(k: int, power: int, guarantee: int | None = None) -> dict:
            new = copy.deepcopy(dump)
            coeff = new["coeffs"][k]
            value = Fraction(int(coeff["num"]), int(coeff["den"])) + Fraction(p) ** power
            coeff["num"], coeff["den"] = str(value.numerator), str(value.denominator)
            if guarantee is not None:
                coeff["guaranteed_mod_p_pow"] = guarantee
            return new

        g = dump["coeffs"][5]["guaranteed_mod_p_pow"]
        self.assertIsNotNone(checks.series_dump_error(changed(5, g - 1), reference))
        # A change beyond the guaranteed digits keeps the meaning ...
        self.assertIsNone(checks.series_dump_error(changed(5, g), reference))
        # ... unless the dump also claims the changed digit.
        self.assertIsNotNone(checks.series_dump_error(changed(5, g, guarantee=g + 1), reference))

        weaker = copy.deepcopy(dump)
        weaker["coeffs"][5]["guaranteed_mod_p_pow"] -= 1
        self.assertIsNotNone(checks.series_dump_error(weaker, reference))

    def test_tables_and_point_queries_follow_the_digit_rule(self):
        for argv in (
            ["table", "--sign", "-", "--p", "3", "--n", "3"],
            ["table", "--sign", "+-", "--p", "2", "--n", "2", "--m", "3"],
        ):
            code, out = run_cli(argv)
            self.assertIsNone(checks.check(argv, code, out))
            lines = out.splitlines()
            row = lines[5].split(",")
            row[-2] = "1" if row[-2] == "0" else "0"
            lines[5] = ",".join(row)
            self.assertIsNotNone(checks.check(argv, 0, "\n".join(lines) + "\n"))
        for argv in (
            ["value", "--sign", "+", "--p", "5", "--n", "4", "--a", "380", "--oracle"],
            ["bivalue", "--sign", "-+", "--p", "3", "--n", "3", "--m", "2", "--a", "1",
             "--b", "0", "--oracle"],
        ):
            code, out = run_cli(argv)
            self.assertIsNone(checks.check(argv, code, out))
            doc = json.loads(out)
            doc["value"]["den"] = str(int(doc["value"]["den"]) * 3)
            self.assertIsNotNone(checks.check(argv, 0, json.dumps(doc)))

    def test_closed_form_examples(self):
        self.assertEqual(checks.closed_form("+", 3, 3, 3), Fraction(1, 9))
        self.assertEqual(checks.closed_form("+", 3, 3, 1), 0)
        self.assertEqual(checks.closed_form("-", 3, 3, 1), Fraction(1, 27))
        self.assertEqual(checks.closed_form("-", 3, 2, 3), 0)


class TracerTests(unittest.TestCase):
    def test_self_time_on_a_toy_call_tree(self):
        now = [0.0]
        tracer = layertrace.Tracer(clock=lambda: now[0])

        def tick(dt):
            now[0] += dt

        def leaf():
            tick(2)

        def mid():
            tick(1)
            tracer.call("leaf", leaf, (), {})
            tick(3)
            tracer.call("leaf", leaf, (), {})

        def root():
            tick(5)
            tracer.call("mid", mid, (), {}, observe=lambda *_: tick(100))
            tick(1)

        tracer.call("root", root, (), {})
        spans = tracer.spans
        self.assertEqual((spans["leaf"].calls, spans["leaf"].total_s, spans["leaf"].self_s), (2, 4, 4))
        self.assertEqual((spans["mid"].calls, spans["mid"].total_s, spans["mid"].self_s), (1, 8, 4))
        # The observer's 100 is bookkeeping: charged to neither mid nor root.
        self.assertEqual((spans["root"].total_s - 100, spans["root"].self_s), (14, 6))

    def test_a_raising_child_is_still_subtracted_from_its_parent(self):
        now = [0.0]
        tracer = layertrace.Tracer(clock=lambda: now[0])

        def failing():
            now[0] += 3
            raise ValueError

        def parent():
            now[0] += 1
            with self.assertRaises(ValueError):
                tracer.call("child", failing, (), {})

        tracer.call("parent", parent, (), {})
        self.assertEqual((tracer.spans["child"].calls, tracer.spans["child"].self_s), (1, 3))
        self.assertEqual((tracer.spans["parent"].total_s, tracer.spans["parent"].self_s), (4, 1))

    def _snapshot(self):
        state = {}
        for module in layertrace._pmlog_modules():
            for key, value in vars(module).items():
                state[(module.__name__, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        state[(module.__name__, key, attr)] = member
        return state

    def test_install_and_restore_leave_pmlog_as_found(self):
        before = self._snapshot()
        tracer = layertrace.Tracer()
        patches, missing = layertrace.install(tracer)
        self.assertEqual(missing, [])
        self.assertIsNot(cli.mu_value, before[("pmlog.cli", "mu_value")])
        self.assertIsNot(vars(cli.VerificationReport)["to_json_dict"],
                         before[("pmlog.report", "VerificationReport", "to_json_dict")])
        argv = ["verify", "--suite", "biamice", "--p", "2", "--max-n", "2"]
        try:
            traced = run_cli(argv)
        finally:
            layertrace.restore(patches)
        after = self._snapshot()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(before[k] is after[k] for k in before))
        self.assertEqual(run_cli(argv), traced)
        self.assertGreater(tracer.spans["bivariate.biamice_check"].calls, 0)

    def test_a_target_pmlog_lacks_is_reported_not_fatal(self):
        spans = layertrace.SPANS
        layertrace.SPANS = spans + (("digits.gone", "digits", "no_such_function", None),
                                    ("report.gone", "report", "Case.no_such_method", None))
        try:
            patches, missing = layertrace.install(layertrace.Tracer())
            layertrace.restore(patches)
        finally:
            layertrace.SPANS = spans
        self.assertEqual(missing, ["digits.no_such_function", "report.Case.no_such_method"])

    def test_counts_repeat_across_traced_runs(self):
        argv = ["verify", "--suite", "amice", "--p", "2", "--max-n", "3"]
        counts = []
        for _ in range(2):
            tracer = layertrace.Tracer()
            patches, _ = layertrace.install(tracer)
            try:
                run_cli(argv)
            finally:
                layertrace.restore(patches)
            values = layertrace.metrics(tracer)
            counts.append({k: v for k, v in values.items() if not k.endswith(".self_s")})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["distribution.integrate.calls"], 0)


class CompareTests(unittest.TestCase):
    METRIC = {"name": "pass_s.tail", "unit": "s", "better": "lower", "bound": 0.1}

    def test_verdicts(self):
        parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
        faster = [v * 0.5 for v in parent]
        slower = [v * 1.3 for v in parent]
        noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
        self.assertEqual(compare.verdict(parent, faster, 10, 10, self.METRIC), "gain")
        self.assertEqual(compare.verdict(parent, slower, 0, 10, self.METRIC), "regression")
        self.assertEqual(compare.verdict(parent, parent, 0, 10, self.METRIC), "within bound")
        self.assertEqual(compare.verdict(noisy, noisy, 0, 10, self.METRIC), "unresolved")


if __name__ == "__main__":
    unittest.main()
