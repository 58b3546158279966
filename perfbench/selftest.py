"""Tests of the benchmark's oracle and of its output checks.

    python3 perfbench/selftest.py

The oracle is tested on known values. Each output check is shown to pass on
the program's real output and to fail on a corrupted copy: one perturbed
coefficient of F, a wrong certificate base, a value off by 1e-6.
"""

import gzip
import json
import os
import random
import sys
import unittest
from dataclasses import replace

from mpmath import mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracle  # noqa: E402


class Recorder:
    """The part of a benchmark run that the checks use."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self.problems = []

    def require(self, ok, what):
        if not ok:
            self.problems.append(what)


def load_F7() -> dict:
    with gzip.open(os.path.join(HERE, "data", "F7.json.gz"), "rt", encoding="utf-8") as fh:
        return json.load(fh)


class OracleKnownValues(unittest.TestCase):
    def setUp(self):
        self._dps = mp.dps
        mp.dps = 40

    def tearDown(self):
        mp.dps = self._dps

    def test_j_at_i_rho_and_163(self):
        self.assertLess(abs(oracle.j_invariant(1j) - 1728), 1e-30)
        rho = mp.mpc(0.5, mp.sqrt(3) / 2)
        self.assertLess(abs(oracle.j_invariant(rho)), 1e-30)
        tau = mp.mpc(0.5, mp.sqrt(163) / 2)
        self.assertLess(abs(oracle.j_invariant(tau) + 640320**3), 1e-15)

    def test_half_period_values(self):
        # e1 + e2 + e3 = 0, and the Legendre lambda is theta2^4 / theta3^4
        tau = mp.mpc(0.2, 1.1)
        lat = oracle.Lattice(tau)
        e1, e2, e3 = lat.wp(0.5), lat.wp(tau / 2), lat.wp((1 + tau) / 2)
        self.assertLess(abs(e1 + e2 + e3), 1e-30)
        q = lat.nome
        legendre = oracle.mpmath.jtheta(2, 0, q) ** 4 / oracle.mpmath.jtheta(3, 0, q) ** 4
        self.assertLess(abs((e3 - e2) / (e1 - e2) - legendre), 1e-30)

    def test_wp_is_even_and_periodic(self):
        tau = mp.mpc(-0.3, 0.9)
        lat = oracle.Lattice(tau)
        z = mp.mpc(0.11, 0.23)
        self.assertLess(abs(lat.wp(z) - lat.wp(-z)), 1e-25)
        self.assertLess(abs(lat.wp(z) - lat.wp(z + 1 + tau)), 1e-25)

    def test_group_order_is_d_N(self):
        for n, d in ((3, 12), (4, 24), (5, 60), (7, 168), (8, 192), (9, 324)):
            self.assertEqual(oracle.degree(n), d)
            self.assertEqual(len(oracle.psl2_mod(n)), d)

    def test_split_prime(self):
        p, w = oracle.split_prime(7, 2**61)
        self.assertEqual(p % 7, 1)
        self.assertTrue(oracle.is_probable_prime(p))
        self.assertEqual(pow(w, 7, p), 1)
        self.assertNotEqual(w, 1)

    def test_equal_groups(self):
        self.assertEqual(oracle.equal_groups([1, 2, 1 + 1e-14, 2], 1e-12, 1e-9), [0, 1, 0, 1])
        with self.assertRaises(ValueError):
            oracle.equal_groups([1, 1 + 1e-10], 1e-12, 1e-9)


class CheckOfF(unittest.TestCase):
    def test_committed_F7_passes_and_a_perturbed_coefficient_fails(self):
        obj = load_F7()
        run = Recorder()
        checks.check_F(run, oracle.BivariateF(obj), 7, "F(7)")
        self.assertEqual(run.problems, [])
        # one numerator of one coefficient of P_84 raised by 1
        entry = next(e for e in obj["P"] if e["i"] == 84)
        num, den = entry["poly"][0]["coords"][0]
        entry["poly"][0]["coords"][0] = [str(int(num) + 1), den]
        run = Recorder()
        checks.check_F(run, oracle.BivariateF(obj), 7, "perturbed F(7)")
        self.assertTrue(any("relative residual" in p for p in run.problems), run.problems)

    def test_wrong_degree_fails(self):
        obj = load_F7()
        obj["dN"] = 167
        run = Recorder()
        checks.check_F(run, oracle.BivariateF(obj), 7, "F(7)")
        self.assertTrue(run.problems)


class CheckOfCertificates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from genlambda import minpoly

        cls.F = minpoly.build_F(5, threads=1)
        cls.y_values = [0, 1728] + [y for _, y in checks.CM_POINTS]
        cls.outputs = {
            "check_root_identity": minpoly.check_root_identity(cls.F),
            "verify_theorem1": minpoly.verify_theorem1(cls.F),
            "q0_structure": minpoly.q0_structure(cls.F),
        }
        for y in cls.y_values:
            cls.outputs[f"specialize y={y}"] = minpoly.specialize_and_factor(cls.F, y)
        cls.oracle_F = oracle.BivariateF(cls.F.to_json_obj())

    def certify(self, outputs):
        run = Recorder()
        checks.check_certificates(run, self.oracle_F, outputs, self.y_values)
        return run.problems

    def test_real_certificates_pass(self):
        self.assertEqual(self.certify(self.outputs), [])

    def test_wrong_cube_base_fails(self):
        from genlambda.cyclotomic import CycNum

        cert = self.outputs["specialize y=0"]
        base = list(cert.base)
        base[3] = base[3] + CycNum.one(5)
        outputs = dict(self.outputs)
        outputs["specialize y=0"] = replace(cert, base=tuple(base))
        problems = self.certify(outputs)
        self.assertTrue(any("H^3 != F(X, 0)" in p for p in problems), problems)

    def test_wrong_square_base_fails(self):
        cert = self.outputs["specialize y=1728"]
        outputs = dict(self.outputs)
        wrong = tuple(-c for c in cert.base[:-1]) + cert.base[-1:]
        outputs["specialize y=1728"] = replace(cert, base=wrong)
        problems = self.certify(outputs)
        self.assertTrue(any("H^2 != F(X, 1728)" in p for p in problems), problems)

    def test_failed_certificate_fails(self):
        y = checks.CM_POINTS[0][1]
        cert = self.outputs[f"specialize y={y}"]
        outputs = dict(self.outputs)
        outputs[f"specialize y={y}"] = replace(cert, ok=False)
        self.assertTrue(self.certify(outputs))


class CheckOfValues(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from genlambda import cmval, modgroup

        cls.points = [("i", 1j), ("(1+sqrt(-3))/2", complex(0.5, 3**0.5 / 2)),
                      ("random", complex(0.21, 0.93))]
        cls.mats = {n: [r.matrix for r in modgroup.transversal(n)] for n in (3, 5)}
        cls.values = {(label, n): [cmval.eval_lambda_numeric(m, n, tau) for m in mats]
                      for label, tau in cls.points for n, mats in cls.mats.items()}

    def check(self, values):
        run = Recorder()
        checks.check_values(run, self.points, self.mats, values)
        return run.problems

    def test_real_values_pass(self):
        self.assertEqual(self.check(self.values), [])

    def test_value_off_by_1e6_fails(self):
        for key in (("random", 5), ("i", 3)):
            values = dict(self.values)
            row = list(values[key])
            row[7] = row[7] * (1 + 1e-6)
            values[key] = row
            problems = self.check(values)
            self.assertTrue(any("off the oracle" in p for p in problems), problems)

    def test_unit_circle_value_off_fails(self):
        from genlambda import cmval, modgroup

        def evaluate(n, tau):
            return cmval.eval_lambda_numeric(modgroup.SL2Mat.identity(n), n, tau)

        angles = {5: [1.1, 1.9]}
        reports = {5: cmval.unit_circle_check(5, angles[5])}
        run = Recorder()
        checks.check_unit_circle(run, evaluate, angles, reports)
        self.assertEqual(run.problems, [])
        run = Recorder()
        checks.check_unit_circle(run, lambda n, tau: evaluate(n, tau) * (1 + 1e-6),
                                 angles, reports)
        self.assertTrue(run.problems)


if __name__ == "__main__":
    unittest.main()
