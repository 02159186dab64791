"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All numerical comparisons are exact (rational arithmetic, integer
characters); the only tolerances are the per-criterion wall-clock budgets
stated in each test.  Run with ``pytest -v tests/test_acceptance.py`` (add
``-s`` or ``-rA`` to see the lines on a green run).

Criterion 8 is an exclusion note, not a test: moduli-space construction
(GIT quotients themselves, derived equivalences, wall-crossing geometry)
is out of scope; the package certifies characters and tests points, it
does not build quotient varieties.
"""

import random
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction

from quiverstab.catalog import get_entry, sample_cox_values, tautological_point
from quiverstab.helix import (
    check_prop41_degrees,
    e_chi_degree,
    extend_spiral,
    theorem43_character,
)
from quiverstab.invariants import enumerate_cycles, invariant_vector, separation_experiment
from quiverstab.points import (
    RepresentationPoint,
    TorusElement,
    satisfies_relations,
    torus_act,
    vanishing_pattern,
)
from quiverstab.quiver import Arrow, Quiver, derive_binomial_relations, grading_certificate
from quiverstab.stability import (
    Character,
    WeightMatrix,
    certify_great,
    character_from_weights,
    stability_report,
    subrep_supports,
    supports_from_generators,
)


@contextmanager
def criterion(number: int, title: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"[FAIL] criterion {number}: {title} ({elapsed:.2f}s over {budget}s budget)")
        raise AssertionError(f"criterion {number} exceeded {budget}s: {elapsed:.2f}s")
    timing = f", {elapsed:.2f}s < {budget}s" if budget is not None else ""
    print(f"[PASS] criterion {number}: {title}{timing}")


def _random_character(n, rng):
    chi = [rng.randint(-3, 3) for _ in range(n - 1)]
    chi.append(-sum(chi))
    return Character(tuple(chi))


def _random_point(q, rng, zero_prob=0.3):
    values = {}
    for a in q.arrows:
        if rng.random() < zero_prob:
            values[a.id] = 0
        else:
            v = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            values[a.id] = -v if rng.random() < 0.5 else v
    return RepresentationPoint.for_quiver(q, values)


def test_criterion_1_f1_certified_character_and_stability():
    with criterion(1, "blow-up collection: great character, its degree, 1000 stable points", 5.0):
        f1 = get_entry("f1")
        m = WeightMatrix.from_entries(4, {(1, 4): 1, (2, 3): 1})
        assert certify_great(f1.quiver, m).certified
        chi = character_from_weights(m)
        assert chi.chi == (-1, -1, 1, 1)
        assert e_chi_degree(chi, f1.quiver.pic) == (3, -1)
        rng = random.Random(2024)
        for _ in range(1000):
            p = tautological_point(f1, sample_cox_values(f1, rng))
            assert stability_report(f1.quiver, p, chi).stable


def test_criterion_2_p2_relations_certificates_and_degrees():
    with criterion(2, "projective-plane chain: relations, certificate, spiral degrees", 1.0):
        p2 = get_entry("p2")
        rels = derive_binomial_relations(p2.quiver)
        assert len(rels) == 3
        for rel in rels:
            (c1, p1), (c2, p2_path) = rel.terms
            assert c1 == -c2
            assert len(p1) == len(p2_path) == 2
        m13 = WeightMatrix.from_entries(3, {(1, 3): 1})
        assert certify_great(p2.quiver, m13).certified
        assert character_from_weights(m13).chi == (-1, 0, 1)
        m12 = WeightMatrix.from_entries(3, {(1, 2): 1})
        chi = theorem43_character(m12)
        assert chi.chi == (-2, 1, 1)
        assert e_chi_degree(chi, p2.quiver.pic) == (3,)
        assert check_prop41_degrees(p2.quiver, m12).consistent
        assert check_prop41_degrees(
            p2.quiver, WeightMatrix.from_entries(3, {(2, 3): 1})
        ).consistent
        assert not check_prop41_degrees(
            p2.quiver, WeightMatrix.from_entries(3, {(1, 2): 2})
        ).consistent


def test_criterion_3_support_oracle_agreement():
    with criterion(3, "brute-force and generator support families agree on all verdicts", 10.0):
        rng = random.Random(3)
        for name in ("p2", "f1", "p1xp1", "p2-helix", "p1xp1-spiral"):
            q = get_entry(name).quiver
            characters = [_random_character(q.n, rng) for _ in range(50)]
            for _ in range(200):
                p = _random_point(q, rng)
                brute = subrep_supports(q, p, warn=False)
                generated = supports_from_generators(q, p)
                assert brute == generated
                for k, chi in enumerate(characters):
                    semistable = all(chi.of_subset(s) <= 0 for s in brute.proper())
                    stable = all(chi.of_subset(s) < 0 for s in generated.proper())
                    assert semistable == all(
                        chi.of_subset(s) <= 0 for s in generated.proper()
                    )
                    if k < 3:  # library entry points re-enumerate; spot-check them
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            report = stability_report(q, p, chi)
                            assert report.semistable == semistable
                            assert report.stable == stable


def test_criterion_4_trivial_character():
    with criterion(4, "trivial character: always semistable, stable only without proper supports"):
        rng = random.Random(4)
        for name in ("p2", "f1", "p1xp1"):
            q = get_entry(name).quiver
            zero = Character((0,) * q.n)
            for _ in range(50):
                p = _random_point(q, rng)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    report = stability_report(q, p, zero)
                    assert report.semistable
                    fam = subrep_supports(q, p, warn=False)
                    assert report.stable == (not fam.proper())


def test_criterion_5_torus_invariance():
    with criterion(5, "500 torus moves preserve relations, vanishing, verdicts, invariants"):
        rng = random.Random(5)
        for name, rounds in (("f1", 250), ("p2-helix", 250)):
            q = get_entry(name).quiver
            cycles = enumerate_cycles(q, q.n)
            for _ in range(rounds):
                p = _random_point(q, rng)
                g = TorusElement(
                    [
                        Fraction(rng.randint(1, 12), rng.randint(1, 12))
                        * (1 if rng.random() < 0.5 else -1)
                        for _ in range(q.n)
                    ]
                )
                acted = torus_act(q, p, g)
                assert satisfies_relations(q, p) == satisfies_relations(q, acted)
                assert vanishing_pattern(p) == vanishing_pattern(acted)
                chi = _random_character(q.n, rng)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    before = stability_report(q, p, chi)
                    after = stability_report(q, acted, chi)
                    assert (before.semistable, before.stable) == (after.semistable, after.stable)
                assert invariant_vector(cycles, p) == invariant_vector(cycles, acted)


def test_criterion_6_generic_separation():
    with criterion(6, "cycle invariants separate 100 generic point pairs on the helix", 5.0):
        report = separation_experiment(get_entry("p2-helix"), samples=100, max_len=3, seed=6)
        for c in report.collisions:
            print(f"  collision: {c}")
        assert report.pairs == 100
        assert report.fraction == 1


def test_criterion_7_grading_certificates():
    with criterion(7, "grading holds for the catalog and spiral extensions; bad arrows witnessed"):
        for name in ("p2", "f1", "p1xp1", "p2-helix", "p1xp1-spiral", "pn(3)", "pn(4)"):
            assert grading_certificate(get_entry(name).quiver).passed
        for dim in (1, 2, 3):
            base = get_entry(f"pn({dim})").quiver
            assert grading_certificate(extend_spiral(base, dim + 1)).passed
        bad = Arrow("back", 1, 3)
        broken = Quiver(n=3, arrows=get_entry("p2").quiver.arrows + (bad,))
        cert = grading_certificate(broken)
        assert not cert.passed
        assert cert.witness == bad
