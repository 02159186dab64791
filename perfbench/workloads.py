"""The benchmark's workloads, and the layer census of traced runs.

``WORKLOADS`` lists the two end-to-end workloads, king-large and cli.  The
catalog-sweep and invariants rounds run only inside the census of a traced
run; see ``perfbench/README.md`` for why they are not end-to-end workloads.

A workload is built as ``Workload(seed, call)``; building it is the set-up.
``round(r)`` then returns the ops of round ``r``.  Rounds keep the op mix
fixed, so every run sees the same latency classes in the same proportions
and only the random details change with the seed.  Every call into a
quiverstab module whose time a per-layer metric reports goes through
``call(name, fn, *args)``; see ``tracing.py``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from quiverstab import catalog as cat
from quiverstab import helix as hx
from quiverstab import invariants as inv
from quiverstab import points as pts
from quiverstab import quiver as qv
from quiverstab import stability as st

import oracle
from oracle import expect

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One unit of timed work.

    ``run`` is the timed part.  ``check`` runs afterwards, outside the timed
    region; it raises ``oracle.Mismatch`` on a wrong output and may return a
    dict of counts for the trace."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def rational(rng: random.Random, zero_share: float = 0.0) -> Fraction:
    if rng.random() < zero_share:
        return Fraction(0)
    v = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return -v if rng.random() < 0.5 else v


def random_character(rng: random.Random, n: int) -> st.Character:
    chi = [rng.randint(-3, 3) for _ in range(n - 1)]
    return st.Character(tuple(chi + [-sum(chi)]))


def quiet(call, name, fn, *args):
    """Call a stability routine the way the CLI does, with the
    relations-violated warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return call(name, fn, *args)


def relation_terms(q) -> int:
    """Terms a full relation check evaluates (computed, not traced)."""
    return sum(len(rel.terms) for rel in q.relations)


class Point:
    """A tautological point and the oracle facts shared by its ops."""

    def __init__(self, entry, cox, fiber, p):
        self.entry, self.cox, self.fiber = entry, cox, fiber
        self.q, self.p = entry.quiver, p
        self._supports = None
        self._checked = False

    @property
    def supports(self) -> oracle.Supports:
        if self._supports is None:
            self._supports = oracle.Supports(self.q, self.p)
        return self._supports

    def check_relations(self, reported=True):
        """The point has the right values, satisfies its relations, and
        ``satisfies_relations`` said so."""
        if not self._checked:
            values = dict(self.p.values)
            expect(
                values == oracle.tautological_values(self.entry, self.cox, self.fiber),
                "tautological_point gives other arrow values",
            )
            expect(oracle.relations_hold(self.q, values), "a tautological point violates its relations")
            self._checked = True
        expect(reported, "satisfies_relations says a tautological point violates its relations")


# ---------------------------------------------------------------------------
# king-large
# ---------------------------------------------------------------------------


class KingLarge:
    """Relation-free quivers with n = 12..18; one op is one ``stability_report``
    on a fresh (quiver, point, character) triple.  A round holds one quiver of
    each size in ``NODES``; the family of ``NODES[k]`` in round r is
    ``FAMILIES[(r + k) % 3]``."""

    # One quiver of each size from 12 to 16, three of size 17 and five of
    # size 18.  The median op is then the middle of the size-17 reports
    # (about 0.5 s) and the p75 tail a size-18 one (about 1 s).  Ops that long
    # average over the second-scale swings of the measuring machine between
    # its two speeds; a 0.1 s op meets one speed or the other, and a median
    # of such ops jumps between the two.
    NODES = (12, 13, 14, 15, 16, 17, 17, 17, 18, 18, 18, 18, 18)
    TAIL_PERCENTILE = 75
    SETUP_PER_ROUND = 5  # a round takes about 6 s
    FAMILIES = ("chain", "dag", "spiral")
    ZERO_SHARE = 0.3  # share of arrows that are zero at the point
    PARALLEL = (2, 3)  # arrows per level of a chain
    DAG_LAYER = (1, 3)  # nodes per layer of a layered DAG
    DAG_EDGE, DAG_SKIP = 0.7, 0.2  # arrow probability to the next layer, and two layers down
    SPIRAL_ADDED = (1, 3)  # weight-1 arrows added by extend_spiral

    def __init__(self, seed: int, call):
        self.rng = random.Random(seed)
        self.call = call

    def round(self, r: int) -> list[Op]:
        families = [self.FAMILIES[(r + k) % len(self.FAMILIES)] for k in range(len(self.NODES))]
        return [self._report_op(getattr(self, "_" + f)(n)) for f, n in zip(families, self.NODES)]

    def _chain(self, n):
        arrows = []
        for j in range(n, 1, -1):
            arrows += [qv.Arrow(f"a{j}_{k}", j, j - 1) for k in range(self.rng.choice(self.PARALLEL))]
        return qv.Quiver(n=n, arrows=tuple(arrows))

    def _dag(self, n):
        rng = self.rng
        layers, node = [], 1
        while node <= n:
            size = min(rng.randint(*self.DAG_LAYER), n - node + 1)
            layers.append(range(node, node + size))
            node += size
        arrows = []
        for lower, upper in zip(layers, layers[1:]):
            for j in upper:
                targets = [i for i in lower if rng.random() < self.DAG_EDGE] or [rng.choice(lower)]
                arrows += [qv.Arrow(f"a{j}_{i}", j, i) for i in targets]
        for lower, upper in zip(layers, layers[2:]):
            arrows += [
                qv.Arrow(f"s{j}_{i}", j, i)
                for j in upper
                for i in lower
                if rng.random() < self.DAG_SKIP
            ]
        return qv.Quiver(n=n, arrows=tuple(arrows))

    def _spiral(self, n):
        return hx.extend_spiral(self._chain(n), self.rng.randint(*self.SPIRAL_ADDED))

    def _report_op(self, q) -> Op:
        rng = self.rng
        values = {a.id: rational(rng, self.ZERO_SHARE) for a in q.arrows}
        p = pts.RepresentationPoint.for_quiver(q, values)
        chi = random_character(rng, q.n)

        def run():
            return self.call("stability.report", st.stability_report, q, p, chi)

        def check(report):
            supports = oracle.Supports(q, p)
            supports.check_verdict(chi, report.semistable, report.stable, report.violating_support)
            return supports.counts()

        return Op("report", run, check)


# ---------------------------------------------------------------------------
# catalog-sweep
# ---------------------------------------------------------------------------


class CatalogSweep:
    """Catalog entries with tautological points; per point, ``CHECKS`` check
    ops, one supports op and one cone op, the in-process forms of the CLI
    commands.  A round draws one point per entry.  ``subrep_supports`` runs
    with ``warn=False``, so that ``stability.supports`` times the listing
    alone; the relation check is timed on its own as
    ``points.relation_check``."""

    ENTRIES = ("p2", "f1", "p1xp1", "p2-helix", "p1xp1-spiral", "pn(3)", "pn(4)")
    CHECKS = 3
    CHARACTERS = 6  # characters per entry, from 0/1 weight matrices
    WEIGHT_DENSITY = 0.3
    FIBER_ZERO_SHARE = 0.25  # as sample_cox_values' default for a coordinate

    def __init__(self, seed: int, call):
        self.rng = random.Random(seed)
        self.call = call
        cat.get_entry.cache_clear()
        self.entries = [call("catalog.build", cat.get_entry, name) for name in self.ENTRIES]
        self.characters = {
            e.name: [self._character(e.quiver) for _ in range(self.CHARACTERS)]
            for e in self.entries
        }

    def _character(self, q) -> st.Character:
        m = st.WeightMatrix(
            tuple(
                tuple(int(i != j and self.rng.random() < self.WEIGHT_DENSITY) for j in range(q.n))
                for i in range(q.n)
            )
        )
        if q.gg is not None:  # total-space entries carry no gg table to certify against
            self.call("stability.certify", st.certify_great, q, m)
        return st.character_from_weights(m)

    def round(self, r: int) -> list[Op]:
        ops = []
        for e in self.entries:
            cox = self.call("catalog.sample", cat.sample_cox_values, e, self.rng)
            fiber = rational(self.rng, self.FIBER_ZERO_SHARE) if e.fiber else None
            p = self.call("catalog.taut_point", cat.tautological_point, e, cox, fiber)
            point = Point(e, cox, fiber, p)
            for chi in self.rng.sample(self.characters[e.name], self.CHECKS):
                ops.append(self._check_op(point, chi))
            ops += [self._supports_op(point), self._cone_op(point)]
        return ops

    def _check_op(self, point: Point, chi) -> Op:
        q, p, call = point.q, point.p, self.call

        def run():
            ok = call("points.relation_check", pts.satisfies_relations, q, p)
            return ok, quiet(call, "stability.report", st.stability_report, q, p, chi)

        def check(result):
            ok, report = result
            point.check_relations(ok)
            point.supports.check_verdict(chi, report.semistable, report.stable, report.violating_support)
            return {"points.relation_terms": relation_terms(q), **point.supports.counts()}

        return Op("check", run, check)

    def _supports_op(self, point: Point) -> Op:
        q, p, call = point.q, point.p, self.call

        def run():
            ok = call("points.relation_check", pts.satisfies_relations, q, p)
            family = call("stability.supports", st.subrep_supports, q, p, warn=False)
            return ok, family.sorted_supports()

        def check(result):
            ok, supports = result
            point.check_relations(ok)
            point.supports.check_family(supports)
            return {"points.relation_terms": relation_terms(q), **point.supports.counts()}

        return Op("supports", run, check)

    def _cone_op(self, point: Point) -> Op:
        q, p, call = point.q, point.p, self.call

        def run():
            family = call("stability.supports", st.subrep_supports, q, p, warn=False)
            return call("stability.cone", st.stability_cone, family)

        def check(cone):
            point.check_relations()
            point.supports.check_cone(cone.inequalities)
            return point.supports.counts()

        return Op("cone", run, check)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


class Invariants:
    """Per total-space entry and round: one ``separation_experiment`` op at
    ``max_len = 2n``, then ``TORUS_OPS[entry]`` torus-invariance ops, each
    ``torus_act`` plus ``invariant_vector`` on both points."""

    ENTRIES = ("p2-helix", "p1xp1-spiral")
    PAIRS = 10
    # Torus ops per round and entry.  The p1xp1-spiral ones are the fastest
    # ops, and two of them put the median in the middle of the p2-helix ones,
    # away from the gap between the two latency classes.
    TORUS_OPS = {"p2-helix": 8, "p1xp1-spiral": 2}

    def __init__(self, seed: int, call):
        self.rng = random.Random(seed)
        self.call = call
        cat.get_entry.cache_clear()
        self.entries = [call("catalog.build", cat.get_entry, name) for name in self.ENTRIES]
        self.cycles = {
            e.name: call("invariants.enumerate", inv.enumerate_cycles, e.quiver, 2 * e.quiver.n)
            for e in self.entries
        }
        self.cycle_ids = {name: [c.arrow_ids() for c in cs] for name, cs in self.cycles.items()}

    def round(self, r: int) -> list[Op]:
        ops = []
        for e in self.entries:
            ops.append(self._separate_op(e, self.rng.randrange(2**31)))
            for _ in range(self.TORUS_OPS[e.name]):
                cox = self.call("catalog.sample", cat.sample_cox_values, e, self.rng)
                fiber = rational(self.rng)
                p = self.call("catalog.taut_point", cat.tautological_point, e, cox, fiber)
                g = pts.TorusElement(tuple(rational(self.rng) for _ in range(e.quiver.n)))
                ops.append(self._torus_op(e, Point(e, cox, fiber, p), g))
        return ops

    def _separate_op(self, e, seed: int) -> Op:
        def run():
            max_len = 2 * e.quiver.n
            return self.call("invariants.separate", inv.separation_experiment, e, self.PAIRS, max_len, seed)

        def check(report):
            oracle.check_separation(e, report.to_dict(), self.PAIRS, self.cycle_ids[e.name])
            return {"invariants.cycles": report.cycles}

        return Op("separate", run, check)

    def _torus_op(self, e, point: Point, g) -> Op:
        q, p, call, cycles = e.quiver, point.p, self.call, self.cycles[e.name]

        def run():
            moved = call("points.torus_act", pts.torus_act, q, p, g)
            before = call("invariants.vector", inv.invariant_vector, cycles, p)
            return moved, before, call("invariants.vector", inv.invariant_vector, cycles, moved)

        def check(result):
            moved, before, after = result
            point.check_relations()
            oracle.check_torus(q, p, g, moved)
            expect(before == after, "invariant_vector changed under torus_act")
            expect(
                before == oracle.cycle_values(self.cycle_ids[e.name], dict(p.values)),
                "invariant_vector disagrees with the cycle products",
            )

        return Op("torus", run, check)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """One interpreter; ``PYTHONPATH`` already points at the checkout's src."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return run_python(["-m", "quiverstab.cli", *args])


def cli_output(proc, as_json=True):
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    expect(proc.returncode == 0, f"exit {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout) if as_json else proc.stdout


def coordinates(rng: random.Random, k: int) -> list[Fraction]:
    """Coordinates with some zeros, never all zero (the irrelevant locus of P^n)."""
    while True:
        xs = [rational(rng, 0.25) for _ in range(k)]
        if any(xs):
            return xs


def colon(xs) -> str:
    return ":".join(str(x) for x in xs)


class Cli:
    """The README's commands, one process each, with seeded arguments; a
    round runs each command once.  The in-process answers they are compared
    with are built here, in the benchmark's own process."""

    SEPARATE_PAIRS = 100
    CYCLES_MAX_LEN = 3
    TAIL_PERCENTILE = 90
    SETUP_PER_ROUND = 2  # a round takes about 3 s

    def __init__(self, seed: int, call):
        self.rng = random.Random(seed)
        self.call = call
        self.entries = {name: cat.get_entry(name) for name in ("p2", "f1", "p2-helix", "pn(4)")}
        helix_q = self.entries["p2-helix"].quiver
        self.helix_cycles = [
            c.arrow_ids() for c in inv.enumerate_cycles(helix_q, self.CYCLES_MAX_LEN)
        ]

    def _op(self, layer: str, args: list[str], check, as_json=True) -> Op:
        def run():
            return self.call(f"cli.{layer}", run_cli, args)

        return Op(layer, run, lambda proc: check(cli_output(proc, as_json)))

    def round(self, r: int) -> list[Op]:
        rng = self.rng
        return [
            self._op("catalog", ["catalog", "--format", "json"], self._check_listing),
            self._op("catalog", ["catalog", "f1"], self._check_export, as_json=False),
            self._check_op("p2"),
            self._check_op("p2-helix"),
            self._check_op("pn(4)"),
            self._certify_op(),
            self._character_op(),
            self._family_op("supports"),
            self._family_op("cone"),
            self._op(
                "cycles",
                ["cycles", "--example", "p2-helix", "--max-len", str(self.CYCLES_MAX_LEN), "--format", "json"],
                self._check_cycles,
            ),
            self._op(
                "separate",
                [
                    "separate", "--example", "p2-helix", "--pairs", str(self.SEPARATE_PAIRS),
                    "--max-len", str(self.CYCLES_MAX_LEN), "--seed", str(rng.randrange(2**31)),
                    "--format", "json",
                ],
                lambda out: oracle.check_separation(
                    self.entries["p2-helix"], out, self.SEPARATE_PAIRS, self.helix_cycles
                ),
            ),
            self._op(
                "extend",
                ["extend", "--example", "p2", "--added-dim", "3", "--labels", "x0,x1,x2"],
                self._check_extend,
                as_json=False,
            ),
        ]

    def _check_listing(self, out):
        names = [row["name"] for row in out["entries"]]
        expect(names == cat.entry_names(), f"catalog lists {names}")

    def _check_export(self, text):
        exported = qv.quiver_from_json(text)
        expect(exported.arrows == self.entries["f1"].quiver.arrows, "catalog f1 arrows differ")

    def _check_extend(self, text):
        extended = qv.quiver_from_json(text)
        expect(extended.arrows == self.entries["p2-helix"].quiver.arrows, "extend gives other arrows")

    def _check_cycles(self, out):
        oracle.check_closed_walks(self.entries["p2-helix"].quiver, out["cycles"], self.CYCLES_MAX_LEN)

    def _taut(self, name):
        """A random tautological point of an entry: its CLI flags and in-process form."""
        e = self.entries[name]
        xs = coordinates(self.rng, len(e.cox_variables))
        flags = ["--example", name, f"--taut={colon(xs)}"]
        fiber = None
        if e.fiber:
            fiber = rational(self.rng, 0.25)
            flags.append(f"--fiber={fiber}")
        return flags, Point(e, xs, fiber, cat.tautological_point(e, xs, fiber))

    def _check_op(self, name) -> Op:
        flags, point = self._taut(name)
        chi = random_character(self.rng, point.q.n)

        def check(out):
            point.check_relations(out["satisfies_relations"])
            point.supports.check_verdict(chi, out["semistable"], out["stable"], out["violating_support"])

        chi_flag = "--chi=" + ",".join(str(c) for c in chi.chi)
        return self._op("check", ["check", *flags, chi_flag, "--format", "json"], check)

    def _family_op(self, command) -> Op:
        flags, point = self._taut("p2")

        def check(out):
            if command == "supports":
                point.supports.check_family(out["supports"])
            else:
                point.supports.check_cone(out["inequalities"])

        return self._op(command, [command, *flags, "--format", "json"], check)

    def _weights(self, n, count):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        chosen = self.rng.sample(pairs, count)
        m = st.WeightMatrix.from_entries(n, {pair: 1 for pair in chosen})
        return m, [arg for i, j in chosen for arg in ("--m", f"1@{i},{j}")]

    def _certify_op(self) -> Op:
        q = self.entries["f1"].quiver
        m, flags = self._weights(q.n, self.rng.randint(1, 2))

        def check(out):
            great = st.certify_great(q, m)
            expect(out["chi"] == list(st.character_from_weights(m).chi), "certify chi differs")
            expect(out["good_certified"] == great.good.certified, "good verdict differs")
            expect(out["great_certified"] == great.certified, "great verdict differs")

        return self._op("certify", ["certify", "--example", "f1", *flags, "--format", "json"], check)

    def _character_op(self) -> Op:
        m, flags = self._weights(3, 1)

        def check(out):
            expect(out["chi"] == list(hx.theorem43_character(m).chi), "spiral character differs")

        return self._op("character", ["character", *flags, "--n", "3", "--spiral", "--format", "json"], check)


# ---------------------------------------------------------------------------
# layer census
# ---------------------------------------------------------------------------


def census(seed: int, call, workload) -> list[Op]:
    """Ops that reach every layer a per-layer metric names.

    A traced run appends them after the workload's own ops.  A layer metric
    comes from the workload's spans when the workload calls that layer, and
    from the census otherwise, so every traced run reports every metric.  The
    census also makes the calls whose definition only it fits: cold
    ``derive_binomial_relations`` on each catalog quiver, ``extend_spiral``
    with labels on the two chains, and a bare ``import quiverstab.cli``."""

    def build_op(name):
        def run():
            cat.get_entry.cache_clear()
            return call("catalog.build", cat.get_entry, name)

        return Op("build", run, lambda entry: expect(entry.name == name, "wrong entry"))

    def derive_op(q):
        def check(relations):
            expect(len(relations) > 0, "no relations derived")
            return {"quiver.relations": len(relations)}

        return Op("derive", lambda: call("quiver.derive", qv.derive_binomial_relations, q), check)

    def extend_op(chain, labels, name):
        want = cat.get_entry(name).quiver.arrows

        def run():
            return call("helix.extend", hx.extend_spiral, chain, len(labels), labels=labels)

        return Op("extend", run, lambda q: expect(q.arrows == want, f"{name} arrows differ"))

    spiral = cat.get_entry("p1xp1-spiral").quiver
    spiral_chain = qv.Quiver(
        n=spiral.n,
        arrows=tuple(a for a in spiral.arrows if a.weight == 0),
        pic=spiral.pic,
        canonical=spiral.canonical,
    )
    ops = [build_op(name) for name in CatalogSweep.ENTRIES]
    ops += [derive_op(cat.get_entry(name).quiver) for name in CatalogSweep.ENTRIES]
    ops += [
        extend_op(cat.get_entry("p2").quiver, ["x0", "x1", "x2"], "p2-helix"),
        extend_op(spiral_chain, ["y1", "y2"], "p1xp1-spiral"),
        Op(
            "import",
            lambda: call("cli.import", run_python, ["-c", "import quiverstab.cli"]),
            lambda proc: cli_output(proc, as_json=False),
        ),
    ]
    # king-large is left out: its only layer call, stability_report, is also
    # made by a catalog-sweep round, in a twentieth of the time.
    for other in (CatalogSweep, Invariants, Cli):
        if other is not workload:
            ops += other(seed, call).round(0)
    return ops


WORKLOADS = {"king-large": KingLarge, "cli": Cli}
