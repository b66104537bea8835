"""The four workloads: one operation each, and the checks on its output.

Every operation is a call sequence into public oddcox functions made
through ``Tracer.call``, so a traced run sees each call as a span.  A
workload yields its inputs one cycle at a time; a cycle is the fixed mix
that ``ops_per_s`` is measured at.  ``check`` returns a problem string or
None and runs outside the timed operation.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time

from oddcox import autkit, cli, core, oracle, pathgroups, units, words
from oddcox.errors import NoMergeWitness, NotAutomorphism, NotSurjective

import inputs
from growth import ball_size

# sha256 of the first cycle's reduce_random outputs at the default seed
REDUCE_DIGEST = "4d3f3e5839481e2a093da204fe6582e1b1a2b44a60c3d7a4b641ce45941a2181"


def _shortlex_sorted(ws) -> bool:
    keys = [(len(w), w) for w in ws]
    return all(a < b for a, b in zip(keys, keys[1:]))


class Workload:
    tail_pct: float  # the fixed percentile reported as op_tail_ms

    def __init__(self, seed: int, systems: dict, tracer):
        self.seed = seed
        self.systems = systems
        self.tracer = tracer
        self.call = tracer.call

    def kind(self, item) -> str:
        return item[0]

    def elements(self, item, out) -> int:
        """Distinct group elements the operation enumerated (ball_growth)."""
        return 0

    def finish(self) -> list:
        """Run-level checks after the timed phases: (operation index, problem)."""
        return []


class ReduceRandom(Workload):
    """Random and adversarial words through ``reduce_word``."""

    tail_pct = 99.0

    def __init__(self, seed, systems, tracer):
        super().__init__(seed, systems, tracer)
        self.ranks = {name: s.rank for name, s in systems.items()}
        self.first_outputs = []
        self.first_cycle_size = None
        self.fixed_points = set()

    def cycle(self, n: int) -> list:
        items = inputs.reduce_cycle(self.seed, n, self.ranks)
        if self.first_cycle_size is None:
            self.first_cycle_size = len(items)
        return items

    def op(self, item):
        _, name, word, _ = item
        return self.call("words.reduce_word", words.reduce_word, self.systems[name], word)

    def check(self, item, out):
        family, name, word, expected = item
        if len(out) > len(word) or (len(word) - len(out)) % 2:
            return f"{family}: output length {len(out)} for input length {len(word)}"
        if expected is not None and out != expected:
            return f"{family}: output differs from the known canonical form"
        if family == "path" and pathgroups.pi_image(6, out) != pathgroups.pi_image(6, word):
            return "path: symmetric-group image changed"
        if len(self.first_outputs) < self.first_cycle_size:
            self.first_outputs.append(out)
        # adversarial outputs repeat and cost a full orbit search: check each once
        if expected is None or out not in self.fixed_points:
            if words.reduce_word(self.systems[name], out) != out:
                return f"{family}: output is not a fixed point of reduce_word"
            if expected is not None:
                self.fixed_points.add(out)
        return None

    def finish(self):
        if self.seed != inputs.DEFAULT_SEED:
            return []
        if first_cycle_digest(self.first_outputs) != REDUCE_DIGEST:
            return [(0, "first-cycle outputs do not match the recorded digest")]
        return []


def first_cycle_digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


class AutStar(Workload):
    """Build, verify, factorize, invert and witness star endomorphisms."""

    tail_pct = 97.0

    def cycle(self, n: int) -> list:
        return inputs.aut_cycle(self.seed, n)

    def op(self, item):
        name, x, perm, cvec, bad = item
        star = self.systems[name]
        call = self.call
        if bad is None:
            theta = call("autkit.theta_product", autkit.theta_product, star, cvec)
        else:
            leaf, k = bad
            exps = list(cvec)
            exps[leaf - 2] = k
            images = [(1,)] + [
                (1,) + words.alternating(1, i, 2) * e for i, e in zip(star.leaves, exps)
            ]
            theta = call("autkit.make_endo", autkit.make_endo, star.system, images)
        graph = call("autkit.graph_auto", autkit.graph_auto, star, perm)
        inner = call("autkit.inner_auto", autkit.inner_auto, star, x)
        e = call("autkit.compose", autkit.compose, inner, call("autkit.compose", autkit.compose, graph, theta))
        verified = call("autkit.verify_endo", autkit.verify_endo, star, e)
        try:
            f = call("autkit.factorize", autkit.factorize, star, e)
        except NotAutomorphism as exc:
            f = exc
        try:
            inverse = call("autkit.try_invert", autkit.try_invert, star, e)
        except NotSurjective as exc:
            inverse = exc
            self.tracer.add("autkit.not_surjective", 1)
        witness = None
        if isinstance(f, autkit.AutFactorization) and not autkit.is_inner(star, f):
            try:
                witness = call("autkit.normality_witness", autkit.normality_witness, star, f)
            except NoMergeWitness as exc:
                witness = exc
        return e, verified, f, inverse, witness

    def check(self, item, out):
        name, _, perm, cvec, bad = item
        star = self.systems[name]
        e, verified, f, inverse, witness = out
        if not verified:
            return "verify_endo rejected a composed endomorphism"
        if bad is not None:
            if not isinstance(f, NotAutomorphism) or not isinstance(inverse, NotSurjective):
                return "non-surjective endomorphism was not refused"
            return None
        if not isinstance(f, autkit.AutFactorization):
            return f"factorize refused an automorphism: {f}"
        minus = tuple((t - k) % t for t, k in zip(star.t, cvec))
        if f.perm != perm or f.cvec not in (cvec, minus):
            return "factorize did not recover the constructed permutation and cvec"
        if not isinstance(inverse, autkit.Endomorphism):
            return f"try_invert refused an automorphism: {inverse}"
        composed = autkit.compose(e, inverse)
        if composed.images != tuple((g,) for g in star.system.generators):
            return "compose(e, try_invert(e)) is not the identity"
        if isinstance(witness, NoMergeWitness):
            if _witness_expected(star, f):
                return "normality_witness found no merge where one separates"
        elif witness is not None and witness.evidence == ():
            return "normality witness has trivial evidence"
        return None


def _witness_expected(star, f) -> bool:
    """A moved leaf, or two leaves with a common factor d whose exponents
    differ mod d, always gives a separating merge quotient."""
    if not f.perm_is_identity():
        return True
    for i in star.leaves:
        for j in range(i + 1, star.rank + 1):
            d = math.gcd(star.t_of(i), star.t_of(j))
            if d > 1 and f.cvec[i - 2] % d != f.cvec[j - 2] % d:
                return True
    return False


class BallGrowth(Workload):
    """Cayley balls and ball searches: the write side of the word cache."""

    tail_pct = 75.0

    def __init__(self, seed, systems, tracer):
        super().__init__(seed, systems, tracer)
        self.labels = {
            name: [m for _, _, m in s.finite_pairs()] for name, s in systems.items()
        }

    def cycle(self, n: int) -> list:
        return inputs.ball_cycle(self.seed, n)

    def kind(self, item) -> str:
        return item[0] if item[0] != "ball" else f"ball_{item[1].rstrip('0123456789')}"

    def op(self, item):
        kind, name, radius, search = item
        sys_ = self.systems[name]
        if kind == "ball":
            return self.call("oracle.cayley_ball", oracle.cayley_ball, sys_, radius)
        a, b = search
        return self.call("oracle.ball_search", oracle.ball_search, sys_, kind, a, b, radius)

    def elements(self, item, out) -> int:
        return len(out.elements) if item[0] == "ball" else 0

    def check(self, item, out):
        kind, name, radius, search = item
        sys_ = self.systems[name]
        if kind == "ball":
            return self._check_ball(name, radius, sys_, out.elements)
        a, b = search
        target = pathgroups.pi_image(6, b if b is not None else a)
        if not _shortlex_sorted(out) or any(len(x) > radius for x in out):
            return f"{kind}: hits are not distinct ShortLex words within the radius"
        for x in out:
            if pathgroups.pi_image(6, x + a + tuple(reversed(x))) != target:
                return f"{kind}: hit fails the symmetric-group image check"
        if kind == "centralizer" and not {(), a} <= set(out):
            return "centralizer: identity or the generator itself is missing"
        if kind == "conjugator" and not out:
            return "conjugator: conjugate generators gave no hit"
        return None

    def _check_ball(self, name, radius, sys_, elements):
        expected = ball_size(sys_.rank, self.labels[name], radius)
        if len(elements) != expected:
            return f"ball {name} r{radius}: {len(elements)} elements, growth series says {expected}"
        if not _shortlex_sorted(elements) or len(elements[-1]) > radius:
            return f"ball {name} r{radius}: elements are not sorted ShortLex within the radius"
        layers = [0] * (radius + 1)
        for w in elements:
            layers[len(w)] += 1
        candidates = sum(layers[:-1]) * sys_.rank
        tracer = self.tracer
        tracer.add("oracle.ball.new", len(elements) - 1)
        tracer.add("oracle.ball.candidates", candidates)
        tracer.add("oracle.ball.enumerated", len(elements))
        if name == "path" and radius == 8 and tracer.last is not None:
            tracer.fact("oracle.ball.elements", len(elements))
            tracer.fact("words.cache.path_r8_misses", tracer.last["misses"])
        return None


def partitions(n: int) -> int:
    """Number of partitions of n: the class count of S_n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


class CliStructure(Workload):
    """Each command in a fresh ``python -m oddcox.cli`` process."""

    tail_pct = 70.0

    def __init__(self, seed, systems, tracer):
        super().__init__(seed, systems, tracer)
        _, self.commands = inputs.cli_files(seed)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        self.runs: dict = {}  # argv -> [(op index, exit code, stdout, wall seconds)]
        self.count = 0

    def cycle(self, n: int) -> list:
        return self.commands

    def kind(self, item) -> str:
        return "cli"

    def op(self, item):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "oddcox.cli", *item],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        wall = time.perf_counter() - start
        self.runs.setdefault(tuple(item), []).append((self.count, proc.returncode, proc.stdout, wall))
        self.count += 1
        return proc

    def check(self, item, out):
        if out.returncode != 0:
            return f"{' '.join(item)}: exit code {out.returncode}"
        if item[0] == "twisted":
            expected = f"classes: {partitions(int(item[2]))}"
            if out.stdout.strip() != expected:
                return f"{' '.join(item)}: expected {expected}"
        return None

    def finish(self):
        """Compare every process's stdout with the same argv run in-process."""
        problems = []
        startup = []
        tracer = self.tracer
        for argv, runs in self.runs.items():
            if tracer.enabled:
                tracer.op_id = len(tracer.spans)
                tracer.begin("op.probe")
            start = time.perf_counter()
            result = self.call("cli.execute", cli.execute, list(argv))
            in_process = time.perf_counter() - start
            if tracer.enabled:
                self._probe_layers(argv)
                tracer.end()
                tracer.op_id = None
            lines = "".join(line + "\n" for line in result.lines)
            for index, code, stdout, _ in runs:
                if code != result.exit_code or stdout != lines:
                    problems.append((index, f"{' '.join(argv)}: stdout differs from cli.execute"))
            walls = sorted(run[3] for run in runs)
            startup.append(walls[len(walls) // 2] - in_process)
        startup.sort()
        tracer.fact("cli.startup_s", startup[len(startup) // 2])
        return problems

    def _probe_layers(self, argv):
        """Call the layer behind a structure command directly, for its span."""
        call = self.call
        if argv[0] in ("out", "split"):
            star = core.star_form(self.systems[argv[1][: -len(".json")]])
            if argv[0] == "out":
                call("units.out_descriptor", units.out_descriptor, star)
            else:
                call("units.split_inn_c", units.split_inn_c, star)
        elif argv[0] == "rs-kernel":
            sys_ = self.systems[argv[1][: -len(".json")]]
            images = pathgroups.symmetric_images(sys_.rank + 1)
            pres = call("pathgroups.rs_kernel", pathgroups.rs_kernel, sys_, images)
            if sys_.rank == 5:
                self.tracer.fact("pathgroups.rs_kernel.relators_out", len(pres.relators))
        elif argv[0] == "twisted":
            n = int(argv[2])
            elements, table = call(
                "pathgroups.symmetric_group_table", pathgroups.symmetric_group_table, n
            )
            target = pathgroups.parse_cycles(argv[4], n)
            g = next(i for i, el in enumerate(elements) if el.images == target.images)
            aut = pathgroups.conjugation_map(table, g)
            call("pathgroups.twisted_count", pathgroups.twisted_count, table, aut)


WORKLOADS = {
    "reduce_random": ReduceRandom,
    "aut_star": AutStar,
    "ball_growth": BallGrowth,
    "cli_structure": CliStructure,
}
