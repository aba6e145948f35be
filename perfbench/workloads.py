"""The three benchmark workloads: inputs from a seed, ops, and answer checks.

Each workload builds and validates all of its inputs in the constructor,
then hands out ops in fixed rounds.  An op is a zero-argument callable that
calls public ``bht`` entry points and returns their answers; ``record`` keeps
what the checks need (called between ops, outside the timed region) and
``check`` re-derives every answer independently after the timed loop.

Library functions are always looked up as module attributes at call time, so
that the wrappers installed by a traced run see every call.
"""

import contextlib
import hashlib
import io
import json
import random
import statistics
from collections import Counter, defaultdict
from pathlib import Path

import bht
import oracle
from bht import cli, element, sampling, space, textio, witness

SPACES = {
    "n=1 k=2": space.SpaceSpec(1, (2,), 1),
    "n=1 k=3": space.SpaceSpec(1, (3,), 1),
    "n=2 k=2,2": space.SpaceSpec(2, (2, 2), 1),
    "n=2 k=2,3": space.SpaceSpec(2, (2, 3), 1),
}


def _spread(values) -> dict:
    values = sorted(values)
    return {"n": len(values), "min": values[0], "median": statistics.median(values), "max": values[-1]}


class Workload:
    """Common bookkeeping: failures per op key and ops issued per key."""

    # Fixed per workload: the highest of 50/75/90/95/99 that has at least ten
    # samples beyond it at this commit's run length.  Keeping it fixed keeps
    # latency_tail_ms comparable when a faster commit runs more ops.
    tail_percentile: int

    def __init__(self):
        self.failures: dict = {}
        self.issued: Counter = Counter()

    def fail(self, key, message: str):
        self.failures.setdefault(key, message)

    def failed_ops(self) -> int:
        return sum(self.issued[key] for key in self.failures)

    def op_size(self, key):
        """Input size an op belongs to, for the per-size trace metrics."""
        return None

    def write_fixtures(self):
        """Put input files on disk, after the timed set-up."""

    def close(self):
        pass


class GroupLaw(Workload):
    """Small random tables from ``random_element(factors=2, splits=2)``.

    Per op: associativity of a triple, f f^-1 = 1, and the word problem on a
    mostly-unequal pair (f, g), whose answer the point-action oracle checks.
    """

    name = "group_law"
    tail_percentile = 99

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        per_space = 4 if tiny else 100
        rng = random.Random(seed)
        self.triples = []
        for i in range(per_space * len(SPACES)):
            sp = list(SPACES.values())[i % len(SPACES)]
            triple = tuple(sampling.random_element(sp, rng, factors=2, splits=2) for _ in range(3))
            for t in triple:
                element.TableElement(sp, t.cells)
            self.triples.append(triple)
        self.answers: dict = {}

    def round(self, r: int):
        return [(i, self._op(*t)) for i, t in enumerate(self.triples)]

    @staticmethod
    def _op(f, g, h):
        def op():
            E = element
            assoc = E.equals(E.compose(E.compose(f, g), h), E.compose(f, E.compose(g, h)))
            inverse = E.is_identity(E.compose(f, E.invert(f)))
            return assoc, inverse, E.equals(f, g)
        return op

    def record(self, key, result):
        self.issued[key] += 1
        first = self.answers.setdefault(key, result)
        if result != first:
            self.fail(key, "answers changed between repeats: %r vs %r" % (first, result))

    def check(self):
        for key, (assoc, inverse, same) in self.answers.items():
            f, g, _ = self.triples[key]
            if not assoc:
                self.fail(key, "(fg)h != f(gh)")
            if not inverse:
                self.fail(key, "f f^-1 is not the identity")
            if same != oracle.agree(f, g):
                self.fail(key, "equals(f, g) = %s disagrees with the point oracle" % same)

    def properties(self) -> dict:
        cells = defaultdict(list)
        for triple in self.triples:
            cells[str(triple[0].space)].extend(len(t.cells) for t in triple)
        equal = sum(1 + same for _, _, same in self.answers.values())
        return {
            "cells_per_table": {sp: _spread(v) for sp, v in cells.items()},
            "equals_pairs_equal_fraction": equal / (2 * max(1, len(self.answers))),
        }


class LargeTables(Workload):
    """Permutation tables from ``random_permutation_element``: the scaling
    series at 40, 80 and 160 splits over ``n=1 k=2``, plus ``n=2 k=2,3`` at
    40 splits.

    Per op: rebuild the table from its cells (validation), f g, g^-1, the
    equal-pair identity (f g) g^-1 = f, and the closed support of f g.
    Two-dimensional products vary widely in size from pair to pair (cells
    of f g: coefficient of variation 0.3-0.4; op time about 0.7), so only
    40 splits is run there, with a fresh pair on most visits; at 80 and 160
    splits the few pairs a run can afford would make its figures depend on
    the seed more than on the code.  A round issues 2, 3 and 2 ops at 40, 80
    and 160 splits and 2 two-dimensional ops, so the median falls among the
    80-split ops and the tail inside the 160-split ones, not on a boundary
    between sizes.
    """

    name = "large_tables"
    tail_percentile = 95
    GROWTH_SPACE = "n=1 k=2"
    # (space, splits, ops per round, distinct pairs)
    SERIES = (
        ("n=1 k=2", 40, 2, 6),
        ("n=1 k=2", 80, 3, 9),
        ("n=1 k=2", 160, 2, 6),
        ("n=2 k=2,3", 40, 2, 48),
    )
    TINY_SERIES = (
        ("n=1 k=2", 4, 1, 1),
        ("n=1 k=2", 8, 1, 1),
        ("n=1 k=2", 16, 1, 2),
        ("n=2 k=2,3", 4, 1, 2),
    )

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.series = self.TINY_SERIES if tiny else self.SERIES
        rng = random.Random(seed)
        self.pool = []  # (space name, splits, f, g)
        self.first = []  # pool index of each series' first pair
        for sp_name, splits, _, distinct in self.series:
            self.first.append(len(self.pool))
            for _ in range(distinct):
                f = sampling.random_permutation_element(SPACES[sp_name], rng, splits)
                g = sampling.random_permutation_element(SPACES[sp_name], rng, splits)
                self.pool.append((sp_name, splits, f, g))
        self.results: dict = {}

    def round(self, r: int):
        ops = []
        for first, (_, _, count, distinct) in zip(self.first, self.series):
            for j in range(count):
                key = first + (r * count + j) % distinct
                ops.append((key, self._op(*self.pool[key][2:])))
        return ops

    def op_size(self, key):
        sp_name, splits, _, _ = self.pool[key]
        return splits if sp_name == self.GROWTH_SPACE else None

    @staticmethod
    def _op(f, g):
        def op():
            E = element
            rebuilt = E.TableElement(f.space, f.cells)
            fg = E.compose(f, g)
            back = E.equals(E.compose(fg, E.invert(g)), f)
            support = E.closed_support(fg)
            return rebuilt.cells == f.cells, fg, back, support
        return op

    def record(self, key, result):
        self.issued[key] += 1
        rebuilt, fg, back, support = result
        first = self.results.setdefault(key, result)
        if (rebuilt, fg.cells, back, support) != (first[0], first[1].cells, first[2], first[3]):
            self.fail(key, "answers changed between repeats")

    def check(self):
        for key, (rebuilt, fg, back, _) in self.results.items():
            _, splits, f, g = self.pool[key]
            if not rebuilt:
                self.fail(key, "rebuilding the table changed its cells")
            if not back:
                self.fail(key, "(f g) g^-1 != f at %d splits" % splits)
            rng = random.Random("%d/%d" % (self.seed, key))
            if not oracle.compose_agrees(f, g, fg, 64, rng):
                self.fail(key, "f g disagrees with f after g on sampled words")

    def properties(self) -> dict:
        cells = defaultdict(list)
        out_cells = defaultdict(list)
        for key, (sp_name, splits, f, g) in enumerate(self.pool):
            label = "%s splits=%d" % (sp_name, splits)
            cells[label] += [len(f.cells), len(g.cells)]
            if key in self.results:
                out_cells[label].append(len(self.results[key][1].cells))
        return {
            "cells_per_input": {k: _spread(v) for k, v in cells.items()},
            "cells_per_product": {k: _spread(v) for k, v in out_cells.items()},
            "equals_pairs_equal_fraction": 1.0,
        }


def run_cli(argv):
    """``bht.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliWitness(Workload):
    """Witness commands then ``bht verify``, in-process, on fixture files.

    A cycle is the nine light kinds on each of the four spaces (36 ops) and
    four ``conjugates --count 10`` ops, one on each space.  Light fixtures
    repeat every ``LIGHT_SETS`` cycles and conjugate fixtures every
    ``CONJ_FIXTURES / 4`` cycles.  With conjugates a tenth of the ops, the
    p95 tail falls near their median: inside their latency spread, not on
    its edge or on the step between the slowest space (``n=1 k=3``, about
    1.5 times the others) and the rest, where p99 fell with one conjugate
    per cycle.

    The constructor only formats the fixture texts; ``write_fixtures`` puts
    them on disk, so that file-system time stays out of the set-up time.
    ``digests`` names a JSON file of the expected ``cli_stdout_sha256`` per
    size and seed; ``check`` counts a differing digest as a failed op.
    """

    name = "cli_witness"
    tail_percentile = 95
    LIGHT_KINDS = (
        "compress", "double", "between", "multisection", "vigor",
        "compressibility1", "compressibility2", "compressibility3", "embed-v",
    )
    LIGHT_SETS = 8
    CONJ_FIXTURES = 64

    def __init__(self, seed: int, workdir: Path, tiny: bool = False, digests: Path = None):
        super().__init__()
        self.seed, self.tiny, self.digests = seed, tiny, digests
        self.dir = workdir
        self._texts: list = []  # fixture file contents, written by write_fixtures
        light_sets = 1 if tiny else self.LIGHT_SETS
        conj = 4 if tiny else self.CONJ_FIXTURES
        rng = random.Random(seed)
        names = list(SPACES)
        self.fixtures = []  # (kind, space name, argv, input size)
        self.light = []
        for _ in range(light_sets):
            cycle = []
            for sp_name in names:
                for kind in self.LIGHT_KINDS:
                    cycle.append(len(self.fixtures))
                    self.fixtures.append(self._fixture(kind, sp_name, SPACES[sp_name], rng))
            self.light.append(cycle)
        self.conj = []
        for j in range(conj):
            sp_name = names[j % len(names)]
            self.conj.append(len(self.fixtures))
            self.fixtures.append(self._fixture("conjugates", sp_name, SPACES[sp_name], rng))
        self.witness_path = str(self.dir / "witness.txt")
        self.outputs: dict = {}

    # -- fixtures ---------------------------------------------------------

    def _write(self, text: str) -> str:
        self._texts.append(text)
        return str(self.dir / ("in%04d.txt" % len(self._texts)))

    def write_fixtures(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(self._texts, 1):
            (self.dir / ("in%04d.txt" % i)).write_text(text)

    def _clopens(self, *clopens):
        return [self._write(textio.format_clopen(c)) for c in clopens]

    def _fixture(self, kind, sp_name, sp, rng):
        rc = sampling.random_clopen
        sizes = []
        if kind == "compress":
            a, b = rc(sp, rng, 3, nonempty=True), rc(sp, rng, 3, nonempty=True)
            argv = ["compress"] + self._clopens(a, b)
            sizes = [a, b]
        elif kind == "double":
            x = rc(sp, rng, 3, nonempty=True)
            argv = ["double"] + self._clopens(x)
            sizes = [x]
        elif kind == "between":
            while True:
                a, b = rc(sp, rng, 3, nonempty=True), rc(sp, rng, 3, nonempty=True)
                if space.h0_class(a) == space.h0_class(b):
                    break
            argv = ["between"] + self._clopens(a, b)
            sizes = [a, b]
        elif kind == "multisection":
            while True:
                parts = sampling.random_partition(sp, rng, splits=4)
                if len(parts) >= 3:
                    break
            sets = [space.Clopen(sp, [p]) for p in rng.sample(parts, 3)]
            argv = ["multisection"] + self._clopens(*sets)
            sizes = sets
        elif kind == "vigor":
            while True:
                x = rc(sp, rng, 3, nonempty=True, proper=True)
                y1 = rc(sp, rng, 3).intersect(x)
                y2 = rc(sp, rng, 3, nonempty=True).intersect(x)
                if not y2.is_empty() and not (witness.vigor_case(x, y1, y2) == "c" and y1 == x):
                    break
            argv = ["vigor"] + self._clopens(x, y1, y2)
            sizes = [x, y1, y2]
        elif kind.startswith("compressibility"):
            cond = int(kind[-1])
            point_text = "root:0 " + ",".join(["e(0)"] * sp.n)
            x0 = textio.parse_point(point_text, sp)
            while True:
                away = witness.brick_neighborhood(x0, rng.randint(1, 2)).complement()
                if cond == 1:
                    parts = [b for b in sampling.random_partition(sp, rng, splits=4)
                             if space.Clopen(sp, [b]).issubset(away)]
                    if len(parts) < 3:
                        continue
                    picks = [space.Clopen(sp, [p]) for p in rng.sample(parts, 3)]
                    g = witness.multisection(*picks).element
                    inputs = [self._write(textio.format_table(g))]
                    sizes = picks
                    break
                u1 = rc(sp, rng, 3).intersect(away)
                if cond == 2:
                    u2 = rc(sp, rng, 3, nonempty=True).intersect(away)
                    if u2.is_empty():
                        continue
                    inputs, sizes = self._clopens(u1, u2), [u1, u2]
                    break
                u3 = rc(sp, rng, 3).intersect(away)
                u2 = away.difference(u1).difference(u3)
                inputs, sizes = self._clopens(u1, u2, u3), [u1, u2, u3]
                break
            argv = ["compressibility", "--point", point_text, "--cond", str(cond)] + inputs
        elif kind == "embed-v":
            x = rc(sp, rng, 3, nonempty=True, proper=True)
            v = sampling.random_element(bht.binary_space(), rng, factors=2, splits=3)
            space_arg = ",".join(str(a) for a in (sp.n,) + sp.kbar + (sp.r,))
            argv = ["embed-v", self._write(textio.format_table(v)),
                    "--space", space_arg, "--support"] + self._clopens(x)
            sizes = [x]
        elif kind == "conjugates":
            while True:
                # one factor: the per-input cost spread of two-factor tables
                # (coefficient of variation about 0.6 against 0.3) would
                # swamp the run-to-run comparison
                g = sampling.random_element(sp, rng, factors=1, splits=2)
                if not element.is_identity(g):
                    break
            argv = ["conjugates", self._write(textio.format_table(g)), "--count", "10"]
            return kind, sp_name, argv, len(g.cells)
        else:
            raise ValueError("unknown kind %r" % kind)
        return kind, sp_name, argv, sum(len(c.bricks) for c in sizes)

    # -- ops ----------------------------------------------------------------

    def round(self, r: int):
        n = len(SPACES)
        keys = self.light[r % len(self.light)] + [
            self.conj[(n * r + j) % len(self.conj)] for j in range(n)]
        return [(k, self._op(self.fixtures[k][2])) for k in keys]

    def _op(self, argv):
        def op():
            code, out, err = run_cli(argv)
            with open(self.witness_path, "w") as fh:
                fh.write(out)
            vcode, checks, verr = run_cli(["verify", self.witness_path])
            return code, out, vcode, checks, err + verr
        return op

    def record(self, key, result):
        self.issued[key] += 1
        code, out, vcode, checks, err = result
        if code != 0 or vcode != 0:
            self.fail(key, "exit codes %d/%d: %s" % (code, vcode, err.strip()[:200]))
        lines = checks.splitlines()
        if not lines or not all(line.startswith("ok ") for line in lines):
            self.fail(key, "verify did not report only ok lines: %r" % checks[:200])
        digest = hashlib.sha256((out + checks).encode()).hexdigest()
        if self.outputs.setdefault(key, digest) != digest:
            self.fail(key, "output bytes changed between repeats")

    def check(self):
        # Complete the digest over every fixture, so it does not depend on how
        # many cycles the timed loop reached.
        for key, fixture in enumerate(self.fixtures):
            if key not in self.outputs:
                try:
                    self.record(key, self._op(fixture[2])())
                except Exception as err:  # counted as a failed op
                    self.issued[key] += 1
                    self.fail(key, "%s: %s" % (type(err).__name__, err))
        # Byte stability across commits: the digest is one more checked op.
        expected = self.expected_digest()
        if expected is not None:
            self.issued["digest"] += 1
            if self.digest() != expected:
                self.fail("digest", "cli_stdout_sha256 %s differs from the recorded %s" % (
                    self.digest(), expected))

    def expected_digest(self):
        """The recorded digest for this seed and size, or None."""
        if self.digests is None:
            return None
        recorded = json.loads(Path(self.digests).read_text())
        return recorded["tiny" if self.tiny else "full"].get(str(self.seed))

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in range(len(self.fixtures)):
            h.update(self.outputs.get(key, "missing").encode())
        return h.hexdigest()

    def properties(self) -> dict:
        sizes = defaultdict(list)
        for kind, sp_name, _, size in self.fixtures:
            unit = "table cells" if kind == "conjugates" else "input bricks"
            sizes["%s %s (%s)" % (kind, sp_name, unit)].append(size)
        mix = Counter()
        for key, n in self.issued.items():
            if key != "digest":
                mix[self.fixtures[key][0]] += n
        total = sum(mix.values()) or 1
        return {
            "input_sizes": {k: _spread(v) for k, v in sorted(sizes.items())},
            "kind_mix": {k: round(v / total, 4) for k, v in sorted(mix.items())},
            "cli_stdout_sha256": self.digest(),
            "cli_stdout_sha256_checked": self.expected_digest() is not None,
        }

    def close(self):
        if self.dir.exists():
            for path in self.dir.iterdir():
                path.unlink()
            self.dir.rmdir()


def make(name: str, seed: int, workdir: Path, tiny: bool = False, digests: Path = None) -> Workload:
    if name == "group_law":
        return GroupLaw(seed, tiny)
    if name == "large_tables":
        return LargeTables(seed, tiny)
    if name == "cli_witness":
        return CliWitness(seed, workdir, tiny, digests)
    raise ValueError("unknown workload %r" % name)


NAMES = ("group_law", "large_tables", "cli_witness")
