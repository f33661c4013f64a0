"""The three workloads: their seeded operation cycles, how one operation
runs, and how its output is checked.

Each workload runs one kind of operation.  Its inputs form a fixed cycle
made from the seed, and a run repeats the cycle whole.  The seed picks
values inside fixed strata (bit length and number of one bits of an
exponent, the coincidence shape of a configuration), so every seed gives a
cycle of about the same cost and the figures of two seeds are comparable.
"""

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from time import perf_counter, process_time

import reference
import spans

SERIES_ORDER = 40
CLI_ORDER = 20
LATTICE_N = 6

# (bit length, one bits, sign) of the twist exponent K of each explicit
# Chern triple: square-and-multiply cost is fixed by the first two.  Bit
# lengths 5-12, both signs, few and many one bits: the costs of a cycle
# then lie close together from cheapest to dearest, so its percentiles do
# not jump between cost classes from one seed to the next.
K_SLOTS = tuple(
    (bits, ones, sign)
    for bits in range(5, 13)
    for ones in (2, (bits + 2) // 2)
    for sign in (1, -1)
)

# The CLI's explicit triples, and hypersurface degrees one per band
# (K from -20 to -1980).
CLI_K_SLOTS = ((7, 3, -1), (9, 5, 1), (11, 6, -1), (12, 7, 1))
DEGREE_BANDS = ((1, 2, 3), (4, 5), (6, 7), (8, 9))

# Block sizes of the coincident points of each lattice configuration;
# the classified partition has rank 6 - len(shape), so ranks 0 to 4 occur.
SHAPES = (
    (1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1),
    (3, 1, 1, 1), (2, 2, 2), (3, 2, 1), (4, 1, 1), (3, 3), (4, 2),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def seeded_exponent(rng: random.Random, bits: int, ones: int, sign: int) -> int:
    low = rng.sample(range(bits - 1), ones - 1)
    return sign * ((1 << (bits - 1)) + sum(1 << b for b in low))


def seeded_chern_document(rng: random.Random, slot) -> dict:
    k = seeded_exponent(rng, *slot)
    c12 = 24 * rng.randint(-20, 20)
    return {"chern": {"c111": 2 * rng.randint(-200, 200), "c12": c12, "c3": k + c12}}


def series_cycle(seed: int) -> list[dict]:
    """Spec documents: the catalog, degrees 1-9 and one explicit triple per K slot."""
    rng = _rng("series", seed)
    docs = [{"builtin": name} for name in reference.CATALOG_CHERN]
    docs += [{"hypersurface": {"degree": d}} for d in range(1, 10)]
    docs += [seeded_chern_document(rng, slot) for slot in K_SLOTS]
    rng.shuffle(docs)
    return docs


def _builtin_document(rng: random.Random) -> dict:
    return {"builtin": rng.choice(sorted(reference.CATALOG_CHERN))}


def _hypersurface_document(rng: random.Random, band) -> dict:
    return {"hypersurface": {"degree": rng.choice(band)}}


def cli_cycle(seed: int) -> list[tuple[str, dict]]:
    """(source, spec document) pairs, rotating builtin, hypersurface, chern, spec-file."""
    rng = _rng("cli", seed)
    names = sorted(reference.CATALOG_CHERN)
    rng.shuffle(names)
    bands = list(DEGREE_BANDS)
    rng.shuffle(bands)
    triples = [seeded_chern_document(rng, slot) for slot in CLI_K_SLOTS]
    rng.shuffle(triples)
    copies = rng.randint(2, 3)
    files = [
        {"product": rng.choice([[3], [2, 1], [1, 2], [1, 1, 1]])},
        {"disjoint_union": [_builtin_document(rng), _hypersurface_document(rng, DEGREE_BANDS[1])]},
        {"scaled": {"factor": f"1/{copies}", "of": {"disjoint_union": [_builtin_document(rng)] * copies}}},
        {"scaled": {"factor": rng.randint(2, 3), "of": _hypersurface_document(rng, DEGREE_BANDS[2])}},
    ]
    rng.shuffle(files)
    cycle = []
    for r in range(4):
        cycle += [
            ("builtin", {"builtin": names[r]}),
            ("hypersurface", _hypersurface_document(rng, bands[r])),
            ("chern", triples[r]),
            ("spec-file", files[r]),
        ]
    return cycle


def lattice_cycle(seed: int) -> list[dict]:
    """Configurations of six labeled points with coincident and near-coincident
    points, each with a seeded integer F on every partition of {1..6}."""
    rng = _rng("lattice", seed)
    rgs_all = reference.set_partitions(LATTICE_N)
    cycle = []
    for shape in SHAPES:
        elements = list(range(LATTICE_N))
        rng.shuffle(elements)
        groups, at = [], 0
        for size in shape:
            groups.append(elements[at:at + size])
            at += size
        sites = rng.sample([(x, y, z) for x in range(-4, 5) for y in range(-4, 5) for z in range(-4, 5)], len(shape))
        sites = [tuple(Fraction(v) for v in s) for s in sites]
        if len(sites) > 1:
            # a second cluster sits a dyadic hair away from the first
            axis = rng.randrange(3)
            near = list(sites[0])
            near[axis] += Fraction(rng.randint(1, 8), 1024)
            sites[1] = tuple(near)
        points = [None] * LATTICE_N
        for group, site in zip(groups, sites):
            for e in group:
                points[e] = site
        values = {rgs: rng.randint(-10 ** 9, 10 ** 9) for rgs in rgs_all}
        cycle.append({"points": tuple(points), "F": values})
    return cycle


def _spec(dtzero, doc):
    """The program's ThreefoldSpec for a flat spec document."""
    (key, value), = doc.items()
    if key == "builtin":
        return dtzero.ThreefoldSpec.builtin(value)
    if key == "hypersurface":
        return dtzero.ThreefoldSpec.hypersurface(value["degree"])
    if key == "chern":
        return dtzero.ThreefoldSpec.explicit(dtzero.ChernNumbers(value["c111"], value["c12"], value["c3"]))
    raise ValueError(f"no flat spec for {doc}")


def check_series(k: int, order: int, exponent, coefficients) -> str | None:
    """Why an output is wrong, or None: coefficients against the integer
    recurrence, constant term 1, q^1 coefficient -K, integrality, exponent."""
    if exponent != k:
        return f"exponent {exponent}, expected {k}"
    if any(Fraction(c).denominator != 1 for c in coefficients):
        return "a coefficient is not an integer"
    coefficients = [int(c) for c in coefficients]
    if len(coefficients) != order + 1 or coefficients[0] != 1 or coefficients[1] != -k:
        return f"bad head {coefficients[:2]} or length {len(coefficients)}"
    expected = reference.dt_coefficients(k, order)
    for n, (got, want) in enumerate(zip(coefficients, expected)):
        if got != want:
            return f"q^{n}: {got}, expected {want}"
    return None


class Workload:
    """One workload: `items` is the seeded cycle, `run` performs one operation
    and `check` returns why its output is wrong, or None.

    Workloads that run in this process trace it with a Tracer.
    `in_children` says whether each operation is a child process, and
    `rusage_who` names whose CPU time and peak memory the operations use.
    """

    name = ""
    in_children = False
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, seed: int, root: str, out_dir: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tracer = None

    def close(self) -> None:
        pass

    def cpu_seconds(self) -> float:
        """User plus system CPU time of whoever runs the operations."""
        return process_time()

    def probe_setup(self) -> float:
        """Seconds of one set-up, measured in a fresh process."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Load the program and build its inputs; untimed."""

    def warm_up(self) -> None:
        """What a warm process does once before serving operations."""

    def start_tracing(self) -> None:
        if self.tracer is None:
            self.tracer = spans.Tracer()
        self.tracer.install()

    def stop_tracing(self) -> None:
        self.tracer.uninstall()

    def set_op(self, index: int) -> None:
        if self.tracer is not None:
            self.tracer.op = index

    def layer_figures(self, ops: int) -> dict:
        totals = spans.LayerTotals()
        totals.add(self.tracer.spans, self.tracer.counts)
        return {**totals.figures(ops), "cli.interpreter_ms": 0.0, "cli.import_ms": 0.0}

    def trace_dump(self) -> dict:
        return self.tracer.dump()

    def _probe(self, size: int) -> float:
        script = os.path.join(self.root, "perfbench", "setup_probe.py")
        done = subprocess.run(
            [sys.executable, script, self.name, str(size)],
            env=self.env, cwd=self.root, capture_output=True, text=True, check=True,
        )
        return float(done.stdout.split()[-1])


class SeriesWorkload(Workload):
    name = "series"

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.docs = series_cycle(seed)
        self.exponents = [reference.document_exponent(d) for d in self.docs]
        self.items = list(range(len(self.docs)))

    def probe_setup(self) -> float:
        return self._probe(SERIES_ORDER)

    def prepare(self) -> None:
        import dtzero
        self.dtzero = dtzero
        self.specs = [_spec(dtzero, d) for d in self.docs]

    def warm_up(self) -> None:
        self.dtzero.dt_series(self.specs[0], SERIES_ORDER)

    def run(self, item):
        return self.dtzero.dt_series(self.specs[item], SERIES_ORDER)

    def check(self, item, out) -> str | None:
        return check_series(self.exponents[item], SERIES_ORDER, out.exponent, out.series.coefficients)


class LatticeWorkload(Workload):
    name = "lattice"

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.configs = lattice_cycle(seed)
        self.items = list(range(len(self.configs)))
        rgs_all = reference.set_partitions(LATTICE_N)
        self.below = {b: [g for g in rgs_all if reference.refines(g, b)] for b in rgs_all}
        self.members = {}

    def probe_setup(self) -> float:
        return self._probe(LATTICE_N)

    def prepare(self) -> None:
        import dtzero
        self.dtzero = dtzero
        self.top = dtzero.SetPartition.whole(LATTICE_N)
        self.inputs = []
        for config in self.configs:
            x = dtzero.PointConfig(config["points"])
            self.inputs.append((x, dtzero.EpsilonSchedule.default_for(x)))

    def warm_up(self) -> None:
        partitions = self.dtzero.partitions(LATTICE_N)
        # F as the program's own mapping, keyed by its partition objects
        for config in self.configs:
            table = config["F"]
            config["F_program"] = {p: table[reference.canonical(p.labels())] for p in partitions}

    def run(self, item):
        x, schedule = self.inputs[item]
        beta = self.dtzero.classify_q_set(self.top, x, schedule)
        delta = self.dtzero.delta_transform(self.top, self.configs[item]["F_program"])
        return beta, delta

    def check(self, item, out) -> str | None:
        beta, delta = out
        return check_classify(self._members(item), beta) or check_delta(
            self.configs[item]["F"], delta, self.below
        )

    def _members(self, item):
        if item not in self.members:
            self.members[item] = reference.neighbourhood_members(self.configs[item]["points"])
        return self.members[item]


def check_classify(members, beta) -> str | None:
    """beta's neighbourhood holds x, and every gamma whose neighbourhood holds x refines beta."""
    b = reference.canonical(beta.labels())
    if b not in members:
        return f"classified {b} does not hold the configuration"
    for gamma in members:
        if not reference.refines(gamma, b):
            return f"{gamma} holds the configuration but does not refine {b}"
    return None


def check_delta(values, delta, below) -> str | None:
    """sum over gamma <= beta of delta_gamma equals F(beta), for every beta."""
    by_rgs = {reference.canonical(p.labels()): v for p, v in delta.items()}
    if len(by_rgs) != len(delta) or set(by_rgs) != set(below):
        return f"delta is defined on {len(by_rgs)} partitions, expected {len(below)}"
    for beta, gammas in below.items():
        total = sum(by_rgs[g] for g in gammas)
        if total != values[beta]:
            return f"sum of delta below {beta} is {total}, F is {values[beta]}"
    return None


class CliWorkload(Workload):
    name = "cli"
    in_children = True
    rusage_who = resource.RUSAGE_CHILDREN

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.pairs = cli_cycle(seed)
        self.exponents = [reference.document_exponent(doc) for _, doc in self.pairs]
        self.items = list(range(len(self.pairs)))
        self.spec_dir = os.path.join(out_dir, f"cli-specs-{os.getpid()}")
        self.span_file = os.path.join(self.spec_dir, "spans.json")
        self.trace_script = os.path.join(root, "perfbench", "trace_child.py")
        self.traced = False
        self.records: list[dict] = []
        os.makedirs(self.spec_dir, exist_ok=True)
        self.argv = [
            ["series", *self._spec_args(index, source, doc), "--order", str(CLI_ORDER)]
            for index, (source, doc) in enumerate(self.pairs)
        ]

    def _spec_args(self, index, source, doc):
        if source == "builtin":
            return ["--builtin", doc["builtin"]]
        if source == "hypersurface":
            return ["--hypersurface-degree", str(doc["hypersurface"]["degree"])]
        if source == "chern":
            c = doc["chern"]
            return ["--c111", str(c["c111"]), "--c12", str(c["c12"]), "--c3", str(c["c3"])]
        path = os.path.join(self.spec_dir, f"spec-{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return ["--spec-file", path]

    def close(self) -> None:
        for name in os.listdir(self.spec_dir):
            os.remove(os.path.join(self.spec_dir, name))
        os.rmdir(self.spec_dir)

    def probe_setup(self) -> float:
        start = perf_counter()
        self._spawn([sys.executable, "-m", "dtzero", *self.argv[0]])
        return perf_counter() - start

    def start_tracing(self) -> None:
        self.traced = True

    def stop_tracing(self) -> None:
        self.traced = False

    def cpu_seconds(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def _spawn(self, argv):
        done = subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True, text=True)
        return done.returncode, done.stdout

    def run(self, item):
        if not self.traced:
            return self._spawn([sys.executable, "-m", "dtzero", *self.argv[item]])
        spawned = perf_counter()
        out = self._spawn([sys.executable, self.trace_script, self.span_file, *self.argv[item]])
        with open(self.span_file, encoding="utf-8") as handle:
            record = json.load(handle)
        os.remove(self.span_file)
        record["interpreter_s"] = record.pop("started") - spawned
        self.records.append(record)
        return out

    def layer_figures(self, ops: int) -> dict:
        totals = spans.LayerTotals()
        for record in self.records:
            totals.add(record["spans"], record["counts"])
        return {
            **totals.figures(ops),
            "cli.interpreter_ms": sum(r["interpreter_s"] for r in self.records) * 1e3 / ops,
            "cli.import_ms": sum(r["import_s"] for r in self.records) * 1e3 / ops,
        }

    def trace_dump(self) -> dict:
        return {"processes": self.records}

    def check(self, item, out) -> str | None:
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        exponent, coefficients = None, []
        for line in stdout.splitlines():
            fields = line.split("\t")
            if fields[0] == "# exponent":
                exponent = int(fields[1])
            elif not line.startswith("#"):
                k, value = fields
                if int(k) != len(coefficients):
                    return f"coefficient line {k} out of sequence"
                coefficients.append(int(value))
        return check_series(self.exponents[item], CLI_ORDER, exponent, coefficients)


WORKLOADS = {w.name: w for w in (SeriesWorkload, CliWorkload, LatticeWorkload)}
