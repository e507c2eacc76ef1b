"""The four benchmark workloads.

Each workload has three parts, run in one fresh interpreter per round:

* ``setup(seed, root)`` builds the inputs (counted in ``setup_s``);
* ``measure(state)`` makes the timed calls into mgcm (``wall_s``) and
  returns their raw outputs;
* ``check(state, outputs)`` compares the outputs with values computed apart
  from the timed code and returns ``(attempted, failed, problems)``.

``untimed(state)`` holds operations kept out of ``wall_s`` on purpose.
"""

import io
import itertools
import json
import math
import os
import random
import shutil
import sys
import tempfile
import time

DEFAULT_CHAR = 32003
# A prime that --char and PrimeField accept but whose square exceeds 2^63,
# so the int64 elimination in cohomology._rank_mod_p overflows.
LARGE_PRIME = 4294967311
GOLDEN_CORPUS = os.path.join("bench", "golden", "corpus.json")


class Workload:
    def __init__(self, setup, measure, check, untimed=None):
        self.setup = setup
        self.measure = measure
        self.check = check
        self.untimed = untimed


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# corpus: the shipped sessions through the CLI entry point, cold then warm


def corpus_setup(seed, root):
    from mgcm import cli_io

    manifest = cli_io.shipped_manifest_path()
    with open(manifest, "r", encoding="utf-8") as fh:
        expected = [(os.path.splitext(row["path"])[0], row["expected"])
                    for row in json.load(fh)]
    with open(os.path.join(root, GOLDEN_CORPUS), "rb") as fh:
        golden = fh.read()
    scratch = os.path.join(root, ".bench_out", "tmp")
    os.makedirs(scratch, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="corpus-cache-", dir=scratch)
    return {"cli": cli_io, "expected": expected, "golden": golden,
            "argv": ["corpus", "--cache-dir", cache_dir], "cache_dir": cache_dir}


def run_cli(cli, argv):
    """Call the mgcm entry point and return (exit code, stdout bytes)."""
    buf = io.BytesIO()
    wrapper = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = wrapper
    try:
        code = cli.main(argv)
        wrapper.flush()
        out = buf.getvalue()
    finally:
        sys.stdout = saved
        wrapper.detach()
    return code, out


def corpus_measure(state):
    cold = run_cli(state["cli"], state["argv"])
    t0 = time.perf_counter()
    warm = run_cli(state["cli"], state["argv"])
    state["warm_pass_s"] = time.perf_counter() - t0
    return cold, warm


def corpus_check(state, outputs):
    shutil.rmtree(state["cache_dir"], ignore_errors=True)
    (cold_code, cold), (warm_code, warm) = outputs
    problems = []
    if cold_code != 0 or warm_code != 0:
        problems.append(f"exit codes {cold_code}/{warm_code}, expected 0")
    if warm != cold:
        problems.append("warm report bytes differ from cold report bytes")
    if cold != state["golden"]:
        problems.append(f"report bytes differ from {GOLDEN_CORPUS}")
    expected = state["expected"]
    failed = 0
    for label, raw in (("cold", cold), ("warm", warm)):
        try:
            entries = json.loads(raw)["entries"]
        except (ValueError, KeyError):
            problems.append(f"{label} report is not a corpus report")
            failed += len(expected)
            continue
        got = [(e["instance"], e["verdict"]) for e in entries]
        for i, want in enumerate(expected):
            if i >= len(got) or got[i] != want:
                failed += 1
                problems.append(f"{label} entry {want[0]}: got {got[i:i + 1]}")
    return 2 * len(expected), failed, problems


# ---------------------------------------------------------------------------
# kunneth: line-bundle cohomology on P^a x P^b against the closed form


def bott(a, i, n):
    """h^i(P^a, O(n)), Bott's formula."""
    value = 0
    if i == 0 and n >= 0:
        value += math.comb(n + a, a)
    if i == a and n <= -a - 1:
        value += math.comb(-n - 1, a)
    return value


def kunneth(a, b, i, n, m):
    """h^i(P^a x P^b, O(n, m)) by the Kunneth formula."""
    return sum(bott(a, p, n) * bott(b, i - p, m) for p in range(i + 1))


def _product_module(char, a, b):
    from mgcm.graded_poly import GradedRing, field_for_char
    from mgcm.groebner_engine import free_presentation

    names = tuple(f"x{j}" for j in range(a + 1)) + tuple(f"y{j}" for j in range(b + 1))
    degs = ((1, 0),) * (a + 1) + ((0, 1),) * (b + 1)
    ring = GradedRing(field_for_char(char), names, degs, (1,) * len(names))
    return free_presentation(ring, (((0, 0), 0),))


# (a, b, twist range); P1 x P1 uses [-2, 2]^2 where criterion 5 uses
# [-3, 3]^2, which alone takes about 25 s.
KUNNETH_BOXES = ((0, 0, 3), (0, 1, 3), (1, 0, 3), (1, 1, 2))
PLANE_TWISTS = range(-3, 4)
LARGE_PRIME_CELLS = ((1, (-3, -3)), (2, (-3, -3)), (1, (2, 2)), (2, (2, 2)))


def kunneth_setup(seed, root):
    from mgcm.graded_poly import GradedRing, field_for_char
    from mgcm.groebner_engine import free_presentation

    cells = []
    for a, b, t in KUNNETH_BOXES:
        module = _product_module(DEFAULT_CHAR, a, b)
        for n, m in itertools.product(range(-t, t + 1), repeat=2):
            for i in range(a + b + 2):
                cells.append((module, i, (n, m), kunneth(a, b, i, n, m)))
    plane = GradedRing(field_for_char(DEFAULT_CHAR), ("x0", "x1", "x2"),
                       ((1,), (1,), (1,)), (1, 1, 1))
    plane_module = free_presentation(plane, (((0,), 0),))
    for n in PLANE_TWISTS:
        for i in range(4):
            cells.append((plane_module, i, (n,), bott(2, i, n)))
    large = _product_module(LARGE_PRIME, 1, 1)
    slice_ = [(large, i, deg, kunneth(1, 1, i, *deg)) for i, deg in LARGE_PRIME_CELLS]
    return {"cells": _shuffled(cells, seed), "large": slice_}


def kunneth_measure(state):
    from mgcm import cohomology

    return [cohomology.sheaf_cohomology_dim(module, i, deg, margin=False)
            for module, i, deg, _ in state["cells"]]


def kunneth_check(state, outputs):
    problems = []
    for (module, i, deg, want), got in zip(state["cells"], outputs):
        if got != want:
            problems.append(f"h^{i}{deg} on {module.ring.names}: got {got}, want {want}")
    return len(state["cells"]), len(problems), problems


def kunneth_untimed(state):
    """Large-prime cells: they hit the int64 overflow in the rank kernel.

    A cell fails when it raises or disagrees with the closed form; neither
    outcome is an error of the benchmark."""
    from mgcm import cohomology

    failed = 0
    notes = []
    for module, i, deg, want in state["large"]:
        try:
            got = cohomology.sheaf_cohomology_dim(module, i, deg, margin=False)
        except AssertionError as exc:
            failed += 1
            notes.append(f"p={LARGE_PRIME} h^{i}{deg}: {exc}")
            continue
        if got != want:
            failed += 1
            notes.append(f"p={LARGE_PRIME} h^{i}{deg}: got {got}, want {want}")
    return len(state["large"]), failed, notes


# ---------------------------------------------------------------------------
# dual-route: H^i at the maximal ideal by duality and by the Koszul colimit


def corpus_modules():
    """(label, module) for every distinct module declared in the corpus."""
    from mgcm import cli_io

    seen = {}
    for path, _expected in cli_io.load_manifest(cli_io.shipped_manifest_path()):
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(path, "r", encoding="utf-8") as fh:
            built = cli_io.build_session(cli_io.parse_session(fh.read()))
        for name, (kind, obj) in sorted(built.items()):
            if kind in ("module", "diagonal"):
                module = obj
            elif kind in ("rees", "multirees"):
                module = obj.module
            else:
                continue
            seen.setdefault(module, f"{stem}:{name}")
    return [(label, module) for module, label in seen.items()]


def dual_route_plan(module):
    """Window and weight slices checked for one module.

    Field bases: the box v-1..v+1, as criterion 6.  Graded-local bases: the
    single degree 0, with weight slices 0..1, and only slice 0 in ambients
    of six or more variables, which keeps a round under 10 s."""
    from mgcm.homological import v_of

    ring = module.ring
    if ring.is_field_base():
        v = v_of(module)
        return (tuple(x - 1 for x in v), tuple(x + 1 for x in v)), (None,)
    zero = (0,) * ring.rank
    return (zero, zero), ((0,) if ring.nvars >= 6 else (0, 1))


def dual_route_setup(seed, root):
    plan = []
    for label, module in corpus_modules():
        window, weights = dual_route_plan(module)
        cells = math.prod(b - a + 1 for a, b in zip(*window))
        rows = cells * (module.ring.nvars + 1) * len(weights)
        plan.append((label, module, window, weights, rows))
    return {"plan": _shuffled(plan, seed)}


def dual_route_measure(state):
    from mgcm import theorem_harness

    return [theorem_harness.dual_route_report(module, window=window, weights=weights,
                                              instance=label)
            for label, module, window, weights, _rows in state["plan"]]


def dual_route_check(state, outputs):
    attempted = failed = 0
    problems = []
    for (label, _m, _w, _ws, rows), rep in zip(state["plan"], outputs):
        if len(rep.checks) != rows:
            problems.append(f"{label}: {len(rep.checks)} cells, expected {rows}")
        for row in rep.checks:
            attempted += 1
            if row.value != row.expected or row.verdict != "pass":
                failed += 1
                problems.append(f"{label} i={row.i} {row.degree}: koszul {row.value}"
                                f" vs duality {row.expected}")
        if rep.verdict != "holds":
            problems.append(f"{label}: verdict {rep.verdict}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# blowup: seeded Rees modules over k[a,b,c], every variable in multidegree 0

BLOWUP_INSTANCES = 400
BLOWUP_BASE = ("a", "b", "c")
BLOWUP_WEIGHTS = range(0, 3)


def _monomial(rng, degree):
    exps = [0, 0, 0]
    for _ in range(degree):
        exps[rng.randrange(3)] += 1
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(BLOWUP_BASE, exps) if e)


def _generator(rng, degree):
    """A homogeneous monomial or binomial of the given degree."""
    first = _monomial(rng, degree)
    if rng.random() < 0.5:
        return first
    while True:
        second = _monomial(rng, degree)
        if second != first:
            return f"{first} - {rng.randrange(1, DEFAULT_CHAR)}*{second}"


# Generator degrees per ideal.  Instance j takes shape j mod 10, so every
# round has the same mix of shapes; the seed picks monomials and coefficients.
BLOWUP_SHAPES = (
    ((1, 2),), ((1,), (1, 2)),
    ((2, 2),), ((1,), (2, 2)),
    ((1, 1, 2),), ((2,), (1, 2)),
    ((1, 2, 2),), ((2,), (2, 2)),
    ((2, 2, 2),), ((1,), (1, 1)),
)


def blowup_instances(seed, count=BLOWUP_INSTANCES):
    """Ideal families as generator strings, one or two ideals per instance.

    Two ideals with two generators each are left out: instances of that
    shape took from 0.05 s to over 3 s each, and pairs of m-primary
    families with three quadrics each did not finish in 5 minutes."""
    rng = random.Random(seed)
    return [tuple(tuple(_generator(rng, d) for d in degrees) for degrees in shape)
            for shape in itertools.islice(itertools.cycle(BLOWUP_SHAPES), count)]


def blowup_setup(seed, root):
    from mgcm.graded_poly import GradedRing, field_for_char, parse_polynomial
    from mgcm.groebner_engine import free_presentation

    sources = {}
    for r in (1, 2):
        ring = GradedRing(field_for_char(DEFAULT_CHAR), BLOWUP_BASE,
                          ((0,) * r,) * 3, (1, 1, 1))
        sources[r] = free_presentation(ring, (((0,) * r, 0),))
    instances = []
    for texts in blowup_instances(seed):
        N = sources[len(texts)]
        ideals = tuple(tuple(parse_polynomial(N.ring, g) for g in gens) for gens in texts)
        instances.append((texts, N, ideals))
    return {"instances": instances}


def blowup_pieces(r):
    return [(n, w) for n in itertools.product(range(2), repeat=r) for w in BLOWUP_WEIGHTS]


def blowup_measure(state):
    from mgcm import homological, rees_constructions, theorem_harness

    outputs = []
    for _texts, N, ideals in state["instances"]:
        T = rees_constructions.rees_module_presentation(N, ideals)
        pieces = [(homological.graded_piece_dim(T, n, w),
                   rees_constructions.rees_piece_oracle(N, ideals, n, w))
                  for n, w in blowup_pieces(len(ideals))]
        outputs.append((theorem_harness.verify_rees_a_invariant(N, ideals),
                        theorem_harness.verify_rees_transfer(N, ideals),
                        homological.krull_dim(T), homological.krull_dim(N), pieces))
    return outputs


def blowup_check(state, outputs):
    failed = 0
    problems = []
    for (texts, _N, ideals), (l41, t42, dim_t, dim_n, pieces) in zip(
            state["instances"], outputs):
        r = len(ideals)
        bad = []
        a_row = [c for c in l41.checks if c.check == "a-invariant"]
        if l41.verdict != "holds" or not a_row or a_row[0].degree != (-1,) * r:
            bad.append(f"lem41 {l41.verdict} {[c.degree for c in a_row]}")
        if t42.verdict not in ("holds", "hypothesis-not-met"):
            bad.append(f"thm42 {t42.verdict}")
        if dim_t != dim_n + r:
            bad.append(f"krull_dim(T)={dim_t}, krull_dim(N)+r={dim_n + r}")
        for (n, w), (got, want) in zip(blowup_pieces(r), pieces):
            if got != want:
                bad.append(f"piece {n} weight {w}: {got} vs oracle {want}")
        if bad:
            failed += 1
            problems.append(f"{texts}: {'; '.join(bad)}")
    return len(outputs), failed, problems


WORKLOADS = {
    "corpus": Workload(corpus_setup, corpus_measure, corpus_check),
    "kunneth": Workload(kunneth_setup, kunneth_measure, kunneth_check, kunneth_untimed),
    "dual-route": Workload(dual_route_setup, dual_route_measure, dual_route_check),
    "blowup": Workload(blowup_setup, blowup_measure, blowup_check),
}
