"""The benchmark's workloads; one repetition runs in one fresh interpreter.

``run.py`` starts this file once per repetition with a JSON spec::

    python3 bench/workloads.py '{"workload": "sweep", "scale": "full", ...}'

The child imports the package from ``src``, sets the workload up
(presets, seeded inputs, any bases it needs), times each operation in a
closed loop with one caller, checks each output outside the operation's
time and prints one JSON line.  With ``"setup_only": true`` it stops
after set-up.  With ``"trace": true`` it wraps the package's layer
boundaries (see ``tracing.py``) around each operation and reports
per-layer span totals as well.

Workloads (sizes at the ``full`` scale):

* ``sweep``: ``complete`` on all 24 quadri orders at the default caps;
  one operation is one order.  Deterministic.
* ``normal_forms``: public ``normal_form`` calls on a batch of arity-10
  polynomials against three bases confirmed in set-up; one operation is
  one query, and the batch runs as several chunks, one interpreter each.
  Only this workload depends on the seed.
* ``dimensions``: the three-way dimension tables ``operad-gsb count``
  prints, from arity 2 (every method returns 1 at arity 1 without
  work); one operation is one arity row (enumeration or transfer count,
  rank oracle, closed formula).  Deterministic.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import sys
import time

SCALES = {
    "full": {
        "sweep": {"preset": "quadri"},
        "normal_forms": {"arity": 10, "batch": 600, "chunks": 3, "crosscheck": 2,
                         "anchor": 12},
        # presentation -> (largest arity, largest oracle arity); 11 rows,
        # so the median row is one row, not the mean of two rows that
        # differ tenfold
        "dimensions": {"dendriform": (7, 7), "quadri": (6, 5)},
    },
    "smoke": {
        "sweep": {"preset": "dendriform"},
        "normal_forms": {"arity": 6, "batch": 30, "chunks": 3, "crosscheck": 2,
                         "anchor": 6},
        "dimensions": {"dendriform": (5, 5), "quadri": (5, 4)},
    },
}

# bases the normal forms are taken against: (preset, order)
NF_BASES = (("quadri", "c<b<d<a"), ("quadri", "b<c<d<a"), ("dendriform", "succ<prec"))
# count-table bases: enumeration fallback everywhere, plus the transfer
# recurrence on the quadratic quadri basis
DIM_BASES = {
    "dendriform": ("succ<prec", None),
    "quadri": ("b<c<d<a", "c<b<d<a"),
}


def _presentation(og, preset: str):
    return og.dendriform() if preset == "dendriform" else og.quadri()


def _confirmed_basis(og, preset: str, order: str):
    pres = _presentation(og, preset)
    ord_ = og.OperationOrder.from_string(order, pres.signature)
    basis, report = og.completion.complete(pres.relations, ord_)
    if report.status != "gsb_confirmed":
        raise RuntimeError(f"{preset} {order}: basis not confirmed ({report.status})")
    return basis


def random_tree(og, rng: random.Random, symbols, arity: int):
    """Random binary tree monomial: random root label and left arity."""
    if arity == 1:
        return og.LEAF
    left = rng.randint(1, arity - 1)
    return og.node(
        rng.choice(symbols),
        random_tree(og, rng, symbols, left),
        random_tree(og, rng, symbols, arity - left),
    )


def make_queries(og, bases, seed, count: int, arity: int):
    """``count`` (basis index, polynomial) queries for ``seed``.

    Query ``i`` of the pool goes to basis ``i mod len(bases)`` and has 1
    to 4 random tree monomials with coefficients in {-2, -1, 1, 2}.  The
    pool is fixed; the seed draws the order of the queries (and so the
    chunk each lands in) and a factor in {-3, -2, -1, 1, 2, 3} for each
    query, which changes every coefficient and output but not the work.
    Query cost is heavy-tailed (one arity-10 query in a few hundred takes
    2.6 s and has 4700 output terms): with seeded monomials the batch
    time moved by 10% and the ten-beyond tail by 25% from seed to seed,
    and with seeded coefficients the median query by 10%, since
    coefficients decide which terms cancel.
    """
    pool_rng = random.Random("normal_forms:pool")
    pool = []
    for i in range(count):
        b = i % len(bases)
        symbols = bases[b].order.signature.symbols
        terms = {}
        for _ in range(pool_rng.randint(1, 4)):
            terms[random_tree(og, pool_rng, symbols, arity)] = pool_rng.choice((-2, -1, 1, 2))
        pool.append((b, terms))
    rng = random.Random(f"normal_forms:{seed}")
    rng.shuffle(pool)
    queries = []
    for b, terms in pool:
        factor = rng.choice((-3, -2, -1, 1, 2, 3))
        queries.append((b, og.TreePolynomial({t: factor * c for t, c in terms.items()}, arity)))
    return queries


def _contains_pattern(t, by_root) -> bool:
    """Whether a lead occurs anywhere in ``t``; independent of ``rewriting``."""
    stack = [t]
    while stack:
        s = stack.pop()
        if s.label is None:
            continue
        for lead in by_root.get(s.label.name, ()):
            if _matches_here(s, lead):
                return True
        stack.extend(s.children)
    return False


def _matches_here(s, p) -> bool:
    if p.label is None:
        return True
    if s.label is None or s.label.name != p.label.name:
        return False
    return all(_matches_here(a, b) for a, b in zip(s.children, p.children))


def _digest(outputs: list[str]) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


class Workload:
    """Set-up, timed operations and output checks of one repetition.

    ``setup`` builds everything outside the timed region; ``ops`` lists
    (label, thunk) pairs, run in order; ``check(label, result)`` returns
    the canonical output text of an operation or raises ``CheckFailed``.
    ``rep_seconds`` is what one repetition takes on the reference machine.
    """

    seeded = False
    rep_seconds: float

    def __init__(self, og, spec: dict, expected: dict):
        self.og = og
        self.spec = spec
        self.size = SCALES[spec["scale"]][spec["workload"]]
        self.expected = expected

    def after_checks(self, outputs: dict, failures: list[str]) -> dict:
        """Checks that need every output.

        May return ``failed`` (labels whose output failed) and
        ``check_digest`` (the digest to compare with the recorded one, in
        place of the digest of all outputs).
        """
        return {}


class CheckFailed(Exception):
    pass


class Sweep(Workload):
    rep_seconds = 20.0

    def setup(self):
        og = self.og
        self.pres = _presentation(og, self.size["preset"])
        names = sorted(s.name for s in self.pres.signature.symbols)
        self.orders = ["<".join(p) for p in itertools.permutations(names)]

    def ops(self):
        og = self.og
        for text in self.orders:
            def op(text=text):
                ord_ = og.OperationOrder.from_string(text, self.pres.signature)
                _, report = og.completion.complete(self.pres.relations, ord_)
                return report, ord_
            yield text, op

    def check(self, label, result) -> str:
        report, ord_ = result
        got = tuple((r.compositions, r.nonzero) for r in report.iterations)
        want = self.expected["sweep_row"](self.size["preset"], label)
        if got != want:
            raise CheckFailed(f"{label}: (comp, red) {got} != reference {want}")
        return json.dumps(report.to_json_dict(ord_), sort_keys=True)


class NormalForms(Workload):
    seeded = True
    rep_seconds = 28.0

    def setup(self):
        og = self.og
        self.bases = [_confirmed_basis(og, p, o) for p, o in NF_BASES]
        self.by_root = []
        for basis in self.bases:
            index: dict[str, list] = {}
            for lead in basis.leads:
                index.setdefault(lead.label.name, []).append(lead)
            self.by_root.append(index)
        batch = make_queries(og, self.bases, self.spec["seed"], self.size["batch"],
                             self.size["arity"])
        chunk, chunks = self.spec["chunk"], self.size["chunks"]
        self.queries = dict(list(enumerate(batch))[chunk::chunks])
        self.output_terms: dict[int, int] = {}

    def ops(self):
        rewriting = self.og.rewriting
        for i, (b, p) in self.queries.items():
            basis = self.bases[b]

            def op(p=p, basis=basis):
                return rewriting.normal_form(p, basis.rules, basis.order)
            yield i, op

    def check(self, label, result) -> str:
        b, _ = self.queries[label]
        self.output_terms[label] = len(result.terms)
        for mono in result.terms:
            if _contains_pattern(mono, self.by_root[b]):
                raise CheckFailed(
                    f"query {label}: output monomial {self.og.format_tree(mono)} "
                    "contains a lead")
        return self.og.format_polynomial(result)

    def after_checks(self, outputs: dict, failures: list[str]) -> dict:
        """Randomized-strategy cross-check on a seeded subset, and in the
        first chunk the digest of the fixed anchor batch.

        The randomized strategy re-sorts the whole polynomial at every
        step (5 s for a 650-term normal form), so the subset is drawn from
        the queries whose normal form has at most 100 terms.
        """
        og = self.og
        rng = random.Random(f"crosscheck:{self.spec['seed']}:{self.spec['chunk']}")
        small = sorted(i for i in outputs if self.output_terms[i] <= 100)
        picks = rng.sample(small, min(self.size["crosscheck"], len(small)))
        failed = []
        for i in picks:
            b, p = self.queries[i]
            basis = self.bases[b]
            strategy = random.Random(rng.randrange(2**32))
            nf = og.rewriting.Reducer(basis.rules, basis.order).reduce(p, rng=strategy)
            if og.format_polynomial(nf) != outputs[i]:
                failures.append(f"{i}: randomized strategy disagrees")
                failed.append(i)
        if self.spec["chunk"] != 0:
            return {"failed": failed, "check_digest": None}
        anchor = make_queries(og, self.bases, "anchor", self.size["anchor"],
                              self.size["arity"])
        texts = []
        for b, p in anchor:
            basis = self.bases[b]
            nf = og.rewriting.normal_form(p, basis.rules, basis.order)
            texts.append(og.format_polynomial(nf))
        return {"failed": failed, "check_digest": _digest(texts)}


class Dimensions(Workload):
    rep_seconds = 7.5

    def setup(self):
        og = self.og
        self.tables = []
        for preset, (n_max, oracle_max) in self.size.items():
            pres = _presentation(og, preset)
            enum_order, transfer_order = DIM_BASES[preset]
            enum_basis = _confirmed_basis(og, preset, enum_order)
            transfer_basis = (
                _confirmed_basis(og, preset, transfer_order) if transfer_order else None)
            formula = og.catalan if preset == "dendriform" else og.quadri_dim
            self.tables.append(
                (preset, pres, enum_basis, transfer_basis, formula, n_max, oracle_max))

    def ops(self):
        enumeration = self.og.enumeration
        for preset, pres, enum_basis, transfer_basis, formula, n_max, oracle_max in self.tables:
            for n in range(2, n_max + 1):
                def op(pres=pres, eb=enum_basis, tb=transfer_basis, n=n, om=oracle_max):
                    row = {}
                    if n <= om:
                        row["oracle"] = enumeration.dimension_by_linear_algebra(pres, n)
                    row["enumeration"] = enumeration.count_normal(eb, n)
                    if tb is not None:
                        row["transfer"] = enumeration.count_normal(tb, n)
                    return row
                yield (preset, n, formula), op

    def check(self, label, result) -> str:
        preset, n, formula = label
        want = formula(n)
        for method, value in result.items():
            if value != want:
                raise CheckFailed(f"{preset} n={n}: {method} count {value} != {want}")
        return json.dumps({"preset": preset, "n": n, **result}, sort_keys=True)


WORKLOADS = {"sweep": Sweep, "normal_forms": NormalForms, "dimensions": Dimensions}


def default_expected() -> dict:
    import reference

    return {"sweep_row": reference.expected_sweep_row, "digests": reference.DIGESTS}


def run_rep(spec: dict, expected: dict | None = None) -> dict:
    """Run one repetition in this interpreter and return its result.

    ``spec`` holds ``workload``, ``scale``, ``seed``, ``chunk`` (the part
    of a chunked batch to run) and ``trace``; ``expected`` defaults to
    ``reference.py`` (tests pass tampered copies to see that a wrong
    value is counted).

    Each output is checked and reduced to its canonical text right after
    its operation, outside the operation's time, so the benchmark does
    not keep hundreds of results alive for the garbage collector to scan
    during later operations.  ``wall_s`` is the sum of operation times.
    """
    import operad_gsb as og

    expected = expected or default_expected()
    workload = WORKLOADS[spec["workload"]](og, spec, expected)
    workload.setup()
    if spec.get("setup_only"):
        return {"timed_start": time.monotonic()}
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
    failures: list[str] = []
    outputs: dict = {}
    times = []
    timed_start = time.monotonic()
    for label, op in workload.ops():
        if tracer is not None:
            tracing.install_layers(tracer)
            op = tracer.wrap("benchmark.op", op)
        start = time.perf_counter()
        try:
            value, error = op(), None
        except Exception as exc:  # an operation that raises counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        times.append((label, time.perf_counter() - start))
        if tracer is not None:
            tracer.restore()
        if error is None:
            try:
                outputs[label] = workload.check(label, value)
            except CheckFailed as exc:
                error = str(exc)
        if error is not None:
            failures.append(f"{label}: {error}")
        del value
    layers = None
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])

    extra = workload.after_checks(outputs, failures)
    for label in extra.pop("failed", ()):
        outputs.pop(label, None)
    ordered = [outputs[label] for label, _ in times if label in outputs]
    digest = _digest(ordered) if len(ordered) == len(times) else None
    # one more check per repetition: the recorded digest of the seed commit
    want = expected["digests"].get((spec["workload"], spec["scale"]))
    checked = extra.get("check_digest", digest)
    digest_ok = None if not want or checked is None else checked == want
    if digest_ok is False:
        failures.append(f"output digest {checked} != recorded {want}")
    return {
        "timed_start": timed_start,
        "wall_s": sum(seconds for _, seconds in times),
        "ops": [[seconds, label in outputs] for label, seconds in times],
        "digest": digest,
        "checked_digest": checked,
        "digest_ok": digest_ok,
        "failures": failures[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run_rep(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
