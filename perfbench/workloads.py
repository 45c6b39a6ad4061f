"""The three workloads of the decision-engine benchmark.

Each workload owns three things:

* ``start()`` — the program-side state a user pays for before the first
  operation (for edit-session: an ``EngineSession`` behind a loopback
  ``ServiceServer``).  It runs inside the timed set-up window;
* ``generate(rng)`` — benchmark-side inputs with their *known answers*,
  derived from each generator's construction (a family's ``consistent``
  flag, a corrupted membership target) or from the bounded brute-force
  oracle of ``repro.verification.oracle`` — never from ``solve()``;
* ``next_pass(rng)`` / ``run(op)`` — one pass of operations and one
  timed operation through the program's public entry points only.

The program sees generated text (mapping files, XML documents, HTTP
request bodies), never the generator's objects.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """What one timed operation produced."""

    latency: float
    label: str = ""
    nodes: int = 0
    problems: int = 0
    decided: int = 0
    wrong: int = 0
    failed: bool = False
    rejected: bool = False
    errors: list[str] = field(default_factory=list)


def _verdict_code(verdict) -> bool | None:
    if verdict.is_proved:
        return True
    if verdict.is_refuted:
        return False
    return None


def _score(outcome: Outcome, got: bool | None, expected: bool | None,
           label: str) -> None:
    """Fold one verdict into *outcome* against its known answer."""
    outcome.problems += 1
    if got is None:
        return  # Unknown lowers decided_frac but is never wrong
    outcome.decided += 1
    if expected is not None and got != expected:
        outcome.wrong += 1
        outcome.errors.append(f"{label}: got {got}, expected {expected}")


def _log_uniform_grid(low: int, high: int, count: int) -> list[int]:
    """*count* sizes log-uniform on [low, high], stratified: the midpoint
    of each of *count* equal-width buckets in log space.  Fixed sizes
    keep the size mix, and so the latency quantiles, the same across
    seeds; the seed draws the documents' values."""
    span = math.log(high) - math.log(low)
    return [
        int(round(math.exp(math.log(low) + (i + 0.5) / count * span)))
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# cold-check
# ---------------------------------------------------------------------------

#: Figure-1 family sizes per scale, each run in both variants.  Sizes
#: reach every consistency and absolute-consistency route, including
#: the EXPTIME automata cells (arbitrary n=4..5, sm0 n=6) and the
#: bounded searches (distinct, equality-split n=3) that set the
#: latency tail.  arbitrary(4) appears three times so that the 90th
#: percentile falls inside one EXPTIME cell rather than in the gap
#: between two.
FAMILY_SIZES = {
    "full": {
        "arbitrary": (1, 2, 3, 4, 4, 4, 5, 5),
        "nested": (2, 4, 8, 12, 16, 32),
        "next-sibling": (2, 3, 4, 5, 6, 7, 8),
        "distinct": (1, 2, 3),
        "equality-split": (1, 2, 3),
        "sm0": (1, 2, 3, 4, 5, 6),
        "ptime": (2, 4, 8, 12, 16, 32),
        "wildcard": (2, 3, 4, 5, 6, 8),
    },
    "tiny": {
        "arbitrary": (1, 2),
        "nested": (2,),
        "next-sibling": (2,),
        "distinct": (1, 2),
        "equality-split": (1,),
        "sm0": (1, 2),
        "ptime": (2,),
        "wildcard": (2,),
    },
}

#: Seeded ``random_fully_specified_mapping`` draws per pass.  Their
#: cost varies from seed to seed, so they stay a tenth of the pass: a
#: larger share moves the latency median with the seed.
RANDOM_MAPPINGS = {"full": 10, "tiny": 4}

#: Oracle bounds for the answers the construction leaves open: a
#: bounded (source, target) pair proves consistency; finding none
#: leaves the answer open (the verdict is then only certified).
ORACLE_BOUNDS = dict(max_source_size=3, max_target_size=4, domain=(0, 1))


@dataclass
class CheckItem:
    label: str
    text: str
    expect_cons: bool | None
    expect_abscons: bool | None


class ColdCheck:
    """``repro check`` minus the interpreter, one mapping per operation.

    Every operation parses the mapping text and solves CONS and ABSCONS
    against a fresh ``CompilationCache`` (no disk tier), then certifies
    both decided verdicts under the same context, so nothing compiled
    survives from one operation to the next.
    """

    name = "cold-check"
    fixed_pool = True
    remote = False

    def __init__(self, scale: str):
        self.scale = scale
        self.items: list[CheckItem] = []

    def start(self) -> None:
        pass  # a cold check has no session: set-up is interpreter + import

    def generate(self, rng: random.Random) -> None:
        from repro.mappings.io import render_mapping
        from repro.verification.oracle import oracle_is_consistent
        from repro.workloads import families
        from repro.workloads.random_instances import (
            random_fully_specified_mapping,
        )

        generators = {
            "arbitrary": ("cons", families.cons_arbitrary_family),
            "nested": ("cons", families.cons_nested_family),
            "next-sibling": ("cons", families.cons_next_sibling_family),
            "distinct": ("cons", families.distinct_values_family),
            "equality-split": ("cons", families.equality_case_split_family),
            "sm0": ("abscons", families.abscons_sm0_family),
            "ptime": ("abscons", families.abscons_ptime_family),
            "wildcard": ("abscons", families.abscons_wildcard_family),
        }

        def oracle_cons(mapping) -> bool | None:
            found = oracle_is_consistent(mapping, **ORACLE_BOUNDS)
            return True if found else None

        for family, sizes in FAMILY_SIZES[self.scale].items():
            kind, make = generators[family]
            for n in sizes:
                for flag in (True, False):
                    mapping = make(n, flag)
                    if kind == "cons":
                        # no pair at all => no source tree has a solution
                        # (every family's source DTD is satisfiable)
                        cons, abscons = flag, (None if flag else False)
                    else:
                        # absolutely consistent => consistent
                        abscons = flag
                        cons = True if flag else oracle_cons(mapping)
                    self.items.append(CheckItem(
                        f"{family}({n},{'c' if flag else 'i'})",
                        render_mapping(mapping), cons, abscons,
                    ))
        for index in range(RANDOM_MAPPINGS[self.scale]):
            mapping = random_fully_specified_mapping(
                rng,
                n_stds=rng.randint(1, 3),
                source_labels=rng.randint(3, 5),
                target_labels=rng.randint(3, 5),
            )
            self.items.append(CheckItem(
                f"random#{index}", render_mapping(mapping),
                oracle_cons(mapping), None,
            ))

    def properties(self) -> dict:
        families: dict[str, int] = {}
        for item in self.items:
            family = item.label.split("(")[0].split("#")[0]
            families[family] = families.get(family, 0) + 1
        return {
            "ops_per_pass": len(self.items),
            "family_mix": families,
            "known_cons": sum(i.expect_cons is not None for i in self.items),
            "known_abscons": sum(
                i.expect_abscons is not None for i in self.items
            ),
        }

    def next_pass(self, rng: random.Random) -> list[CheckItem]:
        order = list(self.items)
        rng.shuffle(order)
        return order

    def run(self, item: CheckItem, certify_all: bool = True) -> Outcome:
        import repro.engine as engine
        import repro.mappings.io as mapping_io

        outcome = Outcome(latency=0.0, label=item.label)
        started = time.perf_counter()
        try:
            mapping = mapping_io.parse_mapping(item.text)
            context = engine.ExecutionContext(
                engine.Budget.default(), cache=engine.CompilationCache()
            )
            verdicts = [
                engine.solve(engine.ConsistencyProblem(mapping), context),
                engine.solve(
                    engine.AbsoluteConsistencyProblem(mapping), context
                ),
            ]
            with context.activate():
                for verdict in verdicts:
                    if not verdict.is_unknown:
                        engine.certify(verdict)
        except Exception as error:  # an operation that raised is a failure
            outcome.latency = time.perf_counter() - started
            outcome.failed = True
            outcome.errors.append(f"{item.label}: {type(error).__name__}: {error}")
            return outcome
        outcome.latency = time.perf_counter() - started
        _score(outcome, _verdict_code(verdicts[0]), item.expect_cons,
               f"{item.label} CONS")
        _score(outcome, _verdict_code(verdicts[1]), item.expect_abscons,
               f"{item.label} ABSCONS")
        return outcome

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# member-docs
# ---------------------------------------------------------------------------

#: Flat-document sizes (items per document).  Small/medium documents are
#: drawn log-uniformly below the pattern-engine cutover; the "large"
#: band straddles the 32768-node point where ``kernel.py`` switches
#: from ``PatternEngine`` to ``CompactPatternEngine``.
MEMBER_SHAPE = {
    "full": {"small": (16, 512, 36), "large": (12000, 52000, 2),
             "university": (6, 18)},
    "tiny": {"small": (8, 64, 3), "large": None, "university": (2,)},
}

#: Distinct data values per flat document.  Fixed, because the k=2
#: obligation count grows with its square: a seeded count would move
#: the latency quantiles with the seed.
MEMBER_VALUES = 8


@dataclass
class MemberItem:
    label: str
    mapping: object
    source_text: str
    target_text: str
    nodes: int  # both documents together
    expected: bool
    source_nodes: int


class MemberDocs:
    """A data-exchange pipeline asking whether a document pair is in [[M]].

    One operation parses a source and a target document from XML text
    and solves ``MembershipProblem``.  Half of the flat targets are
    corrupted by construction (every ``b`` carrying one of the source's
    values is removed), so their expected answer is Refuted.
    """

    name = "member-docs"
    fixed_pool = True
    remote = False

    def __init__(self, scale: str):
        self.scale = scale
        self.items: list[MemberItem] = []

    def start(self) -> None:
        pass

    def generate(self, rng: random.Random) -> None:
        from repro.mappings.io import parse_mapping, render_mapping
        from repro.workloads import families
        from repro.workloads.university import (
            university_mapping,
            university_source_document,
            university_target_document,
        )
        from repro.xmlmodel.tree import TreeNode
        from repro.xmlmodel.xml_io import to_xml

        shape = MEMBER_SHAPE[self.scale]
        mappings = {
            k: parse_mapping(render_mapping(families.membership_mapping(k)))
            for k in (1, 2)
        }
        # (n, k, corrupt): every small size in all four variants; the
        # large pair straddles the cutover, the smaller one corrupted
        # so that both of its trees stay on the object engine
        shapes = [
            (n, k, corrupt)
            for n in _log_uniform_grid(*shape["small"])
            for k in (1, 2)
            for corrupt in (False, True)
        ]
        if shape["large"] is not None:
            below, above = _log_uniform_grid(*shape["large"])
            shapes += [(below, 1, True), (above, 1, False)]
        for n, k, corrupt in shapes:
            values = [rng.randrange(MEMBER_VALUES) for __ in range(n)]
            source = TreeNode("r", (), tuple(TreeNode("a", (v,)) for v in values))
            kept = list(values)
            rng.shuffle(kept)
            if corrupt:
                dropped = rng.choice(values)
                kept = [v for v in kept if v != dropped]
            target = TreeNode("t", (), tuple(TreeNode("b", (v,)) for v in kept))
            mapping = mappings[k]
            self.items.append(MemberItem(
                f"flat(k={k},n={n}{',corrupt' if corrupt else ''})",
                mapping,
                to_xml(source, mapping.source_dtd),
                to_xml(target, mapping.target_dtd),
                2 + len(values) + len(kept),
                not corrupt,
                1 + len(values),
            ))
        # the paper's university mapping; the basic variant gets a
        # corrupted target (one course dropped)
        for order_preserving in (True, False):
            mapping = parse_mapping(render_mapping(
                university_mapping(order_preserving)
            ))
            for professors in shape["university"]:
                source = university_source_document(
                    professors, 5, seed=rng.randrange(1 << 30)
                )
                target = university_target_document(source)
                corrupt = not order_preserving
                if corrupt:
                    target = TreeNode("r", (), target.children[1:])
                self.items.append(MemberItem(
                    f"university(order={order_preserving},profs={professors}"
                    f"{',corrupt' if corrupt else ''})",
                    mapping,
                    to_xml(source, mapping.source_dtd),
                    to_xml(target, mapping.target_dtd),
                    source.size + target.size,
                    not corrupt,
                    source.size,
                ))

    def properties(self) -> dict:
        flat = [i for i in self.items if i.label.startswith("flat")]
        nodes = sorted(i.source_nodes for i in flat)
        return {
            "ops_per_pass": len(self.items),
            "flat_pairs": len(flat),
            "flat_source_nodes_min_median_max": [
                nodes[0], nodes[len(nodes) // 2], nodes[-1]
            ],
            "sources_over_32768_nodes": sum(n > 32768 for n in nodes),
            "corrupted_targets": sum(not i.expected for i in self.items),
            "university": [i.label for i in self.items
                           if i.label.startswith("university")],
        }

    def next_pass(self, rng: random.Random) -> list[MemberItem]:
        order = list(self.items)
        rng.shuffle(order)
        return order

    def run(self, item: MemberItem, certify_all: bool = False) -> Outcome:
        import repro.engine as engine
        import repro.xmlmodel.xml_io as xml_io

        outcome = Outcome(latency=0.0, label=item.label, nodes=item.nodes)
        started = time.perf_counter()
        try:
            source = xml_io.from_xml(item.source_text, item.mapping.source_dtd)
            target = xml_io.from_xml(item.target_text, item.mapping.target_dtd)
            verdict = engine.solve(
                engine.MembershipProblem(item.mapping, source, target)
            )
            outcome.latency = time.perf_counter() - started
            if certify_all and not verdict.is_unknown:
                engine.certify(verdict)
        except Exception as error:
            outcome.latency = time.perf_counter() - started
            outcome.failed = True
            outcome.errors.append(f"{item.label}: {type(error).__name__}: {error}")
            return outcome
        _score(outcome, _verdict_code(verdict), item.expected, item.label)
        return outcome

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# edit-session
# ---------------------------------------------------------------------------

#: Stds in the edited mapping stream.
STREAM_STDS = {"full": 20, "tiny": 4}
#: One pass: this many /delta writes, /check reads and /lint reads, in a
#: seeded order.
EDIT_MIX = {"full": (40, 40, 20), "tiny": (4, 4, 2)}
#: Reads pick among the last few revisions the stream produced.
RECENT_REVISIONS = 8
#: Std variant 3 writes an undeclared target label: its target pattern
#: is unsatisfiable, so every revision containing it is not absolutely
#: consistent.  Variants 0-2 are satisfiable rewrites.
BROKEN = 3


def stream_text(variants: list[int]) -> str:
    """One revision of the edited mapping stream (per-std disjoint labels).

    Every source relation is starred, so the empty source ``r`` has the
    empty solution and every revision is consistent; the targets are
    starred too, so a revision is absolutely consistent exactly when no
    std uses the unsatisfiable variant.
    """
    n = len(variants)
    src = ["source:", "    r -> " + ", ".join(f"a{i}*" for i in range(n))]
    tgt = ["target:", "    r -> " + ", ".join(f"b{i}*" for i in range(n))]
    for i in range(n):
        src += [f"    a{i}(x{i}) -> c{i}*", f"    c{i}(y{i})"]
        tgt += [f"    b{i}(x{i}) -> d{i}*", f"    d{i}(y{i})"]
    targets = (
        "r[b{i}(v)[d{i}(w)]]",
        "r[b{i}(v)]",
        "r[b{i}(w)[d{i}(v)]]",
        "r[b{i}(v), z{i}(w)]",
    )
    stds = [
        f"std: r[a{i}(v)[c{i}(w)]] -> " + targets[variant].format(i=i)
        for i, variant in enumerate(variants)
    ]
    return "\n".join(src + tgt + stds) + "\n"


@dataclass
class EditOp:
    command: str
    text: str
    abscons: bool
    request: dict


class EditSession:
    """An editor talking to a warm daemon: one closed-loop HTTP client.

    ``/delta`` single-std edits of one mapping stream are the writes
    (cone invalidation plus recompilation); ``/check`` and ``/lint`` of
    recently seen revisions are the reads, hitting the same cache the
    writes invalidate.
    """

    name = "edit-session"
    fixed_pool = False
    remote = True

    def __init__(self, scale: str):
        self.scale = scale
        self.server = None
        self.url = ""
        self.variants: list[int] = []
        self.recent: list[tuple[str, bool]] = []

    def start(self) -> None:
        from repro.service.server import ServiceServer
        from repro.service.session import EngineSession

        self.server = ServiceServer(EngineSession(jobs=1)).start()
        self.url = self.server.url

    def generate(self, rng: random.Random) -> None:
        self.variants = [rng.randrange(BROKEN) for __ in range(STREAM_STDS[self.scale])]
        self.recent = []

    def properties(self) -> dict:
        writes, checks, lints = EDIT_MIX[self.scale]
        return {
            "ops_per_pass": writes + checks + lints,
            "stream_stds": STREAM_STDS[self.scale],
            "writes_delta": writes,
            "reads_check": checks,
            "reads_lint": lints,
            "read_revisions": RECENT_REVISIONS,
        }

    def _edit(self, rng: random.Random) -> EditOp:
        index = rng.randrange(len(self.variants))
        current = self.variants[index]
        broken = sum(v == BROKEN for v in self.variants)
        if current == BROKEN or (broken and rng.random() < 0.5):
            # repair a broken std (or the chosen one) so revisions keep
            # alternating between both ABSCONS answers
            if current != BROKEN:
                index = self.variants.index(BROKEN)
            variant = rng.randrange(BROKEN)
        else:
            variant = BROKEN if rng.random() < 0.3 else rng.choice(
                [v for v in range(BROKEN) if v != current]
            )
        self.variants[index] = variant
        text = stream_text(self.variants)
        abscons = BROKEN not in self.variants
        self.recent = (self.recent + [(text, abscons)])[-RECENT_REVISIONS:]
        return EditOp("delta", text, abscons,
                      {"name": "stream", "mapping": text})

    def next_pass(self, rng: random.Random) -> list:
        writes, checks, lints = EDIT_MIX[self.scale]
        kinds = ["delta"] * writes + ["check"] * checks + ["lint"] * lints
        rng.shuffle(kinds)
        # the first op of a pass is a write, so reads always have a
        # revision to pick from; ops are built lazily, in order, because
        # each write changes the stream the next read sees
        kinds.remove("delta")
        kinds.insert(0, "delta")
        return [(kind, rng) for kind in kinds]

    def _op(self, kind: str, rng: random.Random) -> EditOp:
        if kind == "delta":
            return self._edit(rng)
        text, abscons = rng.choice(self.recent)
        return EditOp(kind, text, abscons, {"mappings": [text]})

    def run(self, planned, certify_all: bool = False) -> Outcome:
        from repro.service.client import ServiceUnavailable, call_service

        op = self._op(*planned)
        outcome = Outcome(latency=0.0, label=op.command)
        started = time.perf_counter()
        try:
            response = call_service(self.url, op.command, op.request)
        except ServiceUnavailable as error:
            outcome.latency = time.perf_counter() - started
            outcome.failed = True
            outcome.errors.append(f"{op.command}: {error}")
            return outcome
        outcome.latency = time.perf_counter() - started
        error = response.get("error") or {}
        if error.get("type") == "Saturated":
            outcome.rejected = outcome.failed = True
            return outcome
        if not response.get("ok"):
            outcome.failed = True
            outcome.errors.append(f"{op.command}: {error}")
            return outcome
        if op.command == "delta":
            verdicts = response["verdicts"]
            pairs = (verdicts["consistency"],
                     verdicts["absolutely_consistent"])
        elif op.command == "check":
            result = response["results"][0]
            pairs = (result["consistent"], result["absolutely_consistent"])
        else:
            return outcome  # lint: no verdicts, only ok/failed
        codes = {"proved": True, "refuted": False, "unknown": None}
        _score(outcome, codes[pairs[0]["verdict"]], True, f"{op.command} CONS")
        _score(outcome, codes[pairs[1]["verdict"]], op.abscons,
               f"{op.command} ABSCONS")
        return outcome

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (ColdCheck, MemberDocs, EditSession)}
