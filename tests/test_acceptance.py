"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
import string
import time
from collections import Counter
from dataclasses import replace

from kgenrich.align import (AlignConfig, AlignMode, PropertyPath, enumerate_paths,
                            gestalt_similarity, select_path)
from kgenrich.cli import main as cli_main
from kgenrich.config import load_config, load_graph
from kgenrich.consistency import AgreementReport, format_rate
from kgenrich.gaps import detect_gaps
from kgenrich.pipeline import Run, batch_enrich, enrich_property
from kgenrich.retrieve import CandidateStatement
from kgenrich.store import Literal, ValueKind, serialize_value, value_kind, write_edge_tsv
from kgenrich.validate import (RejectReason, RelationMode, ValidationSettings,
                               ValueTypeConstraint, load_constraints, validate_detailed)

from conftest import (COMPANY_CLASS, INDUSTRY_PROP, graph_from_edges,
                      industry_constraints, perfbench_module)
from oracles import ratcliff_obershelp, simple_path_sequences


def _report(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS - {text}")


# -- 1. Fig-1-style golden fixture ---------------------------------------------

def test_criterion_01_industry_of_companies_end_to_end(company_fixture):
    fx = company_fixture
    assert 40 <= fx.target.edge_count <= 60
    assert 30 <= fx.external.edge_count <= 50
    started = time.monotonic()
    result = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                             entity_class=COMPANY_CLASS, constraints=fx.constraints)
    elapsed = time.monotonic() - started
    assert result.selected_path.steps == ("dbp:industry",)
    assert result.s_e >= 1
    (stmt,) = result.statements
    assert stmt.subject == fx.gap_subject and stmt.object == fx.expected_value
    assert result.s_total == result.s_w + result.s_e
    assert elapsed < 1.0
    _report(1, f"P452 -> dbp:industry, gap filled, s_total={result.s_total}, "
               f"{elapsed:.3f}s")


# -- 2. Four candidate rows: two accepted, two rejected --------------------------

def test_criterion_02_candidate_assessment_rows():
    g = graph_from_edges("wd", [
        ("Q217117", "P31", "Q483394"),
        ("Q9764", "P31", "Q9730"),
        ("Q8070394", "P31", "Q5"),
    ])
    path_known = [("Qk", "Qv")]

    def run(subject, prop, obj, allowed):
        cand = CandidateStatement(subject=subject, property=prop,
                                  object=obj, external_object=obj,
                                  path=PropertyPath(steps=("p",)))
        outcome = validate_detailed(g, [cand], path_known,
                                    ValueTypeConstraint(prop, frozenset(allowed)))
        accepted, verdicts = outcome.accepted, outcome.verdicts
        return bool(accepted), verdicts[0].reject_reason

    correct = run("Q6530279", "P136", "Q217117", {"Q483394"})
    wrong_datatype = run("Q15401730", "P413",
                         Literal.monolingual("Left back", "en"), {"Q4611891"})
    wrong_value_type = run("Q704160", "P2701", "Q9764", {"Q235557"})
    inaccurate = run("Q5402674", "P4608", "Q8070394", {"Q5"})

    assert correct == (True, None)
    assert wrong_datatype == (False, RejectReason.WRONG_DATATYPE)
    assert wrong_value_type == (False, RejectReason.WRONG_VALUE_TYPE)
    # logically consistent but factually wrong: accepted, veracity out of scope
    assert inaccurate == (True, None)
    _report(2, "2 accepted (incl. the inaccurate-but-logical row), "
               "WrongDatatype + WrongValueType rejected")


# -- 3. Ablation fixture and gold-set dominance ----------------------------------

GOLD_SET = [
    # (target label, gold external property, {external property: support})
    ("industry", "dbp:industry", {"dbp:industry": 10, "dbp:product": 4}),
    ("continent", "dbp:continent", {"dbp:continent": 4, "dbp:location": 9}),
    ("architectural style", "dbp:architecturalStyle",
     {"dbp:architecturalStyle": 3, "dbp:architecture": 8}),
    ("spouse", "dbp:spouse", {"dbp:spouse": 3, "dbp:partner": 7}),
    ("birth place", "dbp:birthPlace", {"dbp:birthPlace": 3, "dbp:hometown": 9}),
    ("film director", "dbp:director", {"dbp:director": 12, "dbp:cinematography": 3}),
    ("cast member", "dbp:starring",
     dict({"dbp:starring": 20, "dbp:pastMember": 2},
          **{f"dbp:role{c}": 19 - i for i, c in enumerate("ABCDEFGHI")})),
    ("author", "dbp:writer", {"dbp:writer": 8, "dbp:anchor": 3}),
    ("country", "dbp:state", {"dbp:state": 9, "dbp:countries": 4}),
    ("genre", "dbp:type", {"dbp:type": 8, "dbp:gender": 2}),
]


def _wire_gold_graph():
    edges = []
    pair_sets = []
    for slot, (_, _, supports) in enumerate(GOLD_SET):
        width = max(supports.values())
        pairs = {(f"dbr:S{slot}_{i}", f"dbr:O{slot}_{i}") for i in range(width)}
        for ext_prop, count in supports.items():
            for i in range(count):
                edges.append((f"dbr:S{slot}_{i}", ext_prop, f"dbr:O{slot}_{i}"))
        pair_sets.append(pairs)
    return graph_from_edges("dbp", edges), pair_sets


def _hard_f1(predictions, gold):
    correct = sum(1 for pred, want in zip(predictions, gold) if pred == want)
    predicted = sum(1 for pred in predictions if pred is not None)
    precision = correct / predicted if predicted else 0.0
    recall = correct / len(gold)
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def test_criterion_03_hybrid_dominates_ablations():
    graph, pair_sets = _wire_gold_graph()
    gold = [row[1] for row in GOLD_SET]
    predictions = {}
    for mode in (AlignMode.HYBRID, AlignMode.FREQUENCY_ONLY, AlignMode.STRING_ONLY):
        cfg = AlignConfig(max_path_length=1, mode=mode)
        preds = []
        for (label, _, _), pairs in zip(GOLD_SET, pair_sets):
            ranked = enumerate_paths(graph, pairs, cfg)
            chosen = select_path(ranked, label, graph, cfg)
            preds.append(chosen.steps[0] if chosen else None)
        predictions[mode] = preds

    by_label = {row[0]: i for i, row in enumerate(GOLD_SET)}
    # Finding-3 behaviors, exactly as published
    assert predictions[AlignMode.FREQUENCY_ONLY][by_label["continent"]] == "dbp:location"
    assert predictions[AlignMode.HYBRID][by_label["continent"]] == "dbp:continent"
    assert predictions[AlignMode.STRING_ONLY][by_label["cast member"]] == "dbp:pastMember"
    assert predictions[AlignMode.HYBRID][by_label["cast member"]] == "dbp:starring"

    f1_hybrid = _hard_f1(predictions[AlignMode.HYBRID], gold)
    f1_freq = _hard_f1(predictions[AlignMode.FREQUENCY_ONLY], gold)
    f1_string = _hard_f1(predictions[AlignMode.STRING_ONLY], gold)
    assert f1_hybrid > f1_freq
    assert f1_hybrid > f1_string
    _report(3, f"hard F1 hybrid={f1_hybrid:.2f} > frequency={f1_freq:.2f}, "
               f"string={f1_string:.2f}; Finding-3 selections reproduced")


# -- 4. Gestalt similarity oracle equivalence ------------------------------------

def test_criterion_04_gestalt_oracle_equivalence():
    rng = random.Random(4242)
    alphabet = string.ascii_lowercase + string.digits + " _"
    checked = 0
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        assert abs(gestalt_similarity(a, b) - ratcliff_obershelp(a, b)) <= 1e-12
        checked += 1
    for _ in range(50):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        assert gestalt_similarity(a, a) == 1.0
        left = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 30)))
        right = "".join(rng.choice("stuvwxyz") for _ in range(rng.randint(1, 30)))
        assert gestalt_similarity(left, right) == 0.0
    _report(4, f"{checked} random pairs exact vs brute-force reference; "
               "identity=1.0, disjoint=0.0")


# -- 5. Path enumeration oracle equivalence ---------------------------------------

def test_criterion_05_path_support_oracle_equivalence():
    fixtures = 0
    for seed in range(50):
        rng = random.Random(1000 + seed)
        acyclic = seed % 2 == 0
        n_nodes = rng.randint(30, 250)
        n_edges = rng.randint(50, min(1000, 4 * n_nodes))
        edges = set()
        attempts = 0
        while len(edges) < n_edges and attempts < n_edges * 20:
            attempts += 1
            i, j = rng.randrange(n_nodes), rng.randrange(n_nodes)
            if acyclic and i >= j:
                continue
            edges.add((f"N{i}", f"P{rng.randrange(8)}", f"N{j}"))
        edges = sorted(edges)
        graph = graph_from_edges("x", edges)
        nodes = sorted({e[0] for e in edges} | {e[2] for e in edges})
        pairs = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(4)}
        cfg = AlignConfig(max_path_length=4)
        got = {p.steps: p.support for p in enumerate_paths(graph, pairs, cfg)}
        want: dict = {}
        for subj, obj in pairs:
            for seq in simple_path_sequences(edges, subj, obj, 4):
                want[seq] = want.get(seq, 0) + 1
        assert got == want, f"fixture seed {seed} diverged"
        fixtures += 1
    assert fixtures == 50
    _report(5, "support counts equal exhaustive oracle on 50 seeded "
               "DAG/cyclic fixtures (<=1000 edges, L=4)")


# -- 6. Published rate arithmetic --------------------------------------------------

def test_criterion_06_rate_arithmetic():
    def r_agree(agree, disagree):
        report = AgreementReport(property="P", s_overlap=agree + disagree,
                                 s_agree=agree, s_disagree=disagree)
        return report.r_agree_str

    assert r_agree(461_089, 422_989) == "52.15%"
    assert r_agree(128_523, 90_924) == "58.57%"
    assert r_agree(13_607, 2_697) == "83.46%"
    assert format_rate(1_271_862, 1_424_526) == "89.28%"
    assert format_rate(21_023_187, 106_104_551) == "19.81%"
    _report(6, "52.15% / 58.57% / 83.46% / 89.28% reproduced exactly at "
               "2-decimal rendering")


# -- 7. Validator intersection law -------------------------------------------------

_KIND_ORDER = [ValueKind.ITEM, ValueKind.DATE, ValueKind.QUANTITY,
               ValueKind.MONOLINGUAL, ValueKind.STRING, ValueKind.OTHER]


def _test_side_modal(known):
    counts = Counter(value_kind(obj) for _, obj in known)
    best = max(counts.values())
    return next(k for k in _KIND_ORDER if counts.get(k) == best)


def _test_side_reaches(graph, obj_id, allowed, mode, cap):
    if not graph.has_node(obj_id):
        return False
    relations = {"instance": ("P31",), "subclass": ("P279",),
                 "both": ("P31", "P279")}[mode.value]
    seeds = [o for rel in relations for o in graph.objects(obj_id, rel)
             if isinstance(o, str)]
    frontier, seen, depth = seeds, set(seeds), 0
    while frontier:
        if any(t in allowed for t in frontier):
            return True
        if depth >= cap:
            return False
        nxt = []
        for t in frontier:
            if not graph.has_node(t):
                continue
            for parent in graph.objects(t, "P279"):
                if isinstance(parent, str) and parent not in seen:
                    seen.add(parent)
                    nxt.append(parent)
        frontier, depth = nxt, depth + 1
    return False


def test_criterion_07_intersection_law_randomized():
    rng = random.Random(77077)
    path = PropertyPath(steps=("p",))

    # a small type system with chains and a cycle
    edges = []
    classes = [f"C{i}" for i in range(12)]
    for i in range(11):
        if rng.random() < 0.6:
            edges.append((classes[i], "P279", classes[i + 1]))
    edges += [("C3", "P279", "C1"), ("C1", "P279", "C3")]  # cycle
    objects = []
    for i in range(300):
        oid = f"O{i}"
        objects.append(oid)
        if rng.random() < 0.85:
            edges.append((oid, rng.choice(["P31", "P279"]), rng.choice(classes)))
    graph = graph_from_edges("wd", edges)

    settings = ValidationSettings(cutoff_year=2022, depth_cap=12)
    total = accepted_total = 0
    properties = 0
    for pidx in range(22):
        prop = f"P9{pidx:03d}"
        properties += 1
        expected_bias = rng.choice([ValueKind.ITEM, ValueKind.ITEM, ValueKind.ITEM,
                                    ValueKind.DATE, ValueKind.QUANTITY])
        known = []
        for i in range(rng.randint(3, 8)):
            if expected_bias is ValueKind.ITEM:
                known.append((f"K{i}", rng.choice(objects)))
            elif expected_bias is ValueKind.DATE:
                known.append((f"K{i}", Literal.date(rng.randint(1800, 2020))))
            else:
                known.append((f"K{i}", Literal.quantity(i)))
        constraint = None
        if rng.random() < 0.8:
            constraint = ValueTypeConstraint(
                prop, frozenset(rng.sample(classes, rng.randint(1, 3))),
                relation_mode=rng.choice(list(RelationMode)),
                exceptions=frozenset(f"X{j}" for j in range(rng.randint(0, 2))))

        batch = []
        for i in range(460):
            subject = rng.choice([f"U{i}", "X0", "X1"])
            roll = rng.random()
            if roll < 0.45:
                obj = rng.choice(objects)
                unresolved = False
            elif roll < 0.55:
                obj = f"missing{i}"  # item absent from the graph
                unresolved = False
            elif roll < 0.65:
                obj = f"ext{i}"
                unresolved = True
            elif roll < 0.80:
                obj = Literal.date(rng.randint(1900, 2100))
                unresolved = False
            elif roll < 0.90:
                obj = Literal.quantity(rng.randint(0, 10_000))
                unresolved = False
            else:
                obj = Literal.string(f"s{i}")
                unresolved = False
            batch.append(CandidateStatement(subject=subject, property=prop,
                                            object=obj, external_object=obj,
                                            path=path, unresolved=unresolved))
        outcome = validate_detailed(graph, batch, known, constraint, settings)
        accepted, verdicts = outcome.accepted, outcome.verdicts
        total += len(batch)
        accepted_total += len(accepted)

        expected = _test_side_modal(known)
        datatype_pass = {c for c in batch
                         if not c.unresolved and value_kind(c.object) == expected}
        valuetype_pass = set()
        for c in batch:
            if constraint is None or value_kind(c.object) is not ValueKind.ITEM \
                    or c.unresolved:
                valuetype_pass.add(c)
            elif c.subject in constraint.exceptions:
                valuetype_pass.add(c)
            elif _test_side_reaches(graph, c.object, constraint.allowed_classes,
                                    constraint.relation_mode, settings.depth_cap):
                valuetype_pass.add(c)
        range_pass = {c for c in batch
                      if value_kind(c.object) is not ValueKind.DATE
                      or c.object.year < settings.cutoff_year}
        assert set(accepted) == datatype_pass & valuetype_pass & range_pass

        for c in batch:
            if value_kind(c.object) is ValueKind.DATE \
                    and c.object.year >= settings.cutoff_year:
                assert c not in accepted
        if constraint is not None and expected is ValueKind.ITEM:
            for c in batch:
                if c.subject in constraint.exceptions and c in datatype_pass:
                    assert c in accepted  # exception bypasses value type

    assert total >= 10_000 and properties >= 20
    _report(7, f"{total} candidates / {properties} properties: accepted set equals "
               "independent 3-way intersection; exceptions bypass; future dates rejected")


# -- 8. Partition and safety invariants --------------------------------------------

def test_criterion_08_partition_and_safety_invariants(company_fixture):
    fx = company_fixture
    checked = 0
    for prop in (INDUSTRY_PROP, "P571", "P17", "P9999"):
        partition = detect_gaps(fx.target, prop, (COMPANY_CLASS, "P31"))
        assert not (partition.known_subjects & partition.unknown_subjects)
        result = enrich_property(fx.target, fx.external, prop, fx.cfg,
                                 entity_class=COMPANY_CLASS,
                                 constraints=fx.constraints)
        candidates = []
        if result.selected_path is not None:
            run = Run(fx.target, fx.cfg, constraints=fx.constraints)
            candidates = run.candidates(fx.external, prop, result.selected_path,
                                        partition.unknown_subjects)
        emitted_pairs = {(s.subject, s.object) for s in result.statements}
        assert emitted_pairs <= {(c.subject, c.object) for c in candidates}  # S_e within S_g
        assert result.s_e <= result.s_g
        emitted = {s.subject for s in result.statements}
        assert not emitted & partition.known_subjects
        assert emitted <= partition.unknown_subjects
        checked += 1
    _report(8, f"E_w/E_u disjoint, S_e within S_g, no emitted subject known "
               f"({checked} properties)")


# -- 9. Batch determinism ------------------------------------------------------------

def test_criterion_09_batch_determinism(tmp_path, company_fixture):
    fx = company_fixture
    write_edge_tsv(fx.target, tmp_path / "target.tsv")
    write_edge_tsv(fx.external, tmp_path / "external.tsv")
    (tmp_path / "constraints.tsv").write_text(
        "#mode=both\nproperty\tallowed_class\n"
        + "".join(f"P452\t{c}\n" for c in sorted(
            industry_constraints()[INDUSTRY_PROP].allowed_classes)))
    (tmp_path / "config.yaml").write_text(
        "graphs:\n"
        "  target: {path: target.tsv, tag: wd}\n"
        "  externals:\n"
        "    - {path: external.tsv, tag: dbp}\n"
        "mappings:\n"
        "  dbp: {link_property: sitelink, prefix: 'dbr:'}\n"
        "alignment: {max_path_length: 1}\n"
        "validation: {constraints: constraints.tsv}\n"
    )
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code = cli_main(["batch", "--config", str(tmp_path / "config.yaml"),
                         "--properties", f"{INDUSTRY_PROP},P571,P17",
                         "--class", COMPANY_CLASS,
                         "--out-dir", str(out_dir), "--no-timings"])
        assert code == 0
        outputs.append(((out_dir / "statements.tsv").read_bytes(),
                        (out_dir / "report.tsv").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "statement files differ"
    assert outputs[0][1] == outputs[1][1], "report files differ"
    _report(9, "two batch runs produced byte-identical statement and report files")


# -- 10. Desk-scale throughput --------------------------------------------------------

def _dbp_l2(directory, seed=99, scale=1.0):
    """perfbench's dbp-l2 workload, written to ``directory`` and read back from its files."""
    fx = perfbench_module("workloads").dbp_l2(seed, scale)
    fx.write(directory)
    cfg = load_config(directory / "config.yaml")
    target, external = (load_graph(spec, cfg.prefixes) for spec in (cfg.target, *cfg.externals))
    return fx, cfg, target, external


def _planted(batch):
    """The batch's statements and selected paths, keyed as the workload plants them."""
    statements = {}
    for s in batch.statements():
        key = f"{s.subject}\t{s.property}\t{serialize_value(s.object)}"
        statements.setdefault(key, []).append(s.source_graph)
    paths = {f"{r.property}|{r.graph}": r.selected_path.path_str
             for r in batch.rows if r.selected_path}
    return statements, paths


def test_criterion_10_desk_scale_throughput(tmp_path):
    fx, cfg, target, external = _dbp_l2(tmp_path)
    properties, constraints = fx.properties, load_constraints(cfg.validation.constraints)
    assert external.edge_count >= 100_000
    started = time.monotonic()
    batch = batch_enrich(target, [external], properties, cfg,
                         entity_class="CLS", constraints=constraints)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"batch took {elapsed:.1f}s"
    ok_rows = [r for r in batch.rows if r.status == "ok"]
    assert len(ok_rows) == len(properties)
    assert all(r.s_e > 0 for r in ok_rows)
    assert _planted(batch) == (fx.statements, fx.paths)
    _report(10, f"20 properties over a {external.edge_count}-edge external graph "
                f"in {elapsed:.1f}s (< 60s)")


def test_dbp_l2_at_path_length_4_finds_the_planted_paths_and_statements(tmp_path):
    # L = 4 takes the two-hop join; a tenth of the desk-scale fixture
    fx, cfg, target, external = _dbp_l2(tmp_path, scale=0.1)
    cfg = replace(cfg, alignment=replace(cfg.alignment, max_path_length=4))
    batch = batch_enrich(target, [external], fx.properties, cfg,
                         entity_class=fx.entity_class, constraints=load_constraints(cfg.validation.constraints))
    assert [r.status for r in batch.rows] == ["ok"] * len(fx.properties)
    assert _planted(batch) == (fx.statements, fx.paths)
