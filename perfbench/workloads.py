"""Seeded workload generators with planted truth.

Each generator writes the files a user of ``kgenrich batch`` would have (a
config YAML, a target edge TSV, external TSV or N-Triples dumps and a
constraints TSV) and returns a ``Fixture`` that also carries the expected
outputs: the selected path per (property, external), the exact validated
statement set, the per-row novel counts and the agreement counts of every
consistency call. Expectations are derived from the planted design, never
by running kgenrich code.

``scale`` shrinks a workload for the self-test; 1.0 is the benchmark size.

Why these three, and what each should move (heavy on / light on):

- ``dbp-l2``: path enumeration is ~85% of the batch, with ~8.8k pair walks
  over ~2.8k distinct subjects, so id interning, walk reuse across the 20
  properties and the TSV loader show here. Moves align.enumerate_s,
  align.walks_per_subject, store.load_external_s; batch_s and setup_s.
- ``getty-l4``: depth drives the cost and walks are rarely shared, so
  meet-in-the-middle shows here and walk reuse does not; it also covers
  literal date terminals with precision folding, the N-Triples loader and
  the frequency fallback. Moves align.enumerate_s, store.load_external_s;
  batch_s and consistency_s.
- ``wide-l1``: alignment is light (L=1); gap detection, ten mapping builds
  where two would do, retrieval, validation against a 3k-class subclass
  tree, agreement and report writing carry the run. Moves retrieve.s,
  resolve.build_mapping_s, validate.s, validate.closure_s, gaps.detect_s,
  pipeline.self_s and consistency.run_s; batch_s, consistency_s, setup_s
  and peak_rss_mb.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml


@dataclass
class ConsistencyCall:
    property: str
    external: str
    granularity: str
    s_overlap: int
    s_agree: int
    s_disagree: int
    s_e: int


@dataclass
class Fixture:
    """Generated inputs plus planted truth for one workload and seed."""

    workload: str
    seed: int
    max_path_length: int
    entity_class: str
    properties: list[str]
    externals: list[str]
    files: dict[str, str] = field(default_factory=dict)
    # "prop|external" -> planted path, slash-joined
    paths: dict[str, str] = field(default_factory=dict)
    # "prop|external" -> "lexical" when the similarity winner clears the
    # threshold, "frequency" when selection falls back to support
    rules: dict[str, str] = field(default_factory=dict)
    # "prop|external" -> number of validated statements from that row
    novel: dict[str, int] = field(default_factory=dict)
    # "subject\tprop\tobject" -> externals that yield it
    statements: dict[str, list[str]] = field(default_factory=dict)
    consistency: list[ConsistencyCall] = field(default_factory=list)
    sizes: dict[str, int] = field(default_factory=dict)

    def plant_path(self, prop: str, external: str, path: str, rule: str) -> None:
        self.paths[f"{prop}|{external}"] = path
        self.rules[f"{prop}|{external}"] = rule

    def add_statement(self, subject: str, prop: str, obj: str, external: str) -> None:
        self.statements.setdefault(f"{subject}\t{prop}\t{obj}", []).append(external)
        key = f"{prop}|{external}"
        self.novel[key] = self.novel.get(key, 0) + 1

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")
        truth = asdict(self)
        del truth["files"]
        (directory / "expected.json").write_text(
            json.dumps(truth, indent=1, sort_keys=True), encoding="utf-8")


def _tsv(rows) -> str:
    return "node1\tlabel\tnode2\n" + "".join(f"{s}\t{p}\t{o}\n" for s, p, o in rows)


def _quoted(text: str) -> str:
    return f'"{text}"'


def _config(externals: list[dict], mappings: dict, max_len: int,
            prefixes: dict | None = None) -> str:
    doc = {
        "graphs": {"target": {"path": "target.tsv", "tag": "wd"}, "externals": externals},
        "mappings": mappings,
        "alignment": {"max_path_length": max_len},
        "validation": {"constraints": "constraints.tsv"},
        "output": {"format": "tsv"},
    }
    if prefixes:
        doc["prefixes"] = prefixes
    return yaml.safe_dump(doc, sort_keys=False)


def _constraints(allowed: dict[str, str]) -> str:
    return "property\tallowed_class\n" + "".join(
        f"{prop}\t{cls}\n" for prop, cls in allowed.items())


# -- dbp-l2 -------------------------------------------------------------------


def dbp_l2(seed: int, scale: float = 1.0) -> Fixture:
    """The ROADMAP baseline: scripts/benchmark_batch.py's generator, as files.

    The random draws are made in the same order as that script's
    ``build_fixture``, so its default seed 99 gives the same graphs.
    """
    n_entities, n_values, n_props = int(3000 * scale), int(500 * scale), 20
    knowns, gaps = int(400 * scale), int(150 * scale)
    edge_target, n_noise_nodes = int(100_000 * scale), int(2000 * scale)
    rng = random.Random(seed)
    target = []
    for i in range(n_entities):
        target.append((f"E{i}", "P31", "CLS"))
        target.append((f"E{i}", "sitelink", _quoted(f"X{i}")))
    for j in range(n_values):
        target.append((f"V{j}", "P31", "GOODT" if j % 5 else "BADT"))
        target.append((f"V{j}", "sitelink", _quoted(f"Y{j}")))

    properties = [f"P9{k:02d}" for k in range(n_props)]
    fx = Fixture("dbp-l2", seed, 2, "CLS", properties, ["dbp"])
    external: dict[tuple[str, str, str], None] = {}
    known_pairs: dict[str, list[tuple[int, int]]] = {}
    for k, prop in enumerate(properties):
        target.append((prop, "label", _quoted(f"prop{k}")))
        fx.plant_path(prop, "dbp", f"dbp:prop{k}", "lexical")
        known_pairs[prop] = []
        for idx, ent in enumerate(rng.sample(range(n_entities), knowns + gaps)):
            value = (ent + k) % n_values
            external[(f"dbr:X{ent}", f"dbp:prop{k}", f"dbr:Y{value}")] = None
            if idx < knowns:
                target.append((f"E{ent}", prop, f"V{value}"))
                known_pairs[prop].append((ent, value))
            elif value % 5:
                fx.add_statement(f"E{ent}", prop, f"V{value}", "dbp")

    noise_props = [f"dbp:noise{m}" for m in range(30)]
    nodes = ([f"dbr:X{i}" for i in range(n_entities)]
             + [f"dbr:Y{j}" for j in range(n_values)]
             + [f"dbr:N{m}" for m in range(n_noise_nodes)])
    while len(external) < edge_target:
        external[(rng.choice(nodes), rng.choice(noise_props), rng.choice(nodes))] = None

    # Overlap mode on four properties: every known pair is re-found, and the
    # BADT-typed values are rejected before comparison.
    for prop in properties[:4]:
        good = sum(1 for _, value in known_pairs[prop] if value % 5)
        fx.consistency.append(ConsistencyCall(prop, "dbp", "year", good, good, 0,
                                              fx.novel.get(f"{prop}|dbp", 0)))

    fx.files = {
        "config.yaml": _config([{"path": "dbp.tsv", "tag": "dbp"}],
                               {"dbp": {"link_property": "sitelink", "prefix": "dbr:"}}, 2),
        "target.tsv": _tsv(target),
        "dbp.tsv": _tsv(external),
        "constraints.tsv": _constraints({p: "GOODT" for p in properties}),
        "properties.txt": "".join(p + "\n" for p in properties),
    }
    fx.sizes = {"target_edges": len(target), "external_edges": len(external),
                "entities": n_entities, "properties": n_props, "max_path_length": 2}
    return fx


# -- getty-l4 -----------------------------------------------------------------

_GETTY = "http://vocab.getty.edu/"
_GVP = _GETTY + "ontology#"
_FOAF = "http://xmlns.com/foaf/0.1/"
_SCHEMA = "http://schema.org/"
_RDFS = "http://www.w3.org/2000/01/rdf-schema#"
_XSD_DATE = "http://www.w3.org/2001/XMLSchema#date"

# target property -> (label, Getty biography property); all sit 3 hops deep:
# person -foaf:focus-> agent -gvp:biographyPreferred-> bio -<prop>-> place
_GETTY_PLACES = {
    "P19": ("place of birth", "schema:birthPlace"),
    "P20": ("place of death", "schema:deathPlace"),
    "P551": ("residence", "gvp:residencePlace"),
    "P937": ("work location", "gvp:activityPlace"),
}
_GETTY_ASSOCIATIVE = ("gvp:ulan1000_related_to", "gvp:ulan1101_teacher_of",
                      "gvp:ulan1102_student_of", "gvp:ulan1500_colleague_of")
_PLACE_TYPES = ("Q6256", "Q10864048", "Q515", "Q532")  # by tree depth band
_PLACE_ROOT_CLASS = "Q2221906"


_GETTY_PREFIXES = {"getty": _GETTY, "gvp": _GVP, "foaf": _FOAF, "schema": _SCHEMA,
                   "rdfs": _RDFS}


def _iri(short: str) -> str:
    prefix, local = short.split(":", 1)
    return f"<{_GETTY_PREFIXES[prefix]}{local}>"


def getty_l4(seed: int, scale: float = 1.0) -> Fixture:
    """Getty-shaped N-Triples external aligned at L=4, the paper's Getty setting.

    Persons link to 4 associates each and reach their places and birth date
    3 hops deep; a 7-level broader tree with related-place links hangs off
    the places. Depth drives the walk cost and walks are rarely shared.
    Target labels are Wikidata-style, so selection falls back to frequency.
    """
    rng = random.Random(seed)
    n_persons = int(1500 * scale)
    n_external_only = n_persons // 5
    fx = Fixture("getty-l4", seed, 4, "Q5",
                 ["P19", "P20", "P551", "P937", "P569"], ["getty"])

    # 7-level place tree, branching 3; levels 4..6 hold the settlements people use
    levels: list[list[int]] = [[0]]
    parent: dict[int, int] = {}
    next_id = 1
    for _ in range(6):
        level = []
        for p in levels[-1]:
            for _ in range(3):
                parent[next_id] = p
                level.append(next_id)
                next_id += 1
        levels.append(level)
    places = [p for level in levels for p in level]
    depth = {p: d for d, level in enumerate(levels) for p in level}
    settlements = [p for level in levels[4:] for p in level]
    place_mapped = {p: rng.random() < 0.9 for p in places}
    place_valid = {p: rng.random() < 0.95 for p in places}

    triples: dict[tuple[str, str, str], None] = {}  # ordered, deduplicated
    target: list[tuple[str, str, str]] = []

    def place_iri(p):
        return _iri(f"getty:tgn/{7000000 + p}")

    for p in places:
        triples.setdefault((place_iri(p), _iri("rdfs:label"), f'"Place {p}"@en'))
        if p in parent:
            triples.setdefault((place_iri(p), _iri("gvp:broaderPreferred"), place_iri(parent[p])))
        for other in rng.sample(places, 2):
            if other != p:
                triples.setdefault((place_iri(p), _iri("gvp:tgn3000_related_to"),
                                    place_iri(other)))
        if place_mapped[p]:
            target.append((f"T{p}", "getty_id", _quoted(f"tgn/{7000000 + p}")))
        cls = _PLACE_TYPES[min(depth[p] // 2, 3)] if place_valid[p] else "Q4167410"
        target.append((f"T{p}", "P31", cls))
    target += [("Q6256", "P279", _PLACE_ROOT_CLASS), ("Q10864048", "P279", "Q56061"),
               ("Q56061", "P279", _PLACE_ROOT_CLASS), ("Q515", "P279", "Q486972"),
               ("Q532", "P279", "Q486972"), ("Q486972", "P279", _PLACE_ROOT_CLASS)]

    persons = range(n_persons + n_external_only)
    truth: dict[tuple[int, str], object] = {}
    for i in persons:
        person, agent, bio = (_iri(f"getty:ulan/{500000 + i}"),
                              _iri(f"getty:ulan/{500000 + i}-agent"),
                              _iri(f"getty:ulan/bio/{4000000 + i}"))
        triples.setdefault((person, _iri("rdfs:label"), f'"Person {i}"@en'))
        triples.setdefault((person, _iri("foaf:focus"), agent))
        triples.setdefault((agent, _iri("gvp:biographyPreferred"), bio))
        for prop, (_, step) in _GETTY_PLACES.items():
            place = rng.choice(settlements)
            truth[(i, prop)] = place
            triples.setdefault((bio, _iri(step), place_iri(place)))
        year, month, day = rng.randrange(1400, 1950), rng.randrange(1, 13), rng.randrange(1, 29)
        truth[(i, "P569")] = (year, month, day)
        triples.setdefault((bio, _iri("gvp:estStart"),
                            f'"{year:04d}-{month:02d}-{day:02d}"^^<{_XSD_DATE}>'))
        for _ in range(4):
            other = rng.choice(persons)
            if other != i:
                triples.setdefault((person, _iri(rng.choice(_GETTY_ASSOCIATIVE)),
                                    _iri(f"getty:ulan/{500000 + other}")))

    for prop, (label, _) in _GETTY_PLACES.items():
        target.append((prop, "label", _quoted(label)))
    target.append(("P569", "label", _quoted("date of birth")))

    agreement: dict[str, list[int]] = {prop: [0, 0] for prop in ("P19", "P569")}
    for i in range(n_persons):
        qid = f"Q{100000 + i}"  # clear of class ids such as Q5 and Q515
        mapped = rng.random() < 0.9
        target.append((qid, "P31", "Q5"))
        target.append((qid, "label", _quoted(f"Person {i}")))
        if mapped:
            target.append((qid, "getty_id", _quoted(f"ulan/{500000 + i}")))
        for prop in fx.properties:
            value = truth[(i, prop)]
            if rng.random() < 0.4:  # known in the target
                agree = rng.random() < 0.9
                if prop == "P569":
                    year = value[0] if agree else value[0] + rng.randrange(1, 30)
                    target.append((qid, prop, f"{year:04d}"))
                else:
                    place = value if agree else rng.choice(settlements)
                    agree = place == value
                    target.append((qid, prop, f"T{place}"))
                # overlap mode compares only values that pass validation
                if prop in agreement and mapped and (
                        prop == "P569" or (place_mapped[value] and place_valid[value])):
                    agreement[prop][0 if agree else 1] += 1
            elif mapped:
                if prop == "P569":
                    y, m, d = value
                    fx.add_statement(qid, prop, f"{y:04d}-{m:02d}-{d:02d}", "getty")
                elif place_mapped[value] and place_valid[value]:
                    fx.add_statement(qid, prop, f"T{value}", "getty")

    for prop, (_, step) in _GETTY_PLACES.items():
        fx.plant_path(prop, "getty", f"foaf:focus/gvp:biographyPreferred/{step}", "frequency")
    fx.plant_path("P569", "getty", "foaf:focus/gvp:biographyPreferred/gvp:estStart",
                  "frequency")
    for prop, (agree, disagree) in agreement.items():
        fx.consistency.append(ConsistencyCall(prop, "getty", "year", agree + disagree,
                                              agree, disagree,
                                              fx.novel.get(f"{prop}|getty", 0)))

    fx.files = {
        "config.yaml": _config(
            [{"path": "getty.nt", "tag": "getty"}],
            {"getty": {"link_property": "getty_id", "prefix": "getty:"}}, 4, _GETTY_PREFIXES),
        "target.tsv": _tsv(target),
        "getty.nt": "".join(f"{s} {p} {o} .\n" for s, p, o in triples),
        "constraints.tsv": _constraints({p: _PLACE_ROOT_CLASS for p in _GETTY_PLACES}),
        "properties.txt": "".join(p + "\n" for p in fx.properties),
    }
    fx.sizes = {"target_edges": len(target), "external_edges": len(triples),
                "entities": n_persons, "properties": len(fx.properties),
                "max_path_length": 4}
    return fx


# -- wide-l1 ------------------------------------------------------------------

_WIDE_ITEM_LABELS = (
    "founded by", "headquarters location", "industry", "parent organization",
    "owned by", "chief executive officer", "legal form", "stock exchange",
    "country", "product", "subsidiary", "member of", "award received",
    "brand", "location of formation", "operating area", "architect",
    "designed by", "sponsor", "record label")
_WIDE_DATE_LABELS = ("inception", "dissolved", "founding date", "official opening")
_WIDE_CLASS = "Q4830453"
_TREE_ROOT = "C0"


def _camel(label: str) -> str:
    words = label.split()
    return words[0] + "".join(w.capitalize() for w in words[1:])


def wide_l1(seed: int, scale: float = 1.0) -> Fixture:
    """Two TSV externals over a 3k-entity class at L=1, with overlap checks.

    One external is mapped by sitelink and one by an external-id property,
    and 20% of the second's values disagree with the first. Alignment is
    light; gaps, mapping, retrieval, validation against a 3k-class subclass
    tree, agreement and report writing carry the run.
    """
    rng = random.Random(seed)
    # 3k entities, not more: a larger class leaves too few runs per window for a steady median
    n_entities, n_values, n_classes = int(3000 * scale), int(2400 * scale), int(3000 * scale)
    item_props = [f"P{2000 + k}" for k in range(len(_WIDE_ITEM_LABELS))]
    date_props = [f"P{2100 + k}" for k in range(len(_WIDE_DATE_LABELS))]
    properties = item_props + date_props
    labels = dict(zip(properties, _WIDE_ITEM_LABELS + _WIDE_DATE_LABELS))
    fx = Fixture("wide-l1", seed, 1, _WIDE_CLASS, properties, ["dbp", "lod"])

    target: list[tuple[str, str, str]] = []
    # parents come from the first quarter, so depth stays ~log4(n), far below depth_cap
    for c in range(1, n_classes):
        target.append((f"C{c}", "P279", f"C{rng.randrange(c // 4 + 1)}"))
    value_ok, value_links = {}, {}
    for j in range(n_values):
        valid = rng.random() < 0.9
        value_ok[j] = valid
        target.append((f"V{j}", "P31", f"C{rng.randrange(n_classes)}" if valid else "Q13406463"))
        value_links[j] = (rng.random() < 0.95, rng.random() < 0.95)
        if value_links[j][0]:
            target.append((f"V{j}", "sitelink", _quoted(f"Val_{j}")))
        if value_links[j][1]:
            target.append((f"V{j}", "P214", _quoted(f"{9000000 + j}")))
    entity_links = {}
    for i in range(n_entities):
        target.append((f"E{i}", "P31", _WIDE_CLASS))
        target.append((f"E{i}", "label", _quoted(f"Organization {i}")))
        entity_links[i] = (rng.random() < 0.9, rng.random() < 0.9)
        if entity_links[i][0]:
            target.append((f"E{i}", "sitelink", _quoted(f"Org_{i}")))
        if entity_links[i][1]:
            target.append((f"E{i}", "P214", _quoted(f"{1000000 + i}")))
    for prop in properties:
        target.append((prop, "label", _quoted(labels[prop])))

    externals = {"dbp": [], "lod": []}
    ext_props = {prop: {"dbp": f"dbo:{_camel(labels[prop])}", "lod": f"lod:p{k:04d}"}
                 for k, prop in enumerate(properties)}
    consistency_props = item_props[:2] + date_props[:2]
    agreement = {(prop, ext): [0, 0] for prop in consistency_props for ext in externals}

    def ext_subject(ext, i):
        return f"dbr:Org_{i}" if ext == "dbp" else f"viaf:{1000000 + i}"

    def ext_value(ext, value):
        if isinstance(value, int):
            return f"dbr:Val_{value}" if ext == "dbp" else f"viaf:{9000000 + value}"
        return "{:04d}-{:02d}-{:02d}".format(*value)

    def target_value(value):
        return f"V{value}" if isinstance(value, int) else "{:04d}-{:02d}-{:02d}".format(*value)

    def passes(ext, value):
        # what validation (and inverse resolution) lets through
        if isinstance(value, int):
            return value_links[value][ext == "lod"] and value_ok[value]
        return value[0] < 2022

    for prop in properties:
        is_date = prop in date_props
        for i in range(n_entities):
            known = rng.random() < 0.3
            if is_date:
                year = rng.randrange(1800, 2020)
                if not known and rng.random() < 0.03:  # out of range, rejected
                    year = rng.randrange(2025, 2040)
                truth = (year, rng.randrange(1, 13), rng.randrange(1, 29))
            else:
                truth = rng.randrange(n_values)
            if known:
                target.append((f"E{i}", prop, target_value(truth)))
            for ext, linked in zip(("dbp", "lod"), entity_links[i]):
                if rng.random() >= 0.3:
                    continue
                value = truth
                if ext == "lod" and rng.random() < 0.2:
                    value = (truth[0] + rng.randrange(1, 40), truth[1], truth[2]) \
                        if is_date else (truth + 1 + rng.randrange(n_values - 1)) % n_values
                externals[ext].append((ext_subject(ext, i), ext_props[prop][ext],
                                       ext_value(ext, value)))
                if not linked or not passes(ext, value):
                    continue
                if not known:
                    fx.add_statement(f"E{i}", prop, target_value(value), ext)
                elif (prop, ext) in agreement:
                    same = value[0] == truth[0] if is_date else value == truth
                    agreement[(prop, ext)][0 if same else 1] += 1

    for prop in properties:
        fx.plant_path(prop, "dbp", ext_props[prop]["dbp"], "lexical")
        fx.plant_path(prop, "lod", ext_props[prop]["lod"], "frequency")
    for (prop, ext), (agree, disagree) in agreement.items():
        fx.consistency.append(ConsistencyCall(prop, ext, "year", agree + disagree, agree,
                                              disagree, fx.novel.get(f"{prop}|{ext}", 0)))

    fx.files = {
        "config.yaml": _config(
            [{"path": "dbp.tsv", "tag": "dbp"}, {"path": "lod.tsv", "tag": "lod"}],
            {"dbp": {"link_property": "sitelink", "prefix": "dbr:"},
             "lod": {"link_property": "P214", "prefix": "viaf:"}}, 1),
        "target.tsv": _tsv(target),
        "dbp.tsv": _tsv(externals["dbp"]),
        "lod.tsv": _tsv(externals["lod"]),
        "constraints.tsv": _constraints({p: _TREE_ROOT for p in item_props}),
        "properties.txt": "".join(p + "\n" for p in properties),
    }
    fx.sizes = {"target_edges": len(target),
                "external_edges": sum(len(rows) for rows in externals.values()),
                "entities": n_entities, "properties": len(properties),
                "max_path_length": 1}
    return fx


WORKLOADS = {"dbp-l2": dbp_l2, "getty-l4": getty_l4, "wide-l1": wide_l1}
