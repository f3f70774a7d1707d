//! Request generators: everything the program under test is sent is made
//! here from the seed — the LUBM dataset (`datagen::lubm`), the constants
//! each query text names (drawn with the in-repo SplitMix64), the order
//! requests are issued in, and the update stream with the model its
//! acknowledged writes are checked against.

use std::collections::{BTreeSet, HashSet, VecDeque};

use datagen::lubm::{NS, RDF_TYPE};
use datagen::rng::SplitMix64;
use rdf::{Term, Triple};

/// Query classes per read mix. Odd, so the median request latency falls
/// inside one class instead of on the boundary between two.
pub const CLASSES: usize = 5;

/// Distinct constants per class on `point_warm`: 5 × 50 = 250 texts, under
/// the ≤ 256 the workload promises and well inside the 512-entry plan cache
/// (≈ 31 per 64-entry shard).
pub const WARM_PER_CLASS: usize = 50;

/// Distinct constants per class on `plan_cold`: 5 × 256 = 1280 texts cycled
/// in fixed order, so a text is reused only after 1279 others — 2.5× the
/// plan cache, ≈ 160 per 64-entry shard.
pub const COLD_PER_CLASS: usize = 256;

/// A read mix: `CLASSES` lists of query texts, all lists the same length.
/// Request `i` is class `i % CLASSES`, text `(i / CLASSES) % per_class`, so
/// every run of `CLASSES` requests holds one request of each class (equal
/// weights) and a class cycles its texts in fixed order.
pub struct ReadMix {
    pub class_names: [&'static str; CLASSES],
    pub classes: Vec<Vec<String>>,
}

impl ReadMix {
    pub fn per_class(&self) -> usize {
        self.classes[0].len()
    }

    pub fn distinct_texts(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Index of request `i`'s text in the flattened (class-major) list.
    pub fn text_index(&self, i: usize) -> usize {
        let class = i % CLASSES;
        class * self.per_class() + (i / CLASSES) % self.per_class()
    }

    /// All distinct texts, class-major.
    pub fn texts(&self) -> impl Iterator<Item = &String> {
        self.classes.iter().flatten()
    }

    /// Text `t` of the flattened (class-major) list.
    pub fn text(&self, t: usize) -> &str {
        &self.classes[t / self.per_class()][t % self.per_class()]
    }

    #[cfg(test)]
    pub fn class_of_text(&self, text_index: usize) -> usize {
        text_index / self.per_class()
    }
}

/// The part of an IRI term after the LUBM namespace.
fn local(term: &Term) -> Option<&str> {
    match term {
        Term::Iri(iri) => iri.strip_prefix(NS),
        _ => None,
    }
}

/// Entities of the generated dataset that the point-query shapes can name
/// and are sure to match: every list is sorted, so it depends on the
/// dataset alone and not on iteration order.
pub struct Constants {
    /// Graduate students (all have name, email, department and an advisor).
    pub students: Vec<String>,
    /// Faculty with at least one advisee.
    pub advisors: Vec<String>,
    /// Graduate students whose advisor teaches at least one course.
    pub taught_students: Vec<String>,
    /// Departments.
    pub departments: Vec<String>,
}

impl Constants {
    pub fn from_triples(triples: &[Triple]) -> Constants {
        let mut students = BTreeSet::new();
        let mut advisors = BTreeSet::new();
        let mut departments = BTreeSet::new();
        let mut teachers = HashSet::new();
        for t in triples {
            if t.predicate.lexical() == RDF_TYPE {
                match local(&t.object) {
                    Some("GraduateStudent") => {
                        students.insert(t.subject.encode());
                    }
                    Some("Department") => {
                        departments.insert(t.subject.encode());
                    }
                    _ => {}
                }
            } else if local(&t.predicate) == Some("advisor") {
                advisors.insert(t.object.encode());
            } else if local(&t.predicate) == Some("teacherOf") {
                teachers.insert(&t.subject);
            }
        }
        let taught_students: BTreeSet<String> = triples
            .iter()
            .filter(|t| local(&t.predicate) == Some("advisor") && teachers.contains(&t.object))
            .map(|t| t.subject.encode())
            .filter(|s| students.contains(s))
            .collect();
        Constants {
            students: students.into_iter().collect(),
            advisors: advisors.into_iter().collect(),
            taught_students: taught_students.into_iter().collect(),
            departments: departments.into_iter().collect(),
        }
    }
}

/// Draw `n` distinct items in seeded random order (partial Fisher–Yates).
fn draw<T: Clone>(
    items: &[T],
    n: usize,
    what: &str,
    rng: &mut SplitMix64,
) -> Result<Vec<T>, String> {
    if items.len() < n {
        return Err(format!(
            "dataset has {} {what}, the workload needs {n}: raise the scale",
            items.len()
        ));
    }
    let mut pool: Vec<T> = items.to_vec();
    for i in 0..n {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(n);
    Ok(pool)
}

const FACULTY_KINDS: [&str; 4] = [
    "FullProfessor",
    "AssociateProfessor",
    "AssistantProfessor",
    "Lecturer",
];

/// The five selective shapes of `point_warm`, `plan_cold` and the read
/// phase of `ingest_write`, `per_class` distinct constants each.
pub fn point_mix(consts: &Constants, per_class: usize, seed: u64) -> Result<ReadMix, String> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let (ns, ty) = (NS, RDF_TYPE);

    // <s> ?p ?o — every triple of one subject (variable predicate).
    let subject = draw(&consts.students, per_class, "graduate students", &mut rng)?
        .into_iter()
        .map(|s| format!("SELECT ?p ?o WHERE {{ {s} ?p ?o }}"))
        .collect();
    // Three-pattern star on a constant subject.
    let star = draw(&consts.students, per_class, "graduate students", &mut rng)?
        .into_iter()
        .map(|s| {
            format!(
                "SELECT ?n ?e ?d WHERE {{ {s} <{ns}name> ?n . {s} <{ns}emailAddress> ?e . \
                 {s} <{ns}memberOf> ?d }}"
            )
        })
        .collect();
    // Object-bound reverse lookup.
    let reverse = draw(&consts.advisors, per_class, "advisors", &mut rng)?
        .into_iter()
        .map(|p| format!("SELECT ?x WHERE {{ ?x <{ns}advisor> {p} }}"))
        .collect();
    // Five-pattern two-hop: student → advisor → course.
    let two_hop = draw(
        &consts.taught_students,
        per_class,
        "students with a teaching advisor",
        &mut rng,
    )?
    .into_iter()
    .map(|s| {
        format!(
            "SELECT ?a ?n ?c ?cn ?d WHERE {{ {s} <{ns}advisor> ?a . ?a <{ns}name> ?n . \
                 ?a <{ns}teacherOf> ?c . ?c <{ns}name> ?cn . ?a <{ns}worksFor> ?d }}"
        )
    })
    .collect();
    // LQ4-style UNION of types on a constant department. A department alone
    // gives too few distinct texts at small scales, so each text also picks
    // which three of the four faculty kinds it unions.
    let dept_kinds: Vec<(String, usize)> = consts
        .departments
        .iter()
        .flat_map(|d| (0..FACULTY_KINDS.len()).map(move |omit| (d.clone(), omit)))
        .collect();
    let union_dept = draw(
        &dept_kinds,
        per_class,
        "department × faculty-kind pairs",
        &mut rng,
    )?
    .into_iter()
    .map(|(d, omit)| {
        let alts: Vec<String> = FACULTY_KINDS
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != omit)
            .map(|(_, kind)| format!("{{ ?x <{ty}> <{ns}{kind}> }}"))
            .collect();
        format!(
            "SELECT ?x ?n ?e ?t WHERE {{ {} . ?x <{ns}worksFor> {d} . ?x <{ns}name> ?n . \
                 ?x <{ns}emailAddress> ?e . ?x <{ns}telephone> ?t }}",
            alts.join(" UNION ")
        )
    })
    .collect();

    Ok(ReadMix {
        class_names: ["subject", "star", "reverse", "two_hop", "union_dept"],
        classes: vec![subject, star, reverse, two_hop, union_dept],
    })
}

/// The five heavy classes of `join_scan`: one text each, no constants — the
/// work is in the scan and the joins, and the plan is always cached.
pub fn join_mix() -> ReadMix {
    let (ns, ty) = (NS, RDF_TYPE);
    let students = format!(
        "{{ ?x <{ty}> <{ns}UndergraduateStudent> }} UNION {{ ?x <{ty}> <{ns}GraduateStudent> }}"
    );
    let texts = [
        // LQ9 triangle: student → advisor → course the student also takes.
        format!(
            "SELECT ?x ?y ?z WHERE {{ {students} . ?x <{ns}advisor> ?y . \
             ?y <{ns}teacherOf> ?z . ?x <{ns}takesCourse> ?z }}"
        ),
        // Star with a REGEX filter: the expression-heavy scan.
        format!(
            "SELECT ?x ?n ?d WHERE {{ ?x <{ty}> <{ns}GraduateStudent> . ?x <{ns}name> ?n . \
             ?x <{ns}memberOf> ?d . FILTER regex(?n, 'Grad 1') }}"
        ),
        // Two-pattern chain returning thousands of rows.
        format!("SELECT ?x ?d WHERE {{ ?x <{ns}advisor> ?y . ?x <{ns}memberOf> ?d }}"),
        // GROUP BY / COUNT aggregate.
        format!("SELECT ?d (COUNT(?x) AS ?n) WHERE {{ ?x <{ns}memberOf> ?d }} GROUP BY ?d"),
        // LQ2: six patterns, three-way join.
        format!(
            "SELECT ?x ?y ?z WHERE {{ ?x <{ty}> <{ns}GraduateStudent> . \
             ?y <{ty}> <{ns}University> . ?z <{ty}> <{ns}Department> . \
             ?x <{ns}memberOf> ?z . ?z <{ns}subOrganizationOf> ?y . \
             ?x <{ns}undergraduateDegreeFrom> ?y }}"
        ),
    ];
    ReadMix {
        class_names: ["triangle", "regex_star", "chain", "aggregate", "lq2"],
        classes: texts.into_iter().map(|t| vec![t]).collect(),
    }
}

/// Serialize triples as the N-Triples document the store is loaded from.
pub fn ntriples_text(triples: &[Triple]) -> String {
    let mut text = String::with_capacity(triples.len() * 120);
    for t in triples {
        t.subject.encode_into(&mut text);
        text.push(' ');
        t.predicate.encode_into(&mut text);
        text.push(' ');
        t.object.encode_into(&mut text);
        text.push_str(" .\n");
    }
    text
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

const VISITOR_NS: &str = "http://e2e.bench/";

/// Triples one INSERT DATA adds for a visitor entity.
pub const VISITOR_TRIPLES: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    InsertData,
    DeleteInsert,
    DeleteWhere,
}

/// One generated update request and the effect a correct store reports.
pub struct UpdateOp {
    pub kind: UpdateKind,
    pub text: String,
    pub inserted: u64,
    pub deleted: u64,
}

/// State of visitor `i` in the model: `None` once deleted.
#[derive(Debug, Clone, PartialEq)]
struct Visitor {
    name: String,
}

/// Generates the update stream and keeps the model of what the store must
/// hold once every issued update is acknowledged.
///
/// Updates come in runs of five: three INSERT DATA of a new five-triple
/// entity, one DELETE/INSERT renaming the newest entity, one DELETE WHERE
/// removing the oldest live one — so the store grows by two entities per
/// run and all three request kinds hit the commit path. Entities use
/// predicates the dataset already has (settled layouts, as a real writer
/// adding entities would) but new subjects and literals (the dictionary
/// grows, so every insert moves the plan-cache epoch), and no read query of
/// any workload can match them, so reference bodies stay valid while
/// writes land.
pub struct UpdateStream {
    visitors: Vec<Option<Visitor>>,
    live: VecDeque<usize>,
    issued: usize,
}

fn visitor_iri(i: usize) -> String {
    format!("<{VISITOR_NS}visitor{i}>")
}

impl UpdateStream {
    pub fn new() -> UpdateStream {
        UpdateStream {
            visitors: Vec::new(),
            live: VecDeque::new(),
            issued: 0,
        }
    }

    pub fn issued(&self) -> usize {
        self.issued
    }

    fn visitor_triples(i: usize, name: &str) -> Vec<(String, String)> {
        vec![
            (format!("<{RDF_TYPE}>"), format!("<{VISITOR_NS}Visitor>")),
            (format!("<{NS}name>"), format!("\"{name}\"")),
            (
                format!("<{NS}emailAddress>"),
                format!("\"visitor{i}@e2e.bench\""),
            ),
            (format!("<{NS}telephone>"), format!("\"555-{i:06}\"")),
            (
                format!("<{NS}researchInterest>"),
                format!("\"Research{}\"", i % 30),
            ),
        ]
    }

    /// The next update; the model already reflects it (the caller counts an
    /// unacknowledged update as a failed operation, which fails the run).
    pub fn next_op(&mut self) -> UpdateOp {
        let step = self.issued % 5;
        self.issued += 1;
        match step {
            0..=2 => {
                let i = self.visitors.len();
                let name = format!("Visitor {i}");
                let s = visitor_iri(i);
                let body: Vec<String> = Self::visitor_triples(i, &name)
                    .into_iter()
                    .map(|(p, o)| format!("{s} {p} {o}"))
                    .collect();
                self.visitors.push(Some(Visitor { name }));
                self.live.push_back(i);
                UpdateOp {
                    kind: UpdateKind::InsertData,
                    text: format!("INSERT DATA {{ {} }}", body.join(" . ")),
                    inserted: VISITOR_TRIPLES,
                    deleted: 0,
                }
            }
            3 => {
                let i = *self
                    .live
                    .back()
                    .expect("three inserts precede every rename");
                let s = visitor_iri(i);
                let name = format!("Visitor {i} renamed at {}", self.issued);
                self.visitors[i] = Some(Visitor { name: name.clone() });
                UpdateOp {
                    kind: UpdateKind::DeleteInsert,
                    text: format!(
                        "DELETE {{ {s} <{NS}name> ?n }} INSERT {{ {s} <{NS}name> \"{name}\" }} \
                         WHERE {{ {s} <{NS}name> ?n }}"
                    ),
                    inserted: 1,
                    deleted: 1,
                }
            }
            _ => {
                let i = self
                    .live
                    .pop_front()
                    .expect("three inserts precede every delete");
                self.visitors[i] = None;
                UpdateOp {
                    kind: UpdateKind::DeleteWhere,
                    text: format!("DELETE WHERE {{ {} ?p ?o }}", visitor_iri(i)),
                    inserted: 0,
                    deleted: VISITOR_TRIPLES,
                }
            }
        }
    }

    /// For every visitor ever inserted: the query that lists its triples
    /// and the sorted `(predicate, object)` pairs (canonical term encoding)
    /// the store must return — none for a deleted visitor.
    pub fn expectations(&self) -> Vec<(String, Vec<(String, String)>)> {
        self.visitors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mut expect = match v {
                    Some(v) => Self::visitor_triples(i, &v.name),
                    None => Vec::new(),
                };
                expect.sort();
                (
                    format!("SELECT ?p ?o WHERE {{ {} ?p ?o }}", visitor_iri(i)),
                    expect,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(per_class: usize, seed: u64) -> ReadMix {
        let triples = datagen::lubm::generate(11, seed);
        point_mix(&Constants::from_triples(&triples), per_class, seed).expect("U=11 suffices")
    }

    #[test]
    fn classes_are_equally_weighted() {
        let m = mix(WARM_PER_CLASS, 1);
        let mut per_class = [0usize; CLASSES];
        for i in 0..CLASSES * 40 {
            per_class[m.class_of_text(m.text_index(i))] += 1;
        }
        assert_eq!(per_class, [40; CLASSES]);
        // Every window of CLASSES consecutive requests holds each class once.
        for start in (0..200).step_by(CLASSES) {
            let mut seen: Vec<usize> = (start..start + CLASSES)
                .map(|i| m.class_of_text(m.text_index(i)))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..CLASSES).collect::<Vec<_>>());
        }
    }

    #[test]
    fn point_warm_names_at_most_256_distinct_texts() {
        let m = mix(WARM_PER_CLASS, 2);
        let distinct: HashSet<&String> = m.texts().collect();
        assert_eq!(distinct.len(), m.distinct_texts());
        assert!(distinct.len() <= 256, "{} texts", distinct.len());
        // The issue order revisits only those texts, however long it runs.
        let seen: HashSet<usize> = (0..10_000).map(|i| m.text_index(i)).collect();
        assert_eq!(seen.len(), m.distinct_texts());
    }

    #[test]
    fn plan_cold_reuse_distance_exceeds_the_plan_cache() {
        let m = mix(COLD_PER_CLASS, 3);
        let distinct: HashSet<&String> = m.texts().collect();
        assert_eq!(distinct.len(), CLASSES * COLD_PER_CLASS);
        let mut last_seen = vec![None; m.distinct_texts()];
        let mut min_distance = usize::MAX;
        for i in 0..4 * m.distinct_texts() {
            let t = m.text_index(i);
            if let Some(prev) = last_seen[t] {
                // Distinct texts issued strictly between two uses of `t`.
                let between: HashSet<usize> = (prev + 1..i).map(|k| m.text_index(k)).collect();
                min_distance = min_distance.min(between.len());
            }
            last_seen[t] = Some(i);
        }
        assert_eq!(min_distance, CLASSES * COLD_PER_CLASS - 1);
        assert!(min_distance > 2 * 512);
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let (a, b, c) = (
            mix(WARM_PER_CLASS, 7),
            mix(WARM_PER_CLASS, 7),
            mix(WARM_PER_CLASS, 8),
        );
        assert_eq!(a.classes, b.classes);
        assert_ne!(a.classes, c.classes);
    }

    #[test]
    fn too_small_a_dataset_is_refused() {
        let triples = datagen::lubm::generate(1, 1);
        let err = point_mix(&Constants::from_triples(&triples), COLD_PER_CLASS, 1).err();
        assert!(err.is_some_and(|e| e.contains("raise the scale")));
    }

    #[test]
    fn update_stream_cycles_kinds_and_tracks_the_model() {
        let mut s = UpdateStream::new();
        let ops: Vec<UpdateOp> = (0..10).map(|_| s.next_op()).collect();
        use UpdateKind::*;
        let kinds: Vec<UpdateKind> = ops.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            [
                InsertData,
                InsertData,
                InsertData,
                DeleteInsert,
                DeleteWhere
            ]
            .repeat(2)
        );
        assert_eq!(s.issued(), 10);
        let (inserted, deleted) = ops
            .iter()
            .fold((0, 0), |(i, d), o| (i + o.inserted, d + o.deleted));
        // 6 entities in, 2 out, 2 renames: 30+2 triples added, 10+2 removed.
        assert_eq!((inserted, deleted), (32, 12));
        let expect = s.expectations();
        assert_eq!(expect.len(), 6);
        // Visitors 0 and 1 were deleted (oldest first); 2 and 5 were renamed.
        assert!(expect[0].1.is_empty() && expect[1].1.is_empty());
        assert_eq!(expect[3].1.len(), VISITOR_TRIPLES as usize);
        let name_of = |i: usize| {
            expect[i]
                .1
                .iter()
                .find(|(p, _)| p.ends_with("name>"))
                .map(|(_, o)| o.clone())
        };
        assert_eq!(name_of(2).as_deref(), Some("\"Visitor 2 renamed at 4\""));
        assert_eq!(name_of(3).as_deref(), Some("\"Visitor 3\""));
        assert_eq!(name_of(5).as_deref(), Some("\"Visitor 5 renamed at 9\""));
    }
}
