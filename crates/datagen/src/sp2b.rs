//! SP²Bench-like DBLP-shaped dataset and the 17-query workload (SQ1–SQ17)
//! the paper evaluates. The generator reproduces the structural features
//! SP²Bench models: journals and proceedings per year, documents with wide
//! attribute stars, a shared author pool (low in-degree ≈ 2, per the
//! paper's §2.3 discussion), citations, and `rdfs:seeAlso`/homepage noise.
//! SQ4 keeps its defining property: a near-cross-product over the whole
//! dataset that times every system out at scale.

use crate::rng::SplitMix64;
use rdf::{Term, Triple};

use crate::BenchQuery;

pub const NS: &str = "http://sp2b.bench/";
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

fn p(local: &str) -> Term {
    Term::iri(format!("{NS}{local}"))
}

struct Gen {
    triples: Vec<Triple>,
    rng: SplitMix64,
}

impl Gen {
    fn emit(&mut self, s: &Term, pred: &str, o: Term) {
        self.triples.push(Triple::new(s.clone(), p(pred), o));
    }

    fn typ(&mut self, s: &Term, c: &str) {
        self.triples.push(Triple::new(s.clone(), Term::iri(RDF_TYPE), p(c)));
    }
}

/// Generate a dataset with roughly `n_documents` documents (~12 triples per
/// document including authors and venues).
pub fn generate(n_documents: usize, seed: u64) -> Vec<Triple> {
    stream(n_documents, seed).collect()
}

/// Stream the exact dataset `generate` returns — same seed, same bytes —
/// buffering the author/venue preamble and then one document at a time.
/// The stream keeps the document IRI list (needed for citations); that is
/// O(documents) small handles, not O(triples) materialized data.
pub fn stream(n_documents: usize, seed: u64) -> Sp2bStream {
    let n_persons = (n_documents / 3).max(4);
    let n_years = 30usize;
    Sp2bStream {
        g: Gen { triples: Vec::new(), rng: SplitMix64::seed_from_u64(seed) },
        persons: (0..n_persons).map(|i| Term::iri(format!("{NS}Person{i}"))).collect(),
        journals: (0..n_years).map(|y| Term::iri(format!("{NS}Journal{y}"))).collect(),
        procs: (0..n_years).map(|y| Term::iri(format!("{NS}Proceedings{y}"))).collect(),
        docs: Vec::with_capacity(n_documents),
        n_documents,
        started: false,
        buf: Vec::new().into_iter(),
    }
}

pub struct Sp2bStream {
    g: Gen,
    persons: Vec<Term>,
    journals: Vec<Term>,
    procs: Vec<Term>,
    docs: Vec<Term>,
    n_documents: usize,
    started: bool,
    buf: std::vec::IntoIter<Triple>,
}

impl Iterator for Sp2bStream {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        loop {
            if let Some(t) = self.buf.next() {
                return Some(t);
            }
            if !self.started {
                self.started = true;
                preamble(&mut self.g, &self.persons, &self.journals, &self.procs);
            } else if self.docs.len() < self.n_documents {
                document(
                    &mut self.g,
                    &self.persons,
                    &self.journals,
                    &self.procs,
                    &mut self.docs,
                );
            } else {
                return None;
            }
            self.buf = std::mem::take(&mut self.g.triples).into_iter();
        }
    }
}

/// Author pool and venues — everything documents reference.
fn preamble(g: &mut Gen, persons: &[Term], journals: &[Term], procs: &[Term]) {
    for (i, person) in persons.iter().enumerate() {
        g.typ(person, "Person");
        g.emit(person, "name", Term::lit(format!("Author {i}")));
        if g.rng.gen_ratio(1, 4) {
            g.emit(person, "homepage", Term::iri(format!("http://people.example/{i}")));
        }
        if g.rng.gen_ratio(1, 6) {
            g.emit(person, "mbox", Term::lit(format!("author{i}@example.org")));
        }
        if g.rng.gen_ratio(1, 10) {
            g.emit(person, "affiliation", Term::lit(format!("Institute {}", i % 17)));
        }
    }

    // Venues: one journal volume and one proceedings per year.
    for (y, j) in journals.iter().enumerate() {
        g.typ(j, "Journal");
        g.emit(j, "title", Term::lit(format!("Journal 1 ({})", 1950 + y)));
        g.emit(j, "issued", Term::int_lit(1950 + y as i64));
    }
    for (y, pr) in procs.iter().enumerate() {
        g.typ(pr, "Proceedings");
        g.emit(pr, "title", Term::lit(format!("Proceedings {}", 1950 + y)));
        g.emit(pr, "issued", Term::int_lit(1950 + y as i64));
        g.emit(pr, "isbn", Term::lit(format!("978-0-000-{y:05}-0")));
        let e = g.rng.gen_range(0..persons.len());
        g.emit(pr, "editor", persons[e].clone());
    }
}

/// Emit document `docs.len()` (the per-chunk unit of the stream).
fn document(
    g: &mut Gen,
    persons: &[Term],
    journals: &[Term],
    procs: &[Term],
    docs: &mut Vec<Term>,
) {
    let n_years = journals.len();
    let i = docs.len();
    {
        // Document 0 is always an Article so the workload's constant-anchor
        // queries (SQ8, SQ12) have a stable target.
        let roll = if i == 0 { 0 } else { g.rng.gen_range(0..100u32) };
        let year = g.rng.gen_range(0..n_years);
        let (kind, doc) = if roll < 55 {
            ("Article", Term::iri(format!("{NS}Article{i}")))
        } else if roll < 85 {
            ("Inproceedings", Term::iri(format!("{NS}Inproceedings{i}")))
        } else if roll < 93 {
            ("Book", Term::iri(format!("{NS}Book{i}")))
        } else {
            ("Www", Term::iri(format!("{NS}Www{i}")))
        };
        g.typ(&doc, kind);
        g.emit(&doc, "title", Term::lit(format!("Title of document {i}")));
        g.emit(&doc, "issued", Term::int_lit(1950 + year as i64));
        let n_auth = g.rng.gen_range(1..4usize);
        for _ in 0..n_auth {
            let a = g.rng.gen_range(0..persons.len());
            g.emit(&doc, "creator", persons[a].clone());
        }
        match kind {
            "Article" => {
                g.emit(&doc, "journal", journals[year].clone());
                g.emit(&doc, "pages", Term::lit(format!("{}-{}", i % 400, i % 400 + 12)));
                g.emit(&doc, "volume", Term::int_lit((year + 1) as i64));
                g.emit(&doc, "number", Term::int_lit((i % 6) as i64 + 1));
                if g.rng.gen_ratio(1, 10) {
                    g.emit(&doc, "month", Term::int_lit((i % 12) as i64 + 1));
                }
                if g.rng.gen_ratio(1, 2) {
                    g.emit(&doc, "abstract", Term::lit(format!("Abstract text {i}")));
                }
                if g.rng.gen_ratio(1, 8) {
                    g.emit(&doc, "note", Term::lit(format!("note {i}")));
                }
            }
            "Inproceedings" => {
                g.emit(&doc, "partOf", procs[year].clone());
                g.emit(&doc, "pages", Term::lit(format!("{}-{}", i % 400, i % 400 + 8)));
                g.emit(&doc, "booktitle", Term::lit(format!("Proc. {}", 1950 + year)));
                if g.rng.gen_ratio(1, 3) {
                    g.emit(&doc, "seeAlso", Term::iri(format!("http://conf.example/{i}")));
                }
                if g.rng.gen_ratio(1, 6) {
                    g.emit(&doc, "cdrom", Term::lit(format!("cd{i}")));
                }
            }
            "Book" => {
                g.emit(&doc, "isbn", Term::lit(format!("978-1-000-{i:05}-7")));
                g.emit(&doc, "publisher", Term::lit(format!("Publisher {}", i % 9)));
                if g.rng.gen_ratio(1, 4) {
                    g.emit(&doc, "chapter", Term::int_lit((i % 20) as i64 + 1));
                }
            }
            _ => {
                g.emit(&doc, "seeAlso", Term::iri(format!("http://web.example/{i}")));
                g.emit(&doc, "format", Term::lit("text/html".to_string()));
                if g.rng.gen_ratio(1, 5) {
                    g.emit(&doc, "language", Term::lit("en".to_string()));
                }
            }
        }
        // Rare cross-type attributes thicken the predicate tail (the real
        // SP²Bench vocabulary has 78 predicates; see DESIGN.md on scaling).
        if g.rng.gen_ratio(1, 12) {
            g.emit(&doc, "rights", Term::lit(format!("© {}", 1950 + year)));
        }
        if g.rng.gen_ratio(1, 15) {
            g.emit(&doc, "source", Term::iri(format!("http://src.example/{i}")));
        }
        // Citations to earlier documents.
        if !docs.is_empty() && g.rng.gen_ratio(2, 3) {
            for _ in 0..g.rng.gen_range(1..4usize) {
                let c = g.rng.gen_range(0..docs.len());
                g.emit(&doc, "cites", docs[c].clone());
            }
        }
        docs.push(doc);
    }
}

/// SQ1–SQ17 (SP²Bench shapes adapted to the generator's vocabulary).
pub fn queries() -> Vec<BenchQuery> {
    let ns = NS;
    let ty = RDF_TYPE;
    vec![
        // Q1: year of a given journal — tiny lookup.
        BenchQuery::new(
            "SQ1",
            format!(
                "SELECT ?yr WHERE {{ ?j <{ty}> <{ns}Journal> . \
                 ?j <{ns}title> 'Journal 1 (1955)' . ?j <{ns}issued> ?yr }}"
            ),
        ),
        // Q2: wide star over Inproceedings with OPTIONAL abstract, ordered.
        BenchQuery::new(
            "SQ2",
            format!(
                "SELECT ?inproc ?title ?yr ?page ?venue WHERE {{ \
                 ?inproc <{ty}> <{ns}Inproceedings> . \
                 ?inproc <{ns}title> ?title . ?inproc <{ns}issued> ?yr . \
                 ?inproc <{ns}pages> ?page . ?inproc <{ns}partOf> ?venue . \
                 OPTIONAL {{ ?inproc <{ns}abstract> ?abs }} }} ORDER BY ?yr LIMIT 1000"
            ),
        ),
        // Q3a/b/c: articles having a given (increasingly rare) property.
        BenchQuery::new(
            "SQ3",
            format!(
                "SELECT ?a WHERE {{ ?a <{ty}> <{ns}Article> . ?a <{ns}pages> ?v }}"
            ),
        ),
        // Q4: the killer — author pairs sharing a journal (near cross
        // product of the dataset).
        BenchQuery::new(
            "SQ4",
            format!(
                "SELECT DISTINCT ?n1 ?n2 WHERE {{ \
                 ?a1 <{ty}> <{ns}Article> . ?a2 <{ty}> <{ns}Article> . \
                 ?a1 <{ns}journal> ?j . ?a2 <{ns}journal> ?j . \
                 ?a1 <{ns}creator> ?p1 . ?p1 <{ns}name> ?n1 . \
                 ?a2 <{ns}creator> ?p2 . ?p2 <{ns}name> ?n2 . FILTER (?n1 < ?n2) }}"
            ),
        ),
        // Q5: persons publishing both journal articles and inproceedings.
        BenchQuery::new(
            "SQ5",
            format!(
                "SELECT DISTINCT ?person ?name WHERE {{ \
                 ?a <{ty}> <{ns}Article> . ?a <{ns}creator> ?person . \
                 ?b <{ty}> <{ns}Inproceedings> . ?b <{ns}creator> ?person . \
                 ?person <{ns}name> ?name }}"
            ),
        ),
        // Q6: documents per year with authors, optional homepage.
        BenchQuery::new(
            "SQ6",
            format!(
                "SELECT ?yr ?doc ?author WHERE {{ \
                 ?doc <{ns}issued> ?yr . ?doc <{ns}creator> ?author . \
                 OPTIONAL {{ ?author <{ns}homepage> ?hp }} FILTER (?yr >= 1975) }}"
            ),
        ),
        // Q7: documents cited at least once which also carry seeAlso.
        BenchQuery::new(
            "SQ7",
            format!(
                "SELECT DISTINCT ?doc WHERE {{ \
                 ?citer <{ns}cites> ?doc . ?doc <{ns}seeAlso> ?url }}"
            ),
        ),
        // Q8: co-authors of authors of a specific early article.
        BenchQuery::new(
            "SQ8",
            format!(
                "SELECT DISTINCT ?co WHERE {{ \
                 <{ns}Article0> <{ns}creator> ?p . ?other <{ns}creator> ?p . \
                 ?other <{ns}creator> ?co }}"
            ),
        ),
        // Q9: all predicates around persons (variable predicates, UNION).
        BenchQuery::new(
            "SQ9",
            format!(
                "SELECT DISTINCT ?pred WHERE {{ \
                 {{ ?subj ?pred <{ns}Person3> }} UNION {{ <{ns}Person3> ?pred ?obj }} }}"
            ),
        ),
        // Q10: everything pointing at a given person (reverse var-pred).
        BenchQuery::new(
            "SQ10",
            format!("SELECT ?subj ?pred WHERE {{ ?subj ?pred <{ns}Person5> }}"),
        ),
        // Q11: seeAlso with ORDER/LIMIT/OFFSET.
        BenchQuery::new(
            "SQ11",
            format!(
                "SELECT ?ee WHERE {{ ?pub <{ns}seeAlso> ?ee }} ORDER BY ?ee LIMIT 10 OFFSET 5"
            ),
        ),
        // Q12: ASK variant of Q8.
        BenchQuery::new(
            "SQ12",
            format!(
                "ASK {{ <{ns}Article0> <{ns}creator> ?p . ?other <{ns}creator> ?p }}"
            ),
        ),
        // Selectivity variants (the b/c versions of SP²Bench).
        BenchQuery::new(
            "SQ13",
            format!("SELECT ?a WHERE {{ ?a <{ty}> <{ns}Article> . ?a <{ns}month> ?v }}"),
        ),
        BenchQuery::new(
            "SQ14",
            format!("SELECT ?b WHERE {{ ?b <{ty}> <{ns}Book> . ?b <{ns}isbn> ?i }}"),
        ),
        BenchQuery::new(
            "SQ15",
            format!(
                "SELECT ?doc ?yr WHERE {{ ?doc <{ns}issued> ?yr . FILTER (?yr = 1960) }}"
            ),
        ),
        BenchQuery::new(
            "SQ16",
            format!(
                "SELECT ?e ?name WHERE {{ ?proc <{ty}> <{ns}Proceedings> . \
                 ?proc <{ns}editor> ?e . ?e <{ns}name> ?name }}"
            ),
        ),
        BenchQuery::new(
            "SQ17",
            format!(
                "ASK {{ ?j <{ty}> <{ns}Journal> . ?j <{ns}title> 'Journal 1 (1950)' }}"
            ),
        ),
    ]
}

/// AQ1–AQ8: the SPARQL 1.1 analytic surface the translator lowers onto its
/// CTEs — GROUP BY with COUNT/SUM/AVG/MIN/MAX, HAVING, COUNT(DISTINCT),
/// BIND with a deferred value-domain FILTER, inline VALUES, and an
/// aggregating subquery re-aggregated by the outer query. Every ORDER BY
/// key is a unique group key, so an ordered answer has one order.
pub fn analytic_queries() -> Vec<BenchQuery> {
    let (ns, ty) = (NS, RDF_TYPE);
    vec![
        BenchQuery::new(
            "AQ1",
            format!(
                "SELECT ?y (COUNT(?d) AS ?n) WHERE {{ ?d <{ns}issued> ?y }} \
                 GROUP BY ?y ORDER BY ?y"
            ),
        ),
        BenchQuery::new(
            "AQ2",
            format!(
                "SELECT ?a (COUNT(?d) AS ?n) WHERE {{ ?d <{ns}creator> ?a }} \
                 GROUP BY ?a HAVING(COUNT(?d) > 10) ORDER BY ?a"
            ),
        ),
        BenchQuery::new(
            "AQ3",
            format!(
                "SELECT (AVG(?v) AS ?avg) (MIN(?v) AS ?mn) (MAX(?v) AS ?mx) \
                 (SUM(?v) AS ?total) WHERE {{ ?d <{ns}volume> ?v }}"
            ),
        ),
        BenchQuery::new(
            "AQ4",
            format!(
                "SELECT ?t (COUNT(DISTINCT ?a) AS ?n) WHERE {{ \
                 ?d <{ty}> ?t . ?d <{ns}creator> ?a }} GROUP BY ?t ORDER BY ?t"
            ),
        ),
        BenchQuery::new(
            "AQ5",
            format!(
                "SELECT (COUNT(*) AS ?n) (SUM(?age) AS ?total) WHERE {{ \
                 ?d <{ns}issued> ?y . BIND(2026 - ?y AS ?age) FILTER(?age > 50) }}"
            ),
        ),
        BenchQuery::new(
            "AQ6",
            format!(
                "SELECT ?y (COUNT(?d) AS ?n) WHERE {{ \
                 VALUES ?y {{ 1955 1965 1975 }} ?d <{ns}issued> ?y }} \
                 GROUP BY ?y ORDER BY ?y"
            ),
        ),
        BenchQuery::new(
            "AQ7",
            format!(
                "SELECT (MAX(?n) AS ?busiest) WHERE {{ \
                 {{ SELECT ?a (COUNT(?d) AS ?n) WHERE {{ ?d <{ns}creator> ?a }} \
                 GROUP BY ?a }} }}"
            ),
        ),
        BenchQuery::new(
            "AQ8",
            format!(
                "SELECT ?d (COUNT(?c) AS ?n) WHERE {{ ?d <{ns}cites> ?c }} \
                 GROUP BY ?d HAVING(COUNT(?c) >= 3)"
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_in_degree_is_low() {
        // Paper §2.3: SP2B average in-degree ≈ 2.
        let triples = generate(2000, 1);
        let objects: std::collections::HashSet<String> =
            triples.iter().map(|t| t.object.encode()).collect();
        let avg = triples.len() as f64 / objects.len() as f64;
        assert!((1.0..4.5).contains(&avg), "avg in-degree {avg}");
    }

    #[test]
    fn predicate_inventory() {
        let triples = generate(2000, 1);
        let preds: std::collections::HashSet<String> =
            triples.iter().map(|t| t.predicate.encode()).collect();
        assert!(preds.len() >= 25, "{}", preds.len());
    }

    #[test]
    fn seventeen_queries() {
        assert_eq!(queries().len(), 17);
    }

    #[test]
    fn stream_is_identical_to_generate() {
        let streamed: Vec<Triple> = stream(300, 5).collect();
        assert_eq!(streamed, generate(300, 5));
    }

    #[test]
    fn documents_have_stars() {
        let triples = generate(500, 2);
        let a0 = Term::iri(format!("{NS}Article0"));
        let star: Vec<&Triple> = triples.iter().filter(|t| t.subject == a0).collect();
        // Article0 may or may not exist (type roll); find any article.
        if star.is_empty() {
            let any_article = triples
                .iter()
                .find(|t| t.predicate.encode().contains("journal"))
                .map(|t| t.subject.clone())
                .unwrap();
            let star: Vec<&Triple> =
                triples.iter().filter(|t| t.subject == any_article).collect();
            assert!(star.len() >= 4);
        } else {
            assert!(star.len() >= 4);
        }
    }
}
