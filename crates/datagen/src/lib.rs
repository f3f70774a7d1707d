//! Seeded synthetic dataset generators and query workloads reproducing the
//! structural properties of the paper's four evaluation datasets (§4) and
//! the §2.1 micro-benchmark. Everything is deterministic given the seed, so
//! benchmark runs are repeatable.
//!
//! | module    | stands in for              | key properties preserved |
//! |-----------|----------------------------|--------------------------|
//! | `micro`   | §2.1 micro-benchmark       | Table 1 predicate-set mix, SV/MV split, Q1–Q10 |
//! | `lubm`    | LUBM                       | 18 predicates, university schema, LQ workload with inference expansion |
//! | `sp2b`    | SP²Bench                   | DBLP shape, ~30 predicates, SQ1–SQ17 analogues, AQ1–AQ8 analytics |
//! | `dbpedia` | DBpedia 3.7                | power-law degrees, thousands of predicates, DQ templates |
//! | `prbench` | PRBench (tool integration) | 51 predicates, cross-tool links, huge UNION queries |

pub mod dbpedia;
pub mod lubm;
pub mod micro;
pub mod prbench;
pub mod queryfuzz;
pub mod rng;
pub mod sp2b;

use rdf::Triple;

/// A named benchmark query.
#[derive(Debug, Clone)]
pub struct BenchQuery {
    /// Paper-style identifier (`Q1`, `LQ6`, `SQ4`, `DQ12`, `PQ26`).
    pub name: String,
    pub sparql: String,
}

impl BenchQuery {
    pub fn new(name: impl Into<String>, sparql: impl Into<String>) -> BenchQuery {
        BenchQuery { name: name.into(), sparql: sparql.into() }
    }
}

/// A generated dataset plus its query workload.
pub struct Benchmark {
    pub name: &'static str,
    pub triples: Vec<Triple>,
    pub queries: Vec<BenchQuery>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_are_deterministic() {
        assert_eq!(micro::generate(1000, 42), micro::generate(1000, 42));
        assert_eq!(lubm::generate(1, 7), lubm::generate(1, 7));
        assert_eq!(sp2b::generate(500, 7), sp2b::generate(500, 7));
        assert_eq!(dbpedia::generate(500, 50, 7), dbpedia::generate(500, 50, 7));
        assert_eq!(prbench::generate(200, 7), prbench::generate(200, 7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(micro::generate(1000, 1), micro::generate(1000, 2));
    }
}
