//! `db2rdf` — a complete reproduction of the SIGMOD'13 paper *"Building an
//! Efficient RDF Store Over a Relational Database"* (Bornea et al.).
//!
//! The crate implements the paper's entity-oriented relational RDF schema
//! (DPH/DS/RPH/RS with spills and multi-valued lids — §2.1), predicate-to-
//! column assignment by hash composition and interference-graph coloring
//! (§2.2), dataset statistics, the hybrid SPARQL optimizer (data-flow graph,
//! greedy optimal flow tree, execution-tree builder with late fusing —
//! §3.1), star merging (§3.2.1), SPARQL→SQL translation with CTE templates
//! (§3.2.2), and the two baseline layouts of §2 (triple-store and
//! predicate-oriented vertical partitioning) over the same embedded
//! relational engine.
//!
//! ```
//! use db2rdf::{RdfStore, StoreConfig};
//! use rdf::{Term, Triple};
//!
//! let mut store = RdfStore::entity();
//! store.load(&[
//!     Triple::new(Term::iri("e:Page"), Term::iri("e:founder"), Term::iri("e:Google")),
//!     Triple::new(Term::iri("e:Page"), Term::iri("e:home"), Term::lit("Palo Alto")),
//! ]).unwrap();
//! let sols = store.query("SELECT ?who WHERE { ?who <e:home> 'Palo Alto' }").unwrap();
//! assert_eq!(sols.len(), 1);
//! ```

pub mod baseline;
pub mod dict;
mod error;
pub mod layout;
pub mod loader;
pub mod naive;
pub mod optimizer;
pub mod oracle;
pub mod persist;
pub mod plancache;
pub mod results;
pub mod shared;
pub mod stats;
mod store;
pub mod translate;
pub mod update;

pub use dict::{Dict, DictMemStats, SharedDict};
pub use error::{Result, StoreError};
pub use loader::{ColoringMode, EntityConfig, LoadReport};
pub use optimizer::OptimizerMode;
pub use plancache::{CachedPlan, PlanCache, PlanCacheStats, PlanSql};
pub use results::Solutions;
pub use shared::{SharedStore, UpdateStats, WriteGuard, BATCH_BUCKETS, BATCH_BUCKET_LABELS};
pub use stats::Stats;
pub use store::{
    layout_name, BulkLoadOptions, BulkLoadStats, Explanation, Layout, RdfStore, StoreConfig,
};
pub use update::UpdateOutcome;
/// The SPARQL front end, re-exported because its AST is part of this crate's
/// API (`SharedStore::apply_parsed_update` takes a parsed [`sparql::Update`]).
pub use sparql;
