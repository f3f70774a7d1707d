//! RDF data model for the DB2RDF reproduction.
//!
//! Provides [`Term`] (IRIs, blank nodes, literals with optional language tag
//! or datatype), [`Triple`]/[`Quad`], a canonical single-string encoding used
//! as the storage representation inside the relational back-end, and an
//! N-Triples / N-Quads line parser and serializer.
//!
//! The canonical encoding is N-Triples-shaped: `<iri>`, `_:label`,
//! `"lexical"`, `"lexical"@lang`, `"lexical"^^<datatype>`. Because the
//! encodings of the three term kinds are prefix-distinguishable (`<`, `_`,
//! `"`), a single `TEXT` column can hold any term without ambiguity, which is
//! what the DB2RDF schema relies on.

mod ntriples;
mod term;
mod triple;

pub use ntriples::{
    parse_ntriples, parse_ntriples_chunk, parse_ntriples_line, parse_ntriples_read,
    write_ntriples, Chunk, ChunkReader, NTriplesError, NtStream, DEFAULT_CHUNK_BYTES,
};
pub use term::{decode_term, Term};
pub use triple::{Quad, Triple};
