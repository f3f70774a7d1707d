//! Serialization of the store's side metadata — predicate layouts,
//! statistics and the load report — into the `sys_meta` relational table,
//! so a bulk-loaded store survives a restart (`RdfStore::open`).
//!
//! Everything relational (DPH/DS/RPH/RS rows, indexes) is already covered
//! by the relstore WAL + snapshots; this module handles the in-process
//! state that lives *next to* the tables. The format is a line-based text
//! codec (TAB-separated fields, `\\`/`\t`/`\n` escaped) chosen for easy
//! inspection with SQL: `SELECT * FROM sys_meta`. Floats are stored as
//! `f64::to_bits` hex so round-trips are exact.
//!
//! Hash compositions are not serialized function-by-function: seeds are
//! fixed (see `layout::hashing`), so `(fn_count, range)` reconstructs them.

use std::collections::{HashMap, HashSet};

use crate::baseline::VerticalLayout;
use crate::layout::{HashComposition, PredMapping, SideLayout};
use crate::loader::LoadReport;
use crate::stats::{PredStat, Stats};

/// Decode failures carry a human-readable reason; callers surface them as
/// corruption (the table exists but does not parse).
pub type DecodeResult<T> = std::result::Result<T, String>;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> DecodeResult<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape {other:?}")),
        }
    }
    Ok(out)
}

fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_f64(s: &str) -> DecodeResult<f64> {
    u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|e| format!("bad f64 bits {s:?}: {e}"))
}

fn parse_int<T: std::str::FromStr>(s: &str) -> DecodeResult<T>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad integer {s:?}: {e}"))
}

/// Split one record line into its TAB-separated raw fields.
fn fields(line: &str) -> Vec<&str> {
    line.split('\t').collect()
}

fn sorted(set: &HashSet<String>) -> Vec<&String> {
    let mut v: Vec<&String> = set.iter().collect();
    v.sort();
    v
}

// ---------------------------------------------------------------------------
// sys_dict front-coded pages
// ---------------------------------------------------------------------------

/// Encode one `sys_dict` page: consecutive dictionary entries front-coded
/// against each other as `{lcp}:{suffix_len}:{suffix}` records. The first
/// entry's lcp is always 0 (pages are self-contained), and suffix lengths
/// are explicit so no separator can collide with term content. Prefix
/// lengths stop on character boundaries, so every suffix is valid UTF-8.
pub fn encode_dict_page(terms: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut prev = "";
    for t in terms {
        let lcp = char_lcp(prev, t);
        let suffix = &t[lcp..];
        let _ = write!(out, "{lcp}:{}:{suffix}", suffix.len());
        prev = t;
    }
    out
}

/// Byte length of the longest common prefix of `a` and `b` that ends on a
/// character boundary of both (equal bytes ⇒ a boundary of one is a boundary
/// of the other).
fn char_lcp(a: &str, b: &str) -> usize {
    let mut n = a.as_bytes().iter().zip(b.as_bytes()).take_while(|(x, y)| x == y).count();
    while !b.is_char_boundary(n) {
        n -= 1;
    }
    n
}

/// Decode one `sys_dict` page back into its `n` terms. Any structural
/// mismatch — bad counts, prefix lengths past the previous term, non-
/// boundary slices, trailing bytes — is corruption, never a panic.
pub fn decode_dict_page(text: &str, n: usize) -> DecodeResult<Vec<String>> {
    fn read_num(s: &str) -> DecodeResult<(usize, &str)> {
        let colon = s.find(':').ok_or("dict page: missing ':'")?;
        let v = parse_int::<usize>(&s[..colon])?;
        Ok((v, &s[colon + 1..]))
    }
    let mut out = Vec::with_capacity(n);
    let mut prev = String::new();
    let mut rest = text;
    for i in 0..n {
        let (lcp, r) = read_num(rest)?;
        let (len, r) = read_num(r)?;
        let suffix = r
            .get(..len)
            .ok_or_else(|| format!("dict page entry {i}: suffix length {len} out of range"))?;
        if !prev.is_char_boundary(lcp) || lcp > prev.len() {
            return Err(format!("dict page entry {i}: prefix length {lcp} invalid"));
        }
        prev.truncate(lcp);
        prev.push_str(suffix);
        out.push(prev.clone());
        rest = &r[len..];
    }
    if !rest.is_empty() {
        return Err(format!("dict page: {} trailing bytes", rest.len()));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// SideLayout
// ---------------------------------------------------------------------------

pub fn encode_side(side: &SideLayout) -> String {
    let mut out = String::new();
    match &side.mapping {
        PredMapping::Hashed(h) => {
            out.push_str(&format!("hashed\t{}\t{}\n", h.fn_count(), h.range()));
        }
        PredMapping::Colored { colors, tail } => {
            out.push_str(&format!("colored\t{}\t{}\n", tail.fn_count(), tail.range()));
            let mut pairs: Vec<(&String, &usize)> = colors.iter().collect();
            pairs.sort();
            for (p, c) in pairs {
                out.push_str(&format!("color\t{}\t{c}\n", esc(p)));
            }
        }
    }
    out.push_str(&format!("ncols\t{}\n", side.ncols));
    for p in sorted(&side.multivalued) {
        out.push_str(&format!("multi\t{}\n", esc(p)));
    }
    for p in sorted(&side.spill_preds) {
        out.push_str(&format!("spill\t{}\n", esc(p)));
    }
    out
}

pub fn decode_side(text: &str) -> DecodeResult<SideLayout> {
    let mut lines = text.lines();
    let head = lines.next().ok_or("empty side layout")?;
    let hf = fields(head);
    let comp = |f: &[&str]| -> DecodeResult<HashComposition> {
        let n: usize = parse_int(f[1])?;
        let m: usize = parse_int(f[2])?;
        if n == 0 || m == 0 {
            return Err(format!("degenerate hash composition {n}x{m}"));
        }
        Ok(HashComposition::new(n, m))
    };
    let mut mapping = match hf.first() {
        Some(&"hashed") if hf.len() == 3 => PredMapping::Hashed(comp(&hf)?),
        Some(&"colored") if hf.len() == 3 => {
            PredMapping::Colored { colors: HashMap::new(), tail: comp(&hf)? }
        }
        other => return Err(format!("bad mapping header {other:?}")),
    };
    let mut ncols = None;
    let mut multivalued = HashSet::new();
    let mut spill_preds = HashSet::new();
    for line in lines {
        let f = fields(line);
        match (f.first(), f.len()) {
            (Some(&"color"), 3) => {
                if let PredMapping::Colored { colors, .. } = &mut mapping {
                    colors.insert(unesc(f[1])?, parse_int(f[2])?);
                } else {
                    return Err("color record in hashed mapping".into());
                }
            }
            (Some(&"ncols"), 2) => ncols = Some(parse_int(f[1])?),
            (Some(&"multi"), 2) => {
                multivalued.insert(unesc(f[1])?);
            }
            (Some(&"spill"), 2) => {
                spill_preds.insert(unesc(f[1])?);
            }
            other => return Err(format!("bad side layout record {other:?}")),
        }
    }
    Ok(SideLayout {
        mapping,
        ncols: ncols.ok_or("missing ncols")?,
        multivalued,
        spill_preds,
        // Not persisted: the caller seeds it from the secondary table.
        next_lid: -1,
    })
}

// ---------------------------------------------------------------------------
// VerticalLayout
// ---------------------------------------------------------------------------

pub fn encode_vertical(v: &VerticalLayout) -> String {
    let mut out = String::new();
    for (pred, table) in &v.tables {
        out.push_str(&format!("{}\t{}\n", esc(pred), esc(table)));
    }
    out
}

pub fn decode_vertical(text: &str) -> DecodeResult<VerticalLayout> {
    let mut v = VerticalLayout::default();
    for line in text.lines() {
        let f = fields(line);
        if f.len() != 2 {
            return Err(format!("bad vertical record {line:?}"));
        }
        v.tables.insert(unesc(f[0])?, unesc(f[1])?);
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

pub fn encode_stats(s: &Stats) -> String {
    let mut out = format!(
        "totals\t{}\t{}\t{}\t{}\t{}\n",
        s.total_triples,
        s.distinct_subjects,
        s.distinct_objects,
        f64_hex(s.avg_per_subject),
        f64_hex(s.avg_per_object),
    );
    // Top-k records carry both the dictionary ID and the lexical form:
    // `{tag}\t{id}\t{count}\t{form}`, sorted by ID for determinism.
    let mut top = |tag: &str, map: &HashMap<i64, u64>| {
        let mut pairs: Vec<(&i64, &u64)> = map.iter().collect();
        pairs.sort();
        for (id, n) in pairs {
            let form = s.top_forms.get(id).map(String::as_str).unwrap_or("");
            out.push_str(&format!("{tag}\t{id}\t{n}\t{}\n", esc(form)));
        }
    };
    top("tsubj", &s.top_subjects);
    top("tobj", &s.top_objects);
    {
        let mut pairs: Vec<(&String, &u64)> = s.predicate_counts.iter().collect();
        pairs.sort();
        for (k, n) in pairs {
            out.push_str(&format!("pcount\t{}\t{n}\n", esc(k)));
        }
    }
    let mut pairs: Vec<(&String, &PredStat)> = s.predicate_stats.iter().collect();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    for (p, st) in pairs {
        out.push_str(&format!(
            "pstat\t{}\t{}\t{}\t{}\n",
            esc(p),
            st.count,
            st.distinct_subjects,
            st.distinct_objects
        ));
    }
    out
}

pub fn decode_stats(text: &str) -> DecodeResult<Stats> {
    let mut s = Stats::default();
    let mut saw_totals = false;
    for line in text.lines() {
        let f = fields(line);
        match (f.first(), f.len()) {
            (Some(&"totals"), 6) => {
                s.total_triples = parse_int(f[1])?;
                s.distinct_subjects = parse_int(f[2])?;
                s.distinct_objects = parse_int(f[3])?;
                s.avg_per_subject = parse_f64(f[4])?;
                s.avg_per_object = parse_f64(f[5])?;
                saw_totals = true;
            }
            (Some(&"tsubj"), 4) => {
                s.register_top_subject(parse_int(f[1])?, &unesc(f[3])?, parse_int(f[2])?);
            }
            (Some(&"tobj"), 4) => {
                s.register_top_object(parse_int(f[1])?, &unesc(f[3])?, parse_int(f[2])?);
            }
            (Some(&"pcount"), 3) => {
                s.predicate_counts.insert(unesc(f[1])?, parse_int(f[2])?);
            }
            (Some(&"pstat"), 5) => {
                s.predicate_stats.insert(
                    unesc(f[1])?,
                    PredStat {
                        count: parse_int(f[2])?,
                        distinct_subjects: parse_int(f[3])?,
                        distinct_objects: parse_int(f[4])?,
                    },
                );
            }
            other => return Err(format!("bad stats record {other:?}")),
        }
    }
    if !saw_totals {
        return Err("stats missing totals record".into());
    }
    Ok(s)
}

// ---------------------------------------------------------------------------
// LoadReport
// ---------------------------------------------------------------------------

pub fn encode_report(r: &LoadReport) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        r.triples,
        r.dph_rows,
        r.rph_rows,
        r.dph_spill_rows,
        r.rph_spill_rows,
        r.dph_cols,
        r.rph_cols,
        r.predicates,
        f64_hex(r.dph_coverage),
        f64_hex(r.rph_coverage),
        f64_hex(r.dph_null_fraction),
        f64_hex(r.rph_null_fraction),
        r.storage_bytes,
    )
}

pub fn decode_report(text: &str) -> DecodeResult<LoadReport> {
    let f = fields(text.trim_end_matches('\n'));
    if f.len() != 13 {
        return Err(format!("load report has {} fields, want 13", f.len()));
    }
    Ok(LoadReport {
        triples: parse_int(f[0])?,
        dph_rows: parse_int(f[1])?,
        rph_rows: parse_int(f[2])?,
        dph_spill_rows: parse_int(f[3])?,
        rph_spill_rows: parse_int(f[4])?,
        dph_cols: parse_int(f[5])?,
        rph_cols: parse_int(f[6])?,
        predicates: parse_int(f[7])?,
        dph_coverage: parse_f64(f[8])?,
        rph_coverage: parse_f64(f[9])?,
        dph_null_fraction: parse_f64(f[10])?,
        rph_null_fraction: parse_f64(f[11])?,
        storage_bytes: parse_int(f[12])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_layout_roundtrip_hashed() {
        let side = SideLayout {
            mapping: PredMapping::Hashed(HashComposition::new(2, 37)),
            ncols: 37,
            multivalued: ["<a>".to_string(), "<with\ttab>".to_string()].into(),
            spill_preds: ["<s>".to_string()].into(),
            next_lid: -1,
        };
        let back = decode_side(&encode_side(&side)).unwrap();
        assert_eq!(back.ncols, 37);
        assert_eq!(back.multivalued, side.multivalued);
        assert_eq!(back.spill_preds, side.spill_preds);
        // Reconstructed composition maps predicates identically.
        for p in ["<x>", "<y>", "<z>"] {
            assert_eq!(back.candidates(p), side.candidates(p));
        }
    }

    #[test]
    fn side_layout_roundtrip_colored() {
        let mut colors = HashMap::new();
        colors.insert("<p>".to_string(), 3);
        colors.insert("<q\nnewline>".to_string(), 0);
        let side = SideLayout {
            mapping: PredMapping::Colored { colors: colors.clone(), tail: HashComposition::new(3, 8) },
            ncols: 8,
            multivalued: HashSet::new(),
            spill_preds: HashSet::new(),
            next_lid: -1,
        };
        let back = decode_side(&encode_side(&side)).unwrap();
        match back.mapping {
            PredMapping::Colored { colors: c, tail } => {
                assert_eq!(c, colors);
                assert_eq!(tail.range(), 8);
                assert_eq!(tail.fn_count(), 3);
            }
            _ => panic!("expected colored mapping"),
        }
    }

    #[test]
    fn stats_roundtrip_exact_floats() {
        let mut s = Stats { total_triples: 9, avg_per_subject: 1.0 / 3.0, ..Stats::default() };
        s.register_top_subject(3, "<hub\twith tab>", 7);
        s.predicate_stats.insert(
            "<p>".into(),
            PredStat { count: 5, distinct_subjects: 2, distinct_objects: 4 },
        );
        let back = decode_stats(&encode_stats(&s)).unwrap();
        assert_eq!(back.total_triples, 9);
        assert_eq!(back.avg_per_subject, s.avg_per_subject); // bit-exact
        assert_eq!(back.top_subjects.get(&3), Some(&7));
        assert_eq!(back.top_forms.get(&3).map(String::as_str), Some("<hub\twith tab>"));
        assert_eq!(back.subject_count("<hub\twith tab>"), 7.0);
        assert_eq!(back.predicate_stats.get("<p>").map(|p| p.count), Some(5));
    }

    #[test]
    fn report_roundtrip() {
        let r = LoadReport {
            triples: 21,
            dph_rows: 5,
            dph_coverage: 0.875,
            storage_bytes: 4096,
            ..LoadReport::default()
        };
        let back = decode_report(&encode_report(&r)).unwrap();
        assert_eq!(back.triples, 21);
        assert_eq!(back.dph_rows, 5);
        assert_eq!(back.dph_coverage, 0.875);
        assert_eq!(back.storage_bytes, 4096);
    }

    #[test]
    fn vertical_roundtrip() {
        let mut v = VerticalLayout::default();
        v.tables.insert("<p>".into(), "vp_0".into());
        v.tables.insert("<q>".into(), "vp_1".into());
        let back = decode_vertical(&encode_vertical(&v)).unwrap();
        assert_eq!(back.tables, v.tables);
    }

    #[test]
    fn garbage_decodes_to_errors_not_panics() {
        assert!(decode_side("").is_err());
        assert!(decode_side("nonsense\t1\t2").is_err());
        assert!(decode_side("hashed\t0\t0").is_err());
        assert!(decode_stats("totals\tnot\tenough").is_err());
        assert!(decode_report("1\t2\t3").is_err());
        assert!(decode_vertical("only-one-field").is_err());
        assert!(unesc("trailing\\").is_err());
    }
}
