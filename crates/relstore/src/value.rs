//! Runtime values and SQL comparison semantics.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Declared column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    Bool,
    Int,
    Double,
    Text,
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SqlType::Bool => "BOOLEAN",
            SqlType::Int => "BIGINT",
            SqlType::Double => "DOUBLE",
            SqlType::Text => "TEXT",
        };
        f.write_str(s)
    }
}

/// A runtime SQL value.
///
/// Text uses `Arc<str>` so that wide RDF rows can be cloned during query
/// execution without copying string bytes.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(Arc<str>),
}

impl Value {
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOLEAN",
            Value::Int(_) => "BIGINT",
            Value::Double(_) => "DOUBLE",
            Value::Str(_) => "TEXT",
        }
    }

    /// Numeric view used by arithmetic and cross-type comparison.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate heap footprint in bytes, used by the NULL-compression
    /// storage experiment (§2.3 of the paper).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            _ => 0,
        }
    }

    /// SQL `=` with three-valued logic: `None` when either side is NULL.
    /// Numeric types compare by value across Int/Double; mismatched
    /// non-numeric types are simply unequal.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a == b),
            (Value::Str(a), Value::Str(b)) => Some(a == b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x == y),
                _ => Some(false),
            },
        }
    }

    /// SQL ordering comparison with three-valued logic: `None` when either
    /// side is NULL or the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// Total order used by ORDER BY and DISTINCT: NULLs
    /// first, then booleans, numerics (Int and Double interleaved by value),
    /// then text.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Double(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
                (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
                (a, b) => {
                    let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                    x.total_cmp(&y)
                }
            },
            o => o,
        }
    }
}

/// Identity equality used for index keys, DISTINCT and hash-join buckets.
/// Int and Double are unified through their f64 value so `1 = 1.0` groups
/// together; NaN equals itself (total semantics for storage purposes).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                _ => false,
            },
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                2u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_eq_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Double(1.0)), Some(true));
        assert_eq!(Value::str("a").sql_eq(&Value::str("b")), Some(false));
        assert_eq!(Value::str("1").sql_eq(&Value::Int(1)), Some(false));
    }

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Double(2.5)), Some(Ordering::Less));
        assert_eq!(Value::str("b").sql_cmp(&Value::str("a")), Some(Ordering::Greater));
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn identity_eq_unifies_int_double() {
        assert_eq!(Value::Int(3), Value::Double(3.0));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(3)), h(&Value::Double(3.0)));
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vals = [Value::str("z"),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Double(1.5)];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Double(1.5));
        assert_eq!(vals[3], Value::Int(5));
        assert_eq!(vals[4], Value::str("z"));
    }

    #[test]
    fn heap_bytes_counts_strings() {
        assert_eq!(Value::str("abcd").heap_bytes(), 4);
        assert_eq!(Value::Int(1).heap_bytes(), 0);
    }
}
