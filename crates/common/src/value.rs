//! Scalar values and their types.
//!
//! The engine is dynamically typed at execution time: every cell is a
//! [`Value`]. SQL three-valued logic is represented with [`Value::Null`].
//! Numeric coercion follows the usual analytical-engine rules: an operation
//! mixing `Int` and `Float` widens to `Float`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};

/// Logical type of a column or scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// The type of `NULL` literals before coercion.
    Null,
}

impl DataType {
    /// The common supertype of `self` and `other`: a type beside itself or
    /// beside NULL, and FLOAT for INT beside FLOAT. Any other pair has
    /// none (`None`): no implicit cast joins them.
    pub fn widen(self, other: DataType) -> Option<DataType> {
        match (self, other) {
            (a, b) if a == b => Some(a),
            (DataType::Null, t) | (t, DataType::Null) => Some(t),
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                Some(DataType::Float)
            }
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Null => "NULL",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar cell.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The runtime type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64; errors on non-numeric types.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(Error::type_error(format!(
                "cannot interpret {} as a number",
                other.data_type()
            ))),
        }
    }

    /// Integer view; floats are truncated, errors on non-numeric types.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) => Ok(*f as i64),
            Value::Bool(b) => Ok(i64::from(*b)),
            other => Err(Error::type_error(format!(
                "cannot interpret {} as an integer",
                other.data_type()
            ))),
        }
    }

    /// Boolean view for predicates. NULL maps to `None` (unknown).
    pub fn as_bool(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(Error::type_error(format!(
                "predicate evaluated to {}, expected BOOL",
                other.data_type()
            ))),
        }
    }

    /// Cast to `target`, following SQL CAST semantics. NULL casts to NULL.
    pub fn cast(&self, target: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        match target {
            DataType::Int => Ok(Value::Int(match self {
                Value::Int(i) => *i,
                Value::Float(f) => *f as i64,
                Value::Bool(b) => i64::from(*b),
                Value::Text(s) => s
                    .trim()
                    .parse::<i64>()
                    .map_err(|_| Error::type_error(format!("cannot cast '{s}' to INT")))?,
                Value::Null => unreachable!(),
            })),
            DataType::Float => Ok(Value::Float(match self {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                Value::Bool(b) => f64::from(u8::from(*b)),
                Value::Text(s) => s
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| Error::type_error(format!("cannot cast '{s}' to FLOAT")))?,
                Value::Null => unreachable!(),
            })),
            DataType::Text => Ok(Value::Text(self.to_string())),
            DataType::Bool => match self {
                Value::Bool(b) => Ok(Value::Bool(*b)),
                Value::Int(i) => Ok(Value::Bool(*i != 0)),
                other => Err(Error::type_error(format!(
                    "cannot cast {} to BOOL",
                    other.data_type()
                ))),
            },
            DataType::Null => Ok(Value::Null),
        }
    }

    /// SQL equality: returns `None` when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other) == Ordering::Equal)
    }

    /// SQL comparison: returns `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other))
    }

    /// Total order used for sorting and grouping; see [`Cell::cmp_total`].
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        self.cell().cmp_total(&other.cell())
    }

    /// This value as a borrowed [`Cell`].
    pub fn cell(&self) -> Cell<'_> {
        match self {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Text(s) => Cell::Text(s),
            Value::Bool(b) => Cell::Bool(*b),
        }
    }
}

/// One cell read in place — out of a [`Value`] or out of a typed
/// [`Column`](crate::Column) — without owning it. The total order and the
/// hash of values are defined here, once, so a typed column and a `Value`
/// holding the same cell can never disagree about either.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(&'a str),
    /// Boolean.
    Bool(bool),
}

impl Cell<'_> {
    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// An owned copy of the cell.
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Text(s) => Value::Text(s.to_owned()),
            Cell::Bool(b) => Value::Bool(b),
        }
    }

    /// Total order used for sorting and grouping. NULLs sort first; numeric
    /// types compare by value across Int/Float; NaN sorts after all other
    /// floats so the order stays total.
    pub fn cmp_total(&self, other: &Cell<'_>) -> Ordering {
        use Cell::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            // Heterogeneous non-numeric comparisons order by type tag so the
            // order stays total for sorting; SQL comparisons between such
            // types are rejected earlier, at expression-evaluation time.
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Bool(_) => 1,
            Cell::Int(_) | Cell::Float(_) => 2,
            Cell::Text(_) => 3,
        }
    }
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        // NaN handling: NaN > everything, NaN == NaN.
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => unreachable!("partial_cmp only fails on NaN"),
        }
    })
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cell().hash(state);
    }
}

impl Hash for Cell<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Cell::Null => state.write_u8(0),
            Cell::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Int and Float hash identically when they represent the same
            // number, matching `cmp_total` (2 == 2.0 must land in one hash
            // group for joins and GROUP BY).
            Cell::Int(i) => {
                state.write_u8(2);
                canonical_f64_bits(*i as f64).hash(state);
            }
            Cell::Float(f) => {
                state.write_u8(2);
                canonical_f64_bits(*f).hash(state);
            }
            Cell::Text(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0.0_f64.to_bits() // fold -0.0 into +0.0
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v.into())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_equality_and_hash_agree() {
        let a = Value::Int(2);
        let b = Value::Float(2.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_folds_into_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::Int(1), Value::Null, Value::Int(0)];
        vs.sort();
        assert!(vs[0].is_null());
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn cast_text_to_numbers() {
        assert_eq!(
            Value::Text(" 42 ".into()).cast(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Text("2.5".into()).cast(DataType::Float).unwrap(),
            Value::Float(2.5)
        );
        assert!(Value::Text("abc".into()).cast(DataType::Int).is_err());
    }

    #[test]
    fn cast_null_is_null() {
        assert!(Value::Null.cast(DataType::Int).unwrap().is_null());
    }

    #[test]
    fn nan_ordering_is_total() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp_total(&nan), Ordering::Equal);
        assert_eq!(nan.cmp_total(&Value::Float(1e300)), Ordering::Greater);
    }

    #[test]
    fn as_bool_rejects_numbers() {
        assert!(Value::Int(1).as_bool().is_err());
        assert_eq!(Value::Bool(true).as_bool().unwrap(), Some(true));
        assert_eq!(Value::Null.as_bool().unwrap(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn widen_rules() {
        use DataType::*;
        let all = [Int, Float, Text, Bool, Null];
        // Row: `self`; column: `other`, in the order of `all`. `-`: none.
        let table = [
            "Int   Float -     -    Int  ",
            "Float Float -     -    Float",
            "-     -     Text  -    Text ",
            "-     -     -     Bool Bool ",
            "Int   Float Text  Bool Null ",
        ];
        for (a, row) in all.into_iter().zip(table) {
            for (b, want) in all.into_iter().zip(row.split_whitespace()) {
                let got = a.widen(b).map_or("-".to_string(), |t| format!("{t:?}"));
                assert_eq!(got, want, "{a} beside {b}");
            }
        }
    }
}
