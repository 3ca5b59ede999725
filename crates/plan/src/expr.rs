//! Resolved expression IR and its two evaluators.
//!
//! After planning, every column reference is an index into the input row
//! ([`ColumnRef`]), so evaluation is lookup + match dispatch with no name
//! resolution on the hot path. Three-valued logic follows SQL: comparisons
//! with NULL yield NULL, `AND`/`OR` use Kleene semantics, and predicates
//! treat NULL as "do not keep".
//!
//! The row evaluator ([`PlanExpr::evaluate`]) is the definition of those
//! semantics. Operators and DML evaluate a column at a time
//! ([`PlanExpr::evaluate_column`], [`PlanExpr::select`]): arithmetic,
//! comparisons, `IS NULL`, `NOT`, `AND`/`OR`, `CAST`, `ceiling`,
//! `floor`, `round`, `MOD`, `LEAST`/`GREATEST`, `COALESCE` and
//! `CASE` run as loops over the operands' columns. The lazy ones keep
//! their short-circuit with selection vectors: a `COALESCE` argument or a
//! `CASE` branch is evaluated only over the rows still undecided, as a
//! block of just those rows, so `CASE WHEN v <> 0 THEN 1 / v ELSE 0 END`
//! never divides by a zero its `WHEN` excluded. Every other node —
//! `IN`, unary minus, the text and math functions, arithmetic over
//! anything but numbers — is sent row by row through the
//! row evaluator over one scratch row. The loops share the row
//! evaluator's scalar rules (`int_arithmetic`, `float_arithmetic`,
//! `ordering_test`, `kleene`, `round_number`, `Value::cast`) and never
//! decide an error themselves: a
//! loop that meets one — an overflow, a division by the zeros an `AND`
//! would have excluded — gives up, and the whole expression is evaluated
//! again by row, which reports the first failing row in row order or
//! finds that there is none.
//!
//! Every expression has one static type ([`PlanExpr::data_type`]), and
//! its evaluation returns cells of that type or NULL: the translator casts
//! the INT arms of a `CASE`, `COALESCE`, `LEAST` or `GREATEST` that mixes
//! INT and FLOAT to FLOAT, and rejects one whose arms have no common type
//! ([`PlanExpr::unify_arms`]).

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use spinner_common::counters::Counter;
use spinner_common::{Block, Cell, Column, DataType, Error, Nulls, Result, Schema, Value};

/// A resolved reference to an input column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Position in the input row.
    pub index: usize,
    /// Qualified display name, kept for EXPLAIN and for re-binding
    /// expressions when optimizer rules move them across operators.
    pub name: String,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` — non-NULL inputs.
    Count,
    /// `COUNT(*)` — all rows.
    CountStar,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
    /// `ARG_MIN(val, key)` — the `val` of the row with the smallest `key`.
    ArgMin,
    /// `ARG_MAX(val, key)` — the `val` of the row with the largest `key`.
    ArgMax,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "count",
            AggFunc::CountStar => "count(*)",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
            AggFunc::ArgMin => "arg_min",
            AggFunc::ArgMax => "arg_max",
        })
    }
}

/// One aggregate call inside an [`Aggregate`](crate::LogicalPlan::Aggregate)
/// node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Which aggregate function.
    pub func: AggFunc,
    /// Argument; `None` only for `COUNT(*)`.
    pub arg: Option<PlanExpr>,
    /// Ordering key — the second argument of `ARG_MIN`/`ARG_MAX`; `None`
    /// for every single-argument aggregate.
    pub by: Option<PlanExpr>,
    /// `true` for `AGG(DISTINCT ...)`.
    pub distinct: bool,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// Result type of the aggregate given its argument type.
    pub fn output_type(&self, input: &Schema) -> DataType {
        match self.func {
            AggFunc::Count | AggFunc::CountStar => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max | AggFunc::ArgMin | AggFunc::ArgMax => self
                .arg
                .as_ref()
                .map(|a| a.data_type(input))
                .unwrap_or(DataType::Null),
        }
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    /// Smallest non-NULL argument.
    Least,
    /// Largest non-NULL argument.
    Greatest,
    /// First non-NULL argument.
    Coalesce,
    /// Round up to an integer.
    Ceiling,
    /// Round down to an integer.
    Floor,
    /// Round to N digits (default 0).
    Round,
    /// Absolute value.
    Abs,
    /// `mod(a, b)` — same semantics as the `%` operator.
    Mod,
    /// Square root.
    Sqrt,
    /// `e^x`.
    Exp,
    /// Natural logarithm.
    Ln,
    /// `power(a, b)` = `a^b`.
    Power,
    /// -1, 0 or 1 by sign.
    Sign,
    /// Uppercase a string.
    Upper,
    /// Lowercase a string.
    Lower,
    /// Character count of a string.
    Length,
    /// Concatenate arguments, skipping NULLs.
    Concat,
    /// NULL when both arguments are equal, else the first.
    NullIf,
}

impl ScalarFn {
    /// Look up a scalar function by its SQL name.
    pub fn from_name(name: &str) -> Option<ScalarFn> {
        Some(match name {
            "least" => ScalarFn::Least,
            "greatest" => ScalarFn::Greatest,
            "coalesce" => ScalarFn::Coalesce,
            "ceiling" | "ceil" => ScalarFn::Ceiling,
            "floor" => ScalarFn::Floor,
            "round" => ScalarFn::Round,
            "abs" => ScalarFn::Abs,
            "mod" => ScalarFn::Mod,
            "sqrt" => ScalarFn::Sqrt,
            "exp" => ScalarFn::Exp,
            "ln" => ScalarFn::Ln,
            "power" | "pow" => ScalarFn::Power,
            "sign" => ScalarFn::Sign,
            "upper" => ScalarFn::Upper,
            "lower" => ScalarFn::Lower,
            "length" => ScalarFn::Length,
            "concat" => ScalarFn::Concat,
            "nullif" => ScalarFn::NullIf,
            _ => return None,
        })
    }

    /// SQL name for display.
    pub fn name(&self) -> &'static str {
        match self {
            ScalarFn::Least => "least",
            ScalarFn::Greatest => "greatest",
            ScalarFn::Coalesce => "coalesce",
            ScalarFn::Ceiling => "ceiling",
            ScalarFn::Floor => "floor",
            ScalarFn::Round => "round",
            ScalarFn::Abs => "abs",
            ScalarFn::Mod => "mod",
            ScalarFn::Sqrt => "sqrt",
            ScalarFn::Exp => "exp",
            ScalarFn::Ln => "ln",
            ScalarFn::Power => "power",
            ScalarFn::Sign => "sign",
            ScalarFn::Upper => "upper",
            ScalarFn::Lower => "lower",
            ScalarFn::Length => "length",
            ScalarFn::Concat => "concat",
            ScalarFn::NullIf => "nullif",
        }
    }

    fn arity_ok(&self, n: usize) -> bool {
        match self {
            ScalarFn::Least | ScalarFn::Greatest | ScalarFn::Coalesce | ScalarFn::Concat => n >= 1,
            ScalarFn::Round => n == 1 || n == 2,
            ScalarFn::Mod | ScalarFn::Power | ScalarFn::NullIf => n == 2,
            _ => n == 1,
        }
    }
}

/// Binary operators (shared shape with the AST, but resolved).
pub use spinner_parser::BinaryOp;
/// Unary operators.
pub use spinner_parser::UnaryOp;

/// A resolved scalar expression, evaluable against a row.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanExpr {
    /// Input column by position.
    Column(ColumnRef),
    /// Constant.
    Literal(Value),
    /// `left op right`.
    Binary {
        /// Left operand.
        left: Box<PlanExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<PlanExpr>,
    },
    /// `op expr`.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<PlanExpr>,
    },
    /// Scalar function call.
    Scalar {
        /// Which function.
        func: ScalarFn,
        /// Arguments in call order.
        args: Vec<PlanExpr>,
    },
    /// `CASE` (searched form; operand form is desugared by the builder).
    Case {
        /// `(WHEN, THEN)` pairs, tried in order.
        branches: Vec<(PlanExpr, PlanExpr)>,
        /// `ELSE` result; NULL when absent.
        else_expr: Option<Box<PlanExpr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Input expression.
        expr: Box<PlanExpr>,
        /// Target type.
        to: DataType,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<PlanExpr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<PlanExpr>,
        /// Candidate values.
        list: Vec<PlanExpr>,
        /// `true` for `NOT IN`.
        negated: bool,
    },
}

impl PlanExpr {
    /// Column helper.
    pub fn column(index: usize, name: impl Into<String>) -> PlanExpr {
        PlanExpr::Column(ColumnRef {
            index,
            name: name.into(),
        })
    }

    /// Literal helper.
    pub fn literal(v: impl Into<Value>) -> PlanExpr {
        PlanExpr::Literal(v.into())
    }

    /// `self op other` helper.
    pub fn binary(self, op: BinaryOp, other: PlanExpr) -> PlanExpr {
        PlanExpr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// Evaluate against one input row, borrowing where the value already
    /// exists: a column reference yields the row's own cell and a literal
    /// the plan's constant; only computed nodes own their result. This is
    /// what operands, predicates, join and group keys and aggregate
    /// arguments are read through, so a `Value` is cloned only where one
    /// is kept.
    #[inline]
    pub fn evaluate_ref<'a>(&'a self, row: &'a [Value]) -> Result<Cow<'a, Value>> {
        match self {
            PlanExpr::Column(c) => row.get(c.index).map(Cow::Borrowed).ok_or_else(|| {
                Error::execution(format!(
                    "column index {} ('{}') out of bounds for row of width {}",
                    c.index,
                    c.name,
                    row.len()
                ))
            }),
            PlanExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            computed => computed.evaluate(row).map(Cow::Owned),
        }
    }

    /// Evaluate against one input row.
    pub fn evaluate(&self, row: &[Value]) -> Result<Value> {
        match self {
            PlanExpr::Column(_) | PlanExpr::Literal(_) => {
                self.evaluate_ref(row).map(Cow::into_owned)
            }
            PlanExpr::Binary { left, op, right } => eval_binary(*op, left, right, row),
            PlanExpr::Unary { op, expr } => {
                let v = expr.evaluate_ref(row)?;
                match op {
                    UnaryOp::Not => Ok(match v.as_bool()? {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    }),
                    UnaryOp::Minus => match &*v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(i.checked_neg().ok_or_else(|| {
                            Error::Arithmetic("integer negation overflow".into())
                        })?)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(Error::type_error(format!(
                            "cannot negate {}",
                            other.data_type()
                        ))),
                    },
                    UnaryOp::Plus => Ok(v.into_owned()),
                }
            }
            PlanExpr::Scalar { func, args } => eval_scalar(*func, args, row),
            PlanExpr::Case {
                branches,
                else_expr,
            } => {
                for (when, then) in branches {
                    if when.matches(row)? {
                        return then.evaluate(row);
                    }
                }
                match else_expr {
                    Some(e) => e.evaluate(row),
                    None => Ok(Value::Null),
                }
            }
            PlanExpr::Cast { expr, to } => expr.evaluate_ref(row)?.cast(*to),
            PlanExpr::IsNull { expr, negated } => {
                let is_null = expr.evaluate_ref(row)?.is_null();
                Ok(Value::Bool(is_null != *negated))
            }
            PlanExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.evaluate_ref(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.evaluate_ref(row)?;
                    match v.sql_eq(&iv) {
                        Some(true) => return Ok(Value::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
        }
    }

    /// Evaluate as a filter predicate: NULL counts as "drop the row".
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        Ok(self.evaluate_ref(row)?.as_bool()? == Some(true))
    }

    /// Evaluate against every row of `block`, a column at a time where
    /// the module docs say so. If any part of the expression went through
    /// the row evaluator instead, the block's rows are added to `by_row`,
    /// once. The result equals [`evaluate`](Self::evaluate) on each row,
    /// errors included.
    pub fn evaluate_column(&self, block: &Block, by_row: &Counter) -> Result<Arc<Column>> {
        let mut fell = false;
        // The row evaluator's verdict where the loops gave up.
        let operand = match self.operand(block, &mut fell) {
            Err(_) => self.by_row(block, &mut fell).map(Operand::Computed),
            evaluated => evaluated,
        };
        by_row.add(if fell { block.rows() as u64 } else { 0 });
        Ok(match operand? {
            Operand::Shared(column) => column,
            Operand::Computed(column) => Arc::new(column),
            Operand::Scalar(value) => Arc::new(Column::repeat(&value, block.rows())),
        })
    }

    /// The rows of `block` this expression keeps as a filter predicate
    /// (NULL drops the row), in order; `by_row` as for
    /// [`evaluate_column`](Self::evaluate_column).
    pub fn select(&self, block: &Block, by_row: &Counter) -> Result<Vec<u32>> {
        let mut fell = false;
        let kept = self.kept_rows(block, &mut fell);
        by_row.add(if fell { block.rows() as u64 } else { 0 });
        kept
    }

    fn kept_rows(&self, block: &Block, fell: &mut bool) -> Result<Vec<u32>> {
        let rows = 0..block.rows();
        let mut kept = Vec::new();
        match self.operand(block, fell) {
            Ok(operand) => match operand.column() {
                Some(Column::Bool(data, nulls)) => {
                    let keep = |row: &usize| data[*row] && !nulls.is_null(*row);
                    kept.reserve_exact(rows.clone().filter(keep).count());
                    kept.extend(rows.filter(keep).map(|row| row as u32));
                }
                // Anything else was evaluated once already: its cells are
                // read as `matches` reads a value.
                _ => {
                    for row in rows {
                        if operand.cell(row).to_value().as_bool()? == Some(true) {
                            kept.push(row as u32);
                        }
                    }
                }
            },
            // A loop gave up: `matches` decides, row by row.
            Err(_) => self.for_each_row(block, fell, |row, cells| {
                if self.matches(cells)? {
                    kept.push(row as u32);
                }
                Ok(())
            })?,
        }
        Ok(kept)
    }

    /// This expression over `block`, by a typed loop where there is one;
    /// `fell` is set if any of it went through the row evaluator. Any `Err`
    /// means only "ask the row evaluator".
    fn operand(&self, block: &Block, fell: &mut bool) -> Result<Operand> {
        let rows = block.rows();
        let looped = match self {
            PlanExpr::Column(c) => {
                let column = block.columns().get(c.index);
                let column = column.ok_or_else(|| Error::execution("column out of bounds"))?;
                return Ok(Operand::Shared(Arc::clone(column)));
            }
            PlanExpr::Literal(v) => return Ok(Operand::Scalar(v.clone())),
            PlanExpr::Binary { left, op, right } => {
                let (l, r) = (left.operand(block, fell)?, right.operand(block, fell)?);
                match op {
                    BinaryOp::And | BinaryOp::Or => {
                        logic_loop(&l, &r, rows, |l, r| kleene(*op, l, r))
                    }
                    op if is_arithmetic(*op) => arithmetic_loop(*op, &l, &r, rows)?,
                    op => Some(comparison_loop(*op, &l, &r, rows)),
                }
            }
            PlanExpr::Unary {
                op: UnaryOp::Not,
                expr,
            } => {
                let operand = expr.operand(block, fell)?;
                logic_loop(&operand, &operand, rows, |b, _| b.map(|b| !b))
            }
            PlanExpr::IsNull { expr, negated } => {
                let operand = expr.operand(block, fell)?;
                let data = (0..rows).map(|row| operand.cell(row).is_null() != *negated);
                Some(Column::Bool(data.collect(), Nulls::new()))
            }
            PlanExpr::Cast { expr, to } => return cast(expr.operand(block, fell)?, *to, rows),
            // The row evaluator reports the wrong number of arguments.
            PlanExpr::Scalar { func, args } if !func.arity_ok(args.len()) => {
                return Err(Error::plan("wrong number of arguments"))
            }
            PlanExpr::Scalar {
                func: func @ (ScalarFn::Least | ScalarFn::Greatest),
                args,
            } => {
                let args = (args.iter())
                    .map(|arg| arg.operand(block, fell))
                    .collect::<Result<Vec<_>>>()?;
                Some(extremum(&args, *func == ScalarFn::Least, rows))
            }
            PlanExpr::Scalar {
                func: ScalarFn::Coalesce,
                args,
            } => return coalesce(args, block, fell),
            PlanExpr::Scalar {
                func: ScalarFn::Mod,
                args,
            } => {
                let (a, b) = (args[0].operand(block, fell)?, args[1].operand(block, fell)?);
                arithmetic_loop(BinaryOp::Modulo, &a, &b, rows)?
            }
            PlanExpr::Scalar {
                func: func @ (ScalarFn::Ceiling | ScalarFn::Floor | ScalarFn::Round),
                args,
            } => {
                let x = args[0].operand(block, fell)?;
                let digits = match args.get(1) {
                    Some(digits) => digits.operand(block, fell)?,
                    None => Operand::Scalar(Value::Int(0)),
                };
                Some(cells_loop(&x, rows, |row, cell| match cell {
                    // Where `x` is NULL the row evaluator reads no digits.
                    Cell::Null => Ok(Value::Null),
                    x => round_number(*func, &x.to_value(), &digits.cell(row).to_value()),
                })?)
            }
            PlanExpr::Case {
                branches,
                else_expr,
            } => return case(branches, else_expr.as_deref(), block, fell),
            _ => None,
        };
        Ok(Operand::Computed(match looped {
            Some(column) => column,
            None => self.by_row(block, fell)?,
        }))
    }

    /// Every row of `block` through [`evaluate`](Self::evaluate).
    fn by_row(&self, block: &Block, fell: &mut bool) -> Result<Column> {
        let mut out = Column::new();
        self.for_each_row(block, fell, |_, cells| {
            out.push(self.evaluate(cells)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Hand `visit` each row of `block` in order, laid out in one scratch
    /// row that only the columns this expression references are copied
    /// into, and set `fell`.
    fn for_each_row(
        &self,
        block: &Block,
        fell: &mut bool,
        mut visit: impl FnMut(usize, &[Value]) -> Result<()>,
    ) -> Result<()> {
        *fell = true;
        let columns = block.columns();
        let used = self.referenced_columns();
        let mut scratch = vec![Value::Null; columns.len()];
        for row in 0..block.rows() {
            for &c in used.iter().filter(|&&c| c < columns.len()) {
                scratch[c] = columns[c].value(row);
            }
            visit(row, &scratch)?;
        }
        Ok(())
    }

    /// Static result type given the input schema.
    pub fn data_type(&self, input: &Schema) -> DataType {
        match self {
            PlanExpr::Column(c) => input
                .fields()
                .get(c.index)
                .map(|f| f.data_type)
                .unwrap_or(DataType::Null),
            PlanExpr::Literal(v) => v.data_type(),
            PlanExpr::Binary { left, op, right } if is_arithmetic(*op) => {
                arithmetic_type(left.data_type(input), right.data_type(input))
            }
            PlanExpr::Binary { .. } => DataType::Bool,
            PlanExpr::Unary { op, expr } => match op {
                UnaryOp::Not => DataType::Bool,
                _ => expr.data_type(input),
            },
            PlanExpr::Scalar { func, args } => {
                let arg = |i: usize| args.get(i).map_or(DataType::Null, |a| a.data_type(input));
                match func {
                    ScalarFn::Ceiling | ScalarFn::Floor => DataType::Int,
                    ScalarFn::Round
                    | ScalarFn::Sqrt
                    | ScalarFn::Exp
                    | ScalarFn::Ln
                    | ScalarFn::Power => DataType::Float,
                    ScalarFn::Sign | ScalarFn::Length => DataType::Int,
                    ScalarFn::Upper | ScalarFn::Lower | ScalarFn::Concat => DataType::Text,
                    // The absolute value of a BOOL is a FLOAT (0.0 or 1.0).
                    ScalarFn::Abs if arg(0) == DataType::Bool => DataType::Float,
                    ScalarFn::Abs | ScalarFn::NullIf => arg(0),
                    ScalarFn::Mod => arithmetic_type(arg(0), arg(1)),
                    ScalarFn::Least | ScalarFn::Greatest | ScalarFn::Coalesce => {
                        self.arms_type(input).unwrap_or(DataType::Null)
                    }
                }
            }
            // NULL where the arms have no common type: the translator
            // rejects such a node.
            PlanExpr::Case { .. } => self.arms_type(input).unwrap_or(DataType::Null),
            PlanExpr::Cast { to, .. } => *to,
            PlanExpr::IsNull { .. } | PlanExpr::InList { .. } => DataType::Bool,
        }
    }

    /// What a `CASE` (its `THEN`s and `ELSE`) or a `LEAST`, `GREATEST` or
    /// `COALESCE` (its arguments) may return; nothing for any other node.
    fn arms(&self) -> Vec<&PlanExpr> {
        match self {
            PlanExpr::Case {
                branches,
                else_expr,
            } => (branches.iter().map(|(_, then)| then))
                .chain(else_expr.as_deref())
                .collect(),
            PlanExpr::Scalar {
                func: ScalarFn::Least | ScalarFn::Greatest | ScalarFn::Coalesce,
                args,
            } => args.iter().collect(),
            _ => Vec::new(),
        }
    }

    /// The common type of this node's arms (see `arms`), or the two arm
    /// types that have none.
    fn arms_type(&self, input: &Schema) -> std::result::Result<DataType, (DataType, DataType)> {
        common_type(self.arms().into_iter().map(|a| a.data_type(input)))
    }

    /// This node with an implicit `CAST … AS FLOAT` on each INT arm (see
    /// `arms`) where its arms mix INT and FLOAT, so that it returns one
    /// type: the node's own [`data_type`](Self::data_type). Arms with no
    /// common type (TEXT beside INT, BOOL beside FLOAT) are a plan error,
    /// as in PostgreSQL.
    pub fn unify_arms(self, input: &Schema) -> Result<PlanExpr> {
        let what = match &self {
            PlanExpr::Case { .. } => "CASE",
            PlanExpr::Scalar { func, .. } => func.name(),
            _ => return Ok(self),
        };
        match self.arms_type(input) {
            Err(pair) => return Err(cannot_match(&what.to_ascii_uppercase(), pair)),
            Ok(DataType::Float) => {}
            Ok(_) => return Ok(self),
        }
        let to_float = |arm: PlanExpr| match arm.data_type(input) {
            DataType::Int => PlanExpr::Cast {
                expr: Box::new(arm),
                to: DataType::Float,
            },
            _ => arm,
        };
        Ok(match self {
            PlanExpr::Case {
                branches,
                else_expr,
            } => PlanExpr::Case {
                branches: (branches.into_iter())
                    .map(|(when, then)| (when, to_float(then)))
                    .collect(),
                else_expr: else_expr.map(|e| Box::new(to_float(*e))),
            },
            PlanExpr::Scalar { func, args } => PlanExpr::Scalar {
                func,
                args: args.into_iter().map(to_float).collect(),
            },
            other => other,
        })
    }

    /// Indices of all referenced input columns (deduplicated, sorted).
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.walk(&mut |e| {
            if let PlanExpr::Column(c) = e {
                cols.push(c.index);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Pre-order visit of this expression tree.
    pub fn walk(&self, f: &mut impl FnMut(&PlanExpr)) {
        f(self);
        match self {
            PlanExpr::Column(_) | PlanExpr::Literal(_) => {}
            PlanExpr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            PlanExpr::Unary { expr, .. } => expr.walk(f),
            PlanExpr::Scalar { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            PlanExpr::Case {
                branches,
                else_expr,
            } => {
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            PlanExpr::Cast { expr, .. } => expr.walk(f),
            PlanExpr::IsNull { expr, .. } => expr.walk(f),
            PlanExpr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
        }
    }

    /// This node with every child replaced by `f(child)`, in evaluation
    /// order; leaves come back as they are. The one function that takes
    /// every variant apart and builds it again: a rewrite names the nodes
    /// it changes and recurses through this for the rest.
    pub fn map_children<E>(
        self,
        mut f: impl FnMut(PlanExpr) -> Result<PlanExpr, E>,
    ) -> Result<PlanExpr, E> {
        Ok(match self {
            leaf @ (PlanExpr::Column(_) | PlanExpr::Literal(_)) => leaf,
            PlanExpr::Binary { left, op, right } => PlanExpr::Binary {
                left: Box::new(f(*left)?),
                op,
                right: Box::new(f(*right)?),
            },
            PlanExpr::Unary { op, expr } => PlanExpr::Unary {
                op,
                expr: Box::new(f(*expr)?),
            },
            PlanExpr::Scalar { func, args } => PlanExpr::Scalar {
                func,
                args: args.into_iter().map(f).collect::<Result<_, E>>()?,
            },
            PlanExpr::Case {
                branches,
                else_expr,
            } => PlanExpr::Case {
                branches: branches
                    .into_iter()
                    .map(|(w, t)| Ok((f(w)?, f(t)?)))
                    .collect::<Result<_, E>>()?,
                else_expr: else_expr.map(|e| f(*e).map(Box::new)).transpose()?,
            },
            PlanExpr::Cast { expr, to } => PlanExpr::Cast {
                expr: Box::new(f(*expr)?),
                to,
            },
            PlanExpr::IsNull { expr, negated } => PlanExpr::IsNull {
                expr: Box::new(f(*expr)?),
                negated,
            },
            PlanExpr::InList {
                expr,
                list,
                negated,
            } => PlanExpr::InList {
                expr: Box::new(f(*expr)?),
                list: list.into_iter().map(f).collect::<Result<_, E>>()?,
                negated,
            },
        })
    }

    /// This expression with every column reference replaced by
    /// `f(column)`.
    fn replace_columns(
        self,
        f: &mut impl FnMut(ColumnRef) -> Result<PlanExpr>,
    ) -> Result<PlanExpr> {
        match self {
            PlanExpr::Column(c) => f(c),
            other => other.map_children(|child| child.replace_columns(f)),
        }
    }

    /// Rewrite every column index through `map` (old index → new index).
    /// Fails if a referenced column has no mapping.
    pub fn remap_columns(self, map: &dyn Fn(usize) -> Option<usize>) -> Result<PlanExpr> {
        self.replace_columns(&mut |c| match map(c.index) {
            Some(index) => Ok(PlanExpr::Column(ColumnRef { index, ..c })),
            None => Err(Error::plan(format!(
                "cannot remap column '{}' across operator",
                c.name
            ))),
        })
    }

    /// Replace every `Column(i)` with `replacements[i]`: the expression
    /// read through the operator below that computes `replacements`.
    pub fn substitute_columns(self, replacements: &[PlanExpr]) -> Result<PlanExpr> {
        self.replace_columns(&mut |c| {
            replacements.get(c.index).cloned().ok_or_else(|| {
                Error::plan(format!(
                    "column index {} out of range during substitution",
                    c.index
                ))
            })
        })
    }

    /// True when the expression contains no column references (a constant).
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        self.walk(&mut |e| {
            if matches!(e, PlanExpr::Column(_)) {
                constant = false;
            }
        });
        constant
    }
}

/// Split an expression into its AND-connected conjuncts, appended to `out`.
pub fn split_conjuncts(expr: &PlanExpr, out: &mut Vec<PlanExpr>) {
    if let PlanExpr::Binary {
        left,
        op: BinaryOp::And,
        right,
    } = expr
    {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(expr.clone());
    }
}

/// Combine conjuncts back with AND, left to right; `None` when empty.
pub fn conjoin(parts: Vec<PlanExpr>) -> Option<PlanExpr> {
    parts
        .into_iter()
        .reduce(|acc, p| acc.binary(BinaryOp::And, p))
}

/// The common supertype of `types` ([`DataType::widen`]), or the first two
/// of them that have none.
pub(crate) fn common_type(
    types: impl IntoIterator<Item = DataType>,
) -> std::result::Result<DataType, (DataType, DataType)> {
    (types.into_iter()).try_fold(DataType::Null, |one, other| {
        one.widen(other).ok_or((one, other))
    })
}

/// The plan error for two types of one result that no implicit cast
/// joins, worded as PostgreSQL words it: "UNION types INT and TEXT cannot
/// be matched". `what` names the construct.
pub(crate) fn cannot_match(what: &str, (a, b): (DataType, DataType)) -> Error {
    Error::plan(format!("{what} types {a} and {b} cannot be matched"))
}

/// The type of arithmetic over operands of types `a` and `b`: INT over
/// integers, NULL over NULLs, and FLOAT once anything else is involved —
/// the row evaluator computes in floats then.
fn arithmetic_type(a: DataType, b: DataType) -> DataType {
    match a.widen(b) {
        Some(t @ (DataType::Int | DataType::Null)) => t,
        _ => DataType::Float,
    }
}

fn is_arithmetic(op: BinaryOp) -> bool {
    use BinaryOp::*;
    matches!(op, Plus | Minus | Multiply | Divide | Modulo)
}

fn eval_binary(op: BinaryOp, left: &PlanExpr, right: &PlanExpr, row: &[Value]) -> Result<Value> {
    if is_arithmetic(op) {
        eval_arithmetic(op, &*left.evaluate_ref(row)?, &*right.evaluate_ref(row)?)
    } else {
        truth_binary(op, left, right, row).map(bool3)
    }
}

/// Three-valued result of a comparison or of `AND`/`OR`.
fn truth_binary(
    op: BinaryOp,
    left: &PlanExpr,
    right: &PlanExpr,
    row: &[Value],
) -> Result<Option<bool>> {
    // Kleene logic needs lazy/short-circuit handling per operand nullness.
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let l = left.evaluate_ref(row)?.as_bool()?;
        // Short-circuit where the left side decides.
        match (op, l) {
            (BinaryOp::And, Some(false)) => return Ok(Some(false)),
            (BinaryOp::Or, Some(true)) => return Ok(Some(true)),
            _ => {}
        }
        return Ok(kleene(op, l, right.evaluate_ref(row)?.as_bool()?));
    }
    let l = left.evaluate_ref(row)?;
    let r = right.evaluate_ref(row)?;
    Ok(l.sql_cmp(&r).map(|ordering| ordering_test(op, ordering)))
}

/// `l AND r` / `l OR r` in Kleene logic (`None` is NULL).
fn kleene(op: BinaryOp, l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (op, l, r) {
        (BinaryOp::And, Some(true), Some(b)) => Some(b),
        (BinaryOp::And, Some(b), Some(true)) => Some(b),
        (BinaryOp::And, _, Some(false)) | (BinaryOp::And, Some(false), _) => Some(false),
        (BinaryOp::Or, Some(false), Some(b)) => Some(b),
        (BinaryOp::Or, Some(b), Some(false)) => Some(b),
        (BinaryOp::Or, _, Some(true)) | (BinaryOp::Or, Some(true), _) => Some(true),
        _ => None,
    }
}

/// Whether two non-NULL operands that compare as `ordering` satisfy the
/// comparison `op`.
fn ordering_test(op: BinaryOp, ordering: std::cmp::Ordering) -> bool {
    match op {
        BinaryOp::Eq => ordering.is_eq(),
        BinaryOp::NotEq => ordering.is_ne(),
        BinaryOp::Lt => ordering.is_lt(),
        BinaryOp::LtEq => ordering.is_le(),
        BinaryOp::Gt => ordering.is_gt(),
        BinaryOp::GtEq => ordering.is_ge(),
        _ => unreachable!("arithmetic and logic are evaluated, not compared"),
    }
}

fn bool3(b: Option<bool>) -> Value {
    match b {
        Some(v) => Value::Bool(v),
        None => Value::Null,
    }
}

fn eval_arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return int_arithmetic(op, *a, *b).map(Value::Int);
    }
    float_arithmetic(op, l.as_f64()?, r.as_f64()?).map(Value::Float)
}

/// Integer arithmetic: overflow and division by zero are errors.
fn int_arithmetic(op: BinaryOp, a: i64, b: i64) -> Result<i64> {
    let out = match op {
        BinaryOp::Plus => a.checked_add(b),
        BinaryOp::Minus => a.checked_sub(b),
        BinaryOp::Multiply => a.checked_mul(b),
        BinaryOp::Divide if b == 0 => return Err(Error::Arithmetic("division by zero".into())),
        BinaryOp::Divide => a.checked_div(b),
        BinaryOp::Modulo if b == 0 => return Err(Error::Arithmetic("modulo by zero".into())),
        BinaryOp::Modulo => a.checked_rem(b),
        _ => unreachable!(),
    };
    out.ok_or_else(|| Error::Arithmetic(format!("integer overflow in {a} {op} {b}")))
}

/// Float arithmetic (an integer beside a float has been widened):
/// division by zero is an error.
fn float_arithmetic(op: BinaryOp, a: f64, b: f64) -> Result<f64> {
    Ok(match op {
        BinaryOp::Plus => a + b,
        BinaryOp::Minus => a - b,
        BinaryOp::Multiply => a * b,
        BinaryOp::Divide if b == 0.0 => return Err(Error::Arithmetic("division by zero".into())),
        BinaryOp::Divide => a / b,
        BinaryOp::Modulo if b == 0.0 => return Err(Error::Arithmetic("modulo by zero".into())),
        BinaryOp::Modulo => a % b,
        _ => unreachable!(),
    })
}

/// What a sub-expression is over a block: a column of the block itself,
/// a column computed from it, or one value that every row shares (a
/// literal stays scalar).
enum Operand {
    Shared(Arc<Column>),
    Computed(Column),
    Scalar(Value),
}

/// A numeric operand as a typed loop reads it.
#[derive(Clone, Copy)]
enum Numbers<'a> {
    Ints(&'a [i64]),
    Int(i64),
    Floats(&'a [f64]),
    Float(f64),
}

impl Numbers<'_> {
    fn is_int(&self) -> bool {
        matches!(self, Numbers::Ints(_) | Numbers::Int(_))
    }

    #[inline]
    fn int(&self, row: usize) -> i64 {
        match self {
            Numbers::Ints(data) => data[row],
            Numbers::Int(x) => *x,
            _ => unreachable!("is_int was checked"),
        }
    }

    #[inline]
    fn float(&self, row: usize) -> f64 {
        match self {
            Numbers::Ints(data) => data[row] as f64,
            Numbers::Int(x) => *x as f64,
            Numbers::Floats(data) => data[row],
            Numbers::Float(x) => *x,
        }
    }
}

static NO_NULLS: Nulls = Nulls::new();

impl Operand {
    fn column(&self) -> Option<&Column> {
        match self {
            Operand::Shared(column) => Some(column),
            Operand::Computed(column) => Some(column),
            Operand::Scalar(_) => None,
        }
    }

    #[inline]
    fn cell(&self, row: usize) -> Cell<'_> {
        match self {
            Operand::Shared(column) => column.cell(row),
            Operand::Computed(column) => column.cell(row),
            Operand::Scalar(value) => value.cell(),
        }
    }

    /// The operand as numbers and their NULLs, if numbers are what it holds.
    fn numbers(&self) -> Option<(Numbers<'_>, &Nulls)> {
        match (self, self.column()) {
            (_, Some(Column::Int(data, nulls))) => Some((Numbers::Ints(data), nulls)),
            (_, Some(Column::Float(data, nulls))) => Some((Numbers::Floats(data), nulls)),
            (Operand::Scalar(Value::Int(x)), _) => Some((Numbers::Int(*x), &NO_NULLS)),
            (Operand::Scalar(Value::Float(x)), _) => Some((Numbers::Float(*x), &NO_NULLS)),
            _ => None,
        }
    }
}

/// `l op r` over numbers; `None` when an operand holds anything else.
fn arithmetic_loop(op: BinaryOp, l: &Operand, r: &Operand, rows: usize) -> Result<Option<Column>> {
    let (Some((a, a_nulls)), Some((b, b_nulls))) = (l.numbers(), r.numbers()) else {
        return Ok(None);
    };
    let nulls = a_nulls.union(b_nulls);
    // What lies under a NULL is not a value: it is never computed on.
    let live = |row: usize| !nulls.is_null(row);
    Ok(Some(if a.is_int() && b.is_int() {
        let mut data = vec![0; rows];
        for row in (0..rows).filter(|&row| live(row)) {
            data[row] = int_arithmetic(op, a.int(row), b.int(row))?;
        }
        Column::Int(data, nulls)
    } else {
        let mut data = vec![0.0; rows];
        for row in (0..rows).filter(|&row| live(row)) {
            data[row] = float_arithmetic(op, a.float(row), b.float(row))?;
        }
        Column::Float(data, nulls)
    }))
}

/// `l op r` for a comparison, over cells of any type: NULL beside
/// anything is NULL, everything else compares by the total order.
fn comparison_loop(op: BinaryOp, l: &Operand, r: &Operand, rows: usize) -> Column {
    if let (Some((a, a_nulls)), Some((b, b_nulls))) = (l.numbers(), r.numbers()) {
        if a.is_int() && b.is_int() && !a_nulls.any() && !b_nulls.any() {
            let data = (0..rows).map(|row| ordering_test(op, a.int(row).cmp(&b.int(row))));
            return Column::Bool(data.collect(), Nulls::new());
        }
    }
    let mut nulls = Nulls::new();
    let mut data = vec![false; rows];
    for (row, out) in data.iter_mut().enumerate() {
        match (l.cell(row), r.cell(row)) {
            (Cell::Null, _) | (_, Cell::Null) => nulls.set(row),
            (a, b) => *out = ordering_test(op, a.cmp_total(&b)),
        }
    }
    Column::Bool(data, nulls)
}

/// `combine` — Kleene `AND`/`OR`, or `NOT` of its first argument — over the
/// truth of already-evaluated operands; `None` when a cell is neither
/// boolean nor NULL.
fn logic_loop(
    l: &Operand,
    r: &Operand,
    rows: usize,
    combine: impl Fn(Option<bool>, Option<bool>) -> Option<bool>,
) -> Option<Column> {
    let truth = |operand: &Operand, row: usize| match operand.cell(row) {
        Cell::Bool(b) => Some(Some(b)),
        Cell::Null => Some(None),
        _ => None,
    };
    let mut nulls = Nulls::new();
    let mut data = Vec::with_capacity(rows);
    for row in 0..rows {
        let result = combine(truth(l, row)?, truth(r, row)?);
        if result.is_none() {
            nulls.set(row);
        }
        data.push(result.unwrap_or(false));
    }
    Some(Column::Bool(data, nulls))
}

/// `f(row, cell)` of every cell of `x`, in row order, into a column typed
/// by what it returns; the first error gives up (the row evaluator
/// reports it).
fn cells_loop(
    x: &Operand,
    rows: usize,
    mut f: impl FnMut(usize, Cell<'_>) -> Result<Value>,
) -> Result<Column> {
    let mut out = Column::new();
    for row in 0..rows {
        out.push(f(row, x.cell(row))?);
    }
    Ok(out)
}

/// `CAST(x AS to)` over `rows` rows: a scalar, or a column that already
/// holds `to`, as it is; an INT, FLOAT or BOOL column to a number by a
/// loop over its slice — `Value::cast`'s results, FLOAT → INT saturating
/// and NaN → 0 as `as` does; anything else cell by cell.
fn cast(x: Operand, to: DataType, rows: usize) -> Result<Operand> {
    let column = match (&x, x.column(), to) {
        (Operand::Scalar(value), ..) => return Ok(Operand::Scalar(value.cast(to)?)),
        (_, Some(Column::Int(..)), DataType::Int)
        | (_, Some(Column::Float(..)), DataType::Float) => return Ok(x),
        (_, Some(Column::Int(data, nulls)), DataType::Float) => {
            cast_typed(data, nulls, |x| x as f64, Column::Float)
        }
        (_, Some(Column::Float(data, nulls)), DataType::Int) => {
            cast_typed(data, nulls, |x| x as i64, Column::Int)
        }
        (_, Some(Column::Bool(data, nulls)), DataType::Int) => {
            cast_typed(data, nulls, i64::from, Column::Int)
        }
        (_, Some(Column::Bool(data, nulls)), DataType::Float) => {
            cast_typed(data, nulls, |b| f64::from(u8::from(b)), Column::Float)
        }
        _ => cells_loop(&x, rows, |_, cell| cell.to_value().cast(to))?,
    };
    Ok(Operand::Computed(column))
}

/// `ceiling`, `floor` or `round` of a non-NULL `x` to `digits` places
/// (0 for the first two): NULL digits give NULL.
fn round_number(func: ScalarFn, x: &Value, digits: &Value) -> Result<Value> {
    if digits.is_null() {
        return Ok(Value::Null);
    }
    let digits = digits.as_i64()?;
    let x = x.as_f64()?;
    Ok(match func {
        ScalarFn::Ceiling => Value::Int(x.ceil() as i64),
        ScalarFn::Floor => Value::Int(x.floor() as i64),
        _ => {
            let factor = 10f64.powi(digits as i32);
            Value::Float((x * factor).round() / factor)
        }
    })
}

/// `LEAST` (`least`) or `GREATEST` of `args` at every row: the first
/// non-NULL cell that no later one beats in the total order, NULL where
/// every cell is.
fn extremum(args: &[Operand], least: bool, rows: usize) -> Column {
    let mut out = Column::new();
    for row in 0..rows {
        let mut best = Cell::Null;
        for cell in args.iter().map(|arg| arg.cell(row)) {
            let beats = match cell.cmp_total(&best) {
                ordering if least => ordering.is_lt(),
                ordering => ordering.is_gt(),
            };
            if !cell.is_null() && (best.is_null() || beats) {
                best = cell;
            }
        }
        out.push(best.to_value());
    }
    out
}

/// `COALESCE(args)` over `block`: each argument only over the rows every
/// earlier one left NULL — the rows the row evaluator evaluates it on.
fn coalesce(args: &[PlanExpr], block: &Block, fell: &mut bool) -> Result<Operand> {
    let mut pieces = Vec::new();
    let mut picks = vec![None; block.rows()];
    let mut undecided: Vec<u32> = (0..block.rows() as u32).collect();
    for arg in args {
        if undecided.is_empty() {
            break;
        }
        let value = arg.operand(&restrict(block, &undecided, arg), fell)?;
        let piece = pieces.len() as u32;
        let mut still = Vec::new();
        for (at, &row) in undecided.iter().enumerate() {
            match value.cell(at) {
                Cell::Null => still.push(row),
                _ => picks[row as usize] = Some((piece, at as u32)),
            }
        }
        if pieces.is_empty() && still.is_empty() {
            return Ok(value); // the first argument decides every row
        }
        pieces.push(value);
        undecided = still;
    }
    Ok(Operand::Computed(assemble(&pieces, &picks)))
}

/// Searched `CASE` over `block`: each `WHEN` only over the rows no earlier
/// one took, each `THEN` only over the rows its `WHEN` took and the `ELSE`
/// over the rest — the rows the row evaluator evaluates them on.
fn case(
    branches: &[(PlanExpr, PlanExpr)],
    else_expr: Option<&PlanExpr>,
    block: &Block,
    fell: &mut bool,
) -> Result<Operand> {
    let mut pieces = Vec::new();
    let mut picks = vec![None; block.rows()];
    let mut undecided: Vec<u32> = (0..block.rows() as u32).collect();
    let mut take = |rows: &[u32], expr: &PlanExpr, fell: &mut bool| -> Result<()> {
        if !rows.is_empty() {
            let piece = pieces.len() as u32;
            pieces.push(expr.operand(&restrict(block, rows, expr), fell)?);
            for (at, &row) in rows.iter().enumerate() {
                picks[row as usize] = Some((piece, at as u32));
            }
        }
        Ok(())
    };
    for (when, then) in branches {
        if undecided.is_empty() {
            break;
        }
        let test = when.operand(&restrict(block, &undecided, when), fell)?;
        let (taken, rest) = split_by(&test, &undecided)?;
        take(&taken, then, fell)?;
        undecided = rest;
    }
    if let Some(else_expr) = else_expr {
        take(&undecided, else_expr, fell)?;
    }
    Ok(Operand::Computed(assemble(&pieces, &picks)))
}

/// `rows` split by a `WHEN` test over them, cell `at` of `test` for row
/// `rows[at]`: the rows it holds true for, and the rest, for which it is
/// false or NULL. A boolean column is read as its values and NULLs; a
/// cell that is not a boolean is an error, as the row evaluator says.
fn split_by(test: &Operand, rows: &[u32]) -> Result<(Vec<u32>, Vec<u32>)> {
    let mut taken = Vec::with_capacity(rows.len());
    let mut rest = Vec::with_capacity(rows.len());
    if let Some(Column::Bool(values, nulls)) = test.column() {
        for (at, &row) in rows.iter().enumerate() {
            match values[at] && !nulls.is_null(at) {
                true => taken.push(row),
                false => rest.push(row),
            }
        }
        return Ok((taken, rest));
    }
    for (at, &row) in rows.iter().enumerate() {
        match test.cell(at) {
            Cell::Bool(true) => taken.push(row),
            Cell::Bool(false) | Cell::Null => rest.push(row),
            // Not a predicate: the row evaluator says so.
            _ => return Err(Error::type_error("CASE condition is not boolean")),
        }
    }
    Ok((taken, rest))
}

/// Rows `rows` (ascending) of `block` as a block of their own, to evaluate
/// `expr` over: only the columns it reads are gathered, every other one
/// reads NULL. All of `block`'s rows are `block` itself.
fn restrict<'a>(block: &'a Block, rows: &[u32], expr: &PlanExpr) -> Cow<'a, Block> {
    if rows.len() == block.rows() {
        return Cow::Borrowed(block);
    }
    let used = expr.referenced_columns();
    let nulls = Arc::new(Column::repeat(&Value::Null, rows.len()));
    let columns =
        block
            .columns()
            .iter()
            .enumerate()
            .map(|(c, column)| match used.binary_search(&c) {
                Ok(_) => Arc::new(column.gather(rows)),
                Err(_) => Arc::clone(&nulls),
            });
    Cow::Owned(Block::new(columns.collect(), rows.len()))
}

/// A column whose row `r` is cell `at` of `pieces[p]` where `picks[r]` is
/// `Some((p, at))`, and NULL where it is `None`. The plan gives every
/// piece one type ([`PlanExpr::unify_arms`]); where it is INT or FLOAT the
/// cells are copied into that type's vector, not pushed one `Value` at a
/// time.
fn assemble(pieces: &[Operand], picks: &[Option<(u32, u32)>]) -> Column {
    let held = |piece: &Operand| match piece {
        Operand::Scalar(value) => value.data_type(),
        column => column.column().map_or(DataType::Null, Column::data_type),
    };
    let mut types = pieces.iter().map(held).filter(|&t| t != DataType::Null);
    let one_type = types.next().unwrap_or(DataType::Null);
    assert!(
        types.all(|t| t == one_type),
        "the arms of one node hold two types"
    );
    let cell = |pick: &Option<(u32, u32)>| match *pick {
        Some((piece, at)) => pieces[piece as usize].cell(at as usize),
        None => Cell::Null,
    };
    match one_type {
        DataType::Int => {
            let int = |pick| match cell(pick) {
                Cell::Int(x) => Some(x),
                _ => None,
            };
            Column::from_ints(picks.iter().map(int))
        }
        DataType::Float => {
            let float = |pick| match cell(pick) {
                Cell::Float(x) => Some(x),
                _ => None,
            };
            Column::from_floats(picks.iter().map(float))
        }
        _ => {
            let mut out = Column::new();
            for pick in picks {
                out.push(cell(pick).to_value());
            }
            out
        }
    }
}

/// `cast` of every cell of a typed column into a column of another type,
/// with the same NULLs — or, where it holds no value, the column of as
/// many NULLs that pushing its cells one by one builds.
fn cast_typed<T: Copy, U>(
    data: &[T],
    nulls: &Nulls,
    cast: impl Fn(T) -> U,
    column: fn(Vec<U>, Nulls) -> Column,
) -> Column {
    let out = column(data.iter().map(|&x| cast(x)).collect(), nulls.clone());
    match out.data_type() {
        DataType::Null => Column::repeat(&Value::Null, data.len()),
        _ => out,
    }
}

fn eval_scalar(func: ScalarFn, args: &[PlanExpr], row: &[Value]) -> Result<Value> {
    if !func.arity_ok(args.len()) {
        return Err(Error::plan(format!(
            "wrong number of arguments ({}) for {}",
            args.len(),
            func.name()
        )));
    }
    match func {
        ScalarFn::Coalesce => {
            for a in args {
                let v = a.evaluate_ref(row)?;
                if !v.is_null() {
                    return Ok(v.into_owned());
                }
            }
            Ok(Value::Null)
        }
        ScalarFn::Least | ScalarFn::Greatest => {
            // SQL LEAST/GREATEST ignore NULL arguments.
            let mut best: Option<Cow<'_, Value>> = None;
            for a in args {
                let v = a.evaluate_ref(row)?;
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match func {
                            ScalarFn::Least => v.cmp_total(&b).is_lt(),
                            _ => v.cmp_total(&b).is_gt(),
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.map_or(Value::Null, Cow::into_owned))
        }
        ScalarFn::NullIf => {
            let a = args[0].evaluate_ref(row)?;
            let b = args[1].evaluate_ref(row)?;
            if a.sql_eq(&b) == Some(true) {
                Ok(Value::Null)
            } else {
                Ok(a.into_owned())
            }
        }
        ScalarFn::Concat => {
            let mut s = String::new();
            for a in args {
                let v = a.evaluate_ref(row)?;
                if !v.is_null() {
                    s.push_str(&v.to_string());
                }
            }
            Ok(Value::Text(s))
        }
        _ => {
            let v0 = args[0].evaluate_ref(row)?;
            if v0.is_null() {
                return Ok(Value::Null);
            }
            match func {
                ScalarFn::Ceiling | ScalarFn::Floor | ScalarFn::Round => {
                    let digits = match args.get(1) {
                        Some(d) => d.evaluate_ref(row)?,
                        None => Cow::Owned(Value::Int(0)),
                    };
                    round_number(func, &v0, &digits)
                }
                ScalarFn::Abs => match &*v0 {
                    Value::Int(i) => {
                        Ok(Value::Int(i.checked_abs().ok_or_else(|| {
                            Error::Arithmetic("integer overflow in abs".into())
                        })?))
                    }
                    other => Ok(Value::Float(other.as_f64()?.abs())),
                },
                ScalarFn::Mod => {
                    let v1 = args[1].evaluate_ref(row)?;
                    eval_arithmetic(BinaryOp::Modulo, &v0, &v1)
                }
                ScalarFn::Sqrt => {
                    let f = v0.as_f64()?;
                    if f < 0.0 {
                        return Err(Error::Arithmetic("sqrt of negative number".into()));
                    }
                    Ok(Value::Float(f.sqrt()))
                }
                ScalarFn::Exp => Ok(Value::Float(v0.as_f64()?.exp())),
                ScalarFn::Ln => {
                    let f = v0.as_f64()?;
                    if f <= 0.0 {
                        return Err(Error::Arithmetic("ln of non-positive number".into()));
                    }
                    Ok(Value::Float(f.ln()))
                }
                ScalarFn::Power => {
                    let v1 = args[1].evaluate_ref(row)?;
                    if v1.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Float(v0.as_f64()?.powf(v1.as_f64()?)))
                }
                ScalarFn::Sign => {
                    let f = v0.as_f64()?;
                    Ok(Value::Int(if f > 0.0 {
                        1
                    } else if f < 0.0 {
                        -1
                    } else {
                        0
                    }))
                }
                ScalarFn::Upper => Ok(Value::Text(v0.to_string().to_uppercase())),
                ScalarFn::Lower => Ok(Value::Text(v0.to_string().to_lowercase())),
                ScalarFn::Length => Ok(Value::Int(v0.to_string().chars().count() as i64)),
                ScalarFn::Least
                | ScalarFn::Greatest
                | ScalarFn::Coalesce
                | ScalarFn::Concat
                | ScalarFn::NullIf => unreachable!("handled above"),
            }
        }
    }
}

impl fmt::Display for PlanExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanExpr::Column(c) => write!(f, "{}#{}", c.name, c.index),
            PlanExpr::Literal(v) => match v {
                Value::Text(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            PlanExpr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            PlanExpr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Minus => write!(f, "(-{expr})"),
                UnaryOp::Plus => write!(f, "(+{expr})"),
            },
            PlanExpr::Scalar { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            PlanExpr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            PlanExpr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            PlanExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            PlanExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[Value]) -> Vec<Value> {
        vals.to_vec()
    }

    /// `evaluate`, cross-checked on every call against the borrowed
    /// evaluation, the predicate view and the column evaluator (over a
    /// block holding the row twice): all must agree on each shape these
    /// tests build, error cases included.
    trait Checked {
        fn eval(&self, row: &[Value]) -> Result<Value>;
    }

    impl Checked for PlanExpr {
        fn eval(&self, row: &[Value]) -> Result<Value> {
            let owned = self.evaluate(row);
            let borrowed = self.evaluate_ref(row).map(Cow::into_owned);
            assert_eq!(format!("{owned:?}"), format!("{borrowed:?}"), "{self}");
            let kept = owned.clone().and_then(|v| Ok(v.as_bool()? == Some(true)));
            assert_eq!(format!("{kept:?}"), format!("{:?}", self.matches(row)));
            by_column_equals_by_row(self, &[row.to_vec(), row.to_vec()]);
            owned
        }
    }

    /// `expr` as the translator leaves it over columns of `types`: at every
    /// node, INT arms cast where FLOAT ones meet them.
    fn unified(expr: PlanExpr, types: &[DataType]) -> PlanExpr {
        fn walk(expr: PlanExpr, schema: &Schema) -> PlanExpr {
            let expr = expr.map_children(|child| Ok::<_, Error>(walk(child, schema)));
            expr.and_then(|expr| expr.unify_arms(schema)).unwrap()
        }
        let fields = types.iter().enumerate();
        let fields = fields.map(|(i, &t)| spinner_common::Field::new(format!("c{i}"), t));
        walk(expr, &Schema::new(fields.collect()))
    }

    /// The column evaluator over `rows` against `evaluate` on each: the
    /// same cells to the bit, or the error of the first failing row; and
    /// `select` against `matches`. Returns the rows sent by row.
    fn by_column_equals_by_row(expr: &PlanExpr, rows: &[Vec<Value>]) -> u64 {
        let width = rows.first().map_or(0, Vec::len);
        let block = Block::from_rows(width, rows.iter().map(|r| r.clone().into_boxed_slice()));
        let by_row = Counter::default();
        let column = expr.evaluate_column(&block, &by_row);
        let cells = column.map(|c| (0..rows.len()).map(|row| c.value(row)).collect::<Vec<_>>());
        let want: Result<Vec<Value>> = rows.iter().map(|row| expr.evaluate(row)).collect();
        assert_eq!(format!("{cells:?}"), format!("{want:?}"), "{expr}");
        let sent = by_row.get();
        let kept = expr.select(&block, &by_row);
        let want: Result<Vec<u32>> = (rows.iter().enumerate())
            .filter_map(|(i, row)| {
                expr.matches(row)
                    .map(|keep| keep.then_some(i as u32))
                    .transpose()
            })
            .collect();
        assert_eq!(format!("{kept:?}"), format!("{want:?}"), "{expr}");
        // A predicate counts as a projection does: its block once.
        assert_eq!(by_row.get(), 2 * sent, "{expr}");
        sent
    }

    #[test]
    fn typed_loops_equal_the_row_evaluator_and_say_when_they_are_not_used() {
        use BinaryOp::*;
        let c = |i: usize| PlanExpr::column(i, format!("c{i}"));
        let lit = |v: Value| PlanExpr::Literal(v);
        // int | float | int with NULLs | text | floats, some equal to ints |
        // bool
        let rows: Vec<Vec<Value>> = (0..6i64)
            .map(|i| {
                vec![
                    Value::Int(i - 2),
                    Value::Float(i as f64 * 0.5 - 1.0),
                    if i == 1 { Value::Null } else { Value::Int(i) },
                    Value::Text(format!("t{}", i % 2)),
                    if i % 2 == 0 {
                        Value::Float(i as f64)
                    } else {
                        Value::Float(0.5)
                    },
                    if i == 4 {
                        Value::Null
                    } else {
                        Value::Bool(i % 3 == 0)
                    },
                ]
            })
            .collect();
        let not = |e: PlanExpr| PlanExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(e),
        };
        let is_null = |e: PlanExpr, negated| PlanExpr::IsNull {
            expr: Box::new(e),
            negated,
        };
        // Typed loops all the way down: nothing goes by row.
        let typed = vec![
            c(0).binary(Plus, c(0)),
            c(0).binary(Minus, c(1)),
            c(1).binary(Multiply, c(2)),
            lit(Value::Int(3)).binary(Multiply, c(2)),
            c(1).binary(Divide, lit(Value::Float(4.0))),
            c(0).binary(Modulo, lit(Value::Int(3))),
            c(0).binary(Eq, lit(Value::Int(1))),
            c(0).binary(Lt, c(1)),
            c(2).binary(GtEq, c(0)),
            c(3).binary(Eq, lit(Value::Text("t1".into()))),
            c(4).binary(NotEq, c(0)),
            c(3).binary(Lt, c(0)),
            lit(Value::Null).binary(Eq, c(0)),
            c(0).binary(Lt, lit(Value::Int(1)))
                .binary(And, c(2).binary(Gt, lit(Value::Int(0)))),
            c(5).binary(Or, c(2).binary(Eq, c(0))),
            not(c(5)),
            not(c(0).binary(Eq, c(2))),
            is_null(c(2), false),
            is_null(c(4).binary(Eq, c(2)), true),
            lit(Value::Int(1)).binary(Plus, lit(Value::Int(2))),
            c(1),
            lit(Value::Text("x".into())),
            c(4).binary(Plus, c(0)),
        ];
        for expr in &typed {
            assert_eq!(by_column_equals_by_row(expr, &rows), 0, "{expr}");
        }
        // CASE and LEAST are column kernels too: a `THEN` only ever sees the
        // rows its `WHEN` took, so the guarded division never divides by 0.
        let divide_guarded = PlanExpr::Case {
            branches: vec![(
                c(0).binary(NotEq, lit(Value::Int(0))),
                lit(Value::Int(1)).binary(Divide, c(0)),
            )],
            else_expr: Some(Box::new(lit(Value::Int(0)))),
        };
        let least = |a, b| PlanExpr::Scalar {
            func: ScalarFn::Least,
            args: vec![c(a), c(b)],
        };
        // A predicate that is not a column of booleans — here every cell
        // is NULL — is read off the column it was evaluated into.
        let never = PlanExpr::Case {
            branches: vec![(c(0).binary(Gt, lit(Value::Int(9))), c(5))],
            else_expr: None,
        };
        let text = PlanExpr::Cast {
            expr: Box::new(c(0)),
            to: DataType::Text,
        };
        // LEAST of an int and a float column, as the translator leaves it:
        // the int arm cast to FLOAT.
        let int_float = unified(least(0, 1), &[DataType::Int, DataType::Float]);
        for expr in [
            divide_guarded,
            never,
            least(0, 2).binary(Plus, c(1)),
            text,
            int_float,
        ] {
            assert_eq!(by_column_equals_by_row(&expr, &rows), 0, "{expr}");
        }
        // Shapes the loops hand to the row evaluator: the block's rows are
        // counted once, however many nodes went by row.
        for (expr, sent) in [
            (c(0).binary(Plus, lit(Value::Null)), 6),
            (
                PlanExpr::Unary {
                    op: UnaryOp::Minus,
                    expr: Box::new(c(0)),
                },
                6,
            ),
            (
                PlanExpr::InList {
                    expr: Box::new(c(0)),
                    list: vec![c(2), lit(Value::Int(1))],
                    negated: false,
                },
                6,
            ),
        ] {
            assert_eq!(by_column_equals_by_row(&expr, &rows), sent, "{expr}");
        }
        // Errors: the first failing row's, in row order — and none where
        // the row evaluator's short-circuit never reaches the failing cell.
        let overflow = c(0).binary(Multiply, lit(Value::Int(i64::MAX)));
        let by_zero = lit(Value::Int(6)).binary(Divide, c(0));
        let guarded = c(0)
            .binary(NotEq, lit(Value::Int(0)))
            .binary(And, by_zero.clone().binary(Gt, lit(Value::Int(0))));
        let late = by_zero.clone().binary(Plus, overflow.clone());
        for expr in [
            overflow,
            by_zero,
            guarded,
            late,
            c(1).binary(Modulo, lit(Value::Float(0.0))),
            c(3).binary(Plus, c(0)),
            c(0).binary(And, c(5)),
            not(c(3)),
            c(9).binary(Plus, c(0)),
            c(0).binary(Eq, c(9)),
        ] {
            // (A node that fails by row is asked again from the root, and
            // its rows still count once.)
            assert_eq!(by_column_equals_by_row(&expr, &rows), 6, "{expr}");
            // No rows, no error — not even for a column that is not there.
            assert_eq!(by_column_equals_by_row(&expr, &[]), 0, "{expr}");
        }
        // What lies under a NULL is never computed on.
        let under_null = lit(Value::Int(1)).binary(Divide, c(2).binary(Minus, c(2)));
        let rows = vec![vec![Value::Int(0), Value::Int(0), Value::Null]];
        assert_eq!(by_column_equals_by_row(&under_null, &rows), 0);
    }

    #[test]
    fn kernels_equal_the_row_evaluator_and_never_go_by_row() {
        use BinaryOp::*;
        let c = |i: usize| PlanExpr::column(i, format!("c{i}"));
        let lit = |v: Value| PlanExpr::Literal(v);
        let (int, float) = (Value::Int, Value::Float);
        const NULL: Value = Value::Null;
        // ints | floats | ints with zeros | all NULL | floats | bools |
        // floats, some equal to ints | text
        let columns: [Vec<Value>; 8] = [
            vec![
                int(i64::MIN),
                int(-1),
                int(0),
                NULL,
                int(7),
                int(2),
                int(0),
                int(5),
            ],
            [f64::NAN, -0.0, 0.0, 1.0, 2.5, 1.5, -1e300, 0.25]
                .map(float)
                .to_vec(),
            vec![int(0), int(3), NULL, int(0), int(-2), int(5), int(1), NULL],
            vec![NULL; 8],
            vec![float(0.0), float(-0.0), float(f64::NAN), float(1.0), NULL],
            [true, false, true, true, false, true, false, false]
                .map(Value::Bool)
                .to_vec(),
            vec![
                float(1.0),
                float(0.5),
                NULL,
                float(-3.0),
                float(2.0),
                float(2.0),
                float(-0.0),
                float(0.0),
            ],
            ["a", "b", "c", "c", "a", "b", "c", "d"]
                .map(Value::from)
                .to_vec(),
        ];
        let rows: Vec<Vec<Value>> = (0..8)
            .map(|row| {
                let cell = |column: &Vec<Value>| column.get(row).cloned().unwrap_or(Value::Null);
                let mut cells: Vec<Value> = columns.iter().map(cell).collect();
                // NULLs in the float and boolean columns too.
                if row == 3 {
                    cells[1] = Value::Null;
                }
                if row % 3 == 2 {
                    cells[5] = Value::Null;
                }
                cells
            })
            .collect();
        let call = |func, args: Vec<PlanExpr>| PlanExpr::Scalar { func, args };
        let case =
            |branches: Vec<(PlanExpr, PlanExpr)>, else_expr: Option<PlanExpr>| PlanExpr::Case {
                branches,
                else_expr: else_expr.map(Box::new),
            };
        let cast = |e: PlanExpr, to| PlanExpr::Cast {
            expr: Box::new(e),
            to,
        };
        let mut kernels = Vec::new();
        let pairs: [(PlanExpr, PlanExpr); 10] = [
            (c(0), c(2)),
            (c(1), c(4)),
            (c(0), c(1)),
            (c(0), c(6)),
            (c(3), c(3)),
            (c(3), c(1)),
            (c(0), lit(int(1))),
            (c(1), lit(NULL)),
            (c(7), lit(Value::from("b"))),
            (lit(int(2)), lit(float(1.5))),
        ];
        for (a, b) in pairs {
            for func in [ScalarFn::Least, ScalarFn::Greatest, ScalarFn::Coalesce] {
                kernels.push(call(func, vec![a.clone(), b.clone()]));
            }
        }
        let moduli = [
            (c(0), lit(int(3))),
            (c(1), lit(float(0.75))),
            (c(0), lit(float(2.5))),
        ];
        for (a, b) in moduli.into_iter().chain([(c(3), c(2))]) {
            kernels.push(call(ScalarFn::Mod, vec![a, b]));
        }
        for func in [ScalarFn::Least, ScalarFn::Greatest, ScalarFn::Coalesce] {
            kernels.push(call(func, vec![c(1)]));
            kernels.push(call(func, vec![c(3), c(2), c(1), c(6)]));
        }
        for x in [c(0), c(1), c(3), c(4), c(5), c(6), lit(float(-2.5))] {
            kernels.push(call(ScalarFn::Ceiling, vec![x.clone()]));
            kernels.push(call(ScalarFn::Floor, vec![x.clone()]));
            kernels.push(call(ScalarFn::Round, vec![x.clone()]));
            kernels.push(call(ScalarFn::Round, vec![x.clone(), lit(int(2))]));
            kernels.push(call(ScalarFn::Round, vec![x.clone(), c(2)]));
            kernels.push(call(ScalarFn::Round, vec![x.clone(), c(4)]));
            kernels.push(cast(x.clone(), DataType::Float));
            kernels.push(cast(x.clone(), DataType::Text));
            kernels.push(cast(x, DataType::Int));
        }
        kernels.extend([c(0), c(5), c(7)].map(|x| cast(x, DataType::Text)));
        kernels.extend([c(0), c(5)].map(|x| cast(x, DataType::Bool)));
        let positive = c(2).binary(NotEq, lit(int(0)));
        kernels.extend([
            // Arms of both numeric types, a NULL arm, no ELSE.
            case(vec![(c(5), c(0))], Some(c(1))),
            case(
                vec![
                    (c(0).binary(Gt, lit(int(0))), c(1)),
                    (c(2).binary(Eq, lit(int(0))), c(4)),
                ],
                None,
            ),
            case(vec![(c(5), lit(NULL))], Some(c(6))),
            // A condition that is NULL everywhere.
            case(
                vec![(c(3).binary(Eq, lit(int(1))), lit(int(1)))],
                Some(c(0)),
            ),
            // Simple CASE, as the builder desugars it, over text.
            case(
                vec![
                    (c(2).binary(Eq, lit(int(0))), lit(Value::from("zero"))),
                    (c(2).binary(Eq, lit(int(3))), lit(Value::from("three"))),
                ],
                Some(c(7)),
            ),
            call(
                ScalarFn::Coalesce,
                vec![case(vec![(c(5), c(3))], None), c(0)],
            ),
            // Division by the zeros a WHEN or an earlier argument excludes.
            case(
                vec![(positive.clone(), lit(int(10)).binary(Divide, c(2)))],
                Some(lit(int(0))),
            ),
            case(vec![(positive, lit(float(1.0)).binary(Divide, c(2)))], None),
            call(
                ScalarFn::Coalesce,
                vec![c(2), lit(int(1)).binary(Divide, c(2))],
            ),
            call(
                ScalarFn::Coalesce,
                vec![lit(int(1)), lit(int(1)).binary(Divide, c(2))],
            ),
        ]);
        // As the translator leaves them: INT arms cast where FLOAT ones
        // meet them.
        let types = {
            use DataType::*;
            [Int, Float, Int, Null, Float, Bool, Float, Text]
        };
        let kernels = kernels.into_iter().map(|expr| unified(expr, &types));
        for expr in &kernels.collect::<Vec<_>>() {
            assert_eq!(by_column_equals_by_row(expr, &rows), 0, "{expr}");
            assert_eq!(by_column_equals_by_row(expr, &rows[..1]), 0, "{expr}");
            assert_eq!(by_column_equals_by_row(expr, &[]), 0, "{expr}");
        }
        // Where the row evaluator raises, the kernels give up and it is
        // asked: the same error, the first failing row's.
        let by_zero = lit(int(1)).binary(Divide, c(2));
        for expr in [
            call(ScalarFn::Coalesce, vec![c(3), by_zero.clone()]),
            case(
                vec![(c(2).binary(Eq, lit(NULL)), lit(int(0)))],
                Some(by_zero.clone()),
            ),
            call(ScalarFn::Least, vec![c(0), by_zero]),
            case(vec![(c(0), lit(int(1)))], None),
            call(ScalarFn::Round, vec![c(7)]),
            call(ScalarFn::Ceiling, vec![c(0), c(1)]),
            call(ScalarFn::Coalesce, vec![]),
            call(ScalarFn::Mod, vec![c(0), c(2)]),
            cast(c(7), DataType::Float),
        ] {
            assert!(expr.evaluate(&rows[0]).is_err() || expr.evaluate(&rows[2]).is_err());
            assert_eq!(by_column_equals_by_row(&expr, &rows), 8, "{expr}");
        }
    }

    /// A numeric `CAST`, and pieces of `CASE` and `COALESCE` that agree on
    /// INT or FLOAT, fill that type's vector, and make the very column —
    /// variant, cells and NULLs — that pushing the row evaluator's values
    /// one by one makes, also where every cell is NULL.
    #[test]
    fn typed_kernels_make_the_pushed_column() {
        use BinaryOp::*;
        let c = |i: usize| PlanExpr::column(i, format!("c{i}"));
        let lit = |v: Value| PlanExpr::Literal(v);
        let case = |when: PlanExpr, then: PlanExpr, otherwise: Option<PlanExpr>| PlanExpr::Case {
            branches: vec![(when, then)],
            else_expr: otherwise.map(Box::new),
        };
        // ints with NULLs | floats, NULL where the ints are
        let rows: Vec<Vec<Value>> = (0..9i64)
            .map(|i| match i % 3 {
                0 => vec![Value::Null, Value::Null],
                _ => vec![Value::Int(i - 4), Value::Float(i as f64 / 4.0 - 1.0)],
            })
            .collect();
        let block = Block::from_rows(2, rows.iter().map(|r| r.clone().into_boxed_slice()));
        let positive = c(0).binary(Gt, lit(Value::Int(0)));
        for expr in [
            case(positive.clone(), c(0), Some(lit(Value::Int(7)))),
            case(positive.clone(), c(1), None),
            case(c(0).binary(Gt, lit(Value::Int(99))), c(1), None),
            PlanExpr::Cast {
                expr: Box::new(c(0)),
                to: DataType::Float,
            },
            // An INT column of NULLs alone, cast.
            PlanExpr::Cast {
                expr: Box::new(case(c(0).binary(Gt, lit(Value::Int(99))), c(0), None)),
                to: DataType::Float,
            },
            PlanExpr::Scalar {
                func: ScalarFn::Coalesce,
                args: vec![c(1), lit(Value::Float(0.5))],
            },
        ] {
            let column = expr.evaluate_column(&block, &Counter::default()).unwrap();
            let mut pushed = Column::new();
            rows.iter()
                .for_each(|row| pushed.push(expr.evaluate(row).unwrap()));
            assert_eq!(format!("{column:?}"), format!("{pushed:?}"), "{expr}");
        }
    }

    #[test]
    fn borrowed_evaluation_reads_cells_in_place() {
        let cells = row(&[Value::Text("a".into()), Value::Int(2), Value::Null]);
        let col = PlanExpr::column(0, "t");
        assert!(
            matches!(col.evaluate_ref(&cells), Ok(Cow::Borrowed(v)) if std::ptr::eq(v, &cells[0]))
        );
        let lit = PlanExpr::literal("a");
        assert!(matches!(lit.evaluate_ref(&cells), Ok(Cow::Borrowed(_))));
        let b = |i: usize| Box::new(PlanExpr::column(i, "c"));
        let shapes = vec![
            col.clone().binary(BinaryOp::Eq, lit.clone()),
            PlanExpr::column(1, "n").binary(BinaryOp::Plus, PlanExpr::column(1, "n")),
            PlanExpr::column(1, "n").binary(BinaryOp::Lt, PlanExpr::column(2, "null")),
            // Errors: a missing column under an operator, text arithmetic,
            // a non-boolean predicate.
            PlanExpr::column(1, "n").binary(BinaryOp::Plus, PlanExpr::column(9, "missing")),
            col.clone()
                .binary(BinaryOp::Minus, PlanExpr::column(1, "n")),
            PlanExpr::column(1, "n").binary(BinaryOp::And, PlanExpr::literal(true)),
            PlanExpr::Unary {
                op: UnaryOp::Minus,
                expr: b(1),
            },
            PlanExpr::Unary {
                op: UnaryOp::Minus,
                expr: b(0),
            },
            PlanExpr::Unary {
                op: UnaryOp::Plus,
                expr: b(0),
            },
            PlanExpr::Unary {
                op: UnaryOp::Not,
                expr: b(2),
            },
            PlanExpr::Cast {
                expr: b(1),
                to: DataType::Text,
            },
            PlanExpr::Cast {
                expr: b(0),
                to: DataType::Int,
            },
            PlanExpr::IsNull {
                expr: b(2),
                negated: false,
            },
            PlanExpr::IsNull {
                expr: b(9),
                negated: true,
            },
            PlanExpr::InList {
                expr: b(1),
                list: vec![PlanExpr::column(2, "null"), PlanExpr::literal(2.0)],
                negated: true,
            },
            PlanExpr::Case {
                branches: vec![(
                    col.clone().binary(BinaryOp::Eq, lit.clone()),
                    PlanExpr::column(1, "n"),
                )],
                else_expr: Some(b(0)),
            },
            PlanExpr::Scalar {
                func: ScalarFn::Coalesce,
                args: vec![PlanExpr::column(2, "null"), col.clone()],
            },
            PlanExpr::Scalar {
                func: ScalarFn::Greatest,
                args: vec![PlanExpr::column(1, "n"), PlanExpr::literal(1.5)],
            },
            PlanExpr::Scalar {
                func: ScalarFn::NullIf,
                args: vec![col.clone(), lit.clone()],
            },
            PlanExpr::Scalar {
                func: ScalarFn::Concat,
                args: vec![col.clone(), PlanExpr::column(1, "n")],
            },
            PlanExpr::Scalar {
                func: ScalarFn::Abs,
                args: vec![PlanExpr::column(1, "n")],
            },
            PlanExpr::Scalar {
                func: ScalarFn::Upper,
                args: vec![col],
            },
        ];
        let mut errors = 0;
        for e in &shapes {
            errors += usize::from(e.eval(&cells).is_err());
        }
        assert_eq!(errors, 6, "the error shapes fail, identically both ways");
    }

    #[test]
    fn arithmetic_int_and_float() {
        let e = PlanExpr::literal(2i64).binary(BinaryOp::Plus, PlanExpr::literal(3i64));
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(5));
        let e = PlanExpr::literal(2i64).binary(BinaryOp::Multiply, PlanExpr::literal(1.5));
        assert_eq!(e.eval(&[]).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = PlanExpr::literal(1i64).binary(BinaryOp::Divide, PlanExpr::literal(0i64));
        assert!(matches!(e.eval(&[]), Err(Error::Arithmetic(_))));
        let e = PlanExpr::literal(1.0).binary(BinaryOp::Divide, PlanExpr::literal(0.0));
        assert!(matches!(e.eval(&[]), Err(Error::Arithmetic(_))));
    }

    #[test]
    fn integer_overflow_detected() {
        let e = PlanExpr::literal(i64::MAX).binary(BinaryOp::Plus, PlanExpr::literal(1i64));
        assert!(matches!(e.eval(&[]), Err(Error::Arithmetic(_))));
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let e = PlanExpr::Literal(Value::Null).binary(BinaryOp::Plus, PlanExpr::literal(1i64));
        assert!(e.eval(&[]).unwrap().is_null());
    }

    #[test]
    fn kleene_and_or() {
        let null = PlanExpr::Literal(Value::Null);
        let t = PlanExpr::literal(true);
        let f = PlanExpr::literal(false);
        // false AND NULL = false
        assert_eq!(
            f.clone()
                .binary(BinaryOp::And, null.clone())
                .eval(&[])
                .unwrap(),
            Value::Bool(false)
        );
        // NULL AND false = false (right side decides)
        assert_eq!(
            null.clone()
                .binary(BinaryOp::And, f.clone())
                .eval(&[])
                .unwrap(),
            Value::Bool(false)
        );
        // true OR NULL = true
        assert_eq!(
            t.clone()
                .binary(BinaryOp::Or, null.clone())
                .eval(&[])
                .unwrap(),
            Value::Bool(true)
        );
        // NULL OR NULL = NULL
        assert!(null
            .clone()
            .binary(BinaryOp::Or, null)
            .eval(&[])
            .unwrap()
            .is_null());
    }

    #[test]
    fn comparisons_with_null_are_null() {
        let e = PlanExpr::Literal(Value::Null).binary(BinaryOp::Eq, PlanExpr::literal(1i64));
        assert!(e.eval(&[]).unwrap().is_null());
        assert!(!e.matches(&[]).unwrap());
    }

    #[test]
    fn least_greatest_skip_nulls() {
        let e = PlanExpr::Scalar {
            func: ScalarFn::Least,
            args: vec![
                PlanExpr::Literal(Value::Null),
                PlanExpr::literal(5i64),
                PlanExpr::literal(3i64),
            ],
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(3));
        let e = PlanExpr::Scalar {
            func: ScalarFn::Greatest,
            args: vec![PlanExpr::Literal(Value::Null)],
        };
        assert!(e.eval(&[]).unwrap().is_null());
    }

    #[test]
    fn coalesce_takes_first_non_null() {
        let e = PlanExpr::Scalar {
            func: ScalarFn::Coalesce,
            args: vec![PlanExpr::Literal(Value::Null), PlanExpr::literal(9i64)],
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(9));
    }

    #[test]
    fn round_with_digits() {
        let e = PlanExpr::Scalar {
            func: ScalarFn::Round,
            args: vec![PlanExpr::literal(2.34567), PlanExpr::literal(2i64)],
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Float(2.35));
    }

    #[test]
    fn ceiling_matches_ff_query_semantics() {
        // ceiling(count * (1.0 - (src % 10) / 100.0)) from Figure 6
        let e = PlanExpr::Scalar {
            func: ScalarFn::Ceiling,
            args: vec![PlanExpr::literal(4.2)],
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(5));
    }

    #[test]
    fn mod_function_and_operator_agree() {
        let f = PlanExpr::Scalar {
            func: ScalarFn::Mod,
            args: vec![PlanExpr::literal(17i64), PlanExpr::literal(5i64)],
        };
        let o = PlanExpr::literal(17i64).binary(BinaryOp::Modulo, PlanExpr::literal(5i64));
        assert_eq!(f.eval(&[]).unwrap(), o.eval(&[]).unwrap());
    }

    #[test]
    fn case_returns_null_without_else() {
        let e = PlanExpr::Case {
            branches: vec![(PlanExpr::literal(false), PlanExpr::literal(1i64))],
            else_expr: None,
        };
        assert!(e.eval(&[]).unwrap().is_null());
    }

    #[test]
    fn in_list_three_valued() {
        // 1 IN (2, NULL) => NULL
        let e = PlanExpr::InList {
            expr: Box::new(PlanExpr::literal(1i64)),
            list: vec![PlanExpr::literal(2i64), PlanExpr::Literal(Value::Null)],
            negated: false,
        };
        assert!(e.eval(&[]).unwrap().is_null());
        // 2 IN (2, NULL) => true
        let e = PlanExpr::InList {
            expr: Box::new(PlanExpr::literal(2i64)),
            list: vec![PlanExpr::literal(2i64), PlanExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn column_reads_row() {
        let e = PlanExpr::column(1, "b");
        assert_eq!(
            e.eval(&row(&[Value::Int(1), Value::Int(2)])).unwrap(),
            Value::Int(2)
        );
        assert!(e.eval(&row(&[Value::Int(1)])).is_err());
    }

    #[test]
    fn remap_columns_moves_indices() {
        let e = PlanExpr::column(0, "a").binary(BinaryOp::Plus, PlanExpr::column(2, "c"));
        let remapped = e.clone().remap_columns(&|i| Some(i + 10)).unwrap();
        assert_eq!(remapped.referenced_columns(), vec![10, 12]);
        assert!(e.remap_columns(&|_| None).is_err());
    }

    /// One expression holding every variant — CASE with and without ELSE,
    /// an IN list, CAST, IS NULL, NOT, a scalar function and nested binary
    /// operators — whose column slots `0..3` are filled by `leaf`.
    fn every_variant(leaf: &dyn Fn(usize) -> PlanExpr) -> PlanExpr {
        let case = |else_expr: Option<PlanExpr>| PlanExpr::Case {
            branches: vec![(
                leaf(0).binary(BinaryOp::Gt, PlanExpr::literal(1i64)),
                leaf(1),
            )],
            else_expr: else_expr.map(Box::new),
        };
        let tests = PlanExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(PlanExpr::IsNull {
                expr: Box::new(leaf(2)),
                negated: false,
            }),
        }
        .binary(
            BinaryOp::And,
            PlanExpr::InList {
                expr: Box::new(leaf(0)),
                list: vec![PlanExpr::literal(1i64), leaf(1)],
                negated: true,
            },
        );
        let product = leaf(0).binary(
            BinaryOp::Multiply,
            leaf(1).binary(BinaryOp::Minus, PlanExpr::literal(2i64)),
        );
        PlanExpr::Case {
            branches: vec![(
                tests,
                PlanExpr::Scalar {
                    func: ScalarFn::Coalesce,
                    args: vec![
                        case(None),
                        PlanExpr::Cast {
                            expr: Box::new(leaf(2)),
                            to: DataType::Int,
                        },
                    ],
                },
            )],
            else_expr: Some(Box::new(case(Some(product)))),
        }
    }

    #[test]
    fn every_variant_goes_through_remap_and_substitute() {
        let names = ["a", "b", "c"];
        let e = every_variant(&|i| PlanExpr::column(i, names[i]));
        assert_eq!(
            e.clone().remap_columns(&|i| Some(i + 10)).unwrap(),
            every_variant(&|i| PlanExpr::column(i + 10, names[i]))
        );
        let unmapped = e
            .clone()
            .remap_columns(&|i| (i != 2).then_some(i))
            .unwrap_err();
        assert_eq!(
            unmapped.to_string(),
            "plan error: cannot remap column 'c' across operator"
        );
        let replacements = [
            PlanExpr::literal(7i64),
            PlanExpr::column(0, "x").binary(BinaryOp::Plus, PlanExpr::literal(1i64)),
            PlanExpr::column(1, "y"),
        ];
        assert_eq!(
            e.clone().substitute_columns(&replacements).unwrap(),
            every_variant(&|i| replacements[i].clone())
        );
        let short = e.substitute_columns(&replacements[..2]).unwrap_err();
        assert_eq!(
            short.to_string(),
            "plan error: column index 2 out of range during substitution"
        );
    }

    #[test]
    fn is_constant_detects_columns() {
        assert!(PlanExpr::literal(1i64).is_constant());
        assert!(!PlanExpr::column(0, "a").is_constant());
    }

    #[test]
    fn nullif_semantics() {
        let e = PlanExpr::Scalar {
            func: ScalarFn::NullIf,
            args: vec![PlanExpr::literal(3i64), PlanExpr::literal(3i64)],
        };
        assert!(e.eval(&[]).unwrap().is_null());
    }
}
