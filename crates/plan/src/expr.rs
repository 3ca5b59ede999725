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
//! ([`PlanExpr::evaluate_column`], [`PlanExpr::select`]), and every node
//! is a kernel over its operands' columns. Arithmetic, comparisons, `IS
//! NULL`, `NOT`, `AND`/`OR`, `IN`, numeric `CAST`s, `MOD`, `LEAST`/
//! `GREATEST`, `COALESCE` and `CASE` run as typed loops; every other node
//! (unary minus, the math and text functions, arithmetic over anything
//! but numbers) is one generic lift over its operands' cells through the
//! row evaluator's own per-value functions (`negate`, `of_first`,
//! `every_arg`, `eval_arithmetic`, `Value::cast`).
//!
//! A kernel evaluates each operand only over the rows where `evaluate`
//! evaluates it: a `COALESCE` argument, a `CASE` branch, the right side
//! of an `AND`/`OR` the left does not decide, an `IN` item while `x` is
//! unmatched, and a function's second argument where its first is not
//! NULL each run over a block of just those rows. (`over` selects them
//! for the last three, and evaluates an operand no row can fail — a
//! column, a literal, a comparison of such — over the whole block
//! instead, since its other cells are never read.) So `CASE WHEN v <> 0
//! THEN 1 / v ELSE 0 END` never divides by a zero its `WHEN` excluded,
//! and a kernel fails only on a block where some row fails
//! `evaluate`, though not always with that row's error: the caller then
//! runs the row evaluator over the block to name the first failing row's
//! error, and never takes a value from it.
//!
//! Every expression has one static type ([`PlanExpr::data_type`]), and
//! its evaluation returns cells of that type or NULL: the translator casts
//! the INT arms of a `CASE`, `COALESCE`, `LEAST` or `GREATEST` that mixes
//! INT and FLOAT to FLOAT, and rejects one whose arms have no common type
//! ([`PlanExpr::unify_arms`]), or a function called with the wrong number
//! of arguments.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use spinner_common::value::cmp_f64;
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

    /// Whether `n` arguments are what the function takes.
    pub(crate) fn arity_ok(&self, n: usize) -> bool {
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

    /// Evaluate against one input row.
    pub fn evaluate(&self, row: &[Value]) -> Result<Value> {
        match self {
            PlanExpr::Column(c) => row.get(c.index).cloned().ok_or_else(|| {
                Error::execution(format!(
                    "column index {} ('{}') out of bounds for row of width {}",
                    c.index,
                    c.name,
                    row.len()
                ))
            }),
            PlanExpr::Literal(v) => Ok(v.clone()),
            PlanExpr::Binary { left, op, right } => eval_binary(*op, left, right, row),
            PlanExpr::Unary { op, expr } => {
                let v = expr.evaluate(row)?;
                match op {
                    UnaryOp::Not => Ok(bool3(v.as_bool()?.map(|b| !b))),
                    UnaryOp::Minus => negate(&v),
                    UnaryOp::Plus => Ok(v),
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
            PlanExpr::Cast { expr, to } => expr.evaluate(row)?.cast(*to),
            PlanExpr::IsNull { expr, negated } => {
                let is_null = expr.evaluate(row)?.is_null();
                Ok(Value::Bool(is_null != *negated))
            }
            PlanExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.evaluate(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(&item.evaluate(row)?) {
                        Some(true) => return Ok(Value::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(bool3((!saw_null).then_some(*negated)))
            }
        }
    }

    /// Evaluate as a filter predicate: NULL counts as "drop the row".
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        Ok(self.evaluate(row)?.as_bool()? == Some(true))
    }

    /// Evaluate against every row of `block`, a column at a time. The
    /// result equals [`evaluate`](Self::evaluate) on each row, errors
    /// included: where one fails, the first failing row's error.
    pub fn evaluate_column(&self, block: &Block) -> Result<Arc<Column>> {
        Ok(match self.operand(block) {
            Ok(Operand::Shared(column)) => column,
            Ok(Operand::Computed(column)) => Arc::new(column),
            Ok(Operand::Scalar(value)) => Arc::new(Column::repeat(&value, block.rows())),
            Err(err) => {
                self.first_error(block, err, |row| self.evaluate(row).map(drop))?;
                Arc::new(Column::new())
            }
        })
    }

    /// The rows of `block` this expression keeps as a filter predicate
    /// (NULL drops the row), in order: those [`matches`](Self::matches)
    /// keeps, errors included.
    pub fn select(&self, block: &Block) -> Result<Vec<u32>> {
        let operand = match self.operand(block) {
            Ok(operand) => operand,
            Err(err) => {
                self.first_error(block, err, |row| self.matches(row).map(drop))?;
                return Ok(Vec::new());
            }
        };
        let rows = 0..block.rows();
        let mut kept = Vec::new();
        match operand.column() {
            Some(Column::Bool(data, nulls)) => {
                let keep = |row: &usize| data[*row] && !nulls.is_null(*row);
                kept.reserve_exact(rows.clone().filter(keep).count());
                kept.extend(rows.filter(keep).map(|row| row as u32));
            }
            // Anything else was evaluated once already: its cells are
            // read as `matches` reads a value.
            _ => {
                for row in rows {
                    if truth(operand.cell(row))? == Some(true) {
                        kept.push(row as u32);
                    }
                }
            }
        }
        Ok(kept)
    }

    /// The error `check` (`evaluate` or `matches`) raises at the first row
    /// of `block` it fails on, reported in place of `err`, which a kernel
    /// met over that block: kernels fail only where some row fails, but
    /// not always with the first one's error. Over no rows nothing fails.
    fn first_error(
        &self,
        block: &Block,
        err: Error,
        check: impl Fn(&[Value]) -> Result<()>,
    ) -> Result<()> {
        let columns = block.columns();
        let mut row = vec![Value::Null; columns.len()];
        for at in 0..block.rows() {
            (row.iter_mut().zip(columns)).for_each(|(cell, column)| *cell = column.value(at));
            check(&row)?;
        }
        debug_assert_eq!(block.rows(), 0, "{self} fails by column, not by row: {err}");
        match block.rows() {
            0 => Ok(()),
            _ => Err(err),
        }
    }

    /// This expression over `block`, every node by its kernel. An error
    /// means only that some row of `block` fails
    /// [`evaluate`](Self::evaluate).
    fn operand(&self, block: &Block) -> Result<Operand> {
        match self {
            PlanExpr::Column(c) => match block.columns().get(c.index) {
                Some(column) => Ok(Operand::Shared(Arc::clone(column))),
                None => Err(Error::execution("column out of bounds")),
            },
            PlanExpr::Literal(v) => Ok(Operand::Scalar(v.clone())),
            PlanExpr::Binary { left, op, right } => binary(*op, left, right, block),
            PlanExpr::Unary { op, expr } => unary(*op, expr, block),
            PlanExpr::Scalar { func, args } => scalar(*func, args, block),
            PlanExpr::Case {
                branches,
                else_expr,
            } => case(branches, else_expr.as_deref(), block),
            PlanExpr::Cast { expr, to } => cast(expr.operand(block)?, *to, block.rows()),
            PlanExpr::IsNull { expr, negated } => {
                let x = expr.operand(block)?;
                logic_loop(block.rows(), |row| {
                    Ok(Some(x.cell(row).is_null() != *negated))
                })
            }
            PlanExpr::InList {
                expr,
                list,
                negated,
            } => in_list(expr, list, *negated, block),
        }
    }

    /// Whether no row can fail this expression: a column or a literal, or
    /// a comparison, `IS NULL` or `IN` over such.
    fn infallible(&self) -> bool {
        match self {
            PlanExpr::Column(_) | PlanExpr::Literal(_) => true,
            PlanExpr::Binary { left, op, right } => {
                let compares = !is_arithmetic(*op) && !matches!(op, BinaryOp::And | BinaryOp::Or);
                compares && left.infallible() && right.infallible()
            }
            PlanExpr::IsNull { expr, .. } => expr.infallible(),
            PlanExpr::InList { expr, list, .. } => {
                expr.infallible() && list.iter().all(PlanExpr::infallible)
            }
            _ => false,
        }
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
    let l = left.evaluate(row)?;
    if is_arithmetic(op) {
        return eval_arithmetic(op, &l, &right.evaluate(row)?);
    }
    if !matches!(op, BinaryOp::And | BinaryOp::Or) {
        let ordering = l.sql_cmp(&right.evaluate(row)?);
        return Ok(bool3(ordering.map(|ordering| ordering_test(op, ordering))));
    }
    let l = l.as_bool()?;
    if decides(op, l) {
        return Ok(bool3(l));
    }
    Ok(bool3(kleene(op, l, right.evaluate(row)?.as_bool()?)))
}

/// Whether `l` alone decides `l AND r` (false) or `l OR r` (true), so
/// that `r` is not evaluated.
fn decides(op: BinaryOp, l: Option<bool>) -> bool {
    l == Some(op == BinaryOp::Or)
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

/// `$body` with `$f` bound to `$op` on two INTs: `None` where it
/// overflows or divides by zero. Each operator is a closure of its own, so
/// a loop over `$f` is compiled once per operator, with no test of `$op`
/// in it.
macro_rules! int_op {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            BinaryOp::Plus => {
                let $f = |a: i64, b: i64| a.checked_add(b);
                $body
            }
            BinaryOp::Minus => {
                let $f = |a: i64, b: i64| a.checked_sub(b);
                $body
            }
            BinaryOp::Multiply => {
                let $f = |a: i64, b: i64| a.checked_mul(b);
                $body
            }
            BinaryOp::Divide => {
                let $f = |a: i64, b: i64| a.checked_div(b);
                $body
            }
            BinaryOp::Modulo => {
                let $f = |a: i64, b: i64| a.checked_rem(b);
                $body
            }
            _ => unreachable!("not arithmetic"),
        }
    };
}

/// [`int_op!`] on two FLOATs (an integer beside a float has been
/// widened): `None` where it divides by zero.
macro_rules! float_op {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            BinaryOp::Plus => {
                let $f = |a: f64, b: f64| Some(a + b);
                $body
            }
            BinaryOp::Minus => {
                let $f = |a: f64, b: f64| Some(a - b);
                $body
            }
            BinaryOp::Multiply => {
                let $f = |a: f64, b: f64| Some(a * b);
                $body
            }
            BinaryOp::Divide => {
                let $f = |a: f64, b: f64| (b != 0.0).then(|| a / b);
                $body
            }
            BinaryOp::Modulo => {
                let $f = |a: f64, b: f64| (b != 0.0).then(|| a % b);
                $body
            }
            _ => unreachable!("not arithmetic"),
        }
    };
}

/// The error of `op` by zero.
fn by_zero(op: BinaryOp) -> Error {
    Error::Arithmetic(match op {
        BinaryOp::Modulo => "modulo by zero".into(),
        _ => "division by zero".into(),
    })
}

/// Integer arithmetic: overflow and division by zero are errors.
fn int_arithmetic(op: BinaryOp, a: i64, b: i64) -> Result<i64> {
    match int_op!(op, f => f(a, b)) {
        Some(x) => Ok(x),
        // Only `/` and `%` fail by a zero.
        None if b == 0 => Err(by_zero(op)),
        None => Err(Error::Arithmetic(format!(
            "integer overflow in {a} {op} {b}"
        ))),
    }
}

/// Float arithmetic (an integer beside a float has been widened):
/// division by zero is an error.
fn float_arithmetic(op: BinaryOp, a: f64, b: f64) -> Result<f64> {
    float_op!(op, f => f(a, b)).ok_or_else(|| by_zero(op))
}

/// `-v`: NULL stays NULL, an INT must not overflow, and anything but a
/// number is a type error.
fn negate(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => (i.checked_neg().map(Value::Int))
            .ok_or_else(|| Error::Arithmetic("integer negation overflow".into())),
        Value::Float(f) => Ok(Value::Float(-f)),
        other => Err(Error::type_error(format!(
            "cannot negate {}",
            other.data_type()
        ))),
    }
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

/// `l op r` for arithmetic: a typed loop over numbers, a lift of
/// `eval_arithmetic` over anything else. The first row that fails is the
/// one whose error is returned.
fn arithmetic_loop(op: BinaryOp, l: &Operand, r: &Operand, rows: usize) -> Result<Column> {
    let (Some((a, a_nulls)), Some((b, b_nulls))) = (l.numbers(), r.numbers()) else {
        return lift(&[l, r], rows, |v| eval_arithmetic(op, &v[0], &v[1]));
    };
    let nulls = a_nulls.union(b_nulls);
    Ok(if a.is_int() && b.is_int() {
        match int_op!(op, f => int_loop((a, b), &nulls, rows, f)) {
            Ok(data) => Column::Int(data, nulls),
            Err(row) => return Err(int_arithmetic(op, a.int(row), b.int(row)).expect_err("fails")),
        }
    } else {
        match float_op!(op, f => float_loop((a, b), &nulls, rows, f)) {
            Ok(data) => Column::Float(data, nulls),
            Err(row) => {
                return Err(float_arithmetic(op, a.float(row), b.float(row)).expect_err("fails"))
            }
        }
    })
}

/// `f` over two INT operands, a loop per shape of them: each a column's
/// slice or one scalar.
fn int_loop(
    (a, b): (Numbers<'_>, Numbers<'_>),
    nulls: &Nulls,
    rows: usize,
    f: impl Fn(i64, i64) -> Option<i64>,
) -> std::result::Result<Vec<i64>, usize> {
    match (a, b) {
        (Numbers::Ints(x), Numbers::Ints(y)) => {
            let (x, y) = (&x[..rows], &y[..rows]);
            each(rows, nulls, |row| x[row], |row| y[row], f)
        }
        (Numbers::Ints(x), y) => {
            let (x, y) = (&x[..rows], y.int(0));
            each(rows, nulls, |row| x[row], |_| y, f)
        }
        (x, Numbers::Ints(y)) => {
            let (x, y) = (x.int(0), &y[..rows]);
            each(rows, nulls, |_| x, |row| y[row], f)
        }
        (x, y) => {
            let (x, y) = (x.int(0), y.int(0));
            each(rows, nulls, |_| x, |_| y, f)
        }
    }
}

/// `f` over two numeric operands as FLOATs, a loop per shape of them:
/// each an INT or FLOAT column's slice, or one scalar.
fn float_loop(
    (a, b): (Numbers<'_>, Numbers<'_>),
    nulls: &Nulls,
    rows: usize,
    f: impl Fn(f64, f64) -> Option<f64>,
) -> std::result::Result<Vec<f64>, usize> {
    match a {
        Numbers::Ints(x) => {
            let x = &x[..rows];
            float_right(|row| x[row] as f64, b, nulls, rows, f)
        }
        Numbers::Floats(x) => {
            let x = &x[..rows];
            float_right(|row| x[row], b, nulls, rows, f)
        }
        scalar => {
            let x = scalar.float(0);
            float_right(|_| x, b, nulls, rows, f)
        }
    }
}

/// [`float_loop`] once its left operand is read by `a`.
fn float_right(
    a: impl Fn(usize) -> f64,
    b: Numbers<'_>,
    nulls: &Nulls,
    rows: usize,
    f: impl Fn(f64, f64) -> Option<f64>,
) -> std::result::Result<Vec<f64>, usize> {
    match b {
        Numbers::Ints(y) => {
            let y = &y[..rows];
            each(rows, nulls, a, |row| y[row] as f64, f)
        }
        Numbers::Floats(y) => {
            let y = &y[..rows];
            each(rows, nulls, a, |row| y[row], f)
        }
        scalar => {
            let y = scalar.float(0);
            each(rows, nulls, a, |_| y, f)
        }
    }
}

/// `f(a(row), b(row))` at every row that `nulls` leaves, and the type's
/// zero under a NULL: what lies under a NULL is not a value, so it is
/// never computed on. Without NULLs no row is tested. `Err` is the first
/// row `f` fails on.
fn each<T: Copy + Default>(
    rows: usize,
    nulls: &Nulls,
    a: impl Fn(usize) -> T,
    b: impl Fn(usize) -> T,
    f: impl Fn(T, T) -> Option<T>,
) -> std::result::Result<Vec<T>, usize> {
    fn fill<T>(
        data: &mut [T],
        live: impl Fn(usize) -> bool,
        (a, b): (impl Fn(usize) -> T, impl Fn(usize) -> T),
        f: impl Fn(T, T) -> Option<T>,
    ) -> std::result::Result<(), usize> {
        for (row, out) in data.iter_mut().enumerate() {
            if live(row) {
                *out = f(a(row), b(row)).ok_or(row)?;
            }
        }
        Ok(())
    }
    let mut data = vec![T::default(); rows];
    match nulls.any() {
        false => fill(&mut data, |_| true, (a, b), f)?,
        true => fill(&mut data, |row| !nulls.is_null(row), (a, b), f)?,
    }
    Ok(data)
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

/// A cell as a truth value, as [`Value::as_bool`] reads one.
fn truth(cell: Cell<'_>) -> Result<Option<bool>> {
    match cell {
        Cell::Bool(b) => Ok(Some(b)),
        Cell::Null => Ok(None),
        other => other.to_value().as_bool(),
    }
}

/// The boolean column of `truth` at every row.
fn logic_loop(rows: usize, truth: impl Fn(usize) -> Result<Option<bool>>) -> Result<Operand> {
    let mut nulls = Nulls::new();
    let mut data = Vec::with_capacity(rows);
    for row in 0..rows {
        let result = truth(row)?;
        if result.is_none() {
            nulls.set(row);
        }
        data.push(result.unwrap_or(false));
    }
    Ok(Operand::Computed(Column::Bool(data, nulls)))
}

/// `f` of the operands' values at every row, into a column typed by what
/// it returns: the kernel of every node without a typed loop, through the
/// row evaluator's own function of its operands' values.
fn lift(
    operands: &[&Operand],
    rows: usize,
    f: impl Fn(&[Value]) -> Result<Value>,
) -> Result<Column> {
    let mut values = vec![Value::Null; operands.len()];
    let mut out = Column::new();
    for row in 0..rows {
        for (value, operand) in values.iter_mut().zip(operands) {
            *value = operand.cell(row).to_value();
        }
        out.push(f(&values)?);
    }
    Ok(out)
}

/// `expr` over the rows of `block` that `open` holds for — the rows
/// `evaluate` evaluates it on — and NULL at the rest. An operand that no
/// row can fail (`PlanExpr::infallible`) is evaluated whole, since its
/// other cells are never looked at; anything else runs over a block of
/// just those rows.
fn over(expr: &PlanExpr, block: &Block, open: impl Fn(usize) -> bool) -> Result<Operand> {
    let rows = block.rows();
    if !(0..rows).any(&open) {
        return Ok(Operand::Scalar(Value::Null));
    }
    if expr.infallible() || (0..rows).all(&open) {
        return expr.operand(block);
    }
    let open: Vec<u32> = (0..rows as u32).filter(|&row| open(row as usize)).collect();
    let piece = expr.operand(&restrict(block, &open, expr))?;
    Ok(Operand::Computed(assemble(rows, &[(piece, open)])))
}

/// `left op right` over `block`: arithmetic and comparisons evaluate both
/// sides everywhere.
fn binary(op: BinaryOp, left: &PlanExpr, right: &PlanExpr, block: &Block) -> Result<Operand> {
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        return logic(op, left, right, block);
    }
    let (l, r) = (left.operand(block)?, right.operand(block)?);
    Ok(Operand::Computed(match is_arithmetic(op) {
        true => arithmetic_loop(op, &l, &r, block.rows())?,
        false => comparison_loop(op, &l, &r, block.rows()),
    }))
}

/// `left AND right` / `left OR right` over `block`: `right` only over the
/// rows `left` does not decide (or fails on).
fn logic(op: BinaryOp, left: &PlanExpr, right: &PlanExpr, block: &Block) -> Result<Operand> {
    let l = left.operand(block)?;
    // A row whose left cell is not a truth value fails either way.
    let open = |row| !matches!(l.cell(row), Cell::Bool(b) if decides(op, Some(b)));
    let r = over(right, block, open)?;
    logic_loop(block.rows(), |row| match truth(l.cell(row))? {
        l if decides(op, l) => Ok(l),
        l => Ok(kleene(op, l, truth(r.cell(row))?)),
    })
}

/// `op x` over `block`.
fn unary(op: UnaryOp, x: &PlanExpr, block: &Block) -> Result<Operand> {
    let x = x.operand(block)?;
    match op {
        UnaryOp::Not => logic_loop(block.rows(), |row| Ok(truth(x.cell(row))?.map(|b| !b))),
        UnaryOp::Minus => lift(&[&x], block.rows(), |v| negate(&v[0])).map(Operand::Computed),
        UnaryOp::Plus => Ok(x),
    }
}

/// `func(args)` over `block`: `COALESCE` lazily; `LEAST`/`GREATEST`,
/// `NULLIF` and `CONCAT` over every argument; every other function NULL
/// where its first argument is, and its second argument only over the
/// rows where the first is not.
fn scalar(func: ScalarFn, args: &[PlanExpr], block: &Block) -> Result<Operand> {
    let rows = block.rows();
    let every = || {
        (args.iter())
            .map(|arg| arg.operand(block))
            .collect::<Result<Vec<_>>>()
    };
    let column = match func {
        ScalarFn::Coalesce => return coalesce(args, block),
        ScalarFn::Least | ScalarFn::Greatest => extremum(&every()?, func == ScalarFn::Least, rows),
        ScalarFn::NullIf | ScalarFn::Concat => {
            let args = every()?;
            lift(&args.iter().collect::<Vec<_>>(), rows, |v| {
                Ok(every_arg(func, v))
            })?
        }
        _ => {
            let x = args[0].operand(block)?;
            let y = args
                .get(1)
                .map(|y| over(y, block, |row| !x.cell(row).is_null()));
            match (func, y.transpose()?) {
                (ScalarFn::Mod, Some(y)) => arithmetic_loop(BinaryOp::Modulo, &x, &y, rows)?,
                (_, y) => {
                    let operands: Vec<&Operand> = [&x].into_iter().chain(&y).collect();
                    lift(&operands, rows, |v| match &v[0] {
                        Value::Null => Ok(Value::Null),
                        x => of_first(func, x, v.get(1)),
                    })?
                }
            }
        }
    };
    Ok(Operand::Computed(column))
}

/// `x [NOT] IN (list)` over `block`: each item only over the rows where
/// `x` is not NULL and no earlier item matched it.
fn in_list(x: &PlanExpr, list: &[PlanExpr], negated: bool, block: &Block) -> Result<Operand> {
    let rows = block.rows();
    let x = x.operand(block)?;
    let (mut matched, mut saw_null) = (vec![false; rows], vec![false; rows]);
    let open = |matched: &[bool], row: usize| !matched[row] && !x.cell(row).is_null();
    for item in list {
        let item = over(item, block, |row| open(&matched, row))?;
        for row in 0..rows {
            if !open(&matched, row) {
                continue;
            }
            match item.cell(row) {
                Cell::Null => saw_null[row] = true,
                cell => matched[row] = x.cell(row).cmp_total(&cell).is_eq(),
            }
        }
    }
    logic_loop(rows, |row| {
        Ok(match x.cell(row) {
            Cell::Null => None,
            _ if matched[row] => Some(!negated),
            _ if saw_null[row] => None,
            _ => Some(negated),
        })
    })
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
        _ => lift(&[&x], rows, |v| v[0].cast(to))?,
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

/// The `LEAST` (`least`) or `GREATEST` of `cells`: the first non-NULL
/// cell that no later one beats in the total order, NULL where every cell
/// is.
fn extreme<'a>(cells: impl Iterator<Item = Cell<'a>>, least: bool) -> Cell<'a> {
    let mut best = Cell::Null;
    for cell in cells {
        let beats = match cell.cmp_total(&best) {
            ordering if least => ordering.is_lt(),
            ordering => ordering.is_gt(),
        };
        if !cell.is_null() && (best.is_null() || beats) {
            best = cell;
        }
    }
    best
}

/// `LEAST` (`least`) or `GREATEST` of `args` at every row: a typed loop
/// where the arguments that hold a value are numbers of one type, cell by
/// cell otherwise.
fn extremum(args: &[Operand], least: bool, rows: usize) -> Column {
    let valued = |arg: &&Operand| match arg {
        Operand::Scalar(value) => !value.is_null(),
        column => column
            .column()
            .is_some_and(|c| c.data_type() != DataType::Null),
    };
    let numbers: Option<Vec<_>> = args.iter().filter(valued).map(Operand::numbers).collect();
    let wins = match least {
        true => std::cmp::Ordering::Less,
        false => std::cmp::Ordering::Greater,
    };
    match numbers {
        Some(numbers) if !numbers.is_empty() && numbers.iter().all(|(n, _)| n.is_int()) => {
            let (data, nulls) = typed_extremum(
                &numbers,
                rows,
                |n, row| n.int(row),
                |x, best| x.cmp(&best) == wins,
            );
            Column::Int(data, nulls)
        }
        Some(numbers) if !numbers.is_empty() && numbers.iter().all(|(n, _)| !n.is_int()) => {
            let (data, nulls) = typed_extremum(
                &numbers,
                rows,
                |n, row| n.float(row),
                |x, best| cmp_f64(x, best) == wins,
            );
            Column::Float(data, nulls)
        }
        _ => {
            let mut out = Column::new();
            for row in 0..rows {
                out.push(extreme(args.iter().map(|arg| arg.cell(row)), least).to_value());
            }
            out
        }
    }
}

/// [`extremum`] over numbers of one type, each read by `read`: the first
/// non-NULL argument that no later one `beats`, NULL where every one is.
fn typed_extremum<T: Copy + Default>(
    args: &[(Numbers<'_>, &Nulls)],
    rows: usize,
    read: impl Fn(Numbers<'_>, usize) -> T,
    beats: impl Fn(T, T) -> bool,
) -> (Vec<T>, Nulls) {
    let (mut data, mut nulls) = (vec![T::default(); rows], Nulls::new());
    for (row, out) in data.iter_mut().enumerate() {
        let mut best = None;
        for &(arg, _) in args.iter().filter(|(_, nulls)| !nulls.is_null(row)) {
            let x = read(arg, row);
            if best.is_none_or(|best| beats(x, best)) {
                best = Some(x);
            }
        }
        match best {
            Some(best) => *out = best,
            None => nulls.set(row),
        }
    }
    (data, nulls)
}

/// `COALESCE(args)` over `block`: each argument only over the rows every
/// earlier one left NULL — the rows the row evaluator evaluates it on.
fn coalesce(args: &[PlanExpr], block: &Block) -> Result<Operand> {
    let mut pieces = Vec::new();
    let mut undecided: Vec<u32> = (0..block.rows() as u32).collect();
    for arg in args {
        if undecided.is_empty() {
            break;
        }
        let value = arg.operand(&restrict(block, &undecided, arg))?;
        let still: Vec<u32> = (undecided.iter().enumerate())
            .filter(|&(at, _)| value.cell(at).is_null())
            .map(|(_, &row)| row)
            .collect();
        if pieces.is_empty() && still.is_empty() {
            return Ok(value); // the first argument decides every row
        }
        // Its NULLs are covered again by the next argument.
        pieces.push((value, undecided));
        undecided = still;
    }
    Ok(Operand::Computed(assemble(block.rows(), &pieces)))
}

/// Searched `CASE` over `block`: each `WHEN` only over the rows no earlier
/// one took, each `THEN` only over the rows its `WHEN` took and the `ELSE`
/// over the rest — the rows the row evaluator evaluates them on.
fn case(
    branches: &[(PlanExpr, PlanExpr)],
    else_expr: Option<&PlanExpr>,
    block: &Block,
) -> Result<Operand> {
    let mut pieces = Vec::new();
    let mut undecided: Vec<u32> = (0..block.rows() as u32).collect();
    let mut take = |rows: Vec<u32>, expr: &PlanExpr| -> Result<()> {
        if !rows.is_empty() {
            pieces.push((expr.operand(&restrict(block, &rows, expr))?, rows));
        }
        Ok(())
    };
    for (when, then) in branches {
        if undecided.is_empty() {
            break;
        }
        let test = when.operand(&restrict(block, &undecided, when))?;
        let (taken, rest) = split_by(&test, &undecided)?;
        take(taken, then)?;
        undecided = rest;
    }
    if let Some(else_expr) = else_expr {
        take(undecided, else_expr)?;
    }
    Ok(Operand::Computed(assemble(block.rows(), &pieces)))
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
        match truth(test.cell(at))? {
            Some(true) => taken.push(row),
            _ => rest.push(row),
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

/// A column of `rows` rows in which each piece `(operand, covered)` puts
/// its cells `0, 1, …` at its rows `covered`, a later piece's over an
/// earlier's, and NULL where no piece covers a row. The plan gives every
/// piece one type ([`PlanExpr::unify_arms`]); where it is INT or FLOAT
/// each piece is scattered into that type's vector, not pushed one
/// `Value` at a time.
fn assemble(rows: usize, pieces: &[(Operand, Vec<u32>)]) -> Column {
    let held = |(piece, _): &(Operand, Vec<u32>)| match piece {
        Operand::Scalar(value) => value.data_type(),
        column => column.column().map_or(DataType::Null, Column::data_type),
    };
    let mut types = pieces.iter().map(held).filter(|&t| t != DataType::Null);
    let one_type = types.next().unwrap_or(DataType::Null);
    assert!(
        types.all(|t| t == one_type),
        "the arms of one node hold two types"
    );
    match one_type {
        DataType::Int => {
            let (data, nulls) = scatter(rows, pieces, |piece| match piece {
                Operand::Scalar(Value::Int(x)) => Piece::Scalar(*x),
                column => match column.column() {
                    Some(Column::Int(data, nulls)) => Piece::Cells(data, nulls),
                    _ => Piece::Null,
                },
            });
            Column::Int(data, nulls)
        }
        DataType::Float => {
            let (data, nulls) = scatter(rows, pieces, |piece| match piece {
                Operand::Scalar(Value::Float(x)) => Piece::Scalar(*x),
                column => match column.column() {
                    Some(Column::Float(data, nulls)) => Piece::Cells(data, nulls),
                    _ => Piece::Null,
                },
            });
            Column::Float(data, nulls)
        }
        _ => {
            let mut picks = vec![None; rows];
            for (piece, (_, covered)) in pieces.iter().enumerate() {
                for (at, &row) in covered.iter().enumerate() {
                    picks[row as usize] = Some((piece, at));
                }
            }
            let mut out = Column::new();
            for pick in picks {
                out.push(pick.map_or(Value::Null, |(piece, at)| {
                    pieces[piece].0.cell(at).to_value()
                }));
            }
            out
        }
    }
}

/// A piece of [`assemble`] as its one type reads it.
enum Piece<'a, T> {
    Cells(&'a [T], &'a Nulls),
    Scalar(T),
    /// No value: a NULL scalar, or a column of NULLs.
    Null,
}

/// [`assemble`] into a vector of `T`, each piece read by `typed`; the
/// type's zero under a NULL.
fn scatter<'a, T: Copy + Default + 'a>(
    rows: usize,
    pieces: &'a [(Operand, Vec<u32>)],
    typed: impl Fn(&'a Operand) -> Piece<'a, T>,
) -> (Vec<T>, Nulls) {
    let (mut data, mut nulls) = (vec![T::default(); rows], Nulls::all(rows));
    for (piece, covered) in pieces {
        let covered = covered.iter().map(|&row| row as usize);
        match typed(piece) {
            Piece::Scalar(x) => covered.for_each(|row| {
                data[row] = x;
                nulls.clear(row);
            }),
            Piece::Null => covered.for_each(|row| {
                data[row] = T::default();
                nulls.set(row);
            }),
            Piece::Cells(cells, cell_nulls) => {
                for (at, row) in covered.enumerate() {
                    match cell_nulls.is_null(at) {
                        true => (data[row], _) = (T::default(), nulls.set(row)),
                        false => (data[row], _) = (cells[at], nulls.clear(row)),
                    }
                }
            }
        }
    }
    (data, nulls)
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
    match func {
        ScalarFn::Coalesce => {
            for arg in args {
                let v = arg.evaluate(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ScalarFn::Least | ScalarFn::Greatest | ScalarFn::NullIf | ScalarFn::Concat => {
            let values = args.iter().map(|arg| arg.evaluate(row));
            Ok(every_arg(func, &values.collect::<Result<Vec<_>>>()?))
        }
        _ => match args[0].evaluate(row)? {
            Value::Null => Ok(Value::Null),
            x => {
                let y = args.get(1).map(|y| y.evaluate(row)).transpose()?;
                of_first(func, &x, y.as_ref())
            }
        },
    }
}

/// `func` of the values of all its arguments: `LEAST`/`GREATEST`,
/// `NULLIF` and `CONCAT`, which evaluate every one.
fn every_arg(func: ScalarFn, values: &[Value]) -> Value {
    match func {
        ScalarFn::NullIf if values[0].sql_eq(&values[1]) == Some(true) => Value::Null,
        ScalarFn::NullIf => values[0].clone(),
        ScalarFn::Concat => {
            let texts = values.iter().filter(|v| !v.is_null());
            Value::Text(texts.map(Value::to_string).collect())
        }
        least_or_greatest => {
            let least = least_or_greatest == ScalarFn::Least;
            extreme(values.iter().map(Value::cell), least).to_value()
        }
    }
}

/// `func` of a non-NULL first argument `x` and, for `ROUND`, `MOD` and
/// `POWER`, the value `y` of the second, which is evaluated only where `x`
/// is not NULL: every function that is NULL where its first argument is.
fn of_first(func: ScalarFn, x: &Value, y: Option<&Value>) -> Result<Value> {
    Ok(match (func, y) {
        (ScalarFn::Ceiling | ScalarFn::Floor | ScalarFn::Round, y) => {
            return round_number(func, x, y.unwrap_or(&Value::Int(0)))
        }
        (ScalarFn::Mod, Some(y)) => return eval_arithmetic(BinaryOp::Modulo, x, y),
        (ScalarFn::Power, Some(Value::Null)) => Value::Null,
        (ScalarFn::Power, Some(y)) => Value::Float(x.as_f64()?.powf(y.as_f64()?)),
        (ScalarFn::Abs, _) => match x {
            Value::Int(i) => Value::Int(
                (i.checked_abs())
                    .ok_or_else(|| Error::Arithmetic("integer overflow in abs".into()))?,
            ),
            other => Value::Float(other.as_f64()?.abs()),
        },
        (ScalarFn::Sqrt, _) => match x.as_f64()? {
            f if f < 0.0 => return Err(Error::Arithmetic("sqrt of negative number".into())),
            f => Value::Float(f.sqrt()),
        },
        (ScalarFn::Exp, _) => Value::Float(x.as_f64()?.exp()),
        (ScalarFn::Ln, _) => match x.as_f64()? {
            f if f <= 0.0 => return Err(Error::Arithmetic("ln of non-positive number".into())),
            f => Value::Float(f.ln()),
        },
        (ScalarFn::Sign, _) => {
            let f = x.as_f64()?;
            Value::Int(if f > 0.0 {
                1
            } else if f < 0.0 {
                -1
            } else {
                0
            })
        }
        (ScalarFn::Upper, _) => Value::Text(x.to_string().to_uppercase()),
        (ScalarFn::Lower, _) => Value::Text(x.to_string().to_lowercase()),
        (ScalarFn::Length, _) => Value::Int(x.to_string().chars().count() as i64),
        (func, _) => unreachable!("{} is not NULL where its first argument is", func.name()),
    })
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
    use proptest::prelude::*;

    fn row(vals: &[Value]) -> Vec<Value> {
        vals.to_vec()
    }

    /// `evaluate`, cross-checked on every call against the predicate view
    /// and the column evaluator (over a block holding the row twice): all
    /// must agree on each shape these tests build, error cases included.
    trait Checked {
        fn eval(&self, row: &[Value]) -> Result<Value>;
    }

    impl Checked for PlanExpr {
        fn eval(&self, row: &[Value]) -> Result<Value> {
            let value = self.evaluate(row);
            let kept = value.clone().and_then(|v| Ok(v.as_bool()? == Some(true)));
            assert_eq!(format!("{kept:?}"), format!("{:?}", self.matches(row)));
            by_column_equals_by_row(self, &[row.to_vec(), row.to_vec()]);
            value
        }
    }

    /// `expr` as the translator leaves it over columns of `types`: at every
    /// node, INT arms cast where FLOAT ones meet them. Arms it would reject
    /// for having no common type are each cast to the first typed one's.
    fn unified(expr: PlanExpr, types: &[DataType]) -> PlanExpr {
        fn walk(expr: PlanExpr, schema: &Schema) -> PlanExpr {
            let expr = expr.map_children(|child| Ok::<_, Error>(walk(child, schema)));
            let expr = expr.unwrap();
            let mut arms = expr.arms().into_iter().map(|arm| arm.data_type(schema));
            let to = arms.find(|&t| t != DataType::Null);
            if let Ok(expr) = expr.clone().unify_arms(schema) {
                return expr;
            }
            let cast = |arm: PlanExpr| PlanExpr::Cast {
                expr: Box::new(arm),
                to: to.unwrap(),
            };
            match expr {
                PlanExpr::Case {
                    branches,
                    else_expr,
                } => PlanExpr::Case {
                    branches: branches.into_iter().map(|(w, t)| (w, cast(t))).collect(),
                    else_expr: else_expr.map(|e| Box::new(cast(*e))),
                },
                PlanExpr::Scalar { func, args } => PlanExpr::Scalar {
                    func,
                    args: args.into_iter().map(cast).collect(),
                },
                other => other,
            }
        }
        let fields = types.iter().enumerate();
        let fields = fields.map(|(i, &t)| spinner_common::Field::new(format!("c{i}"), t));
        walk(expr, &Schema::new(fields.collect()))
    }

    /// The column evaluator over `rows` against `evaluate` on each: the
    /// same cells to the bit, or the error of the first failing row; and
    /// `select` against `matches`. (A kernel that fails where no row does
    /// trips the debug assertion that names the error.)
    fn by_column_equals_by_row(expr: &PlanExpr, rows: &[Vec<Value>]) {
        let width = rows.first().map_or(0, Vec::len);
        let block = Block::from_rows(width, rows.iter().map(|r| r.clone().into_boxed_slice()));
        let column = expr.evaluate_column(&block);
        let cells = column.map(|c| (0..rows.len()).map(|row| c.value(row)).collect::<Vec<_>>());
        let want: Result<Vec<Value>> = rows.iter().map(|row| expr.evaluate(row)).collect();
        assert_eq!(format!("{cells:?}"), format!("{want:?}"), "{expr}");
        let kept = expr.select(&block);
        let want: Result<Vec<u32>> = (rows.iter().enumerate())
            .filter_map(|(i, row)| {
                expr.matches(row)
                    .map(|keep| keep.then_some(i as u32))
                    .transpose()
            })
            .collect();
        assert_eq!(format!("{kept:?}"), format!("{want:?}"), "{expr}");
    }

    #[test]
    fn typed_loops_equal_the_row_evaluator() {
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
            by_column_equals_by_row(expr, &rows);
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
            // Once sent by row: arithmetic beside a NULL literal, unary
            // minus, an IN list.
            c(0).binary(Plus, lit(Value::Null)),
            PlanExpr::Unary {
                op: UnaryOp::Minus,
                expr: Box::new(c(0)),
            },
            PlanExpr::InList {
                expr: Box::new(c(0)),
                list: vec![c(2), lit(Value::Int(1))],
                negated: false,
            },
        ] {
            by_column_equals_by_row(&expr, &rows);
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
            by_column_equals_by_row(&expr, &rows);
            // No rows, no error — not even for a column that is not there.
            by_column_equals_by_row(&expr, &[]);
        }
        // What lies under a NULL is never computed on.
        let under_null = lit(Value::Int(1)).binary(Divide, c(2).binary(Minus, c(2)));
        let rows = vec![vec![Value::Int(0), Value::Int(0), Value::Null]];
        by_column_equals_by_row(&under_null, &rows);
    }

    #[test]
    fn kernels_equal_the_row_evaluator() {
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
            by_column_equals_by_row(expr, &rows);
            by_column_equals_by_row(expr, &rows[..1]);
            by_column_equals_by_row(expr, &[]);
        }
        // Where the row evaluator raises, so do the kernels: the same
        // error, the first failing row's.
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
            call(ScalarFn::Mod, vec![c(0), c(2)]),
            cast(c(7), DataType::Float),
        ] {
            assert!(expr.evaluate(&rows[0]).is_err() || expr.evaluate(&rows[2]).is_err());
            by_column_equals_by_row(&expr, &rows);
        }
        // Operands the row evaluator skips are never evaluated: the right
        // side of an AND the left decides, an IN item once `x` matched,
        // and a second argument beside a NULL first one.
        let zero = lit(int(0));
        for expr in [
            c(2).binary(NotEq, zero.clone()).binary(
                And,
                lit(int(10)).binary(Divide, c(2)).binary(Gt, lit(int(1))),
            ),
            c(2).binary(Eq, zero.clone()).binary(
                Or,
                lit(int(1)).binary(Divide, c(2)).binary(Lt, zero.clone()),
            ),
            PlanExpr::InList {
                expr: Box::new(c(2)),
                list: vec![lit(int(0)), lit(int(1)).binary(Divide, c(2))],
                negated: true,
            },
            call(
                ScalarFn::Round,
                vec![lit(NULL), lit(int(1)).binary(Divide, zero.clone())],
            ),
            call(
                ScalarFn::Power,
                vec![c(3), lit(int(1)).binary(Divide, zero.clone())],
            ),
            call(ScalarFn::Mod, vec![c(3), lit(int(1)).binary(Divide, zero)]),
        ] {
            assert!(rows.iter().all(|row| expr.evaluate(row).is_ok()), "{expr}");
            by_column_equals_by_row(&expr, &rows);
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
            let column = expr.evaluate_column(&block).unwrap();
            let mut pushed = Column::new();
            rows.iter()
                .for_each(|row| pushed.push(expr.evaluate(row).unwrap()));
            assert_eq!(format!("{column:?}"), format!("{pushed:?}"), "{expr}");
        }
    }

    #[test]
    fn every_node_fails_alike_by_row_and_by_column() {
        let cells = row(&[Value::Text("a".into()), Value::Int(2), Value::Null]);
        let col = PlanExpr::column(0, "t");
        let lit = PlanExpr::literal("a");
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
        // Over FLOAT columns without NULLs a tie keeps the earlier
        // argument's bits: `-0.0` beside `0.0`, one NaN beside another.
        let float = |x: f64| Value::Float(x);
        let rows = [(-0.0, 0.0), (0.0, -0.0), (f64::NAN, -f64::NAN), (1.5, -2.0)];
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(a, b)| vec![float(a), float(b)])
            .collect();
        for func in [ScalarFn::Least, ScalarFn::Greatest] {
            let args = vec![PlanExpr::column(0, "a"), PlanExpr::column(1, "b")];
            by_column_equals_by_row(&PlanExpr::Scalar { func, args }, &rows);
        }
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

    /// The columns of the random blocks: INT, FLOAT, TEXT, BOOL, all NULL,
    /// small INTs with zeros to divide by, and an INT and a FLOAT column
    /// without NULLs, which the null-free loops read — `i64::MAX` to
    /// overflow and a zero to divide by on any row.
    const TYPES: [DataType; 8] = {
        use DataType::*;
        [Int, Float, Text, Bool, Null, Int, Int, Float]
    };

    /// The cells column `c` of a random block draws from, and the literals
    /// of a random tree: NULL, NaN, ±0.0, `i64::MIN` and `i64::MAX` among
    /// them.
    fn cells(c: usize) -> Vec<Value> {
        let mut cells = match c {
            0 => [i64::MIN, i64::MAX, -1, 0, 1, 7].map(Value::Int).to_vec(),
            1 => [f64::NAN, -0.0, 0.0, 0.5, -2.5, 1e300]
                .map(Value::Float)
                .to_vec(),
            2 => ["a", "", "B7", "2"].map(Value::from).to_vec(),
            3 => [true, false].map(Value::Bool).to_vec(),
            4 => Vec::new(),
            5 => [-1, 0, 0, 2].map(Value::Int).to_vec(),
            6 => return [i64::MAX, 3, 1, 0, -1].map(Value::Int).to_vec(),
            _ => {
                return [f64::NAN, -0.0, 0.0, 1.5, -1e300]
                    .map(Value::Float)
                    .to_vec()
            }
        };
        cells.push(Value::Null);
        cells
    }

    fn one_of(values: Vec<Value>) -> impl Strategy<Value = Value> {
        (0..values.len()).prop_map(move |i| values[i].clone())
    }

    /// Up to 8 rows of the columns of `TYPES`.
    fn random_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
        let [a, b, c, d, _, f, g, h] = [0, 1, 2, 3, 4, 5, 6, 7].map(|c| one_of(cells(c)));
        let row = ((a, b, c, d), (f, g, h))
            .prop_map(|((a, b, c, d), (f, g, h))| vec![a, b, c, d, Value::Null, f, g, h]);
        proptest::collection::vec(row, 0..9)
    }

    fn int(i: i64) -> PlanExpr {
        PlanExpr::literal(i)
    }

    /// Random trees over every variant, binary and unary operator, scalar
    /// function and cast target, with the guarded shapes whose skipped
    /// operand would fail: `k <> 0 AND 10 / k > 1`, `k IN (1, 1 / k)` and
    /// `f(x, 1 / 0)` for `ROUND`, `POWER` and `MOD`.
    fn random_tree() -> BoxedStrategy<PlanExpr> {
        use BinaryOp::*;
        const OPS: [BinaryOp; 13] = [
            Plus, Minus, Multiply, Divide, Modulo, Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or,
        ];
        const FUNCS: [ScalarFn; 18] = {
            use ScalarFn::*;
            [
                Least, Greatest, Coalesce, Ceiling, Floor, Round, Abs, Mod, Sqrt, Exp, Ln, Power,
                Sign, Upper, Lower, Length, Concat, NullIf,
            ]
        };
        let literals = (0..TYPES.len()).flat_map(cells).collect();
        let leaf = prop_oneof![
            (0..TYPES.len()).prop_map(|i| PlanExpr::column(i, format!("c{i}"))),
            one_of(literals).prop_map(PlanExpr::Literal),
        ];
        leaf.prop_recursive(4, 64, 3, |inner| {
            let many = |range| proptest::collection::vec(inner.clone(), range);
            let arity = |func: ScalarFn| {
                let ok: Vec<usize> = (1..=3).filter(|&n| func.arity_ok(n)).collect();
                ok[0]..=ok[ok.len() - 1]
            };
            let called = inner.clone();
            let scalar = (0..FUNCS.len()).prop_flat_map(move |f| {
                let args = proptest::collection::vec(called.clone(), arity(FUNCS[f]));
                (Just(FUNCS[f]), args)
            });
            let branches = proptest::collection::vec((inner.clone(), inner.clone()), 1..3);
            prop_oneof![
                (inner.clone(), 0..OPS.len(), inner.clone())
                    .prop_map(|(l, op, r)| l.binary(OPS[op], r)),
                (0..3usize, inner.clone()).prop_map(|(op, e)| PlanExpr::Unary {
                    op: [UnaryOp::Not, UnaryOp::Minus, UnaryOp::Plus][op],
                    expr: Box::new(e),
                }),
                scalar.prop_map(|(func, args)| PlanExpr::Scalar { func, args }),
                (branches, proptest::option::of(inner.clone())).prop_map(|(branches, e)| {
                    PlanExpr::Case {
                        branches,
                        else_expr: e.map(Box::new),
                    }
                }),
                (inner.clone(), 0..4usize).prop_map(|(e, to)| PlanExpr::Cast {
                    expr: Box::new(e),
                    to: TYPES[to],
                }),
                (inner.clone(), any::<bool>()).prop_map(|(e, negated)| PlanExpr::IsNull {
                    expr: Box::new(e),
                    negated,
                }),
                (inner.clone(), many(1..4), any::<bool>()).prop_map(|(e, list, negated)| {
                    PlanExpr::InList {
                        expr: Box::new(e),
                        list,
                        negated,
                    }
                }),
                inner.clone().prop_map(|k| {
                    let divides = int(10).binary(Divide, k.clone()).binary(Gt, int(1));
                    k.binary(NotEq, int(0)).binary(And, divides)
                }),
                inner.clone().prop_map(|k| PlanExpr::InList {
                    expr: Box::new(k.clone()),
                    list: vec![int(1), int(1).binary(Divide, k)],
                    negated: false,
                }),
                (0..3usize, inner.clone()).prop_map(|(f, x)| PlanExpr::Scalar {
                    func: [ScalarFn::Round, ScalarFn::Power, ScalarFn::Mod][f],
                    args: vec![x, int(1).binary(Divide, int(0))],
                }),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The column evaluator is the row evaluator, on any tree the
        /// translator accepts over any block: the same cells to the bit,
        /// the same rows kept, the same first error.
        #[test]
        fn random_trees_evaluate_alike_by_column_and_by_row(
            expr in random_tree(),
            rows in random_rows(),
        ) {
            by_column_equals_by_row(&unified(expr, &TYPES), &rows);
        }
    }
}
