//! Abstract syntax tree for the supported SQL dialect.
//!
//! The one non-standard construct is [`CteKind::Iterative`], carrying the
//! non-iterative part `R0`, the iterative part `Ri` and the termination
//! condition `Tc` exactly as the parse-tree node of DBSpinner's Figure 3
//! does (type + N + optional expression).

use std::fmt;

use spinner_common::{DataType, Value};

/// A single SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT (possibly with CTEs, set ops, ORDER BY, LIMIT).
    Query(Query),
    /// `CREATE TABLE name (col type, ...) [PRIMARY KEY (col)] [PARTITION BY (col)]`
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        primary_key: Option<String>,
        partition_key: Option<String>,
        if_not_exists: bool,
    },
    /// DROP TABLE [IF EXISTS] name
    DropTable { name: String, if_exists: bool },
    /// INSERT INTO name [(cols)] VALUES ... | SELECT ...
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        source: InsertSource,
    },
    /// UPDATE t SET col = expr, ... [FROM table_ref] [WHERE expr]
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        from: Option<TableRef>,
        selection: Option<Expr>,
    },
    /// DELETE FROM t [WHERE expr]
    Delete {
        table: String,
        selection: Option<Expr>,
    },
    /// `EXPLAIN [ANALYZE] <statement>`
    Explain {
        /// The statement being explained.
        statement: Box<Statement>,
        /// `true` for `EXPLAIN ANALYZE`: execute the statement and report
        /// actual row counts, timings and per-iteration metrics.
        analyze: bool,
    },
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub primary_key: bool,
}

/// The data source of an INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Box<Query>),
}

/// A full query: optional CTE list, a set-expression body, ordering, limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub ctes: Vec<Cte>,
    pub body: SetExpr,
    pub order_by: Vec<OrderByExpr>,
    pub limit: Option<u64>,
}

impl Query {
    /// A query that is just a bare body.
    pub fn plain(body: SetExpr) -> Self {
        Query {
            ctes: Vec::new(),
            body,
            order_by: Vec::new(),
            limit: None,
        }
    }
}

/// One common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    /// CTE name (lower-cased).
    pub name: String,
    /// Optional declared column names.
    pub columns: Vec<String>,
    pub kind: CteKind,
}

/// The three CTE flavours the engine understands.
#[derive(Debug, Clone, PartialEq)]
pub enum CteKind {
    /// Plain `WITH name AS (query)`.
    Regular(Box<Query>),
    /// ANSI `WITH RECURSIVE`: base ∪ recursive-part until fixed point.
    Recursive {
        base: Box<Query>,
        step: Box<Query>,
        union_all: bool,
    },
    /// DBSpinner `WITH ITERATIVE`: R0 ITERATE Ri UNTIL Tc.
    Iterative {
        init: Box<Query>,
        step: Box<Query>,
        until: Termination,
    },
}

/// Termination condition `Tc` of an iterative CTE.
///
/// Mirrors the paper's three classes (§II, §VI-B):
/// * metadata — a fixed number of iterations or cumulative updated rows,
/// * data — a SQL predicate over the CTE table, satisfied by ≥ N rows,
/// * delta — fewer than N rows changed in the last iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Termination {
    /// `UNTIL n ITERATIONS`
    Iterations(u64),
    /// `UNTIL n UPDATES` — stop once the cumulative number of updated rows
    /// reaches `n`.
    Updates(u64),
    /// `UNTIL [ANY] (expr) [, n ROWS]` — stop when at least `rows` rows of
    /// the CTE table satisfy `expr` (`ANY` is the `rows = 1` sugar).
    Data { expr: Expr, rows: u64 },
    /// `UNTIL DELTA < n` — stop when fewer than `n` rows changed.
    Delta { threshold: u64 },
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Termination::Iterations(n) => write!(f, "{n} ITERATIONS"),
            Termination::Updates(n) => write!(f, "{n} UPDATES"),
            Termination::Data { expr, rows } => write!(f, "({expr}) , {rows} ROWS"),
            Termination::Delta { threshold } => write!(f, "DELTA < {threshold}"),
        }
    }
}

/// Body of a query: a SELECT or a set operation over two bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<SetExpr>,
        right: Box<SetExpr>,
    },
}

/// Set operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Except,
    Intersect,
}

impl fmt::Display for SetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SetOp::Union => "UNION",
            SetOp::Except => "EXCEPT",
            SetOp::Intersect => "INTERSECT",
        })
    }
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    /// FROM items; multiple entries form an implicit cross join.
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

impl Select {
    /// SELECT with empty clauses, used as a builder seed.
    pub fn empty() -> Self {
        Select {
            distinct: false,
            projection: Vec::new(),
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// One item in the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table or CTE reference.
    Table { name: String, alias: Option<String> },
    /// Parenthesised subquery with a mandatory alias... relaxed: alias optional.
    Subquery {
        query: Box<Query>,
        alias: Option<String>,
    },
    /// A join of two table refs.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        /// ON condition; `None` only for CROSS joins.
        on: Option<Expr>,
    },
}

/// Join flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    RightOuter,
    FullOuter,
    Cross,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinKind::Inner => "INNER JOIN",
            JoinKind::LeftOuter => "LEFT JOIN",
            JoinKind::RightOuter => "RIGHT JOIN",
            JoinKind::FullOuter => "FULL JOIN",
            JoinKind::Cross => "CROSS JOIN",
        })
    }
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByExpr {
    pub expr: Expr,
    pub asc: bool,
    /// NULLS FIRST (default follows asc: NULLS first on ASC).
    pub nulls_first: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Minus,
    Plus,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `[relation.]name`
    Column {
        relation: Option<String>,
        name: String,
    },
    /// Literal value.
    Literal(Value),
    /// `left op right`
    BinaryOp {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// `op expr`
    UnaryOp { op: UnaryOp, expr: Box<Expr> },
    /// Function call; aggregates share this node and are classified during
    /// planning. `COUNT(*)` is a zero-arg `count` with `star = true`.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        star: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST (expr AS type)`
    Cast {
        expr: Box<Expr>,
        data_type: DataType,
    },
    /// `expr IS [NOT] NULL`
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (v1, v2, ...)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
}

impl Expr {
    /// Unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            relation: None,
            name: name.into(),
        }
    }

    /// Qualified column reference.
    pub fn qcol(relation: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            relation: Some(relation.into()),
            name: name.into(),
        }
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self op other` helper.
    pub fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }

    /// Visit this expression and all children, pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Column { .. } | Expr::Literal(_) => {}
            Expr::BinaryOp { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::UnaryOp { expr, .. } => expr.walk(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Cast { expr, .. } => expr.walk(f),
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column {
                relation: Some(r),
                name,
            } => write!(f, "{r}.{name}"),
            Expr::Column {
                relation: None,
                name,
            } => f.write_str(name),
            Expr::Literal(v) => match v {
                Value::Text(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::BinaryOp { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::UnaryOp { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Minus => write!(f, "(-{expr})"),
                UnaryOp::Plus => write!(f, "(+{expr})"),
            },
            Expr::Function {
                name,
                args,
                distinct,
                star,
            } => {
                write!(f, "{name}(")?;
                if *star {
                    write!(f, "*")?;
                } else {
                    if *distinct {
                        write!(f, "DISTINCT ")?;
                    }
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                write!(f, ")")
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast { expr, data_type } => write!(f, "CAST({expr} AS {data_type})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
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
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_roundtrips_structure() {
        let e = Expr::qcol("pr", "rank").binary(BinaryOp::Plus, Expr::lit(1i64));
        assert_eq!(e.to_string(), "(pr.rank + 1)");
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::col("a").and(Expr::col("b").eq(Expr::lit(3i64)));
        let mut cols = Vec::new();
        e.walk(&mut |x| {
            if let Expr::Column { name, .. } = x {
                cols.push(name.clone());
            }
        });
        assert_eq!(cols, vec!["a", "b"]);
    }

    #[test]
    fn termination_display() {
        assert_eq!(Termination::Iterations(10).to_string(), "10 ITERATIONS");
        assert_eq!(Termination::Delta { threshold: 1 }.to_string(), "DELTA < 1");
    }
}
