//! Logical plan tree and the step program that wraps it.
//!
//! A [`QueryPlan`] is what DBSpinner's planner hands to the executor: a
//! sequence of [`Step`]s — materializations of intermediate results,
//! `rename`s, key-merges and [`Step::Loop`]s — followed by a final plan
//! (`Qf` in the paper). For plain queries the step list is empty. `EXPLAIN`
//! renders the step list in the numbered style of the paper's Table I.

use std::fmt;
use std::sync::Arc;

use spinner_common::{Result, Schema, SchemaRef};

use crate::expr::{AggExpr, PlanExpr};

/// Join flavours at the plan level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Keep only matching row pairs.
    Inner,
    /// Keep all left rows, NULL-padding unmatched ones.
    Left,
    /// Keep all right rows, NULL-padding unmatched ones.
    Right,
    /// Keep all rows from both sides.
    Full,
    /// Cartesian product.
    Cross,
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinType::Inner => "Inner",
            JoinType::Left => "Left",
            JoinType::Right => "Right",
            JoinType::Full => "Full",
            JoinType::Cross => "Cross",
        })
    }
}

/// Set-operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// Rows in either input.
    Union,
    /// Rows in the left input but not the right.
    Except,
    /// Rows in both inputs.
    Intersect,
}

impl fmt::Display for SetOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SetOpKind::Union => "Union",
            SetOpKind::Except => "Except",
            SetOpKind::Intersect => "Intersect",
        })
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Key expression.
    pub expr: PlanExpr,
    /// Ascending when `true`.
    pub asc: bool,
    /// NULLs sort before non-NULLs when `true`.
    pub nulls_first: bool,
}

/// The relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a base (catalog) table.
    TableScan {
        /// Catalog table name.
        table: String,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Scan of a named intermediate result in the temp registry — CTE,
    /// working and delta tables, and the anchor's materializations.
    TempScan {
        /// Temp-registry entry name.
        name: String,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Literal rows (INSERT ... VALUES, SELECT without FROM).
    Values {
        /// Output schema.
        schema: SchemaRef,
        /// One expression list per row.
        rows: Vec<Vec<PlanExpr>>,
    },
    /// Compute expressions over each input row.
    Projection {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// One expression per output column.
        exprs: Vec<PlanExpr>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Keep rows where the predicate is true.
    Filter {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Boolean filter expression.
        predicate: PlanExpr,
    },
    /// Join. `on` holds equi-key pairs (left expr, right expr); `filter` is
    /// the residual non-equi condition over the combined schema.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Inner / left-outer / etc.
        join_type: JoinType,
        /// Equi-key pairs (left expr, right expr).
        on: Vec<(PlanExpr, PlanExpr)>,
        /// Residual non-equi condition over the combined schema.
        filter: Option<PlanExpr>,
        /// Output schema (left columns then right columns).
        schema: SchemaRef,
    },
    /// Grouped aggregation. Output schema = group columns then aggregates.
    Aggregate {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Group-key expressions; empty for global aggregation.
        group: Vec<PlanExpr>,
        /// Aggregate functions to compute.
        aggs: Vec<AggExpr>,
        /// Output schema (group keys then aggregates).
        schema: SchemaRef,
    },
    /// Remove duplicate rows.
    Distinct {
        /// Input operator.
        input: Box<LogicalPlan>,
    },
    /// Sort rows.
    Sort {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Row limit.
        n: u64,
    },
    /// UNION / EXCEPT / INTERSECT.
    SetOp {
        /// Which set operation.
        op: SetOpKind,
        /// `true` keeps duplicates (`ALL`).
        all: bool,
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Output schema.
        schema: SchemaRef,
    },
}

impl LogicalPlan {
    /// Output schema of this operator.
    pub fn schema(&self) -> SchemaRef {
        match self {
            LogicalPlan::TableScan { schema, .. }
            | LogicalPlan::TempScan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Projection { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::SetOp { schema, .. } => Arc::clone(schema),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Immediate children.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. }
            | LogicalPlan::TempScan { .. }
            | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Projection { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// This node with every child replaced by `f(child)`, in order; leaves
    /// come back as they are.
    pub fn map_children(
        self,
        mut f: impl FnMut(LogicalPlan) -> Result<LogicalPlan>,
    ) -> Result<LogicalPlan> {
        let mut child = |c: Box<LogicalPlan>| f(*c).map(Box::new);
        Ok(match self {
            LogicalPlan::Projection {
                input,
                exprs,
                schema,
            } => LogicalPlan::Projection {
                input: child(input)?,
                exprs,
                schema,
            },
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: child(input)?,
                predicate,
            },
            LogicalPlan::Join {
                left,
                right,
                join_type,
                on,
                filter,
                schema,
            } => LogicalPlan::Join {
                left: child(left)?,
                right: child(right)?,
                join_type,
                on,
                filter,
                schema,
            },
            LogicalPlan::Aggregate {
                input,
                group,
                aggs,
                schema,
            } => LogicalPlan::Aggregate {
                input: child(input)?,
                group,
                aggs,
                schema,
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: child(input)?,
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: child(input)?,
                keys,
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: child(input)?,
                n,
            },
            LogicalPlan::SetOp {
                op,
                all,
                left,
                right,
                schema,
            } => LogicalPlan::SetOp {
                op,
                all,
                left: child(left)?,
                right: child(right)?,
                schema,
            },
            leaf @ (LogicalPlan::TableScan { .. }
            | LogicalPlan::TempScan { .. }
            | LogicalPlan::Values { .. }) => leaf,
        })
    }

    /// Whether any node in this subtree scans the temp result `name`
    /// (used to find loop-variant subtrees — references to the iterative
    /// CTE table).
    pub fn references_temp(&self, name: &str) -> bool {
        if let LogicalPlan::TempScan { name: n, .. } = self {
            if n.eq_ignore_ascii_case(name) {
                return true;
            }
        }
        self.children().iter().any(|c| c.references_temp(name))
    }

    /// Count of TempScan nodes for `name` in this subtree.
    pub fn count_temp_refs(&self, name: &str) -> usize {
        let own = usize::from(matches!(
            self, LogicalPlan::TempScan { name: n, .. } if n.eq_ignore_ascii_case(name)
        ));
        own + self
            .children()
            .iter()
            .map(|c| c.count_temp_refs(name))
            .sum::<usize>()
    }

    /// Number of Join nodes in this subtree.
    pub fn count_joins(&self) -> usize {
        let own = usize::from(matches!(self, LogicalPlan::Join { .. }));
        own + self
            .children()
            .iter()
            .map(|c| c.count_joins())
            .sum::<usize>()
    }

    /// One-line description for EXPLAIN.
    fn describe(&self) -> String {
        match self {
            LogicalPlan::TableScan { table, .. } => format!("TableScan: {table}"),
            LogicalPlan::TempScan { name, .. } => format!("TempScan: {name}"),
            LogicalPlan::Values { rows, .. } => format!("Values: {} rows", rows.len()),
            LogicalPlan::Projection { exprs, .. } => {
                let items: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                format!("Projection: {}", items.join(", "))
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            LogicalPlan::Join {
                join_type,
                on,
                filter,
                ..
            } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                let mut s = format!("{join_type} Join: {}", keys.join(", "));
                if let Some(fp) = filter {
                    s.push_str(&format!(" filter: {fp}"));
                }
                s
            }
            LogicalPlan::Aggregate { group, aggs, .. } => {
                let g: Vec<String> = group.iter().map(|e| e.to_string()).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|agg| match (&agg.arg, &agg.by) {
                        (Some(arg), Some(by)) => format!("{}({arg}, {by})", agg.func),
                        (Some(arg), None) => format!("{}({arg})", agg.func),
                        _ => agg.func.to_string(),
                    })
                    .collect();
                format!(
                    "Aggregate: groupBy=[{}] aggs=[{}]",
                    g.join(", "),
                    a.join(", ")
                )
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::Sort { keys, .. } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|s| format!("{} {}", s.expr, if s.asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort: {}", k.join(", "))
            }
            LogicalPlan::Limit { n, .. } => format!("Limit: {n}"),
            LogicalPlan::SetOp { op, all, .. } => {
                format!("{op}{}", if *all { " All" } else { "" })
            }
        }
    }

    /// Multi-line indented rendering of the subtree.
    pub fn display_indent(&self, indent: usize, out: &mut String) {
        out.push_str(&"  ".repeat(indent));
        out.push_str(&self.describe());
        out.push('\n');
        for c in self.children() {
            c.display_indent(indent + 1, out);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.display_indent(0, &mut s);
        f.write_str(s.trim_end())
    }
}

/// Planned termination condition of a loop (paper §VI-B).
#[derive(Debug, Clone, PartialEq)]
pub enum TerminationPlan {
    /// Stop after N iterations.
    Iterations(u64),
    /// Stop when the cumulative number of updated rows reaches N.
    Updates(u64),
    /// Stop when at least `rows` rows of the CTE table satisfy `predicate`
    /// (resolved against the CTE schema).
    Data {
        /// Condition checked against each CTE row.
        predicate: PlanExpr,
        /// Required number of satisfying rows.
        rows: u64,
    },
    /// Stop when fewer than `threshold` rows changed in the last iteration.
    Delta {
        /// Changed-row count below which the loop stops.
        threshold: u64,
    },
}

impl fmt::Display for TerminationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerminationPlan::Iterations(n) => {
                write!(f, "<<Type:metadata, N:{n} iterations, Expr:NONE>>")
            }
            TerminationPlan::Updates(n) => {
                write!(f, "<<Type:metadata, N:{n} updates, Expr:NONE>>")
            }
            TerminationPlan::Data { predicate, rows } => {
                write!(f, "<<Type:data, N:{rows}, Expr:{predicate}>>")
            }
            TerminationPlan::Delta { threshold } => {
                write!(f, "<<Type:delta, N:{threshold}, Expr:NONE>>")
            }
        }
    }
}

/// How a loop advances its main table each round.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopKind {
    /// Iterative CTE (update semantics). The body materializes the working
    /// table; the steps that follow it (merge/rename) are part of `body`.
    Iterative {
        /// Name of the working table the body materializes.
        working: String,
        /// Whether the merge path is used (Ri has a WHERE clause, or the
        /// data-movement optimization is disabled).
        merge: bool,
        /// Semi-naive marker: when `Some`, the optimizer proved the body
        /// delta-eligible and rewrote it to join against this delta table
        /// (which holds only the rows that changed last iteration) instead
        /// of the full CTE table. The executor seeds the delta with the
        /// full table before iteration 1 and the merge step refills it
        /// with the changed rows each round. `None` = full recompute.
        delta: Option<String>,
    },
    /// Recursive CTE (append semantics): body materializes `working`; the
    /// executor appends it to the CTE table (deduplicating unless
    /// `union_all`), binds the *delta* scan to the new rows, and stops when
    /// an iteration adds nothing.
    FixedPoint {
        /// Name of the working table the body materializes.
        working: String,
        /// `true` for `UNION ALL` recursion (no deduplication).
        union_all: bool,
    },
}

/// A loop step: run `body` until `termination` is satisfied.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopStep {
    /// Temp-registry name of the main CTE table.
    pub cte: String,
    /// User-visible CTE name (for error messages).
    pub cte_display_name: String,
    /// Update (iterative) or append (recursive) semantics.
    pub kind: LoopKind,
    /// Steps executed each round.
    pub body: Vec<Step>,
    /// When the loop stops.
    pub termination: TerminationPlan,
    /// Merge key column (index into the CTE schema).
    pub key: usize,
    /// CTE table schema.
    pub schema: SchemaRef,
}

impl LoopStep {
    /// The table of last round's changed rows, when the loop keeps one: the
    /// semi-naive marker's table, or a recursion's newly derived rows.
    pub fn delta_table(&self) -> Option<String> {
        match &self.kind {
            LoopKind::Iterative { delta, .. } => delta.clone(),
            LoopKind::FixedPoint { .. } => Some(format!("__delta_{}", self.cte)),
        }
    }

    /// Whether the loop folds each round into its CTE table by a key merge
    /// — the loops that keep the table indexed on its key.
    pub fn merges(&self) -> bool {
        matches!(self.kind, LoopKind::Iterative { merge: true, .. })
    }

    /// Whether running the loop writes the temp result `name`: the CTE
    /// table, its delta, or anything a body step materializes, renames or
    /// merges (nested loops included).
    pub fn writes(&self, name: &str) -> bool {
        let is = |n: &str| n.eq_ignore_ascii_case(name);
        is(&self.cte)
            || self.delta_table().is_some_and(|d| is(&d))
            || self.body.iter().any(|step| match step {
                Step::Materialize { name, .. } => is(name),
                Step::Rename { from, to } => is(from) || is(to),
                Step::Merge {
                    working,
                    merged,
                    delta_out,
                    ..
                } => is(working) || is(merged) || delta_out.as_deref().is_some_and(is),
                Step::Loop(inner) => inner.writes(name),
            })
    }

    /// Whether `plan` reads nothing the loop writes — only base tables,
    /// literal rows and temps the loop leaves alone — so it yields the
    /// same rows in every iteration. The one definition of "loop-invariant"
    /// that the semi-naive rewrite and the executor's join-state cache
    /// share.
    pub fn is_invariant(&self, plan: &LogicalPlan) -> bool {
        match plan {
            LogicalPlan::TempScan { name, .. } => !self.writes(name),
            _ => plan.children().iter().all(|c| self.is_invariant(c)),
        }
    }
}

/// One step of the query program (the rows of the paper's Table I).
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Materialize `plan` into the temp registry under `name`.
    /// `distribute_by` asks the executor to hash-distribute the stored
    /// rows on that column — the MPP planner's "distribute the CTE table
    /// on its key" decision, which keeps the rename path's renamed working
    /// table co-located for the next iteration's joins and merges.
    Materialize {
        /// Temp-registry name to store under.
        name: String,
        /// Plan producing the rows.
        plan: LogicalPlan,
        /// Hash-distribution column, when requested.
        distribute_by: Option<usize>,
    },
    /// Re-point temp `to` at the buffer of temp `from` (the paper's new
    /// `rename` executor operator).
    Rename {
        /// Source temp name (consumed).
        from: String,
        /// Destination temp name.
        to: String,
    },
    /// Merge `working` into `cte` by equality on column `key`, producing
    /// temp `merged` (Algorithm 1, lines 8-10). Errors on duplicate keys in
    /// the working table.
    Merge {
        /// Temp name of the current CTE table.
        cte: String,
        /// Temp name of this iteration's working table.
        working: String,
        /// Temp name the merged result is stored under.
        merged: String,
        /// Merge key (column index into the CTE schema).
        key: usize,
        /// User-visible CTE name (for duplicate-key errors).
        cte_display_name: String,
        /// When `Some`, the merge also materializes the set of rows whose
        /// value actually changed (new key, or same key with different
        /// columns) under this temp name — the delta table a semi-naive
        /// loop feeds into its next iteration. `None` for full loops.
        delta_out: Option<String>,
    },
    /// Conditional repetition (the paper's new `loop` executor operator).
    Loop(LoopStep),
}

impl Step {
    fn explain_into(&self, step_no: &mut usize, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match self {
            Step::Materialize {
                name,
                plan,
                distribute_by,
            } => {
                let dist = match distribute_by {
                    Some(c) => format!(" (distributed by column #{c})"),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "{pad}{}. Materialize {name}{dist} with:\n",
                    step_no
                ));
                *step_no += 1;
                plan.display_indent(indent + 2, out);
            }
            Step::Rename { from, to } => {
                out.push_str(&format!("{pad}{}. Rename {from} to {to}.\n", step_no));
                *step_no += 1;
            }
            Step::Merge {
                cte,
                working,
                merged,
                key,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}{}. Merge {working} into {cte} by key column #{key} producing {merged}.\n",
                    step_no
                ));
                *step_no += 1;
            }
            Step::Loop(l) => {
                out.push_str(&format!(
                    "{pad}{}. Initialize loop operator {} for {}.\n",
                    step_no, l.termination, l.cte_display_name
                ));
                *step_no += 1;
                let loop_start = *step_no;
                for s in &l.body {
                    s.explain_into(step_no, indent + 1, out);
                }
                out.push_str(&format!(
                    "{pad}{}. Go to step {} if loop condition holds.\n",
                    step_no, loop_start
                ));
                *step_no += 1;
            }
        }
    }
}

/// A complete planned query: a step program plus the final plan (`Qf`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Step program executed before the final plan (empty for plain
    /// queries).
    pub steps: Vec<Step>,
    /// The final plan (`Qf`), run after all steps.
    pub root: LogicalPlan,
}

impl QueryPlan {
    /// Plan with no steps.
    pub fn simple(root: LogicalPlan) -> Self {
        QueryPlan {
            steps: Vec::new(),
            root,
        }
    }

    /// Output schema.
    pub fn schema(&self) -> SchemaRef {
        self.root.schema()
    }

    /// Paper-Table-I style rendering used by EXPLAIN.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let mut step_no = 1;
        for s in &self.steps {
            s.explain_into(&mut step_no, 0, &mut out);
        }
        out.push_str(&format!("{step_no}. Return:\n"));
        self.root.display_indent(2, &mut out);
        out
    }
}

/// A planned statement: queries plus the DDL/DML the baselines need.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedStatement {
    /// A SELECT (or iterative CTE query).
    Query(QueryPlan),
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        schema: Schema,
        /// Declared primary-key column.
        primary_key: Option<usize>,
        /// Hash-partition column; defaults to the primary key.
        partition_key: Option<usize>,
        /// `true` for `IF NOT EXISTS`.
        if_not_exists: bool,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
        /// `true` for `IF EXISTS`.
        if_exists: bool,
    },
    /// INSERT: the source plan produces rows already reordered/padded to
    /// the table's column order.
    Insert {
        /// Destination table.
        table: String,
        /// Plan producing the rows to insert.
        source: QueryPlan,
    },
    /// UPDATE with optional FROM. Assignments and the predicate are
    /// expressions over (table row ∥ from row); `from` is `None` for plain
    /// UPDATE and expressions see only the table row.
    Update {
        /// Target table.
        table: String,
        /// Optional FROM source joined against the target.
        from: Option<LogicalPlan>,
        /// `(table key, from key)` pairs that must be equal for a table row
        /// and a FROM row to match: the WHERE clause's equi conjuncts, each
        /// side over its own row. Empty without FROM.
        keys: Vec<(PlanExpr, PlanExpr)>,
        /// `(target column index, new value cast to the column's type)`.
        assignments: Vec<(usize, PlanExpr)>,
        /// The rest of the WHERE clause; `None` updates every (matched) row.
        predicate: Option<PlanExpr>,
    },
    /// DELETE.
    Delete {
        /// Target table.
        table: String,
        /// Row filter; `None` deletes every row.
        predicate: Option<PlanExpr>,
    },
    /// EXPLAIN / EXPLAIN ANALYZE wrapper around another statement.
    Explain {
        /// The planned statement being explained.
        statement: Box<PlannedStatement>,
        /// `true` for `EXPLAIN ANALYZE`: execute and profile the statement.
        analyze: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, Field};

    fn scan(name: &str) -> LogicalPlan {
        LogicalPlan::TempScan {
            name: name.into(),
            schema: Arc::new(Schema::new(vec![Field::new("x", DataType::Int)])),
        }
    }

    #[test]
    fn references_temp_is_case_insensitive() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("PageRank")),
            predicate: PlanExpr::literal(true),
        };
        assert!(plan.references_temp("pagerank"));
        assert!(!plan.references_temp("edges"));
    }

    #[test]
    fn count_temp_refs_counts_self_joins() {
        let schema = scan("pr").schema();
        let join = LogicalPlan::Join {
            left: Box::new(scan("pr")),
            right: Box::new(scan("pr")),
            join_type: JoinType::Inner,
            on: vec![],
            filter: None,
            schema,
        };
        assert_eq!(join.count_temp_refs("pr"), 2);
        assert_eq!(join.count_joins(), 1);
    }

    #[test]
    fn map_children_rebuilds_every_child_and_passes_errors_on() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("a")),
            right: Box::new(scan("b")),
            join_type: JoinType::Inner,
            on: vec![],
            filter: None,
            schema: scan("a").schema(),
        };
        let renamed = join
            .clone()
            .map_children(|c| {
                Ok(LogicalPlan::Filter {
                    input: Box::new(c),
                    predicate: PlanExpr::literal(true),
                })
            })
            .unwrap();
        assert_eq!(renamed.children().len(), 2);
        assert!(renamed
            .children()
            .iter()
            .all(|c| matches!(c, LogicalPlan::Filter { .. })));
        let failed = join.map_children(|_| Err(spinner_common::Error::plan("no")));
        assert!(failed.is_err());
        assert_eq!(
            scan("a").map_children(|_| unreachable!()).unwrap(),
            scan("a")
        );
    }

    #[test]
    fn a_loop_writes_its_tables_and_nothing_else() {
        let l = LoopStep {
            cte: "cte".into(),
            cte_display_name: "cte".into(),
            kind: LoopKind::FixedPoint {
                working: "work".into(),
                union_all: false,
            },
            body: vec![Step::Materialize {
                name: "work".into(),
                plan: scan("cte"),
                distribute_by: None,
            }],
            termination: TerminationPlan::Delta { threshold: 1 },
            key: 0,
            schema: scan("cte").schema(),
        };
        for written in ["cte", "CTE", "work", "__delta_cte"] {
            assert!(l.writes(written), "{written}");
            assert!(!l.is_invariant(&scan(written)), "{written}");
        }
        assert!(!l.writes("pre_loop"));
        let join = LogicalPlan::Join {
            left: Box::new(scan("pre_loop")),
            right: Box::new(LogicalPlan::TableScan {
                table: "edges".into(),
                schema: scan("x").schema(),
            }),
            join_type: JoinType::Inner,
            on: vec![],
            filter: None,
            schema: scan("x").schema(),
        };
        assert!(l.is_invariant(&join));
    }

    #[test]
    fn explain_numbers_steps_like_table_one() {
        let plan = QueryPlan {
            steps: vec![
                Step::Materialize {
                    name: "pagerank".into(),
                    plan: scan("src"),
                    distribute_by: None,
                },
                Step::Loop(LoopStep {
                    cte: "pagerank".into(),
                    cte_display_name: "PageRank".into(),
                    kind: LoopKind::Iterative {
                        working: "__work".into(),
                        merge: false,
                        delta: None,
                    },
                    body: vec![
                        Step::Materialize {
                            name: "__work".into(),
                            plan: scan("pagerank"),
                            distribute_by: None,
                        },
                        Step::Rename {
                            from: "__work".into(),
                            to: "pagerank".into(),
                        },
                    ],
                    termination: TerminationPlan::Iterations(10),
                    key: 0,
                    schema: scan("pagerank").schema(),
                }),
            ],
            root: scan("pagerank"),
        };
        let text = plan.explain();
        assert!(text.contains("1. Materialize pagerank"));
        assert!(text
            .contains("2. Initialize loop operator <<Type:metadata, N:10 iterations, Expr:NONE>>"));
        assert!(text.contains("4. Rename __work to pagerank."));
        assert!(text.contains("5. Go to step 3 if loop condition holds."));
        assert!(text.contains("6. Return:"));
    }
}
