//! DML on blocks: `INSERT`, `UPDATE` and `DELETE` run on the column
//! kernels and hash-join row pairs queries run on.
//!
//! * `INSERT` (`VALUES` or a query) appends its source's partitioned
//!   result, routed by the table's distribution rule
//!   ([`Table::append`](spinner_storage::Table::append)). The source is
//!   lowered to come out placed on the table's distribution column where
//!   it can, and a source so placed is appended without routing a row.
//! * `DELETE` keeps, per partition, the rows its predicate's `select` does
//!   not; without `WHERE` it truncates the table.
//! * `UPDATE`, with or without `FROM`, finds each partition's *hit* rows
//!   and one row of (table ∥ FROM) cells for each: without `FROM` the rows
//!   its predicate selects, with `FROM` the `(probe, build)` pairs of a
//!   hash join against the FROM result — concatenated in gather order and
//!   indexed once — of which each table row keeps its first, the first
//!   match in FROM order. The assignments are evaluated over the hit rows
//!   only, and the partition's new block is one `take` over (old ∥
//!   updated). A row whose partition-key value changed leaves its
//!   partition and is appended where `placement` puts it.
//!
//! Every statement is all or nothing: under the table's write lock each
//! partition's new block is computed — every expression evaluated, every
//! error raised — before any is installed, and a partition the statement
//! does not change keeps its `Arc`. An `INSERT`'s source and an `UPDATE`'s
//! `FROM` run before the lock is taken, like any query.

use std::sync::Arc;

use spinner_common::{Block, Error, Result};
use spinner_plan::{JoinType, PlanExpr, PlannedStatement};
use spinner_storage::{placement, Partitioned, PlacedOn, Table};

use crate::executor::StatementContext;
use crate::keys::JoinTable;
use crate::operators::{gather_pairs, HashJoinSpec};

/// Run a DML statement, returning the number of rows it inserted, updated
/// or deleted.
pub fn run(ctx: &StatementContext<'_>, statement: &PlannedStatement) -> Result<usize> {
    match statement {
        PlannedStatement::Insert { table, source } => {
            let key = ctx.catalog.with_table(table, |t| Ok(t.partition_key()))?;
            let rows = ctx.run_plan(source, key)?;
            ctx.catalog.with_table_mut(table, |t| t.append(&rows))
        }
        PlannedStatement::Delete { table, predicate } => ctx
            .catalog
            .with_table_mut(table, |t| delete(t, predicate.as_ref(), ctx)),
        PlannedStatement::Update {
            table,
            from,
            keys,
            assignments,
            predicate,
        } => {
            let (table_keys, from_keys): (Vec<PlanExpr>, Vec<PlanExpr>) =
                keys.iter().cloned().unzip();
            let join = HashJoinSpec {
                join_type: JoinType::Inner,
                left_keys: &table_keys,
                right_keys: &from_keys,
                residual: predicate.as_ref(),
                columns: None,
                ctx,
            };
            // The FROM rows laid end to end in gather order, and their index.
            let from = match from {
                Some(plan) => {
                    let rows = Block::concat(&ctx.execute_logical(plan)?.parts, usize::MAX);
                    Some((join.build(&rows)?, rows))
                }
                None => None,
            };
            let update = Update {
                join,
                from,
                assignments,
            };
            ctx.catalog.with_table_mut(table, |t| update.apply(t))
        }
        _ => Err(Error::execution("not a DML statement")),
    }
}

/// `DELETE FROM t [WHERE predicate]`: the number of rows removed.
fn delete(
    t: &mut Table,
    predicate: Option<&PlanExpr>,
    ctx: &StatementContext<'_>,
) -> Result<usize> {
    let Some(predicate) = predicate else {
        let removed = t.row_count();
        t.truncate();
        return Ok(removed);
    };
    let mut removed = 0;
    let mut parts = Vec::with_capacity(t.partition_count());
    for block in &t.snapshot().parts {
        ctx.guard.check()?;
        let doomed = predicate.select(block, &ctx.stats.rows_evaluated_by_row)?;
        if doomed.is_empty() {
            parts.push(Arc::clone(block));
            continue;
        }
        removed += doomed.len();
        let mut doomed = doomed.into_iter().peekable();
        let kept = (0..block.rows() as u32).filter(|row| doomed.next_if_eq(row).is_none());
        parts.push(Arc::new(block.take(&kept.collect::<Vec<_>>())));
    }
    t.replace(parts);
    Ok(removed)
}

/// An `UPDATE`, planned and with its `FROM` side (if any) run.
struct Update<'a> {
    /// Table keys probing the FROM keys, the WHERE residual over the
    /// (table ∥ FROM) pairs — or, without `FROM`, the predicate alone.
    join: HashJoinSpec<'a>,
    /// The FROM rows' key index, and the rows.
    from: Option<(JoinTable, Arc<Block>)>,
    /// `(column, new value)` over (table ∥ FROM) cells.
    assignments: &'a [(usize, PlanExpr)],
}

impl Update<'_> {
    /// Compute every partition's new block, then install them: the number
    /// of rows updated.
    fn apply(&self, t: &mut Table) -> Result<usize> {
        let ctx = self.join.ctx;
        let (partitions, width) = (t.partition_count(), t.schema().len());
        // Rows leave their partition only if the partition key is assigned.
        let assigned = |k: &usize| self.assignments.iter().any(|(c, _)| c == k);
        let key = t.partition_key().filter(assigned);
        let snapshot = t.snapshot();
        let mut updated = 0;
        let (mut parts, mut leaving) = (Vec::new(), Vec::new());
        for (p, old) in snapshot.parts.iter().enumerate() {
            ctx.guard.check()?;
            let (hits, cells) = self.hits(old)?;
            if hits.is_empty() {
                parts.push(Arc::clone(old));
                continue;
            }
            updated += hits.len();
            let mut columns = cells.columns()[..width].to_vec();
            for (c, expr) in self.assignments {
                columns[*c] = expr.evaluate_column(&cells, &ctx.stats.rows_evaluated_by_row)?;
            }
            let new = Arc::new(Block::new(columns, hits.len()));
            let targets = match key {
                Some(k) => placement(&new.columns()[k..=k], new.rows(), partitions),
                None => Vec::new(),
            };
            let leaves = |k: u32| targets.get(k as usize).is_some_and(|&to| to as usize != p);
            // Row numbers into (old ∥ new): each hit replaced where it is,
            // unless it leaves.
            let (mut order, mut left) = (Vec::with_capacity(old.rows()), Vec::new());
            let mut hits = hits.iter().zip(0u32..).peekable();
            for row in 0..old.rows() as u32 {
                match hits.next_if(|(&hit, _)| hit == row) {
                    Some((_, k)) if leaves(k) => left.push(k),
                    Some((_, k)) => order.push(old.rows() as u32 + k),
                    None => order.push(row),
                }
            }
            parts.push(Arc::new(Block::take_from_two(old, &new, &order)));
            if !left.is_empty() {
                leaving.push(Arc::new(new.take(&left)));
            }
        }
        t.replace(parts);
        if !leaving.is_empty() {
            t.append(&Partitioned {
                schema: snapshot.schema,
                parts: leaving,
                placed_on: PlacedOn::UNKNOWN,
            })?;
        }
        Ok(updated)
    }

    /// The rows of `block` the update changes, in row order, and the
    /// (table ∥ FROM) cells each is updated from, a row apiece.
    fn hits(&self, block: &Arc<Block>) -> Result<(Vec<u32>, Arc<Block>)> {
        let Some((index, from)) = &self.from else {
            let rows = match self.join.residual {
                Some(p) => p.select(block, &self.join.ctx.stats.rows_evaluated_by_row)?,
                None => (0..block.rows() as u32).collect(),
            };
            let cells = match rows.len() == block.rows() {
                true => Arc::clone(block),
                false => Arc::new(block.take(&rows)),
            };
            return Ok((rows, cells));
        };
        let (probe, build) = self.join.pairs(block, from, index)?;
        // A table row's pairs are adjacent, in FROM order: the first wins.
        let mut pairs: Vec<(u32, u32)> = probe.into_iter().zip(build).collect();
        pairs.dedup_by_key(|pair| pair.0);
        let (probe, build): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
        let cells = gather_pairs((block, from), (&probe, &build), None);
        Ok((probe, cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{row_of, DataType, EngineConfig, Field, QueryGuard, Schema, Value};
    use spinner_common::{Row, SchemaRef};
    use spinner_parser::parse_sql;
    use spinner_plan::builder::SchemaProvider;
    use spinner_plan::plan_statement;
    use spinner_storage::{partition_of, Catalog};

    use crate::fault::FaultInjector;

    struct Provider<'a>(&'a Catalog);

    impl SchemaProvider for Provider<'_> {
        fn table_schema(&self, name: &str) -> Option<SchemaRef> {
            self.0.get(name).ok().map(|t| Arc::clone(t.schema()))
        }

        fn table_primary_key(&self, name: &str) -> Option<usize> {
            self.0.get(name).ok().and_then(|t| t.primary_key())
        }
    }

    /// `t (id INT, v INT)` distributed on `id` over 4 partitions, holding
    /// `(i, 10 i)` for `i < n`.
    fn table(n: i64) -> Catalog {
        let catalog = Catalog::new();
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        catalog.create_table("t", schema, 4, Some(0), None).unwrap();
        let rows = (0..n).map(|i| row_of([Value::Int(i), Value::Int(i * 10)]));
        catalog
            .with_table_mut("t", |t| t.insert(rows.collect()))
            .unwrap();
        catalog
    }

    /// Plan and run one DML statement: its result, and the rows it sent
    /// through the row evaluator.
    fn dml(catalog: &Catalog, sql: &str) -> (Result<usize>, u64) {
        let config = EngineConfig::default();
        let (guard, faults) = (QueryGuard::unlimited(), FaultInjector::disabled());
        let ctx = StatementContext::new(catalog, &config, &guard, &faults, None);
        let planned = parse_sql(sql).and_then(|s| plan_statement(&s, &Provider(catalog), &config));
        let result = planned.and_then(|planned| run(&ctx, &planned));
        (result, ctx.stats.rows_evaluated_by_row.get())
    }

    fn rows(catalog: &Catalog) -> Vec<Row> {
        catalog.get("t").unwrap().snapshot().gather()
    }

    #[test]
    fn delete_removes_matching() {
        let catalog = table(10);
        assert_eq!(dml(&catalog, "DELETE FROM t WHERE id % 2 = 0"), (Ok(5), 0));
        let mut left: Vec<i64> = rows(&catalog)
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        left.sort_unstable();
        assert_eq!(left, [1, 3, 5, 7, 9]);
        assert_eq!(dml(&catalog, "DELETE FROM t"), (Ok(5), 0));
        assert!(rows(&catalog).is_empty());
    }

    /// Only the hit row changes, each assignment sees the old row, and
    /// the new values are cast to the columns' types by a column loop.
    #[test]
    fn update_changes_values() {
        let catalog = table(4);
        let before = rows(&catalog);
        let sql = "UPDATE t SET v = 999.0, id = v / 10 WHERE id = 2";
        assert_eq!(dml(&catalog, sql), (Ok(1), 0));
        let want: Vec<Row> = (before.iter())
            .map(|r| match r[0] {
                Value::Int(2) => row_of([Value::Int(2), Value::Int(999)]),
                _ => r.clone(),
            })
            .collect();
        assert_eq!(format!("{:?}", rows(&catalog)), format!("{want:?}"));
    }

    #[test]
    fn update_reroutes_changed_partition_key() {
        let catalog = table(8);
        assert_eq!(dml(&catalog, "UPDATE t SET id = id + 100").0, Ok(8));
        let t = catalog.get("t").unwrap();
        assert_eq!(t.row_count(), 8);
        // Every row lives in the partition its new key hashes to.
        for (p, part) in t.snapshot().parts.iter().enumerate() {
            for r in part.to_rows() {
                assert_eq!(partition_of(&r[0], 4), p);
                assert_eq!(r[1], Value::Int((r[0].as_i64().unwrap() - 100) * 10));
            }
        }
    }
}
