//! Required-columns pruning: below a plan's root, every operator computes
//! only the columns it or an ancestor reads.
//!
//! The pass walks a plan top-down, handing each operator the columns its
//! parent wants; the operator asks its inputs for those plus whatever it
//! references itself, and rewrites its expressions to the narrower inputs
//! on the way back up. Every rewritten output is the old output with some
//! columns left out, in the same order. Columns are left out where that
//! saves a copy:
//!
//! * a projection drops the expressions nobody reads, if evaluating them
//!   cannot fail — bare columns and literals; dropping `1 / x` would drop
//!   its division-by-zero error with it;
//! * a scan or literal rows under any operator but a projection is wrapped
//!   in a projection of the wanted columns, so a filter, exchange, join or
//!   sort above copies no more than that (a projection right above a scan
//!   takes the scan's columns where they lie, so it needs no wrapper);
//! * a join whose output holds columns nobody reads — keys that are only
//!   matched on — gets a projection of bare columns above it, unless its
//!   parent already is one. Lowering turns that projection into the join's
//!   output list, so the join gathers only those columns.
//!
//! What others read by position keeps its shape: the root of every plan
//! keeps its schema (the CTE, working and delta tables, with their
//! `distribute_by` and merge keys), an aggregate keeps every output,
//! and a `DISTINCT` or set operation keeps every column of its inputs,
//! all of which make up a row's identity. An input of which nothing is
//! read — that of a `COUNT(*)` — becomes zero columns wide and keeps its
//! row count.
//!
//! The walk rewrites in place and allocates only where it changes
//! something, so a plan with nothing to prune — a point lookup — costs a
//! walk and nothing more. Column sets are bit masks: an operator wider
//! than [`MAX_WIDTH`] columns is left as it is, with everything below it.

use std::sync::Arc;

use spinner_common::{Result, Schema, SchemaRef, Value};
use spinner_plan::{LogicalPlan, PlanExpr};

/// A set of columns of one operator's output, bit `i` for column `i`.
type Columns = u128;

/// The widest operator the pass rewrites.
pub const MAX_WIDTH: usize = Columns::BITS as usize;

/// `plan` with its schema kept and everything below its root computing
/// only the columns that are read.
pub fn prune_columns(mut plan: LogicalPlan) -> Result<LogicalPlan> {
    let width = plan.schema().len();
    prune(&mut plan, all(width), false)?;
    Ok(plan)
}

/// Rewrite `plan` to compute at least the `wanted` columns of its output;
/// returns the columns it still computes. With `narrow`, a scan or join
/// computes exactly the wanted ones.
fn prune(plan: &mut LogicalPlan, wanted: Columns, narrow: bool) -> Result<Columns> {
    let width = plan.schema().len();
    if width > MAX_WIDTH {
        return Ok(all(width));
    }
    let kept = match plan {
        LogicalPlan::TableScan { .. }
        | LogicalPlan::TempScan { .. }
        | LogicalPlan::Values { .. } => all(width),
        LogicalPlan::Projection {
            input,
            exprs,
            schema,
        } => {
            let fallible = |e: &PlanExpr| !matches!(e, PlanExpr::Column(_) | PlanExpr::Literal(_));
            let kept = (exprs.iter().enumerate())
                .filter(|(i, e)| has(wanted, *i) || fallible(e))
                .fold(0, |kept, (i, _)| kept | 1 << i);
            if kept != all(width) {
                let mut i = 0..;
                exprs.retain(|_| i.next().is_some_and(|i| has(kept, i)));
                *schema = subset(schema, kept);
            }
            let needs = exprs.iter().fold(0, |needs, e| needs | columns_of(e));
            // Bare columns over a join become its output list; any
            // projection reads a scan's columns where they lie.
            let bare = exprs.iter().all(|e| matches!(e, PlanExpr::Column(_)));
            let absorbs = bare || is_leaf(input);
            let input_width = input.schema().len();
            let inner = prune(input, needs, !absorbs)?;
            remap(exprs.iter_mut(), inner, input_width)?;
            kept
        }
        LogicalPlan::Filter { input, predicate } => {
            let kept = prune(input, wanted | columns_of(predicate), true)?;
            remap([predicate], kept, width)?;
            kept
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            filter,
            schema,
            ..
        } => {
            let left_width = left.schema().len();
            let (left_keys, right_keys) = (on.iter()).fold((0, 0), |(l, r), (lk, rk)| {
                (l | columns_of(lk), r | columns_of(rk))
            });
            let needs = wanted | left_keys | shl(right_keys, left_width);
            let needs = needs | filter.as_ref().map_or(0, columns_of);
            let left_kept = prune(left, needs & all(left_width), true)?;
            let right_kept = prune(right, shr(needs, left_width), true)?;
            remap(on.iter_mut().map(|(l, _)| l), left_kept, left_width)?;
            remap(
                on.iter_mut().map(|(_, r)| r),
                right_kept,
                width - left_width,
            )?;
            let kept = left_kept | shl(right_kept, left_width);
            remap(filter.iter_mut(), kept, width)?;
            if kept != all(width) {
                *schema = subset(schema, kept);
            }
            kept
        }
        LogicalPlan::Aggregate {
            input, group, aggs, ..
        } => {
            let args = (aggs.iter()).flat_map(|agg| agg.arg.iter().chain(&agg.by));
            let needs = group.iter().chain(args).fold(0, |n, e| n | columns_of(e));
            let input_width = input.schema().len();
            let inner = prune(input, needs, true)?;
            let args = (aggs.iter_mut()).flat_map(|agg| agg.arg.iter_mut().chain(&mut agg.by));
            remap(group.iter_mut().chain(args), inner, input_width)?;
            all(width)
        }
        LogicalPlan::Sort { input, keys } => {
            let needs = keys.iter().fold(wanted, |n, key| n | columns_of(&key.expr));
            let kept = prune(input, needs, true)?;
            remap(keys.iter_mut().map(|key| &mut key.expr), kept, width)?;
            kept
        }
        LogicalPlan::Limit { input, .. } => prune(input, wanted, true)?,
        // Every column of a DISTINCT's or set operation's input is part
        // of a row's identity.
        LogicalPlan::Distinct { input } => {
            prune(input, all(width), false)?;
            all(width)
        }
        LogicalPlan::SetOp { left, right, .. } => {
            prune(left, all(width), false)?;
            prune(right, all(width), false)?;
            all(width)
        }
    };
    let narrows = is_leaf(plan) || matches!(plan, LogicalPlan::Join { .. });
    if !narrow || !narrows || kept == wanted {
        return Ok(kept);
    }
    // A projection of the wanted columns over what `plan` computes.
    let schema = plan.schema();
    let columns: Vec<usize> = (0..width)
        .filter(|&i| has(wanted, i))
        .map(|i| position(kept, i))
        .collect();
    let exprs = (columns.iter())
        .map(|&c| PlanExpr::column(c, schema.field(c).qualified_name()))
        .collect();
    let fields = columns.iter().map(|&c| schema.field(c).clone()).collect();
    let placeholder = LogicalPlan::Values {
        schema: Arc::clone(&schema),
        rows: Vec::new(),
    };
    *plan = LogicalPlan::Projection {
        input: Box::new(std::mem::replace(plan, placeholder)),
        exprs,
        schema: Arc::new(Schema::new(fields)),
    };
    Ok(wanted)
}

/// Every column of an output `width` wide.
fn all(width: usize) -> Columns {
    match width {
        w if w >= MAX_WIDTH => Columns::MAX,
        w => (1 << w) - 1,
    }
}

fn has(columns: Columns, i: usize) -> bool {
    shr(columns, i) & 1 == 1
}

/// `columns` of a right input as columns of left ∥ right, the left input
/// `by` wide.
fn shl(columns: Columns, by: usize) -> Columns {
    u32::try_from(by)
        .ok()
        .and_then(|by| columns.checked_shl(by))
        .unwrap_or(0)
}

/// The columns past the first `by`, renumbered from 0.
fn shr(columns: Columns, by: usize) -> Columns {
    u32::try_from(by)
        .ok()
        .and_then(|by| columns.checked_shr(by))
        .unwrap_or(0)
}

/// Where column `i` of an output sits once only the `kept` columns remain.
fn position(kept: Columns, i: usize) -> usize {
    (kept & all(i)).count_ones() as usize
}

/// The columns `expr` reads.
fn columns_of(expr: &PlanExpr) -> Columns {
    let mut columns = 0;
    expr.walk(&mut |e| match e {
        PlanExpr::Column(c) if c.index < MAX_WIDTH => columns |= 1 << c.index,
        _ => {}
    });
    columns
}

fn is_leaf(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::TableScan { .. } | LogicalPlan::TempScan { .. } | LogicalPlan::Values { .. }
    )
}

/// Point `exprs`, which read an input `width` wide, at that input's
/// `kept` columns only.
fn remap<'e>(
    exprs: impl IntoIterator<Item = &'e mut PlanExpr>,
    kept: Columns,
    width: usize,
) -> Result<()> {
    if kept == all(width) {
        return Ok(());
    }
    let at = |i: usize| has(kept, i).then(|| position(kept, i));
    for expr in exprs {
        let placeholder = PlanExpr::Literal(Value::Null);
        *expr = std::mem::replace(expr, placeholder).remap_columns(&at)?;
    }
    Ok(())
}

/// The fields of `schema` in `kept`.
fn subset(schema: &SchemaRef, kept: Columns) -> SchemaRef {
    let fields = schema.fields().iter().enumerate();
    let fields = fields
        .filter(|(i, _)| has(kept, *i))
        .map(|(_, f)| f.clone());
    Arc::new(Schema::new(fields.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::{DataType, EngineConfig, Field};
    use spinner_parser::parse_sql;
    use spinner_plan::builder::SchemaProvider;
    use spinner_plan::{plan_statement, JoinType, PlannedStatement, QueryPlan, Step};

    struct Tables;

    impl SchemaProvider for Tables {
        fn table_schema(&self, name: &str) -> Option<SchemaRef> {
            let columns: &[&str] = match name {
                "edges" => &["src", "dst", "weight"],
                "t" => &["a", "b", "c"],
                _ => return None,
            };
            let field = |c: &&str| Field::new(*c, DataType::Int);
            Some(Arc::new(Schema::new(columns.iter().map(field).collect())))
        }

        fn table_primary_key(&self, _name: &str) -> Option<usize> {
            None
        }
    }

    fn planned(sql: &str) -> QueryPlan {
        let config = EngineConfig::default();
        let stmt = plan_statement(&parse_sql(sql).unwrap(), &Tables, &config).unwrap();
        let PlannedStatement::Query(q) = stmt else {
            panic!("not a query")
        };
        q
    }

    /// The final plan of `sql`, pruned.
    fn pruned(sql: &str) -> LogicalPlan {
        prune_columns(planned(sql).root).unwrap()
    }

    /// Every plan of a step program, loop bodies included.
    fn plans(steps: &[Step]) -> Vec<&LogicalPlan> {
        let plans = steps.iter().flat_map(|step| match step {
            Step::Materialize { plan, .. } => vec![plan],
            Step::Loop(l) => plans(&l.body),
            Step::Rename { .. } | Step::Merge { .. } => Vec::new(),
        });
        plans.collect()
    }

    /// Every node of `plan`, depth first.
    fn nodes(plan: &LogicalPlan) -> Vec<&LogicalPlan> {
        let below = plan.children().into_iter().flat_map(nodes);
        std::iter::once(plan).chain(below).collect()
    }

    const PAGERANK: &str = "WITH ITERATIVE pr (node, rank, delta) AS ( \
            SELECT src, 0, 0.15 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
          ITERATE SELECT pr.node, pr.rank + pr.delta, 0.85 * SUM(inc.delta * e.weight) \
             FROM pr LEFT JOIN edges AS e ON pr.node = e.dst \
                     LEFT JOIN pr AS inc ON inc.node = e.src \
             GROUP BY pr.node, pr.rank + pr.delta \
          UNTIL 10 ITERATIONS ) \
         SELECT node, rank FROM pr ORDER BY node";

    #[test]
    fn every_plan_keeps_its_output_schema() {
        let programs = [
            PAGERANK,
            "WITH ITERATIVE cc (node, label) AS ( \
                SELECT src, src FROM (SELECT src FROM edges UNION SELECT dst FROM edges) \
              ITERATE SELECT cc.node, LEAST(cc.label, COALESCE(MIN(nbr.label), cc.label)) \
                 FROM cc LEFT JOIN edges AS e ON cc.node = e.dst \
                         LEFT JOIN cc AS nbr ON nbr.node = e.src \
                 GROUP BY cc.node, cc.label \
              UNTIL DELTA < 1 ) \
             SELECT label, COUNT(*) FROM cc GROUP BY label",
            "WITH RECURSIVE reach (node) AS ( \
                SELECT dst FROM edges WHERE src = 1 \
                UNION SELECT e.dst FROM edges e JOIN reach r ON e.src = r.node) \
             SELECT node FROM reach",
        ];
        let mut narrowed = 0;
        for sql in programs {
            let q = planned(sql);
            for plan in plans(&q.steps).into_iter().chain([&q.root]) {
                let after = prune_columns(plan.clone()).unwrap();
                assert_eq!(after.schema(), plan.schema(), "{sql}");
                narrowed += usize::from(after != *plan);
            }
        }
        assert!(narrowed > 0, "some plan had something to prune");
    }

    #[test]
    fn pagerank_joins_emit_only_what_the_aggregate_reads() {
        let q = planned(PAGERANK);
        let body = plans(&q.steps)[1].clone();
        let body = prune_columns(body).unwrap();
        // Each join sits under a projection of bare columns — its output
        // list once lowered — and the CTE's second scan is narrowed.
        let widths: Vec<(usize, usize)> = nodes(&body)
            .into_iter()
            .filter_map(|node| match node {
                LogicalPlan::Projection { input, exprs, .. }
                    if matches!(**input, LogicalPlan::Join { .. }) =>
                {
                    Some((exprs.len(), input.schema().len()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(widths, [(5, 7), (5, 6)]);
        let narrowed_scan = nodes(&body).into_iter().any(|node| {
            matches!(node, LogicalPlan::Projection { input, exprs, .. }
                if exprs.len() == 2 && matches!(**input, LogicalPlan::TempScan { .. }))
        });
        assert!(narrowed_scan, "inc reads only node and delta");
    }

    #[test]
    fn a_residual_and_an_outer_joins_padded_side_are_kept() {
        let plan =
            pruned("SELECT x.a, y.c FROM t AS x LEFT JOIN t AS y ON x.a = y.a AND y.b > x.c");
        let join = nodes(&plan)
            .into_iter()
            .find(|node| matches!(node, LogicalPlan::Join { .. }))
            .expect("a join");
        let LogicalPlan::Join {
            left,
            right,
            join_type,
            filter,
            ..
        } = join
        else {
            unreachable!()
        };
        assert_eq!(*join_type, JoinType::Left);
        // x: a (key, read) and c (residual); y: a (key), b (residual) and
        // c, which the left join pads and the query reads.
        let names = |p: &LogicalPlan| -> Vec<String> {
            p.schema().fields().iter().map(|f| f.name.clone()).collect()
        };
        assert_eq!(names(left), ["a", "c"]);
        assert_eq!(names(right), ["a", "b", "c"]);
        let residual = filter.as_ref().expect("the residual stays");
        assert_eq!(
            residual.referenced_columns(),
            [1, 3],
            "y.b and x.c, renumbered"
        );
    }

    #[test]
    fn count_star_keeps_its_row_count() {
        let plan = pruned("SELECT COUNT(*) FROM t");
        let aggregate = nodes(&plan).into_iter().find_map(|node| match node {
            LogicalPlan::Aggregate { input, .. } => Some(input),
            _ => None,
        });
        let input = aggregate.expect("an aggregate");
        // The aggregate's input reads no column but still yields a row per
        // row of `t`: a projection of nothing over the scan.
        let LogicalPlan::Projection { input, exprs, .. } = &**input else {
            panic!("{plan}")
        };
        assert!(exprs.is_empty());
        assert!(matches!(**input, LogicalPlan::TableScan { .. }));
    }

    #[test]
    fn distinct_and_set_operation_inputs_keep_every_column() {
        for sql in [
            "SELECT a FROM (SELECT DISTINCT a, b FROM t)",
            "SELECT a FROM (SELECT a, b FROM t UNION SELECT b, a FROM t)",
            "SELECT a FROM (SELECT a, b FROM t EXCEPT SELECT c, c FROM t)",
        ] {
            let before = planned(sql).root;
            let after = prune_columns(before.clone()).unwrap();
            let identity = |p: &LogicalPlan| -> Vec<LogicalPlan> {
                let set = nodes(p).into_iter().filter(|node| {
                    matches!(
                        node,
                        LogicalPlan::Distinct { .. } | LogicalPlan::SetOp { .. }
                    )
                });
                set.cloned().collect()
            };
            assert_eq!(identity(&after), identity(&before), "{sql}");
        }
    }

    #[test]
    fn only_infallible_expressions_are_dropped() {
        // `b / 0` is never read, but dropping it would drop its error too.
        let plan = pruned("SELECT a FROM (SELECT a, b / 0 AS q, 7 AS s, c FROM t)");
        let inner = nodes(&plan)
            .into_iter()
            .filter_map(|node| match node {
                LogicalPlan::Projection { exprs, .. } => Some(exprs.len()),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(inner, [1, 2], "a and b / 0 remain below");
    }

    #[test]
    fn an_unprunable_plan_comes_back_as_it_was() {
        for sql in [
            "SELECT dst, weight FROM edges WHERE src = 17",
            "SELECT * FROM edges LIMIT 1",
        ] {
            let before = planned(sql).root;
            assert_eq!(prune_columns(before.clone()).unwrap(), before, "{sql}");
        }
    }
}
