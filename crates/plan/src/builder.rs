//! AST → logical-plan builder (name resolution, aggregate extraction,
//! CTE binding).
//!
//! The builder produces a [`QueryPlan`] — a step program plus final plan.
//! Regular CTEs become [`Step::Materialize`]; recursive and iterative CTEs
//! are delegated to [`crate::rewrite`], the functional rewrite of the
//! paper's Algorithm 1.

use std::collections::HashMap;
use std::sync::Arc;

use spinner_common::{DataType, EngineConfig, Error, Field, Result, Schema, SchemaRef, Value};
use spinner_parser as ast;
use spinner_parser::{CteKind, InsertSource, SelectItem, SetOp, Statement, TableRef};

use crate::expr::{conjoin, split_conjuncts, AggExpr, AggFunc, PlanExpr, ScalarFn};
use crate::logical::{
    JoinType, LogicalPlan, PlannedStatement, QueryPlan, SetOpKind, SortKey, Step,
};
use crate::rewrite;

/// Source of base-table schemas (implemented by the engine's catalog).
pub trait SchemaProvider {
    /// Schema of a base table, if it exists.
    fn table_schema(&self, name: &str) -> Option<SchemaRef>;
    /// Declared primary-key column of a base table.
    fn table_primary_key(&self, name: &str) -> Option<usize>;
}

/// A bound CTE visible to FROM clauses.
#[derive(Debug, Clone)]
pub struct CteBinding {
    /// Temp-registry name holding the CTE rows.
    pub temp_name: String,
    /// Output schema (unqualified names; qualified at the reference site).
    pub schema: SchemaRef,
}

/// Planning context: schema provider, config, visible CTEs.
pub struct PlanContext<'a> {
    /// Catalog access for table schemas and primary keys.
    pub provider: &'a dyn SchemaProvider,
    /// Feature toggles steering the iterative rewrites.
    pub config: &'a EngineConfig,
    ctes: HashMap<String, CteBinding>,
    /// Temp names issued so far; a body planned again rewinds it, so that
    /// its temps are named as before.
    pub(crate) temp_counter: u64,
}

impl<'a> PlanContext<'a> {
    /// Fresh context.
    pub fn new(provider: &'a dyn SchemaProvider, config: &'a EngineConfig) -> Self {
        PlanContext {
            provider,
            config,
            ctes: HashMap::new(),
            temp_counter: 0,
        }
    }

    /// Allocate a unique temp-result name with the given role prefix.
    pub fn fresh_temp(&mut self, prefix: &str) -> String {
        self.temp_counter += 1;
        format!("__{prefix}_{}", self.temp_counter)
    }

    /// Bind a CTE name for the remainder of the statement.
    pub fn bind_cte(&mut self, name: &str, binding: CteBinding) {
        self.ctes.insert(name.to_ascii_lowercase(), binding);
    }

    /// Look up a CTE binding.
    pub fn cte(&self, name: &str) -> Option<&CteBinding> {
        self.ctes.get(&name.to_ascii_lowercase())
    }
}

/// Plan a full statement.
pub fn plan_statement(
    stmt: &Statement,
    provider: &dyn SchemaProvider,
    config: &EngineConfig,
) -> Result<PlannedStatement> {
    match stmt {
        Statement::Query(q) => Ok(PlannedStatement::Query(plan_query(q, provider, config)?)),
        Statement::Explain { statement, analyze } => Ok(PlannedStatement::Explain {
            statement: Box::new(plan_statement(statement, provider, config)?),
            analyze: *analyze,
        }),
        Statement::CreateTable {
            name,
            columns,
            primary_key,
            partition_key,
            if_not_exists,
        } => {
            let fields: Vec<Field> = columns
                .iter()
                .map(|c| Field::new(c.name.clone(), c.data_type))
                .collect();
            let schema = Schema::new(fields);
            let pk = match primary_key {
                Some(col) => Some(schema.index_of(None, col)?),
                None => None,
            };
            let part = match partition_key {
                Some(col) => Some(schema.index_of(None, col)?),
                // Default distribution: by primary key when declared,
                // otherwise by the first column.
                None => pk.or(if schema.is_empty() { None } else { Some(0) }),
            };
            Ok(PlannedStatement::CreateTable {
                name: name.clone(),
                schema,
                primary_key: pk,
                partition_key: part,
                if_not_exists: *if_not_exists,
            })
        }
        Statement::DropTable { name, if_exists } => Ok(PlannedStatement::DropTable {
            name: name.clone(),
            if_exists: *if_exists,
        }),
        Statement::Insert {
            table,
            columns,
            source,
        } => plan_insert(table, columns.as_deref(), source, provider, config),
        Statement::Update {
            table,
            assignments,
            from,
            selection,
        } => plan_update(
            table,
            assignments,
            from.as_ref(),
            selection.as_ref(),
            provider,
            config,
        ),
        Statement::Delete { table, selection } => {
            let schema = provider
                .table_schema(table)
                .ok_or_else(|| Error::TableNotFound(table.clone()))?;
            let qualified = Arc::new(schema.qualify_all(table));
            let predicate = match selection {
                Some(e) => Some(resolve_expr(e, &qualified)?),
                None => None,
            };
            Ok(PlannedStatement::Delete {
                table: table.clone(),
                predicate,
            })
        }
    }
}

/// Plan a query into a step program + final plan.
pub fn plan_query(
    query: &ast::Query,
    provider: &dyn SchemaProvider,
    config: &EngineConfig,
) -> Result<QueryPlan> {
    let mut ctx = PlanContext::new(provider, config);
    let mut steps = Vec::new();
    let root = plan_query_internal(query, &mut ctx, &mut steps)?;
    Ok(QueryPlan { steps, root })
}

/// Plan a query, appending any required steps (CTE materializations,
/// loops) to `steps`, returning the final plan.
pub fn plan_query_internal(
    query: &ast::Query,
    ctx: &mut PlanContext<'_>,
    steps: &mut Vec<Step>,
) -> Result<LogicalPlan> {
    for cte in &query.ctes {
        match &cte.kind {
            CteKind::Regular(q) => {
                let plan = plan_query_internal(q, ctx, steps)?;
                let schema = apply_declared_columns(&plan.schema(), &cte.columns, &cte.name)?;
                let temp = ctx.fresh_temp(&format!("cte_{}", cte.name));
                steps.push(Step::Materialize {
                    name: temp.clone(),
                    plan,
                    distribute_by: None,
                });
                ctx.bind_cte(
                    &cte.name,
                    CteBinding {
                        temp_name: temp,
                        schema,
                    },
                );
            }
            CteKind::Recursive {
                base,
                step,
                union_all,
            } => {
                rewrite::build_recursive_cte(cte, base, step, *union_all, ctx, steps)?;
            }
            CteKind::Iterative { init, step, until } => {
                rewrite::build_iterative_cte(cte, init, step, until, ctx, steps)?;
            }
        }
    }
    let mut plan = plan_set_expr(&query.body, ctx, steps)?;
    if !query.order_by.is_empty() {
        plan = plan_order_by(plan, &query.order_by)?;
    }
    if let Some(n) = query.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

/// Plan ORDER BY over the query output.
///
/// Keys resolve against the SELECT output first (so aliases work); output
/// columns have lost their qualifiers, so `e.src` also matches output
/// column `src`. A key that only exists on the projection *input* (e.g.
/// `SELECT name FROM people ORDER BY age`) is added as a hidden sort
/// column and projected away after the sort, per standard SQL.
fn plan_order_by(plan: LogicalPlan, order_by: &[ast::OrderByExpr]) -> Result<LogicalPlan> {
    let out_schema = plan.schema();
    let resolve_with_fallback = |expr: &ast::Expr, schema: &Schema| {
        resolve_expr(expr, schema)
            .or_else(|e| translate(expr, schema, &mut schema_hook(schema, false)).map_err(|_| e))
    };
    // First pass: which keys resolve against the output?
    let mut resolved: Vec<Option<PlanExpr>> = Vec::with_capacity(order_by.len());
    let mut all_output = true;
    for ob in order_by {
        match resolve_with_fallback(&ob.expr, &out_schema) {
            Ok(e) => resolved.push(Some(e)),
            Err(_) => {
                resolved.push(None);
                all_output = false;
            }
        }
    }
    if all_output {
        let keys = order_by
            .iter()
            .zip(resolved)
            .map(|(ob, e)| SortKey {
                expr: e.expect("resolved"),
                asc: ob.asc,
                nulls_first: ob.nulls_first,
            })
            .collect();
        return Ok(LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        });
    }
    // Hidden-column path: only possible when the root is a projection whose
    // input still exposes the key columns.
    let LogicalPlan::Projection {
        input,
        mut exprs,
        schema,
    } = plan
    else {
        // Re-raise the original resolution error.
        for ob in order_by {
            resolve_with_fallback(&ob.expr, &out_schema)?;
        }
        unreachable!("at least one key failed to resolve");
    };
    let in_schema = input.schema();
    let visible = exprs.len();
    let mut extended_fields: Vec<Field> = schema.fields().to_vec();
    let mut keys = Vec::with_capacity(order_by.len());
    for (ob, pre) in order_by.iter().zip(resolved) {
        let expr = match pre {
            Some(e) => e,
            None => {
                let inner = resolve_with_fallback(&ob.expr, &in_schema)?;
                let idx = exprs.len();
                extended_fields.push(Field::new(
                    format!("__sort_{idx}"),
                    inner.data_type(&in_schema),
                ));
                exprs.push(inner);
                PlanExpr::column(idx, format!("__sort_{idx}"))
            }
        };
        keys.push(SortKey {
            expr,
            asc: ob.asc,
            nulls_first: ob.nulls_first,
        });
    }
    let extended = LogicalPlan::Projection {
        input,
        exprs,
        schema: Arc::new(Schema::new(extended_fields)),
    };
    let sorted = LogicalPlan::Sort {
        input: Box::new(extended),
        keys,
    };
    // Project the hidden columns away again.
    let final_exprs: Vec<PlanExpr> = schema
        .fields()
        .iter()
        .take(visible)
        .enumerate()
        .map(|(i, f)| PlanExpr::column(i, f.qualified_name()))
        .collect();
    Ok(LogicalPlan::Projection {
        input: Box::new(sorted),
        exprs: final_exprs,
        schema,
    })
}

/// Rename a schema's fields to the CTE's declared column list.
pub fn apply_declared_columns(
    schema: &Schema,
    columns: &[String],
    cte_name: &str,
) -> Result<SchemaRef> {
    if columns.is_empty() {
        // Strip qualifiers so outer references use the CTE's alias.
        return Ok(Arc::new(schema.unqualified()));
    }
    if columns.len() != schema.len() {
        return Err(Error::plan(format!(
            "CTE '{cte_name}' declares {} columns but its query produces {}",
            columns.len(),
            schema.len()
        )));
    }
    Ok(Arc::new(Schema::new(
        columns
            .iter()
            .zip(schema.fields())
            .map(|(name, f)| Field::new(name.clone(), f.data_type))
            .collect(),
    )))
}

fn plan_set_expr(
    body: &ast::SetExpr,
    ctx: &mut PlanContext<'_>,
    steps: &mut Vec<Step>,
) -> Result<LogicalPlan> {
    match body {
        ast::SetExpr::Select(s) => plan_select(s, ctx, steps),
        ast::SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = plan_set_expr(left, ctx, steps)?;
            let r = plan_set_expr(right, ctx, steps)?;
            if l.schema().len() != r.schema().len() {
                return Err(Error::plan(format!(
                    "{op} operands have different column counts ({} vs {})",
                    l.schema().len(),
                    r.schema().len()
                )));
            }
            let kind = match op {
                SetOp::Union => SetOpKind::Union,
                SetOp::Except => SetOpKind::Except,
                SetOp::Intersect => SetOpKind::Intersect,
            };
            // Output takes the left side's names; widen types per column
            // (NULL, no one type, where two arms have no common one).
            let rs = r.schema();
            let fields: Vec<Field> = l
                .schema()
                .fields()
                .iter()
                .zip(rs.fields())
                .map(|(a, b)| {
                    let widened = a.data_type.widen(b.data_type);
                    Field::new(a.name.clone(), widened.unwrap_or(DataType::Null))
                })
                .collect();
            Ok(LogicalPlan::SetOp {
                op: kind,
                all: *all,
                left: Box::new(l),
                right: Box::new(r),
                schema: Arc::new(Schema::new(fields)),
            })
        }
    }
}

fn plan_select(
    select: &ast::Select,
    ctx: &mut PlanContext<'_>,
    steps: &mut Vec<Step>,
) -> Result<LogicalPlan> {
    // FROM
    let mut input = match select.from.len() {
        0 => LogicalPlan::Values {
            schema: Arc::new(Schema::empty()),
            rows: vec![Vec::new()],
        },
        _ => {
            let mut it = select.from.iter();
            let mut plan = plan_table_ref(it.next().expect("non-empty"), ctx, steps)?;
            for tr in it {
                let right = plan_table_ref(tr, ctx, steps)?;
                let schema = Arc::new(plan.schema().join(&right.schema()));
                plan = LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(right),
                    join_type: JoinType::Cross,
                    on: vec![],
                    filter: None,
                    schema,
                };
            }
            plan
        }
    };
    // WHERE
    if let Some(sel) = &select.selection {
        let schema = input.schema();
        let predicate = resolve_expr(sel, &schema)?;
        input = LogicalPlan::Filter {
            input: Box::new(input),
            predicate,
        };
    }
    // Aggregation?
    let has_aggs = select_has_aggregates(select);
    let mut plan = if has_aggs || !select.group_by.is_empty() {
        plan_aggregate_select(select, input)?
    } else {
        plan_plain_projection(select, input)?
    };
    if select.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    Ok(plan)
}

fn plan_plain_projection(select: &ast::Select, input: LogicalPlan) -> Result<LogicalPlan> {
    let in_schema = input.schema();
    let mut exprs = Vec::new();
    let mut fields = Vec::new();
    for item in &select.projection {
        match item {
            SelectItem::Wildcard => {
                for (i, f) in in_schema.fields().iter().enumerate() {
                    exprs.push(PlanExpr::column(i, f.qualified_name()));
                    fields.push(f.clone());
                }
            }
            SelectItem::QualifiedWildcard(rel) => {
                let mut matched = false;
                for (i, f) in in_schema.fields().iter().enumerate() {
                    if f.relation
                        .as_deref()
                        .is_some_and(|r| r.eq_ignore_ascii_case(rel))
                    {
                        exprs.push(PlanExpr::column(i, f.qualified_name()));
                        fields.push(f.clone());
                        matched = true;
                    }
                }
                if !matched {
                    return Err(Error::plan(format!("unknown relation '{rel}' in {rel}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let resolved = resolve_expr(expr, &in_schema)?;
                let name = output_name(expr, alias.as_deref(), exprs.len());
                let dt = resolved.data_type(&in_schema);
                exprs.push(resolved);
                fields.push(Field::new(name, dt));
            }
        }
    }
    Ok(LogicalPlan::Projection {
        input: Box::new(input),
        exprs,
        schema: Arc::new(Schema::new(fields)),
    })
}

/// Plan a SELECT with GROUP BY / aggregate functions.
///
/// Shape: `Projection( Filter?(HAVING) ( Aggregate(input) ) )` where the
/// aggregate's output schema is `[group columns..., agg results...]` and
/// the post-projection rewrites group-by expressions and aggregate calls
/// into positional references.
fn plan_aggregate_select(select: &ast::Select, input: LogicalPlan) -> Result<LogicalPlan> {
    let in_schema = input.schema();
    // Resolve group expressions.
    let group: Vec<PlanExpr> = select
        .group_by
        .iter()
        .map(|e| resolve_expr(e, &in_schema))
        .collect::<Result<_>>()?;
    // Collect aggregate calls (structurally deduplicated) from projection
    // and HAVING.
    let mut agg_calls: Vec<ast::Expr> = Vec::new();
    for item in &select.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggregates(expr, &mut agg_calls)?;
        }
    }
    if let Some(h) = &select.having {
        collect_aggregates(h, &mut agg_calls)?;
    }
    let aggs: Vec<AggExpr> = agg_calls
        .iter()
        .enumerate()
        .map(|(i, call)| resolve_aggregate(call, &in_schema, i))
        .collect::<Result<_>>()?;
    // Aggregate output schema.
    let mut agg_fields: Vec<Field> = Vec::new();
    for (i, g) in group.iter().enumerate() {
        let name = match (&select.group_by[i], g) {
            (ast::Expr::Column { name, .. }, _) => name.clone(),
            _ => format!("group_{i}"),
        };
        agg_fields.push(Field::new(name, g.data_type(&in_schema)));
    }
    for a in &aggs {
        agg_fields.push(Field::new(a.name.clone(), a.output_type(&in_schema)));
    }
    let agg_schema = Arc::new(Schema::new(agg_fields));
    let mut plan = LogicalPlan::Aggregate {
        input: Box::new(input),
        group: group.clone(),
        aggs,
        schema: Arc::clone(&agg_schema),
    };
    // HAVING
    let mut post_aggregate = post_aggregate_hook(&select.group_by, &agg_calls, &agg_schema);
    if let Some(h) = &select.having {
        let predicate = translate(h, &agg_schema, &mut post_aggregate)?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }
    // Final projection.
    let mut exprs = Vec::new();
    let mut fields = Vec::new();
    for item in &select.projection {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                return Err(Error::plan(
                    "SELECT * cannot be combined with GROUP BY / aggregates",
                ))
            }
            SelectItem::Expr { expr, alias } => {
                let resolved = translate(expr, &agg_schema, &mut post_aggregate)?;
                let name = output_name(expr, alias.as_deref(), exprs.len());
                let dt = resolved.data_type(&agg_schema);
                exprs.push(resolved);
                fields.push(Field::new(name, dt));
            }
        }
    }
    Ok(LogicalPlan::Projection {
        input: Box::new(plan),
        exprs,
        schema: Arc::new(Schema::new(fields)),
    })
}

/// The translator hook after aggregation: group-by expressions become
/// positional references into the aggregate output, aggregate calls
/// become references to their result column, and any other bare column is
/// an error ("must appear in GROUP BY").
fn post_aggregate_hook<'a>(
    group_by: &'a [ast::Expr],
    agg_calls: &'a [ast::Expr],
    agg_schema: &'a Schema,
) -> impl FnMut(&ast::Expr) -> Result<Option<PlanExpr>> + 'a {
    move |expr| {
        let output = |i: usize| Ok(Some(PlanExpr::column(i, agg_schema.field(i).name.clone())));
        if let Some(i) = group_by.iter().position(|g| g == expr) {
            return output(i);
        }
        if let Some(j) = agg_calls.iter().position(|a| a == expr) {
            return output(group_by.len() + j);
        }
        match expr {
            ast::Expr::Column { relation, name } => {
                // A bare column may still match a group-by *column* spelled
                // with a different qualifier.
                let grouped = group_by.iter().position(|g| {
                    matches!(g, ast::Expr::Column { relation: g_rel, name: g_name }
                        if g_name.eq_ignore_ascii_case(name)
                            && (relation.is_none() || g_rel.is_some()))
                });
                match grouped {
                    Some(i) => output(i),
                    None => Err(Error::plan(format!(
                        "column '{}' must appear in the GROUP BY clause or be used in an aggregate",
                        match relation {
                            Some(r) => format!("{r}.{name}"),
                            None => name.clone(),
                        }
                    ))),
                }
            }
            ast::Expr::Function { name, .. } if ScalarFn::from_name(name).is_none() => Err(
                Error::plan(format!("unknown function '{name}' after aggregation")),
            ),
            _ => Ok(None),
        }
    }
}

/// Is this function name an aggregate?
fn aggregate_func(name: &str) -> Option<AggFunc> {
    Some(match name {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "avg" => AggFunc::Avg,
        "arg_min" => AggFunc::ArgMin,
        "arg_max" => AggFunc::ArgMax,
        _ => return None,
    })
}

fn is_aggregate_call(expr: &ast::Expr) -> bool {
    matches!(expr, ast::Expr::Function { name, .. } if aggregate_func(name).is_some())
}

fn contains_aggregate(expr: &ast::Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| found |= is_aggregate_call(e));
    found
}

fn select_has_aggregates(select: &ast::Select) -> bool {
    let items = select.projection.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    items.chain(&select.having).any(contains_aggregate)
}

/// Append the aggregate calls in `expr` to `out` in pre-order, skipping
/// calls `out` already holds. Errors on nested aggregates.
fn collect_aggregates(expr: &ast::Expr, out: &mut Vec<ast::Expr>) -> Result<()> {
    let mut nested = false;
    expr.walk(&mut |e| {
        if let ast::Expr::Function { args, .. } = e {
            if is_aggregate_call(e) {
                nested |= args.iter().any(contains_aggregate);
                if !out.contains(e) {
                    out.push(e.clone());
                }
            }
        }
    });
    if nested {
        return Err(Error::plan("nested aggregate functions are not allowed"));
    }
    Ok(())
}

fn resolve_aggregate(call: &ast::Expr, input: &Schema, ordinal: usize) -> Result<AggExpr> {
    let ast::Expr::Function {
        name,
        args,
        distinct,
        star,
    } = call
    else {
        return Err(Error::plan("internal: not an aggregate call"));
    };
    let func = aggregate_func(name)
        .ok_or_else(|| Error::plan(format!("internal: '{name}' is not an aggregate")))?;
    if *star {
        if func != AggFunc::Count {
            return Err(Error::plan(format!("{name}(*) is not supported")));
        }
        return Ok(AggExpr {
            func: AggFunc::CountStar,
            arg: None,
            by: None,
            distinct: false,
            name: format!("count_star_{ordinal}"),
        });
    }
    if matches!(func, AggFunc::ArgMin | AggFunc::ArgMax) {
        if args.len() != 2 {
            return Err(Error::plan(format!(
                "aggregate {name} takes exactly two arguments (value, key), got {}",
                args.len()
            )));
        }
        if *distinct {
            return Err(Error::plan(format!(
                "aggregate {name} does not support DISTINCT"
            )));
        }
        return Ok(AggExpr {
            func,
            arg: Some(resolve_expr(&args[0], input)?),
            by: Some(resolve_expr(&args[1], input)?),
            distinct: false,
            name: format!("{name}_{ordinal}"),
        });
    }
    if args.len() != 1 {
        return Err(Error::plan(format!(
            "aggregate {name} takes exactly one argument, got {}",
            args.len()
        )));
    }
    Ok(AggExpr {
        func,
        arg: Some(resolve_expr(&args[0], input)?),
        by: None,
        distinct: *distinct,
        name: format!("{name}_{ordinal}"),
    })
}

/// Output column name for a projection item.
fn output_name(expr: &ast::Expr, alias: Option<&str>, ordinal: usize) -> String {
    if let Some(a) = alias {
        return a.to_ascii_lowercase();
    }
    match expr {
        ast::Expr::Column { name, .. } => name.clone(),
        ast::Expr::Function { name, .. } => name.clone(),
        _ => format!("col_{ordinal}"),
    }
}

// ---- FROM clause -------------------------------------------------------

fn plan_table_ref(
    tr: &TableRef,
    ctx: &mut PlanContext<'_>,
    steps: &mut Vec<Step>,
) -> Result<LogicalPlan> {
    match tr {
        TableRef::Table { name, alias } => {
            let visible = alias.as_deref().unwrap_or(name);
            if let Some(binding) = ctx.cte(name).cloned() {
                return Ok(LogicalPlan::TempScan {
                    name: binding.temp_name,
                    schema: Arc::new(binding.schema.qualify_all(visible)),
                });
            }
            let schema = ctx
                .provider
                .table_schema(name)
                .ok_or_else(|| Error::TableNotFound(name.clone()))?;
            Ok(LogicalPlan::TableScan {
                table: name.to_ascii_lowercase(),
                schema: Arc::new(schema.qualify_all(visible)),
            })
        }
        TableRef::Subquery { query, alias } => {
            let plan = plan_query_internal(query, ctx, steps)?;
            match alias {
                Some(a) => {
                    let schema = Arc::new(plan.schema().qualify_all(a));
                    // Re-qualification is metadata-only: wrap in an identity
                    // projection so the new schema is carried by the plan.
                    Ok(identity_projection(plan, schema))
                }
                None => Ok(plan),
            }
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = plan_table_ref(left, ctx, steps)?;
            let r = plan_table_ref(right, ctx, steps)?;
            build_join(l, r, *kind, on.as_ref())
        }
    }
}

/// Wrap `plan` in a projection that forwards every column under `schema`.
pub fn identity_projection(plan: LogicalPlan, schema: SchemaRef) -> LogicalPlan {
    let exprs = schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| PlanExpr::column(i, f.qualified_name()))
        .collect();
    LogicalPlan::Projection {
        input: Box::new(plan),
        exprs,
        schema,
    }
}

/// Build a join node, splitting the ON condition into equi-key pairs and a
/// residual filter.
pub fn build_join(
    left: LogicalPlan,
    right: LogicalPlan,
    kind: spinner_parser::JoinKind,
    on: Option<&ast::Expr>,
) -> Result<LogicalPlan> {
    let join_type = match kind {
        spinner_parser::JoinKind::Inner => JoinType::Inner,
        spinner_parser::JoinKind::LeftOuter => JoinType::Left,
        spinner_parser::JoinKind::RightOuter => JoinType::Right,
        spinner_parser::JoinKind::FullOuter => JoinType::Full,
        spinner_parser::JoinKind::Cross => JoinType::Cross,
    };
    let lw = left.schema().len();
    let combined = Arc::new(left.schema().join(&right.schema()));
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    if let Some(cond) = on {
        let mut conjuncts = Vec::new();
        split_conjuncts_ast(cond, &mut conjuncts);
        for c in conjuncts {
            match as_equi_pair(resolve_expr(&c, &combined)?, lw) {
                Ok(pair) => keys.push(pair),
                Err(resolved) => residual.push(resolved),
            }
        }
    }
    Ok(LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        join_type,
        on: keys,
        filter: conjoin(residual),
        schema: combined,
    })
}

/// Split an AST expression into AND-connected conjuncts.
fn split_conjuncts_ast(expr: &ast::Expr, out: &mut Vec<ast::Expr>) {
    if let ast::Expr::BinaryOp {
        left,
        op: ast::BinaryOp::And,
        right,
    } = expr
    {
        split_conjuncts_ast(left, out);
        split_conjuncts_ast(right, out);
    } else {
        out.push(expr.clone());
    }
}

/// If `expr` (resolved against the combined schema) is `a = b` with `a`
/// referencing only left columns and `b` only right columns (or swapped),
/// return (left key over left schema, right key over right schema);
/// otherwise give `expr` back.
fn as_equi_pair(expr: PlanExpr, left_width: usize) -> Result<(PlanExpr, PlanExpr), PlanExpr> {
    let PlanExpr::Binary {
        left,
        op: crate::expr::BinaryOp::Eq,
        right,
    } = expr
    else {
        return Err(expr);
    };
    // `Some(true)` for a key over left columns only, `Some(false)` for one
    // over right columns only.
    let reads_left = |key: &PlanExpr| {
        let cols = key.referenced_columns();
        if cols.is_empty() {
            None
        } else if cols.iter().all(|&c| c < left_width) {
            Some(true)
        } else if cols.iter().all(|&c| c >= left_width) {
            Some(false)
        } else {
            None
        }
    };
    let over_right = |key: Box<PlanExpr>| {
        key.remap_columns(&|i| Some(i - left_width))
            .expect("a right key reads only columns past the left side")
    };
    match (reads_left(&left), reads_left(&right)) {
        (Some(true), Some(false)) => Ok((*left, over_right(right))),
        (Some(false), Some(true)) => Ok((*right, over_right(left))),
        _ => Err(PlanExpr::Binary {
            left,
            op: crate::expr::BinaryOp::Eq,
            right,
        }),
    }
}

// ---- expression resolution ---------------------------------------------

/// Resolve an AST expression against `schema` into an evaluable
/// [`PlanExpr`]. Aggregate calls are rejected (they are handled by the
/// aggregate planning path).
pub fn resolve_expr(expr: &ast::Expr, schema: &Schema) -> Result<PlanExpr> {
    translate(expr, schema, &mut schema_hook(schema, true))
}

/// The translator hook before aggregation: column references resolve
/// against `schema` — ignoring their table qualifiers unless `qualified`
/// (ORDER BY's fallback to the SELECT output) — and aggregate calls are
/// rejected.
fn schema_hook(
    schema: &Schema,
    qualified: bool,
) -> impl FnMut(&ast::Expr) -> Result<Option<PlanExpr>> + '_ {
    move |expr| match expr {
        ast::Expr::Column { relation, name } => {
            let relation = relation.as_deref().filter(|_| qualified);
            let idx = schema.index_of(relation, name)?;
            Ok(Some(PlanExpr::column(
                idx,
                schema.field(idx).qualified_name(),
            )))
        }
        ast::Expr::Function { name, .. } if aggregate_func(name).is_some() => Err(Error::plan(
            format!("aggregate function '{name}' is not allowed here"),
        )),
        _ => Ok(None),
    }
}

/// The one AST → [`PlanExpr`] translation. At every node it first asks
/// `hook`, which decides the references its caller owns — columns,
/// aggregate calls, group-by expressions — and answers `None` for the
/// nodes the translator takes apart itself. Operand-form CASE and BETWEEN
/// are desugared on the way, and a CASE, COALESCE, LEAST or GREATEST whose
/// arms mix INT and FLOAT over `schema` (what the hook's references index)
/// casts its INT arms to FLOAT ([`PlanExpr::unify_arms`]).
fn translate(
    expr: &ast::Expr,
    schema: &Schema,
    hook: &mut dyn FnMut(&ast::Expr) -> Result<Option<PlanExpr>>,
) -> Result<PlanExpr> {
    if let Some(resolved) = hook(expr)? {
        return Ok(resolved);
    }
    let node = match expr {
        ast::Expr::Column { name, .. } => {
            return Err(Error::plan(format!(
                "internal: column '{name}' left unresolved"
            )))
        }
        ast::Expr::Literal(v) => PlanExpr::Literal(v.clone()),
        ast::Expr::BinaryOp { left, op, right } => PlanExpr::Binary {
            left: Box::new(translate(left, schema, hook)?),
            op: *op,
            right: Box::new(translate(right, schema, hook)?),
        },
        ast::Expr::UnaryOp { op, expr } => PlanExpr::Unary {
            op: *op,
            expr: Box::new(translate(expr, schema, hook)?),
        },
        ast::Expr::Function { name, args, .. } => PlanExpr::Scalar {
            func: ScalarFn::from_name(name)
                .ok_or_else(|| Error::plan(format!("unknown function '{name}'")))?,
            args: args
                .iter()
                .map(|a| translate(a, schema, hook))
                .collect::<Result<_>>()?,
        },
        ast::Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let (branches, else_expr) = desugar_case(operand, branches, else_expr);
            PlanExpr::Case {
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((translate(w, schema, hook)?, translate(t, schema, hook)?)))
                    .collect::<Result<_>>()?,
                else_expr: else_expr
                    .map(|e| translate(&e, schema, hook).map(Box::new))
                    .transpose()?,
            }
        }
        ast::Expr::Cast { expr, data_type } => PlanExpr::Cast {
            expr: Box::new(translate(expr, schema, hook)?),
            to: *data_type,
        },
        ast::Expr::IsNull { expr, negated } => PlanExpr::IsNull {
            expr: Box::new(translate(expr, schema, hook)?),
            negated: *negated,
        },
        ast::Expr::InList {
            expr,
            list,
            negated,
        } => PlanExpr::InList {
            expr: Box::new(translate(expr, schema, hook)?),
            list: list
                .iter()
                .map(|e| translate(e, schema, hook))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        ast::Expr::Between {
            expr,
            low,
            high,
            negated,
        } => return translate(&desugar_between(expr, low, high, *negated), schema, hook),
    };
    Ok(node.unify_arms(schema))
}

/// Desugar operand-form CASE into searched form.
fn desugar_case(
    operand: &Option<Box<ast::Expr>>,
    branches: &[(ast::Expr, ast::Expr)],
    else_expr: &Option<Box<ast::Expr>>,
) -> (Vec<(ast::Expr, ast::Expr)>, Option<ast::Expr>) {
    let bs = match operand {
        Some(op) => branches
            .iter()
            .map(|(w, t)| {
                (
                    ast::Expr::BinaryOp {
                        left: op.clone(),
                        op: ast::BinaryOp::Eq,
                        right: Box::new(w.clone()),
                    },
                    t.clone(),
                )
            })
            .collect(),
        None => branches.to_vec(),
    };
    (bs, else_expr.as_deref().cloned())
}

/// Desugar BETWEEN into comparisons.
fn desugar_between(
    expr: &ast::Expr,
    low: &ast::Expr,
    high: &ast::Expr,
    negated: bool,
) -> ast::Expr {
    let ge = ast::Expr::BinaryOp {
        left: Box::new(expr.clone()),
        op: ast::BinaryOp::GtEq,
        right: Box::new(low.clone()),
    };
    let le = ast::Expr::BinaryOp {
        left: Box::new(expr.clone()),
        op: ast::BinaryOp::LtEq,
        right: Box::new(high.clone()),
    };
    let both = ast::Expr::BinaryOp {
        left: Box::new(ge),
        op: ast::BinaryOp::And,
        right: Box::new(le),
    };
    if negated {
        ast::Expr::UnaryOp {
            op: ast::UnaryOp::Not,
            expr: Box::new(both),
        }
    } else {
        both
    }
}

// ---- DML ----------------------------------------------------------------

fn plan_insert(
    table: &str,
    columns: Option<&[String]>,
    source: &InsertSource,
    provider: &dyn SchemaProvider,
    config: &EngineConfig,
) -> Result<PlannedStatement> {
    let table_schema = provider
        .table_schema(table)
        .ok_or_else(|| Error::TableNotFound(table.to_owned()))?;
    let source_plan = match source {
        InsertSource::Values(rows) => {
            let empty = Schema::empty();
            let mut resolved = Vec::with_capacity(rows.len());
            let width = rows.first().map(Vec::len).unwrap_or(0);
            for row in rows {
                if row.len() != width {
                    return Err(Error::plan("VALUES rows have inconsistent column counts"));
                }
                resolved.push(
                    row.iter()
                        .map(|e| resolve_expr(e, &empty))
                        .collect::<Result<Vec<_>>>()?,
                );
            }
            let fields = (0..width)
                .map(|i| Field::new(format!("col_{i}"), DataType::Null))
                .collect();
            QueryPlan::simple(LogicalPlan::Values {
                schema: Arc::new(Schema::new(fields)),
                rows: resolved,
            })
        }
        InsertSource::Query(q) => plan_query(q, provider, config)?,
    };
    // Map source columns into table positions, casting to declared types.
    let positions: Vec<usize> = match columns {
        Some(cols) => cols
            .iter()
            .map(|c| table_schema.index_of(None, c))
            .collect::<Result<_>>()?,
        None => (0..table_schema.len()).collect(),
    };
    let src_schema = source_plan.schema();
    if src_schema.len() != positions.len() {
        return Err(Error::plan(format!(
            "INSERT provides {} columns but {} are expected",
            src_schema.len(),
            positions.len()
        )));
    }
    let mut exprs: Vec<PlanExpr> = table_schema
        .fields()
        .iter()
        .map(|_| PlanExpr::Literal(Value::Null))
        .collect();
    for (src_idx, &tbl_idx) in positions.iter().enumerate() {
        exprs[tbl_idx] = PlanExpr::Cast {
            expr: Box::new(PlanExpr::column(
                src_idx,
                src_schema.field(src_idx).qualified_name(),
            )),
            to: table_schema.field(tbl_idx).data_type,
        };
    }
    let out_schema = Arc::new((*table_schema).clone());
    let root = LogicalPlan::Projection {
        input: Box::new(source_plan.root),
        exprs,
        schema: out_schema,
    };
    Ok(PlannedStatement::Insert {
        table: table.to_ascii_lowercase(),
        source: QueryPlan {
            steps: source_plan.steps,
            root,
        },
    })
}

fn plan_update(
    table: &str,
    assignments: &[(String, ast::Expr)],
    from: Option<&TableRef>,
    selection: Option<&ast::Expr>,
    provider: &dyn SchemaProvider,
    config: &EngineConfig,
) -> Result<PlannedStatement> {
    let table_schema = provider
        .table_schema(table)
        .ok_or_else(|| Error::TableNotFound(table.to_owned()))?;
    let qualified_table = table_schema.qualify_all(table);
    let mut ctx = PlanContext::new(provider, config);
    let mut steps = Vec::new();
    let from_plan = match from {
        Some(tr) => Some(plan_table_ref(tr, &mut ctx, &mut steps)?),
        None => None,
    };
    if !steps.is_empty() {
        return Err(Error::unsupported(
            "CTEs inside UPDATE ... FROM are not supported",
        ));
    }
    let combined = match &from_plan {
        Some(f) => qualified_table.join(&f.schema()),
        None => qualified_table.clone(),
    };
    // Each new value is cast to its column's declared type, as INSERT does.
    let resolved_assignments = assignments
        .iter()
        .map(|(col, e)| {
            let idx = qualified_table.index_of(None, col)?;
            let expr = PlanExpr::Cast {
                expr: Box::new(resolve_expr(e, &combined)?),
                to: table_schema.field(idx).data_type,
            };
            Ok((idx, expr))
        })
        .collect::<Result<Vec<_>>>()?;
    // `table expr = FROM expr` conjuncts are the hash keys of the FROM
    // probe; what is left filters the matched pairs, or the table alone.
    let (mut keys, mut residual) = (Vec::new(), Vec::new());
    if let Some(e) = selection {
        let mut conjuncts = Vec::new();
        split_conjuncts(&resolve_expr(e, &combined)?, &mut conjuncts);
        for c in conjuncts {
            match as_equi_pair(c, qualified_table.len()) {
                Ok(pair) => keys.push(pair),
                Err(c) => residual.push(c),
            }
        }
    }
    Ok(PlannedStatement::Update {
        table: table.to_ascii_lowercase(),
        from: from_plan,
        keys,
        assignments: resolved_assignments,
        predicate: conjoin(residual),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_parser::parse_sql;

    struct TestProvider;

    impl SchemaProvider for TestProvider {
        fn table_schema(&self, name: &str) -> Option<SchemaRef> {
            match name.to_ascii_lowercase().as_str() {
                "edges" => Some(Arc::new(Schema::new(vec![
                    Field::new("src", DataType::Int),
                    Field::new("dst", DataType::Int),
                    Field::new("weight", DataType::Float),
                ]))),
                "vertexstatus" => Some(Arc::new(Schema::new(vec![
                    Field::new("node", DataType::Int),
                    Field::new("status", DataType::Int),
                ]))),
                _ => None,
            }
        }

        fn table_primary_key(&self, _name: &str) -> Option<usize> {
            None
        }
    }

    fn plan(sql: &str) -> QueryPlan {
        let stmt = parse_sql(sql).unwrap();
        let Statement::Query(q) = stmt else {
            panic!("not a query")
        };
        plan_query(&q, &TestProvider, &EngineConfig::default()).unwrap()
    }

    fn plan_err(sql: &str) -> Error {
        let stmt = parse_sql(sql).unwrap();
        let Statement::Query(q) = stmt else {
            panic!("not a query")
        };
        plan_query(&q, &TestProvider, &EngineConfig::default()).unwrap_err()
    }

    #[test]
    fn plain_projection_schema() {
        let p = plan("SELECT src, weight * 2 AS w2 FROM edges");
        let s = p.schema();
        assert_eq!(s.names(), vec!["src", "w2"]);
        assert_eq!(s.field(1).data_type, DataType::Float);
    }

    #[test]
    fn missing_table_errors() {
        let err = plan_err("SELECT * FROM nope");
        assert!(matches!(err, Error::TableNotFound(_)));
    }

    #[test]
    fn missing_column_errors() {
        let err = plan_err("SELECT ghost FROM edges");
        assert!(matches!(err, Error::ColumnNotFound(_)));
    }

    #[test]
    fn wildcard_expands_with_qualifiers() {
        let p = plan("SELECT * FROM edges e JOIN vertexStatus v ON e.src = v.node");
        assert_eq!(p.schema().len(), 5);
    }

    #[test]
    fn join_extracts_equi_keys() {
        let p = plan(
            "SELECT e.src FROM edges e JOIN vertexStatus v ON e.src = v.node AND e.weight > 1.0",
        );
        let LogicalPlan::Projection { input, .. } = &p.root else {
            panic!()
        };
        let LogicalPlan::Join { on, filter, .. } = &**input else {
            panic!()
        };
        assert_eq!(on.len(), 1);
        assert!(filter.is_some());
    }

    #[test]
    fn aggregate_plan_shape() {
        let p = plan("SELECT src, COUNT(dst) AS friends FROM edges GROUP BY src");
        let LogicalPlan::Projection { input, schema, .. } = &p.root else {
            panic!()
        };
        assert!(matches!(&**input, LogicalPlan::Aggregate { .. }));
        assert_eq!(schema.names(), vec!["src", "friends"]);
    }

    #[test]
    fn group_by_expression_matches_select_copy() {
        // The PR query groups by `rank + delta`-style expressions.
        let p = plan("SELECT src + dst, COUNT(*) FROM edges GROUP BY src + dst");
        let LogicalPlan::Projection { exprs, .. } = &p.root else {
            panic!()
        };
        // first output is a positional ref to group column 0
        assert!(matches!(&exprs[0], PlanExpr::Column(c) if c.index == 0));
    }

    fn plan_error_text(sql: &str) -> String {
        match plan_err(sql) {
            Error::Plan(message) => message,
            other => panic!("{sql}: not a plan error: {other:?}"),
        }
    }

    #[test]
    fn non_grouped_column_rejected() {
        assert_eq!(
            plan_error_text("SELECT src, e.dst FROM edges e GROUP BY src"),
            "column 'e.dst' must appear in the GROUP BY clause or be used in an aggregate"
        );
        assert_eq!(
            plan_error_text("SELECT src FROM edges GROUP BY src HAVING dst > 1"),
            "column 'dst' must appear in the GROUP BY clause or be used in an aggregate"
        );
    }

    #[test]
    fn nested_aggregate_rejected() {
        assert_eq!(
            plan_error_text("SELECT SUM(COUNT(dst)) FROM edges GROUP BY src"),
            "nested aggregate functions are not allowed"
        );
    }

    /// The other errors the translator's hooks decide, word for word.
    #[test]
    fn aggregate_and_function_errors_keep_their_text() {
        assert_eq!(
            plan_error_text("SELECT src FROM edges WHERE SUM(dst) > 1"),
            "aggregate function 'sum' is not allowed here"
        );
        assert_eq!(
            plan_error_text("SELECT frobnicate(src) FROM edges"),
            "unknown function 'frobnicate'"
        );
        assert_eq!(
            plan_error_text("SELECT frobnicate(src), COUNT(*) FROM edges GROUP BY src"),
            "unknown function 'frobnicate' after aggregation"
        );
        assert_eq!(
            plan_error_text("SELECT src FROM edges GROUP BY src HAVING frobnicate(src) > 1"),
            "unknown function 'frobnicate' after aggregation"
        );
    }

    #[test]
    fn having_becomes_filter_over_aggregate() {
        let p = plan("SELECT src FROM edges GROUP BY src HAVING COUNT(*) > 2");
        let LogicalPlan::Projection { input, .. } = &p.root else {
            panic!()
        };
        let LogicalPlan::Filter { input: agg, .. } = &**input else {
            panic!()
        };
        assert!(matches!(&**agg, LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn regular_cte_materializes() {
        let p = plan("WITH t AS (SELECT src FROM edges) SELECT * FROM t");
        assert_eq!(p.steps.len(), 1);
        assert!(matches!(&p.steps[0], Step::Materialize { .. }));
        assert!(matches!(&p.root, LogicalPlan::Projection { .. }));
    }

    #[test]
    fn iterative_cte_produces_loop_step() {
        let p = plan(
            "WITH ITERATIVE pr (node, rank) AS (
                SELECT src, 1.0 FROM edges
             ITERATE
                SELECT node, rank * 0.5 FROM pr
             UNTIL 3 ITERATIONS)
             SELECT * FROM pr",
        );
        assert_eq!(p.steps.len(), 2);
        assert!(matches!(&p.steps[0], Step::Materialize { .. }));
        let Step::Loop(l) = &p.steps[1] else {
            panic!("expected loop step")
        };
        assert_eq!(l.cte_display_name, "pr");
        assert_eq!(l.termination, crate::TerminationPlan::Iterations(3));
        // No WHERE in Ri and optimization on => rename path (no merge).
        assert!(matches!(
            &l.kind,
            crate::LoopKind::Iterative { merge: false, .. }
        ));
    }

    /// The loop's column types: INT where anchor and body agree, FLOAT
    /// where a FLOAT reaches the column through a chain of passes (`d`
    /// widens only once `c` has), the anchor cast where it is narrower.
    #[test]
    fn loop_columns_take_the_common_type_of_anchor_and_body() {
        let p = plan(
            "WITH ITERATIVE t (k, c, d, s) AS (
                SELECT src, 0, CASE WHEN src = 1 THEN 0 ELSE 9 END, 'x' FROM edges
             ITERATE
                SELECT k, c + weight, LEAST(d, c), s FROM t JOIN edges ON src = k
             UNTIL 3 ITERATIONS)
             SELECT * FROM t",
        );
        let Step::Loop(l) = &p.steps[1] else {
            panic!("expected loop step")
        };
        let types: Vec<DataType> = l.schema.fields().iter().map(|f| f.data_type).collect();
        use DataType::*;
        assert_eq!(types, [Int, Float, Float, Text]);
        let Step::Materialize { plan: anchor, .. } = &p.steps[0] else {
            panic!("expected the anchor")
        };
        let LogicalPlan::Projection { exprs, schema, .. } = anchor else {
            panic!("the anchor's casts sit in its projection")
        };
        assert_eq!(schema.field(2).data_type, Float);
        assert_eq!(
            exprs.iter().map(ToString::to_string).collect::<Vec<_>>(),
            [
                "edges.src#0",
                "CAST(0 AS FLOAT)",
                "CAST(CASE WHEN (edges.src#0 = 1) THEN 0 ELSE 9 END AS FLOAT)",
                "'x'"
            ]
        );
        // The body was planned against the final types: its LEAST reads
        // two FLOAT columns and needs no cast.
        let body = format!("{:?}", l.body);
        assert!(!body.contains("Cast"), "{body}");
        // Temps planned twice are named once.
        assert_eq!(l.cte, "__cte_t_1");
    }

    #[test]
    fn mixed_case_coalesce_least_arms_are_cast_to_float() {
        let p = plan(
            "SELECT CASE WHEN src = 1 THEN 0 ELSE weight END, COALESCE(weight, 1), \
                    GREATEST(src, 2), LEAST(src, 2.5, NULL), COALESCE('a', 'b') FROM edges",
        );
        let LogicalPlan::Projection { exprs, schema, .. } = &p.root else {
            panic!("expected a projection")
        };
        let shown: Vec<String> = exprs.iter().map(ToString::to_string).collect();
        assert_eq!(
            shown,
            [
                "CASE WHEN (edges.src#0 = 1) THEN CAST(0 AS FLOAT) ELSE edges.weight#2 END",
                "coalesce(edges.weight#2, CAST(1 AS FLOAT))",
                "greatest(edges.src#0, 2)",
                "least(CAST(edges.src#0 AS FLOAT), 2.5, NULL)",
                "coalesce('a', 'b')",
            ]
        );
        let types: Vec<DataType> = schema.fields().iter().map(|f| f.data_type).collect();
        use DataType::*;
        assert_eq!(types, [Float, Float, Int, Float, Text]);
    }

    #[test]
    fn loop_columns_without_a_common_type_are_a_plan_error() {
        let stmt = parse_sql(
            "WITH ITERATIVE t (k, v) AS (SELECT src, 'x' FROM edges
             ITERATE SELECT k, 1 FROM t UNTIL 2 ITERATIONS) SELECT * FROM t",
        )
        .unwrap();
        let Statement::Query(q) = stmt else {
            panic!("not a query")
        };
        let err = plan_query(&q, &TestProvider, &EngineConfig::default()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "plan error: column 'v' of CTE 't' is TEXT before its iterative part and INT \
             in it, and no implicit cast joins them"
        );
    }

    #[test]
    fn iterative_cte_with_where_uses_merge() {
        let p = plan(
            "WITH ITERATIVE pr (node, rank) AS (
                SELECT src, 1.0 FROM edges
             ITERATE
                SELECT node, rank * 0.5 FROM pr WHERE node > 3
             UNTIL 3 ITERATIONS)
             SELECT * FROM pr",
        );
        let Step::Loop(l) = &p.steps[1] else { panic!() };
        assert!(matches!(
            &l.kind,
            crate::LoopKind::Iterative { merge: true, .. }
        ));
        // body: materialize working, merge, rename
        assert_eq!(l.body.len(), 3);
    }

    #[test]
    fn naive_config_forces_merge_path() {
        let stmt = parse_sql(
            "WITH ITERATIVE pr (node, rank) AS (
                SELECT src, 1.0 FROM edges
             ITERATE SELECT node, rank * 0.5 FROM pr
             UNTIL 3 ITERATIONS) SELECT * FROM pr",
        )
        .unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        let p = plan_query(&q, &TestProvider, &EngineConfig::naive()).unwrap();
        let Step::Loop(l) = &p.steps[1] else { panic!() };
        assert!(matches!(
            &l.kind,
            crate::LoopKind::Iterative { merge: true, .. }
        ));
    }

    #[test]
    fn cte_declared_column_count_checked() {
        let err = plan_err("WITH t (a, b) AS (SELECT src FROM edges) SELECT * FROM t");
        assert!(matches!(err, Error::Plan(m) if m.contains("declares")));
    }

    #[test]
    fn subquery_alias_requalifies() {
        let p = plan("SELECT q.src FROM (SELECT src FROM edges) AS q");
        assert_eq!(p.schema().names(), vec!["src"]);
    }

    #[test]
    fn union_widens_types() {
        let p = plan("SELECT src FROM edges UNION SELECT weight FROM edges");
        assert_eq!(p.schema().field(0).data_type, DataType::Float);
    }

    #[test]
    fn insert_pads_and_casts() {
        let stmt = parse_sql("INSERT INTO edges (dst) SELECT src FROM edges").unwrap();
        let planned = plan_statement(&stmt, &TestProvider, &EngineConfig::default()).unwrap();
        let PlannedStatement::Insert { source, .. } = planned else {
            panic!()
        };
        assert_eq!(source.schema().len(), 3);
    }

    #[test]
    fn update_with_from_resolves_combined_schema() {
        let stmt = parse_sql(
            "UPDATE vertexStatus SET status = e.src FROM edges AS e \
             WHERE vertexStatus.node = e.dst",
        )
        .unwrap();
        let planned = plan_statement(&stmt, &TestProvider, &EngineConfig::default()).unwrap();
        let PlannedStatement::Update {
            assignments,
            from,
            keys,
            predicate,
            ..
        } = planned
        else {
            panic!()
        };
        assert_eq!(assignments.len(), 1);
        assert_eq!(assignments[0].0, 1);
        assert!(matches!(assignments[0].1, PlanExpr::Cast { .. }));
        assert!(from.is_some());
        // The equality is the FROM probe's key pair, the FROM side rebased
        // to the FROM row; nothing is left to filter the pairs.
        let [(table_key, from_key)] = &keys[..] else {
            panic!("one key pair: {keys:?}")
        };
        assert_eq!(table_key.referenced_columns(), [0]);
        assert_eq!(from_key.referenced_columns(), [1]);
        assert!(predicate.is_none());
    }

    #[test]
    fn order_by_resolves_output_alias() {
        let p = plan("SELECT src AS s FROM edges ORDER BY s DESC LIMIT 5");
        assert!(matches!(&p.root, LogicalPlan::Limit { .. }));
    }

    #[test]
    fn select_without_from() {
        let p = plan("SELECT 1 + 1 AS two");
        assert_eq!(p.schema().names(), vec!["two"]);
    }

    #[test]
    fn recursive_cte_builds_fixed_point_loop() {
        let p = plan(
            "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 5) \
             SELECT n FROM r",
        );
        let has_loop = p.steps.iter().any(
            |s| matches!(s, Step::Loop(l) if matches!(l.kind, crate::LoopKind::FixedPoint { .. })),
        );
        assert!(has_loop);
    }
}
