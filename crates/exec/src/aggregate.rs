//! Aggregates: the per-group accumulator and the by-column folds.
//!
//! An [`Accumulator`] is the definition of every aggregate: `update` (one
//! input value), `into_state` / `merge_state` (the partial/final split of
//! two-phase aggregation) and `finish`. NULL inputs are ignored by every
//! function except `COUNT(*)`, per SQL semantics; `SUM`/`MIN`/`MAX` over
//! zero non-NULL inputs yield NULL and `COUNT` yields 0.
//!
//! [`aggregate`] is what the operators call: one aggregate over one
//! partition whose rows already carry group numbers. `COUNT`, and `SUM`,
//! `MIN`, `MAX` and `AVG` over an integer or float column, fold into flat
//! typed state — one slot per group, by the accumulator's own rules — and
//! everything else (`DISTINCT`, `ARG_MIN`/`ARG_MAX`, text, booleans)
//! feeds one `Accumulator` per group a cell at a time.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use spinner_common::value::cmp_f64;
use spinner_common::{Column, DataType, Error, Nulls, Result, Value};
use spinner_plan::{AggExpr, AggFunc};

/// Running state for one aggregate in one group.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// `COUNT(expr)`: non-NULL input count.
    Count {
        /// Values counted so far.
        n: i64,
        /// Present for `COUNT(DISTINCT ...)`: values already seen.
        distinct: Option<HashSet<Value>>,
    },
    /// `COUNT(*)`: row count, NULLs included.
    CountStar {
        /// Rows counted so far.
        n: i64,
    },
    /// `SUM(expr)`; NULL until the first non-NULL input.
    Sum {
        /// Running sum, `None` before any non-NULL input.
        acc: Option<Value>,
        /// Present for `SUM(DISTINCT ...)`: values already seen.
        distinct: Option<HashSet<Value>>,
    },
    /// `MIN(expr)`; NULL until the first non-NULL input.
    Min {
        /// Running minimum.
        acc: Option<Value>,
    },
    /// `MAX(expr)`; NULL until the first non-NULL input.
    Max {
        /// Running maximum.
        acc: Option<Value>,
    },
    /// `AVG(expr)` over the non-NULL inputs.
    Avg {
        /// Sum of inputs as f64.
        sum: f64,
        /// Count of non-NULL inputs.
        n: i64,
        /// Present for `AVG(DISTINCT ...)`: values already seen.
        distinct: Option<HashSet<Value>>,
    },
    /// `ARG_MIN(val, key)` / `ARG_MAX(val, key)`: the `val` of the row
    /// with the extreme `key`. Rows with a NULL key are ignored. Ties on
    /// the key break by the total order on `val` (smaller wins for
    /// ARG_MIN, larger for ARG_MAX), so the selection is a fold over the
    /// lexicographic `(key, val)` order — associative and commutative,
    /// which keeps results independent of partition and merge order.
    ArgExtreme {
        /// `true` for ARG_MAX.
        max: bool,
        /// Best `(key, val)` pair so far.
        best: Option<(Value, Value)>,
    },
}

impl Accumulator {
    /// Fresh accumulator for an aggregate expression.
    pub fn new(agg: &AggExpr) -> Accumulator {
        let distinct_set = || {
            if agg.distinct {
                Some(HashSet::new())
            } else {
                None
            }
        };
        match agg.func {
            AggFunc::Count => Accumulator::Count {
                n: 0,
                distinct: distinct_set(),
            },
            AggFunc::CountStar => Accumulator::CountStar { n: 0 },
            AggFunc::Sum => Accumulator::Sum {
                acc: None,
                distinct: distinct_set(),
            },
            AggFunc::Min => Accumulator::Min { acc: None },
            AggFunc::Max => Accumulator::Max { acc: None },
            AggFunc::Avg => Accumulator::Avg {
                sum: 0.0,
                n: 0,
                distinct: distinct_set(),
            },
            AggFunc::ArgMin => Accumulator::ArgExtreme {
                max: false,
                best: None,
            },
            AggFunc::ArgMax => Accumulator::ArgExtreme {
                max: true,
                best: None,
            },
        }
    }

    /// `true` when `candidate` should replace `best` under the
    /// lexicographic `(key, val)` order of an [`Accumulator::ArgExtreme`].
    fn pair_replaces(
        best: &Option<(Value, Value)>,
        candidate: (&Value, &Value),
        max: bool,
    ) -> bool {
        let Some((bk, bv)) = best else { return true };
        let ord = candidate
            .0
            .cmp_total(bk)
            .then_with(|| candidate.1.cmp_total(bv));
        if max {
            ord.is_gt()
        } else {
            ord.is_lt()
        }
    }

    /// Feed one `(val, key)` pair into an [`Accumulator::ArgExtreme`].
    /// NULL keys are ignored, mirroring how other aggregates skip NULLs.
    pub fn update_pair(&mut self, value: &Value, key: &Value) -> Result<()> {
        let Accumulator::ArgExtreme { max, best } = self else {
            return Err(Error::execution(
                "update_pair on a single-argument accumulator",
            ));
        };
        if key.is_null() {
            return Ok(());
        }
        if Accumulator::pair_replaces(best, (key, value), *max) {
            *best = Some((key.clone(), value.clone()));
        }
        Ok(())
    }

    /// Feed one value (already evaluated from the aggregate's argument;
    /// `Value::Null` for `COUNT(*)` placeholder rows is never produced —
    /// CountStar ignores its input entirely).
    pub fn update(&mut self, value: &Value) -> Result<()> {
        match self {
            Accumulator::CountStar { n } => {
                *n += 1;
                Ok(())
            }
            Accumulator::ArgExtreme { .. } => Err(Error::execution(
                "two-argument aggregate fed a single value",
            )),
            _ if value.is_null() => Ok(()),
            Accumulator::Count { n, distinct } => {
                if let Some(seen) = distinct {
                    if !seen.insert(value.clone()) {
                        return Ok(());
                    }
                }
                *n += 1;
                Ok(())
            }
            Accumulator::Sum { acc, distinct } => {
                if let Some(seen) = distinct {
                    if !seen.insert(value.clone()) {
                        return Ok(());
                    }
                }
                *acc = Some(add_values(acc.take(), value)?);
                Ok(())
            }
            Accumulator::Min { acc } => {
                let replace = match acc {
                    Some(cur) => value.cmp_total(cur).is_lt(),
                    None => true,
                };
                if replace {
                    *acc = Some(value.clone());
                }
                Ok(())
            }
            Accumulator::Max { acc } => {
                let replace = match acc {
                    Some(cur) => value.cmp_total(cur).is_gt(),
                    None => true,
                };
                if replace {
                    *acc = Some(value.clone());
                }
                Ok(())
            }
            Accumulator::Avg { sum, n, distinct } => {
                if let Some(seen) = distinct {
                    if !seen.insert(value.clone()) {
                        return Ok(());
                    }
                }
                *sum += value.as_f64()?;
                *n += 1;
                Ok(())
            }
        }
    }

    /// Produce the aggregate result.
    pub fn finish(self) -> Value {
        match self {
            Accumulator::Count { n, .. } | Accumulator::CountStar { n } => Value::Int(n),
            Accumulator::Sum { acc, .. } => acc.unwrap_or(Value::Null),
            Accumulator::Min { acc } | Accumulator::Max { acc } => acc.unwrap_or(Value::Null),
            Accumulator::Avg { sum, n, .. } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Accumulator::ArgExtreme { best, .. } => best.map(|(_, v)| v).unwrap_or(Value::Null),
        }
    }
}

impl Accumulator {
    /// The types of the cells the partial state of `func` occupies in a
    /// partial-aggregation row (two-phase aggregation), given the types of
    /// its argument `arg` and, for ARG_MIN/ARG_MAX, of its key `key`:
    /// COUNT's count is INT; SUM, MIN and MAX hold an argument; AVG is
    /// (sum FLOAT, count INT); ARG_MIN/ARG_MAX is (key, val). Their number
    /// is the state's width.
    pub fn state_types(
        func: AggFunc,
        arg: DataType,
        key: DataType,
    ) -> impl ExactSizeIterator<Item = DataType> {
        let (types, width) = match func {
            AggFunc::Count | AggFunc::CountStar => ([DataType::Int; 2], 1),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => ([arg; 2], 1),
            AggFunc::Avg => ([DataType::Float, DataType::Int], 2),
            AggFunc::ArgMin | AggFunc::ArgMax => ([key, arg], 2),
        };
        types.into_iter().take(width)
    }

    /// Number of cells the partial state of `func` occupies.
    pub fn state_width(func: AggFunc) -> usize {
        Accumulator::state_types(func, DataType::Null, DataType::Null).len()
    }

    /// Append this accumulator's partial-state cells to `cells`. Only
    /// valid for non-DISTINCT accumulators (the planner never two-phases
    /// DISTINCT).
    pub fn into_state(self, cells: &mut Vec<Value>) {
        match self {
            Accumulator::Count { n, .. } | Accumulator::CountStar { n } => {
                cells.push(Value::Int(n))
            }
            Accumulator::Sum { acc, .. } | Accumulator::Min { acc } | Accumulator::Max { acc } => {
                cells.push(acc.unwrap_or(Value::Null))
            }
            Accumulator::Avg { sum, n, .. } => cells.extend([Value::Float(sum), Value::Int(n)]),
            Accumulator::ArgExtreme { best, .. } => {
                let (k, v) = best.unwrap_or((Value::Null, Value::Null));
                cells.extend([k, v]);
            }
        }
    }

    /// Merge partial-state cells (produced by [`Accumulator::into_state`]
    /// on another partition) into this accumulator.
    pub fn merge_state(&mut self, cells: &[Value]) -> Result<()> {
        match self {
            Accumulator::Count { n, distinct: None } | Accumulator::CountStar { n } => {
                *n += cells[0].as_i64()?;
                Ok(())
            }
            // A partial SUM, MIN or MAX is one more input (NULL: none yet),
            // a partial ARG_MIN/ARG_MAX one more `(key, val)` pair.
            Accumulator::Sum { distinct: None, .. }
            | Accumulator::Min { .. }
            | Accumulator::Max { .. } => self.update(&cells[0]),
            Accumulator::ArgExtreme { .. } => self.update_pair(&cells[1], &cells[0]),
            Accumulator::Avg {
                sum,
                n,
                distinct: None,
            } => {
                *sum += cells[0].as_f64()?;
                *n += cells[1].as_i64()?;
                Ok(())
            }
            _ => Err(Error::execution(
                "DISTINCT accumulators cannot merge partial states",
            )),
        }
    }
}

/// SUM addition: integers stay integers (with overflow checks), any float
/// widens the accumulator to float.
fn add_values(acc: Option<Value>, v: &Value) -> Result<Value> {
    let acc = match acc {
        None => return Ok(v.clone()),
        Some(a) => a,
    };
    match (&acc, v) {
        (Value::Int(a), Value::Int(b)) => a
            .checked_add(*b)
            .map(Value::Int)
            .ok_or_else(|| Error::Arithmetic("integer overflow in SUM".into())),
        _ => Ok(Value::Float(acc.as_f64()? + v.as_f64()?)),
    }
}

/// Where in an aggregation a call to [`aggregate`] stands: what its
/// inputs are and what it emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Argument columns in, finished values out.
    Single,
    /// Argument columns in, partial-state columns out
    /// ([`Accumulator::state_width`] of them).
    Partial,
    /// Partial-state columns in, finished values out.
    Final,
}

/// One slot per group, folded over the non-NULL cells of `data` in row
/// order — so the first failing row is the one reported.
fn fold<T: Copy, A: Copy>(
    init: A,
    (groups, count): (&[u32], usize),
    (data, nulls): (&[T], &Nulls),
    step: impl Fn(&mut A, T) -> Result<()>,
) -> Result<Vec<A>> {
    let mut slots = vec![init; count];
    match nulls.any() {
        false => fold_runs(&mut slots, groups, data, |_| true, step)?,
        true => fold_runs(&mut slots, groups, data, |row| !nulls.is_null(row), step)?,
    }
    Ok(slots)
}

/// [`fold`] over the rows `live` holds for. Rows come in runs of one
/// group (an aggregate over a join meets each source row's output rows
/// together), so the run's slot is held in a local, and written back when
/// the group changes: the same steps in the same order as folding into
/// the slots row by row, so the same bits.
fn fold_runs<T: Copy, A: Copy>(
    slots: &mut [A],
    groups: &[u32],
    data: &[T],
    live: impl Fn(usize) -> bool,
    step: impl Fn(&mut A, T) -> Result<()>,
) -> Result<()> {
    let Some(&first) = groups.first() else {
        return Ok(());
    };
    let (mut group, mut held) = (first, slots[first as usize]);
    for (row, (&next, &x)) in groups.iter().zip(data).enumerate() {
        if next != group {
            slots[group as usize] = held;
            (group, held) = (next, slots[next as usize]);
        }
        if live(row) {
            step(&mut held, x)?;
        }
    }
    slots[group as usize] = held;
    Ok(())
}

/// `SUM`: the first value as it is, then `add` (as `add_values` does).
fn sums<T: Copy>(
    groups: (&[u32], usize),
    column: (&[T], &Nulls),
    add: impl Fn(T, T) -> Result<T>,
) -> Result<Vec<Option<T>>> {
    fold(None, groups, column, |slot, x| {
        *slot = Some(match *slot {
            None => x,
            Some(sum) => add(sum, x)?,
        });
        Ok(())
    })
}

/// `MIN` / `MAX` by the total order `cmp` (that of `Cell::cmp_total`); a
/// tie keeps the earlier cell.
fn extremes<T: Copy>(
    func: AggFunc,
    groups: (&[u32], usize),
    column: (&[T], &Nulls),
    cmp: impl Fn(T, T) -> Ordering,
) -> Result<Vec<Option<T>>> {
    let replaces = match func {
        AggFunc::Min => Ordering::Less,
        _ => Ordering::Greater,
    };
    fold(None, groups, column, |slot: &mut Option<T>, x| {
        if slot.is_none_or(|held| cmp(x, held) == replaces) {
            *slot = Some(x);
        }
        Ok(())
    })
}

/// `AVG` as `(sum, count)` slots: over an argument column, or merging the
/// two state columns of a partial phase.
fn averages(
    phase: Phase,
    inputs: &[Arc<Column>],
    groups: (&[u32], usize),
) -> Result<Option<Vec<Column>>> {
    let add = |slot: &mut (f64, i64), (sum, n): (f64, i64)| {
        *slot = (slot.0 + sum, slot.1 + n);
        Ok(())
    };
    let inputs: Vec<&Column> = inputs.iter().map(|column| &**column).collect();
    let slots = match (phase, inputs.as_slice()) {
        (Phase::Final, [Column::Float(sums, sn), Column::Int(ns, nn)])
            if !sn.any() && !nn.any() =>
        {
            let states: Vec<(f64, i64)> = sums.iter().copied().zip(ns.iter().copied()).collect();
            fold((0.0, 0), groups, (&states, sn), add)?
        }
        (Phase::Final, _) => return Ok(None),
        (_, [Column::Int(data, nulls)]) => fold((0.0, 0), groups, (data, nulls), |slot, x| {
            add(slot, (x as f64, 1))
        })?,
        (_, [Column::Float(data, nulls)]) => {
            fold((0.0, 0), groups, (data, nulls), |slot, x| add(slot, (x, 1)))?
        }
        _ => return Ok(None),
    };
    Ok(Some(if phase == Phase::Partial {
        let (sums, ns) = slots.into_iter().unzip();
        vec![
            Column::Float(sums, Nulls::new()),
            Column::Int(ns, Nulls::new()),
        ]
    } else {
        let averages = slots
            .into_iter()
            .map(|(sum, n)| (n != 0).then(|| sum / n as f64));
        vec![Column::from_floats(averages)]
    }))
}

/// The flat typed folds of [`aggregate`]; `None` when the aggregate or
/// what its input columns hold calls for accumulators.
fn aggregate_typed(
    agg: &AggExpr,
    phase: Phase,
    inputs: &[Arc<Column>],
    groups: (&[u32], usize),
) -> Result<Option<Vec<Column>>> {
    use AggFunc::*;
    let counts = |slots: Vec<i64>| Column::from_ints(slots.into_iter().map(Some));
    let column = match (agg.func, inputs) {
        _ if agg.distinct => return Ok(None),
        (Avg, _) => return averages(phase, inputs, groups),
        // COUNT of argument cells: the rows of each group, or those of
        // them whose cell is not NULL.
        (CountStar, []) | (Count, [_]) if phase != Phase::Final => {
            let mut slots = vec![0i64; groups.1];
            let counted = |row: &usize| inputs.first().is_none_or(|c| !c.is_null(*row));
            for row in (0..groups.0.len()).filter(counted) {
                slots[groups.0[row] as usize] += 1;
            }
            return Ok(Some(vec![counts(slots)]));
        }
        (_, [column]) => &**column,
        _ => return Ok(None),
    };
    // From here a cell is folded the same way whether it is an argument
    // or another partition's partial state (partial counts add up).
    let overflow = || Error::Arithmetic("integer overflow in SUM".into());
    Ok(Some(vec![match (agg.func, column) {
        (Count | CountStar, Column::Int(data, nulls)) if !nulls.any() => {
            counts(fold(0, groups, (data, nulls), |n, m| {
                *n += m;
                Ok(())
            })?)
        }
        (Sum, Column::Int(data, nulls)) => {
            let add = |a: i64, b| a.checked_add(b).ok_or_else(overflow);
            Column::from_ints(sums(groups, (data, nulls), add)?)
        }
        (Sum, Column::Float(data, nulls)) => {
            Column::from_floats(sums(groups, (data, nulls), |a, b| Ok(a + b))?)
        }
        (Min | Max, Column::Int(data, nulls)) => {
            Column::from_ints(extremes(agg.func, groups, (data, nulls), |a: i64, b| {
                a.cmp(&b)
            })?)
        }
        (Min | Max, Column::Float(data, nulls)) => {
            Column::from_floats(extremes(agg.func, groups, (data, nulls), cmp_f64)?)
        }
        _ => return Ok(None),
    }]))
}

/// One aggregate over one partition: row `i` of `inputs` belongs to group
/// `groups[i]` of `count`; the result has one row per group. `inputs`
/// are the aggregate's evaluated argument(s) — value, then ordering key
/// for `ARG_MIN`/`ARG_MAX`, nothing for `COUNT(*)` — or, in the
/// [`Phase::Final`] phase, the partial-state columns an earlier
/// [`Phase::Partial`] call emitted.
pub fn aggregate(
    agg: &AggExpr,
    phase: Phase,
    inputs: &[Arc<Column>],
    groups: &[u32],
    count: usize,
) -> Result<Vec<Column>> {
    if let Some(columns) = aggregate_typed(agg, phase, inputs, (groups, count))? {
        return Ok(columns);
    }
    let mut accs: Vec<Accumulator> = (0..count).map(|_| Accumulator::new(agg)).collect();
    let mut cells: Vec<Value> = Vec::new();
    for (row, &group) in groups.iter().enumerate() {
        let acc = &mut accs[group as usize];
        cells.clear();
        cells.extend(inputs.iter().map(|column| column.value(row)));
        match (phase, cells.as_slice()) {
            (Phase::Final, state) => acc.merge_state(state)?,
            (_, [value, key]) => acc.update_pair(value, key)?,
            (_, [value]) => acc.update(value)?,
            (_, _) => acc.update(&Value::Null)?,
        }
    }
    let width = match phase {
        Phase::Partial => Accumulator::state_width(agg.func),
        _ => 1,
    };
    let mut out = vec![Column::new(); width];
    for acc in accs {
        cells.clear();
        match phase {
            Phase::Partial => acc.into_state(&mut cells),
            _ => cells.push(acc.finish()),
        }
        for (column, cell) in out.iter_mut().zip(cells.drain(..)) {
            column.push(cell);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(func: AggFunc, distinct: bool) -> AggExpr {
        AggExpr {
            func,
            arg: None,
            by: None,
            distinct,
            name: "a".into(),
        }
    }

    #[test]
    fn count_ignores_nulls_count_star_does_not() {
        let mut c = Accumulator::new(&agg(AggFunc::Count, false));
        let mut cs = Accumulator::new(&agg(AggFunc::CountStar, false));
        for v in [Value::Int(1), Value::Null, Value::Int(2)] {
            c.update(&v).unwrap();
            cs.update(&v).unwrap();
        }
        assert_eq!(c.finish(), Value::Int(2));
        assert_eq!(cs.finish(), Value::Int(3));
    }

    #[test]
    fn sum_empty_is_null() {
        let s = Accumulator::new(&agg(AggFunc::Sum, false));
        assert!(s.finish().is_null());
    }

    #[test]
    fn sum_int_stays_int_mixed_widens() {
        let mut s = Accumulator::new(&agg(AggFunc::Sum, false));
        s.update(&Value::Int(1)).unwrap();
        s.update(&Value::Int(2)).unwrap();
        assert_eq!(s.finish(), Value::Int(3));
        let mut s = Accumulator::new(&agg(AggFunc::Sum, false));
        s.update(&Value::Int(1)).unwrap();
        s.update(&Value::Float(0.5)).unwrap();
        assert_eq!(s.finish(), Value::Float(1.5));
    }

    #[test]
    fn distinct_sum_dedupes() {
        let mut s = Accumulator::new(&agg(AggFunc::Sum, true));
        for v in [Value::Int(5), Value::Int(5), Value::Int(3)] {
            s.update(&v).unwrap();
        }
        assert_eq!(s.finish(), Value::Int(8));
    }

    #[test]
    fn min_max_track_extremes() {
        let mut mn = Accumulator::new(&agg(AggFunc::Min, false));
        let mut mx = Accumulator::new(&agg(AggFunc::Max, false));
        for v in [Value::Int(3), Value::Int(1), Value::Int(2)] {
            mn.update(&v).unwrap();
            mx.update(&v).unwrap();
        }
        assert_eq!(mn.finish(), Value::Int(1));
        assert_eq!(mx.finish(), Value::Int(3));
    }

    #[test]
    fn avg_is_float() {
        let mut a = Accumulator::new(&agg(AggFunc::Avg, false));
        a.update(&Value::Int(1)).unwrap();
        a.update(&Value::Int(2)).unwrap();
        assert_eq!(a.finish(), Value::Float(1.5));
    }

    #[test]
    fn arg_min_tracks_value_at_smallest_key() {
        let mut a = Accumulator::new(&agg(AggFunc::ArgMin, false));
        a.update_pair(&Value::Int(10), &Value::Float(3.0)).unwrap();
        a.update_pair(&Value::Int(20), &Value::Float(1.0)).unwrap();
        a.update_pair(&Value::Int(30), &Value::Float(2.0)).unwrap();
        assert_eq!(a.finish(), Value::Int(20));
    }

    #[test]
    fn arg_extreme_ignores_null_keys_and_empty_is_null() {
        let mut a = Accumulator::new(&agg(AggFunc::ArgMax, false));
        a.update_pair(&Value::Int(1), &Value::Null).unwrap();
        assert!(a.clone().finish().is_null());
        a.update_pair(&Value::Int(2), &Value::Int(5)).unwrap();
        assert_eq!(a.finish(), Value::Int(2));
    }

    #[test]
    fn arg_extreme_tie_breaks_on_value() {
        // Equal keys: ARG_MIN keeps the smaller value, ARG_MAX the larger
        // — regardless of arrival order, so partitioning cannot matter.
        for flip in [false, true] {
            let mut mn = Accumulator::new(&agg(AggFunc::ArgMin, false));
            let mut mx = Accumulator::new(&agg(AggFunc::ArgMax, false));
            let (first, second) = if flip { (9, 4) } else { (4, 9) };
            for v in [first, second] {
                mn.update_pair(&Value::Int(v), &Value::Int(1)).unwrap();
                mx.update_pair(&Value::Int(v), &Value::Int(1)).unwrap();
            }
            assert_eq!(mn.finish(), Value::Int(4));
            assert_eq!(mx.finish(), Value::Int(9));
        }
    }

    #[test]
    fn arg_extreme_state_round_trip() {
        let mut a = Accumulator::new(&agg(AggFunc::ArgMin, false));
        a.update_pair(&Value::Int(7), &Value::Int(3)).unwrap();
        let mut b = Accumulator::new(&agg(AggFunc::ArgMin, false));
        b.update_pair(&Value::Int(8), &Value::Int(2)).unwrap();
        let mut cells = Vec::new();
        b.into_state(&mut cells);
        assert_eq!(cells.len(), Accumulator::state_width(AggFunc::ArgMin));
        let mut c = Accumulator::new(&agg(AggFunc::ArgMin, false));
        c.update_pair(&Value::Int(7), &Value::Int(3)).unwrap();
        c.merge_state(&cells).unwrap();
        assert_eq!(c.finish(), Value::Int(8));
    }

    #[test]
    fn arg_extreme_rejects_single_value_update() {
        let mut a = Accumulator::new(&agg(AggFunc::ArgMin, false));
        assert!(a.update(&Value::Int(1)).is_err());
        let mut s = Accumulator::new(&agg(AggFunc::Sum, false));
        assert!(s.update_pair(&Value::Int(1), &Value::Int(2)).is_err());
    }

    /// The flat typed folds against one `Accumulator` per group fed a
    /// cell at a time, to the bit — every function, phase and column type,
    /// NULLs and null-free columns, groups interleaved and in runs, empty
    /// groups, integer overflow — and partial + final against
    /// single-phase. The null-free FLOAT columns catch a sum added in
    /// another order (`(1 + 1e16) − 1e16` is 0, `1 + (1e16 − 1e16)` is 1)
    /// and a `MIN`/`MAX` tie that keeps the later of `0.0` and `-0.0`.
    #[test]
    fn typed_folds_equal_the_accumulator() {
        let columns: Vec<Column> = vec![
            Column::from_ints([Some(3), None, Some(-1), Some(7), Some(3), None]),
            Column::from_floats([
                Some(0.5),
                Some(-0.0),
                None,
                Some(f64::NAN),
                Some(0.0),
                Some(2.5),
            ]),
            Column::from_ints([None; 6]),
            Column::from_ints([
                Some(i64::MAX),
                Some(1),
                Some(1),
                Some(2),
                Some(i64::MAX),
                Some(0),
            ]),
            Column::from_ints([5, -2, 9, 4, -7, 1].map(Some)),
            Column::from_floats([1.0, 0.5, 1e16, 1.0, -1e16, -1e16].map(Some)),
            Column::from_floats([-0.0, 0.0, f64::NAN, 0.0, -0.0, f64::NAN].map(Some)),
        ];
        let interleaved: [u32; 6] = [0, 1, 0, 3, 1, 0];
        let runs: [u32; 6] = [0, 0, 1, 1, 1, 3];
        let count = 4; // group 2 is empty
        let by_accumulator =
            |agg: &AggExpr, input: &Column, groups: &[u32]| -> Result<Vec<Value>> {
                let mut accs: Vec<Accumulator> =
                    (0..count).map(|_| Accumulator::new(agg)).collect();
                for (row, &group) in groups.iter().enumerate() {
                    accs[group as usize].update(&input.value(row))?;
                }
                Ok(accs.into_iter().map(Accumulator::finish).collect())
            };
        // The one column folded is `want`'s cells to the bit, or both fail.
        let same =
            |got: Result<Vec<Column>>, want: &Result<Vec<Value>>, what: &str| match (got, want) {
                (Ok(got), Ok(want)) => {
                    let mut cells = Column::new();
                    want.iter().for_each(|value| cells.push(value.clone()));
                    let equal = |row| got[0].same_cell(row, &cells, row);
                    assert!(
                        got.len() == 1 && got[0].len() == want.len() && (0..want.len()).all(equal),
                        "{what}: {got:?}, want {want:?}"
                    );
                }
                (got, want) => assert_eq!(
                    format!("{:?}", got.map(drop)),
                    format!("{:?}", want.as_ref().map(drop)),
                    "{what}"
                ),
            };
        use AggFunc::*;
        for (func, groups) in [Count, CountStar, Sum, Min, Max, Avg]
            .into_iter()
            .flat_map(|func| [(func, &interleaved), (func, &runs)])
        {
            for input in &columns {
                let agg = agg(func, false);
                let inputs = if func == CountStar {
                    vec![]
                } else {
                    vec![Arc::new(input.clone())]
                };
                assert!(
                    aggregate_typed(&agg, Phase::Single, &inputs, (groups, count))
                        .is_ok_and(|c| c.is_some())
                        || func == Sum,
                    "{func}: typed"
                );
                let what = format!("{func} over {input:?} by {groups:?}");
                let single = aggregate(&agg, Phase::Single, &inputs, groups, count);
                let want = by_accumulator(&agg, input, groups);
                same(single, &want, &what);
                // Two phases: the partial states of each half, then merged.
                let halves = [0..3usize, 3..6];
                let partials: Result<Vec<Vec<Column>>> = halves
                    .iter()
                    .map(|half| {
                        let part: Vec<Arc<Column>> = inputs
                            .iter()
                            .map(|c| {
                                Arc::new(
                                    c.gather(&half.clone().map(|r| r as u32).collect::<Vec<_>>()),
                                )
                            })
                            .collect();
                        aggregate(&agg, Phase::Partial, &part, &groups[half.clone()], count)
                    })
                    .collect();
                let Ok(partials) = partials else {
                    assert!(want.is_err(), "only an overflow fails a phase");
                    continue;
                };
                let states: Vec<Arc<Column>> = (0..Accumulator::state_width(func))
                    .map(|c| {
                        let mut both = partials[0][c].clone();
                        both.extend_from(&partials[1][c], 0..count as u32);
                        Arc::new(both)
                    })
                    .collect();
                let state_groups: Vec<u32> = (0..count as u32).chain(0..count as u32).collect();
                let merged = aggregate(&agg, Phase::Final, &states, &state_groups, count);
                // Merged, the sums of 1e16 and its neighbours are added in
                // another order.
                let reordered = func == Sum && std::ptr::eq(input, &columns[5]);
                if !reordered && func != Avg || want.is_err() {
                    same(merged, &want, &format!("{what}, merged"));
                }
            }
        }
        let groups = interleaved;
        let values = |columns: Vec<Column>| -> Vec<Value> {
            (0..columns[0].len())
                .map(|row| columns[0].value(row))
                .collect()
        };
        // DISTINCT, text and cells that disagree go to the accumulators.
        let text = Arc::new(Column::repeat(&Value::Text("a".into()), 6));
        assert!(aggregate_typed(
            &agg(Min, false),
            Phase::Single,
            &[Arc::clone(&text)],
            (&groups, count)
        )
        .unwrap()
        .is_none());
        let ints = Arc::new(columns[0].clone());
        assert!(aggregate_typed(
            &agg(Sum, true),
            Phase::Single,
            &[Arc::clone(&ints)],
            (&groups, count)
        )
        .unwrap()
        .is_none());
        let distinct =
            aggregate(&agg(Sum, true), Phase::Single, &[ints], &groups, count).map(values);
        assert_eq!(
            format!("{distinct:?}"),
            "Ok([Int(2), Int(3), Null, Int(7)])"
        );
        let min = aggregate(&agg(Min, false), Phase::Single, &[text], &groups, count)
            .map(values)
            .unwrap();
        assert_eq!(min[2], Value::Null);
        assert_eq!(min[0], Value::from("a"));
    }
}
