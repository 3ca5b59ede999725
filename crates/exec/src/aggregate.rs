//! Aggregate accumulators.
//!
//! Each accumulator supports `update` (one input value), `merge` (another
//! accumulator's state — used by the partial/final split of global
//! aggregates across partitions) and `finish`. NULL inputs are ignored by
//! every function except `COUNT(*)`, per SQL semantics; `SUM`/`MIN`/`MAX`
//! over zero non-NULL inputs yield NULL and `COUNT` yields 0.

use std::collections::HashSet;

use spinner_common::{Error, Result, Value};
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

    /// Merge another accumulator of the same kind (partial aggregation).
    /// DISTINCT accumulators merge their seen-sets.
    pub fn merge(&mut self, other: Accumulator) -> Result<()> {
        match (self, other) {
            (Accumulator::CountStar { n }, Accumulator::CountStar { n: m }) => {
                *n += m;
                Ok(())
            }
            (Accumulator::Count { n, distinct }, Accumulator::Count { n: m, distinct: od }) => {
                match (distinct, od) {
                    (Some(seen), Some(oseen)) => {
                        for v in oseen {
                            if seen.insert(v) {
                                *n += 1;
                            }
                        }
                        Ok(())
                    }
                    (None, None) => {
                        *n += m;
                        Ok(())
                    }
                    _ => Err(Error::execution("mismatched DISTINCT accumulators")),
                }
            }
            (
                Accumulator::Sum { acc, distinct },
                Accumulator::Sum {
                    acc: oacc,
                    distinct: od,
                },
            ) => match (distinct, od) {
                (Some(seen), Some(oseen)) => {
                    for v in oseen {
                        if seen.insert(v.clone()) {
                            *acc = Some(add_values(acc.take(), &v)?);
                        }
                    }
                    Ok(())
                }
                (None, None) => {
                    if let Some(v) = oacc {
                        *acc = Some(add_values(acc.take(), &v)?);
                    }
                    Ok(())
                }
                _ => Err(Error::execution("mismatched DISTINCT accumulators")),
            },
            (Accumulator::Min { acc }, Accumulator::Min { acc: o }) => {
                if let Some(v) = o {
                    let replace = match acc {
                        Some(cur) => v.cmp_total(cur).is_lt(),
                        None => true,
                    };
                    if replace {
                        *acc = Some(v);
                    }
                }
                Ok(())
            }
            (Accumulator::Max { acc }, Accumulator::Max { acc: o }) => {
                if let Some(v) = o {
                    let replace = match acc {
                        Some(cur) => v.cmp_total(cur).is_gt(),
                        None => true,
                    };
                    if replace {
                        *acc = Some(v);
                    }
                }
                Ok(())
            }
            (
                Accumulator::Avg { sum, n, distinct },
                Accumulator::Avg {
                    sum: os,
                    n: om,
                    distinct: od,
                },
            ) => match (distinct, od) {
                (Some(seen), Some(oseen)) => {
                    for v in oseen {
                        if seen.insert(v.clone()) {
                            *sum += v.as_f64()?;
                            *n += 1;
                        }
                    }
                    Ok(())
                }
                (None, None) => {
                    *sum += os;
                    *n += om;
                    Ok(())
                }
                _ => Err(Error::execution("mismatched DISTINCT accumulators")),
            },
            (
                Accumulator::ArgExtreme { max, best },
                Accumulator::ArgExtreme {
                    max: omax,
                    best: obest,
                },
            ) => {
                if *max != omax {
                    return Err(Error::execution(
                        "cannot merge ARG_MIN and ARG_MAX accumulators",
                    ));
                }
                if let Some((k, v)) = obest {
                    if Accumulator::pair_replaces(best, (&k, &v), *max) {
                        *best = Some((k, v));
                    }
                }
                Ok(())
            }
            _ => Err(Error::execution(
                "cannot merge accumulators of different kinds",
            )),
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
    /// Number of cells the partial state of `func` occupies in a
    /// partial-aggregation row (two-phase aggregation).
    pub fn state_width(func: AggFunc) -> usize {
        match func {
            AggFunc::Avg => 2,                      // (sum, count)
            AggFunc::ArgMin | AggFunc::ArgMax => 2, // (key, val)
            _ => 1,
        }
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
            Accumulator::Sum {
                acc,
                distinct: None,
            } => {
                if !cells[0].is_null() {
                    *acc = Some(add_values(acc.take(), &cells[0])?);
                }
                Ok(())
            }
            Accumulator::Min { acc } => {
                if !cells[0].is_null() {
                    let replace = match acc {
                        Some(cur) => cells[0].cmp_total(cur).is_lt(),
                        None => true,
                    };
                    if replace {
                        *acc = Some(cells[0].clone());
                    }
                }
                Ok(())
            }
            Accumulator::Max { acc } => {
                if !cells[0].is_null() {
                    let replace = match acc {
                        Some(cur) => cells[0].cmp_total(cur).is_gt(),
                        None => true,
                    };
                    if replace {
                        *acc = Some(cells[0].clone());
                    }
                }
                Ok(())
            }
            Accumulator::Avg {
                sum,
                n,
                distinct: None,
            } => {
                *sum += cells[0].as_f64()?;
                *n += cells[1].as_i64()?;
                Ok(())
            }
            Accumulator::ArgExtreme { max, best } => {
                if !cells[0].is_null()
                    && Accumulator::pair_replaces(best, (&cells[0], &cells[1]), *max)
                {
                    *best = Some((cells[0].clone(), cells[1].clone()));
                }
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
    fn merge_combines_partials() {
        let mut a = Accumulator::new(&agg(AggFunc::Sum, false));
        a.update(&Value::Int(1)).unwrap();
        let mut b = Accumulator::new(&agg(AggFunc::Sum, false));
        b.update(&Value::Int(2)).unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.finish(), Value::Int(3));
    }

    #[test]
    fn merge_distinct_counts_once() {
        let mk = || {
            let mut acc = Accumulator::new(&agg(AggFunc::Count, true));
            acc.update(&Value::Int(7)).unwrap();
            acc
        };
        let mut a = mk();
        a.merge(mk()).unwrap();
        assert_eq!(a.finish(), Value::Int(1));
    }

    #[test]
    fn merge_kind_mismatch_errors() {
        let mut a = Accumulator::new(&agg(AggFunc::Sum, false));
        let b = Accumulator::new(&agg(AggFunc::Min, false));
        assert!(a.merge(b).is_err());
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
    fn arg_extreme_merge_and_state_round_trip() {
        let mut a = Accumulator::new(&agg(AggFunc::ArgMin, false));
        a.update_pair(&Value::Int(7), &Value::Int(3)).unwrap();
        let mut b = Accumulator::new(&agg(AggFunc::ArgMin, false));
        b.update_pair(&Value::Int(8), &Value::Int(2)).unwrap();
        let mut cells = Vec::new();
        b.clone().into_state(&mut cells);
        assert_eq!(cells.len(), Accumulator::state_width(AggFunc::ArgMin));
        a.merge(b).unwrap();
        assert_eq!(a.clone().finish(), Value::Int(8));
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
}
