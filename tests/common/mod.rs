//! Shared by the chaos, spill, disk-chaos, MPP, server, property and
//! crash suites: the two recursive-CTE shapes that ride through every
//! fault, spill and restart matrix next to the iterative workloads, and
//! the leak check every suite runs its statements through. Both shapes
//! read the suites' common `edges (src, dst, weight)` table and produce
//! integers only, so any two runs compare exactly, whatever the partition
//! count.
#![allow(dead_code)]

use spinner_engine::Database;

/// Run `statement` against `db`, checking that it leaves the memory
/// accountant as it found it — no region and no resident byte behind —
/// whether it succeeds or fails. The accountant exists only under a spill
/// threshold, so this checks something in a spill configuration and in
/// every suite run with `SPINNER_SPILL_THRESHOLD` set.
pub fn leaves_nothing_tracked<T>(db: &Database, statement: impl FnOnce() -> T) -> T {
    let tracked = || (db.tracked_region_count(), db.resident_tracked_bytes());
    let before = tracked();
    let out = statement();
    assert_eq!(tracked(), before, "(regions, resident bytes) leaked");
    out
}

/// `UNION` recursion: the transitive closure of `edges` as `(src, dst)`
/// pairs. The dedup set bounds it, so it terminates on cyclic graphs.
pub fn closure_cte() -> String {
    "WITH RECURSIVE reach (src, dst) AS (
         SELECT src, dst FROM edges
         UNION
         SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src
     )
     SELECT src, dst FROM reach"
        .to_string()
}

/// `UNION ALL` recursion: one row per walk of at most `depth` edges out
/// of node 1. Nothing is deduplicated, so the depth bound is what stops
/// it on a cyclic graph.
pub fn walk_cte(depth: u64) -> String {
    format!(
        "WITH RECURSIVE walk (node, depth) AS (
             SELECT dst, 1 FROM edges WHERE src = 1
             UNION ALL
             SELECT e.dst, w.depth + 1 FROM edges e JOIN walk w ON e.src = w.node
             WHERE w.depth < {depth}
         )
         SELECT node, depth FROM walk"
    )
}
