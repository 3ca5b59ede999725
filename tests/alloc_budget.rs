//! Heap allocations per statement, against a budget.
//!
//! A count, not a timing: it reads the same on this box in its worst hour
//! as in its best, and it fails the day someone reintroduces a per-row
//! allocation on the executor's hot path — a heap row per joined or
//! grouped row, a key vector per routed row, a gathered copy of a table to
//! return one row of it. The statements take 10,718 / 13,472 / 141 / 89
//! / 69 today: every operator reads its inputs as row numbers, and an
//! exchange the loop driver calls hands a table placed on its key back as
//! it is, where it turned the table into row numbers and back (10,767 /
//! 13,509 before). A group key whose first column is INT is addressed by
//! it, not hashed, a debug build checks such a batch without allocating,
//! and `LEAST`, `COALESCE` and `CASE` write typed vectors instead of
//! pushing cells one at a time. They took 11,115 / 14,222 while those keys were
//! hashed (a computed projection lists the columns it reads once per
//! call: PageRank's 10 more than 11,105), and 11,076 / 14,134 / 144
//! / 88 / 69 while an operator handed up either blocks or a join's row
//! numbers: now every
//! operator hands up row numbers, so a filter composes the rows it keeps
//! instead of copying every column (the point lookup's 3 fewer), but each
//! read of a stored result turns its blocks into one-source row numbers,
//! one allocation apiece, and so did each exchange of one then (SSSP's ≈ 90
//! more, over its iterations). The loop statements took 12,588 / 13,745 while every
//! join gathered its output columns and the aggregate over it numbered the
//! join rows, and ≈ 230 fewer than that before the planner typed
//! their columns, which plans a loop body a second time, against the
//! widened types. SSSP's count includes the check a debug build — which
//! this test runs as — makes of its merge loop's key index at every
//! iteration, by building the index again, both loops' counts the
//! working table a debug build reads to check its column types, and
//! both the key table a debug build builds again over the gathered keys
//! of every aggregate that groups a join's source rows; a
//! release build takes 10,214 / 12,518 (10,323 / 12,788 when operators
//! first handed up row numbers, 10,288 / 12,704 with two operator outputs,
//! 12,568 / 13,087 before joins handed up row numbers). SSSP took
//! 13,916 while every merge indexed the working table and gathered the
//! whole CTE anew, and the semi-naive join built a hash table over the
//! contributions every round. PageRank / SSSP took 13,088 / 15,435 while
//! a loop body's aggregate shuffled its
//! partial states on every group key and the Materialize scattered its
//! result again on the stored key; 13,794 / 15,947 while a join probe
//! collected its candidates into a chunk buffer, 13,909 / 16,056 while
//! exchanges hashed inputs already placed on their key. With partitions
//! of heap rows they took 714,832 / 411,467 / 138 /
//! 86 (PR 19), and before the key facility 3,931,418 / 1,901,903 / 147 /
//! 42,082: a loop statement now allocates per column of a block, not per
//! row, and its budget is what it takes plus 5 %. The two short statements
//! keep PR 19's budgets (145 / 90): a block of three one-cell columns is
//! eight allocations where a row was one, which they pay for by no longer
//! cloning the `Table` to read its schema or take its snapshot, listing
//! occupied partitions when they run serially anyway, or naming a span
//! nobody traces. The point `UPDATE` of spinbench's point mix takes 69
//! (77 earlier, 81 while it laid the old and updated rows end to end
//! before gathering them), against 3,247 when DML copied the partition it
//! changed to heap rows and back; its budget is what it took then plus 5 %.
//!
//! This file is its own test binary with one `#[test]`, because the
//! counting allocator is process-wide: a second test running beside it
//! would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spinner_common::{DataType, Field, Schema};
use spinner_datagen::DatasetPreset;
use spinner_engine::{Database, EngineConfig};
use spinner_procedural::{pagerank, sssp_convergent};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter beside it touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) of the second of two runs of `sql`:
/// the first fills whatever is lazily set up.
fn counted(db: &Database, sql: &str) -> u64 {
    db.execute(sql).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    db.execute(sql).unwrap();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn statements_stay_within_their_allocation_budgets() {
    // spinbench's engine and data: 2 partitions run one after the other on
    // this thread, nothing on disk (whatever SPINNER_SPILL_* says), and the
    // 6,341-node / 20,995-edge share of the DBLP graph, distributed on `dst`.
    let mut config = EngineConfig::default()
        .with_partitions(2)
        .with_parallel_partitions(false);
    config.spill_threshold_bytes = None;
    config.spill_dir = None;
    let db = Database::new(config).unwrap();
    let mut spec = DatasetPreset::Dblp.spec(0.02);
    spec.seed = 1;
    let schema = Schema::new(vec![
        Field::new("src", DataType::Int),
        Field::new("dst", DataType::Int),
        Field::new("weight", DataType::Float),
    ]);
    db.create_table_from_rows("edges", schema, spec.generate_normalized(), None, Some(1))
        .unwrap();
    spinner_datagen::load_vertex_status_into(&db, "vertexstatus", &spec, 0.5).unwrap();

    let budgets = [
        ("PageRank, 10 iterations", pagerank(10, false).cte, 11_306),
        ("SSSP to a fixpoint", sssp_convergent(1, None).cte, 14_233),
        (
            "point lookup",
            "SELECT dst, weight FROM edges WHERE src = 17".to_string(),
            145,
        ),
        ("LIMIT 1", "SELECT * FROM edges LIMIT 1".to_string(), 90),
        (
            "point UPDATE",
            "UPDATE vertexstatus SET status = 1 WHERE node = 77".to_string(),
            85,
        ),
    ];
    let mut over = Vec::new();
    for (name, sql, budget) in budgets {
        let allocations = counted(&db, &sql);
        println!("{name}: {allocations} allocations (budget {budget})");
        if allocations > budget {
            over.push(name);
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
