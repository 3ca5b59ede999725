//! Dataset setup for the `repro` binary's Table I and Figures 8–11.
//!
//! The package also hosts the workspace-level integration tests and
//! examples (repo-root `tests/` and `examples/`). Scales are chosen so
//! `repro all` finishes on a laptop while preserving each preset's
//! edge/node ratio (see DESIGN.md §2 for the substitution argument).

#![forbid(unsafe_code)]

use spinner_datagen::{load_edges_into, load_vertex_status_into, DatasetPreset, GraphSpec};
use spinner_engine::{Database, EngineConfig};

/// Default scale factors for the benchmark datasets. "dblp-like" keeps
/// DBLP's ~3.3 edges/node, "pokec-like" keeps Pokec's ~18.8 edges/node —
/// the ratio that drives the Fig. 9 contrast between the two datasets.
pub const DBLP_SCALE: f64 = 0.01;
pub const POKEC_SCALE: f64 = 0.001;

/// Named dataset for benchmark parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchDataset {
    DblpLike,
    PokecLike,
}

impl BenchDataset {
    pub fn label(self) -> &'static str {
        match self {
            BenchDataset::DblpLike => "dblp-like",
            BenchDataset::PokecLike => "pokec-like",
        }
    }

    pub fn spec(self) -> GraphSpec {
        match self {
            BenchDataset::DblpLike => DatasetPreset::Dblp.spec(DBLP_SCALE),
            BenchDataset::PokecLike => DatasetPreset::Pokec.spec(POKEC_SCALE),
        }
    }
}

/// Build a database with `edges` (and optionally `vertexStatus`, 80%
/// available, as in the PR-VS experiments) loaded.
pub fn setup_db(dataset: BenchDataset, config: EngineConfig, with_vs: bool) -> Database {
    let db = Database::new(config).expect("bench config is valid");
    let spec = dataset.spec();
    load_edges_into(&db, "edges", &spec).expect("load edges");
    if with_vs {
        load_vertex_status_into(&db, "vertexstatus", &spec, 0.8).expect("load vertexstatus");
    }
    db
}

/// Iteration count used across the figure reproductions (the paper runs
/// its comparison experiments for 25 iterations, §VII-E).
pub const ITERATIONS: u64 = 25;
