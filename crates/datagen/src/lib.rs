//! Synthetic dataset generation.
//!
//! The paper evaluates on SNAP datasets — DBLP (317,080 nodes / 1,049,866
//! edge rows), Pokec (1,632,803 / 30,622,564) and the Google web graph
//! (875,713 / 5,105,039). Those downloads are not available offline, so
//! this crate generates *shape-preserving* synthetic graphs: a
//! preferential-attachment (Barabási–Albert-style) process reproduces the
//! heavy-tailed degree distribution, a Hamiltonian ring guarantees every
//! node has an incoming edge (true of the paper's graphs, and required for
//! the PR query's LEFT JOIN to keep ranks non-NULL), and a fixed seed makes
//! every run identical. Scale factors shrink the presets to laptop size
//! while preserving the edge/node ratio that drives the paper's relative
//! results (see DESIGN.md §2).
//!
//! A loader for real SNAP edge lists (`src<TAB>dst` lines) is provided for
//! users who have the originals.

#![forbid(unsafe_code)]

pub mod graph;
pub mod loader;
pub mod ml;
pub mod oracle;

pub use graph::{DatasetPreset, GraphSpec};
pub use loader::{
    load_edges_into, load_features_into, load_labeled_graph_into, load_normalized_edges_into,
    load_points_into, load_snap_file, load_vertex_status_into,
};
pub use ml::{FeatureSpec, LabeledGraphSpec, PointsSpec, UNLABELED};
