//! # ms-sssp — delta-stepping SSSP, the multisplit paper's motivating app
//!
//! Single-source shortest paths via delta-stepping (Meyer & Sanders),
//! following the GPU formulation of Davidson et al. that the paper's
//! introduction builds on. Candidate vertices are binned into distance
//! buckets of width Δ each iteration; the binning step is a multisplit,
//! and its implementation strategy is pluggable ([`Bucketing`]) so the
//! footnote-1 experiment — multisplit vs Near-Far vs radix-sort
//! bucketing — can be reproduced on generated graphs matching the cited
//! datasets ([`generators::footnote1_suite`]).
//!
//! Serial [`dijkstra()`] and [`bellman_ford`] references validate every run.

pub mod delta_stepping;
pub mod dijkstra;
pub mod generators;
pub mod graph;

pub use delta_stepping::{delta_stepping, Bucketing, SsspResult};
pub use dijkstra::{bellman_ford, dijkstra, INF};
pub use generators::{footnote1_suite, low_diameter, rmat, uniform_random};
pub use graph::CsrGraph;
