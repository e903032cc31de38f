//! # rock-core
//!
//! A faithful, production-quality Rust implementation of **ROCK** (*RObust
//! Clustering using linKs*), the link-based agglomerative clustering
//! algorithm for categorical and market-basket data introduced by Guha,
//! Rastogi and Shim (ICDE 1999; *Information Systems* 25(5), 2000).
//!
//! ROCK's central idea is that pairwise similarity alone is too *local* a
//! signal for categorical data: two points belong together when they share
//! many **common neighbors** (their *link* count), not merely when they
//! look alike. The algorithm:
//!
//! 1. declares `p, q` **neighbors** when `sim(p, q) ≥ θ` (Jaccard by
//!    default) — [`neighbors`],
//! 2. counts **links** `link(p, q) = |N(p) ∩ N(q)|` — [`links`],
//! 3. agglomeratively merges the pair of clusters with the best
//!    **goodness** (cross-links normalized by the expected cross-links
//!    `(n_i+n_j)^{1+2f(θ)} − n_i^{1+2f(θ)} − n_j^{1+2f(θ)}`) — [`goodness`],
//!    [`agglomerate`],
//! 4. scales to large data by clustering a Chernoff-sized random
//!    **sample** and **labeling** the remainder — [`sampling`],
//!    [`labeling`],
//! 5. discards **outliers** up front (isolated points) and mid-run (small
//!    stagnant clusters) — [`outliers`].
//!
//! The one-stop entry point is [`rock::RockBuilder`]:
//!
//! ```
//! use rock_core::prelude::*;
//!
//! let data: TransactionSet = vec![
//!     Transaction::new([0, 1, 2]),
//!     Transaction::new([0, 1, 3]),
//!     Transaction::new([0, 2, 3]),
//!     Transaction::new([10, 11, 12]),
//!     Transaction::new([10, 11, 13]),
//!     Transaction::new([10, 12, 13]),
//! ]
//! .into_iter()
//! .collect();
//!
//! let model = RockBuilder::new(2, 0.4).build().fit(&data)?;
//! assert_eq!(model.num_clusters(), 2);
//! # Ok::<(), rock_core::RockError>(())
//! ```
//!
//! Lower-level building blocks (neighbor graphs, link tables, the merge
//! engine) are public so baselines, ablations and the
//! experiment harness can compose them directly.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod agglomerate;
mod bits;
pub mod cast;
pub mod checkpoint;
pub mod components;
pub mod contracts;
pub mod data;
pub mod dendrogram;
pub mod error;
pub mod export;
pub mod goodness;
pub mod guard;
pub mod hash;
pub mod labeling;
pub mod links;
pub mod metrics;
pub mod neighbors;
pub mod outliers;
pub mod retry;
pub mod rng;
pub mod rock;
pub mod sampling;
mod shard;
pub mod similarity;
pub mod snapshot;
pub mod stream;
pub mod summary;
pub mod telemetry;

pub use error::{Result, RockError};

/// Convenient glob-import of the common public surface.
pub mod prelude {
    pub use crate::agglomerate::{AgglomerateConfig, Agglomeration, MergeStep, PruneConfig};
    pub use crate::checkpoint::StreamCheckpoint;
    pub use crate::components::connected_components;
    pub use crate::data::{
        AttrId, CategoricalTable, ClusterId, ItemId, Schema, Transaction, TransactionSet,
        Vocabulary,
    };
    pub use crate::dendrogram::Dendrogram;
    pub use crate::error::{Result, RockError};
    pub use crate::export::{read_assignments, write_assignments};
    pub use crate::goodness::{ConstantExponent, Goodness, LinkExponent, MarketBasket};
    pub use crate::guard::{CancelToken, Degradation, Guard, RunBudget, Trip, TripReason};
    pub use crate::hash::{fnv1a64, Fnv1a64};
    pub use crate::labeling::{LabelingConfig, Representatives};
    pub use crate::links::LinkTable;
    pub use crate::metrics::{
        cluster_breakdown, densify_labels, matched_accuracy, mean_std, purity, ContingencyTable,
    };
    pub use crate::neighbors::{JoinStrategy, NeighborGraph};
    pub use crate::outliers::NeighborFilter;
    pub use crate::retry::{RetryOutcome, RetryPolicy};
    pub use crate::rng::{Rng, SliceRandom};
    pub use crate::rock::{
        Outcome, PhaseTimings, Rock, RockBuilder, RockConfig, RockModel, RockStats, SampleStrategy,
    };
    pub use crate::sampling::{chernoff_sample_size, sample_indices, seeded_rng};
    pub use crate::similarity::{Cosine, Dice, HammingRecord, Jaccard, Overlap, Similarity};
    pub use crate::snapshot::{ModelSnapshot, OutlierPolicy, SimilarityKind};
    pub use crate::stream::{ChunkSource, StreamLabeler, StreamOutcome, StreamStats};
    pub use crate::summary::{ClusterSummary, ItemSupport};
    pub use crate::telemetry::{Level, MemoryEstimate, Metrics, Observer, Phase, RunInfo};
}
