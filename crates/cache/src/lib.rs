//! ReCache's cache policies: the paper's primary contribution.
//!
//! * [`stats`] — per-entry cost measurements (`n`, `t`, `c`, `s`, `l`,
//!   `B`) and the benefit metric `b(p) = n·(t + c − s − l)/log₂(B)`
//!   (Fig. 8),
//! * [`eviction`] — Algorithm 1 (a Greedy-Dual instance with a
//!   size-descending batch heuristic) plus the baselines the paper
//!   compares against: LRU, LFU, Proteus' LRU-with-JSON-priority, the
//!   MonetDB and Vectorwise recyclers, and two offline algorithms
//!   (farthest-first and a log-optimal approximation),
//! * [`admission`] — the reactive eager/lazy admission controller of
//!   §5.2 (sampled caching-overhead extrapolation against a threshold),
//! * [`layout_model`] — the automatic layout selector of §4.2 (Eqs. 1–5)
//!   for nested items (flat items stay columnar),
//! * [`registry`] — the cache itself: exact-match signatures, R-tree
//!   range-predicate subsumption (§3.3), stat upkeep and eviction
//!   driving.

pub mod admission;
pub mod eviction;
pub mod layout_model;
pub mod registry;
pub mod stats;

pub use admission::{AdmissionConfig, AdmissionDecision};
pub use eviction::{
    EvictView, EvictionContext, EvictionKind, EvictionPolicy, FarthestFirst, GreedyDualRecache,
    Lfu, LogOptimal, Lru, LruJsonPriority, MonetDbRecycler, VectorwiseRecycler,
};
pub use layout_model::{LayoutDecision, LayoutHistory, QueryObservation};
pub use registry::{
    CacheEntry, CacheRegistry, EntryId, EntrySnapshot, FutureOracle, InvalidationListener,
    LeafRange, MatchResult,
};
pub use stats::{EntryStats, RegistryCounters};
