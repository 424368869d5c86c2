//! Multi-session workload shaping: splitting one generated query mix
//! into M per-session streams, and seeded deterministic interleavings.
//!
//! The generators in this crate produce one flat query sequence; the
//! concurrent replay tests need that sequence dealt out to M sessions,
//! plus — for the determinism checks — a reproducible global
//! interleaving of the per-session streams (same seed ⇒ same turn
//! order ⇒ same admitted entry set).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recache_engine::sql::QuerySpec;

/// Deals `specs` round-robin into `sessions` streams. Every query keeps
/// its position relative to the other queries of its stream, so a
/// serialized replay of the streams in any fair interleaving visits the
/// same queries as the original sequence.
pub fn split_round_robin(specs: &[QuerySpec], sessions: usize) -> Vec<Vec<QuerySpec>> {
    let sessions = sessions.max(1);
    let mut streams: Vec<Vec<QuerySpec>> = (0..sessions)
        .map(|s| Vec::with_capacity(specs.len().div_ceil(sessions) + usize::from(s == 0)))
        .collect();
    for (i, spec) in specs.iter().enumerate() {
        streams[i % sessions].push(spec.clone());
    }
    streams
}

/// A seeded global turn order over streams of the given lengths:
/// `turns[k]` is the stream that runs its next query at step `k`. Each
/// stream appears exactly `stream_lens[s]` times, drawn uniformly from
/// the streams with queries remaining — deterministic for a fixed seed.
pub fn seeded_turns(stream_lens: &[usize], seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c0a_1e5c_e000_0000);
    let mut remaining: Vec<usize> = stream_lens.to_vec();
    let total: usize = remaining.iter().sum();
    let mut turns = Vec::with_capacity(total);
    for _ in 0..total {
        let live: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(s, _)| s)
            .collect();
        let s = live[rng.random_range(0..live.len())];
        remaining[s] -= 1;
        turns.push(s);
    }
    turns
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_engine::plan::AggFunc;

    fn specs(n: usize) -> Vec<QuerySpec> {
        (0..n)
            .map(|i| QuerySpec {
                aggregates: vec![(AggFunc::Count, None)],
                tables: vec![format!("t{i}")],
                predicates: vec![],
                joins: vec![],
            })
            .collect()
    }

    #[test]
    fn round_robin_split_covers_every_query_once() {
        let all = specs(10);
        let streams = split_round_robin(&all, 3);
        assert_eq!(streams.len(), 3);
        assert_eq!(streams[0].len(), 4);
        assert_eq!(streams[1].len(), 3);
        assert_eq!(streams[2].len(), 3);
        let mut seen: Vec<&str> = streams
            .iter()
            .flatten()
            .map(|s| s.tables[0].as_str())
            .collect();
        seen.sort_unstable();
        let mut expected: Vec<String> = (0..10).map(|i| format!("t{i}")).collect();
        expected.sort();
        assert_eq!(
            seen,
            expected.iter().map(String::as_str).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_session_split_is_identity() {
        let all = specs(5);
        let streams = split_round_robin(&all, 1);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0], all);
    }

    #[test]
    fn seeded_turns_are_fair_and_deterministic() {
        let lens = [4usize, 3, 3];
        let turns = seeded_turns(&lens, 42);
        assert_eq!(turns.len(), 10);
        for (s, &n) in lens.iter().enumerate() {
            assert_eq!(turns.iter().filter(|&&t| t == s).count(), n);
        }
        assert_eq!(turns, seeded_turns(&lens, 42), "same seed, same order");
        assert_ne!(
            seeded_turns(&[50, 50], 1),
            seeded_turns(&[50, 50], 2),
            "different seeds should interleave differently"
        );
    }
}
