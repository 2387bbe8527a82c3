//! Output checks, each computed by the benchmark apart from the runtime.
//!
//! Nothing here calls into `naiad`: the reference results come from plain
//! sequential code over the same generated inputs, so a runtime fault
//! cannot hide by also corrupting its own reference.

use std::collections::HashMap;

/// Answer recorded for a queried user who has no component yet.
pub const NO_LABEL: u64 = u64::MAX;

/// An order-independent digest of one record.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one worker received in one `exchange` epoch: a count per key
/// slot, a digest sum, and records that match no key at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    pub counts: Vec<u32>,
    pub digest: u64,
    pub stray: u64,
}

impl Tally {
    pub fn new(slots: usize) -> Self {
        Tally {
            counts: vec![0; slots],
            digest: 0,
            stray: 0,
        }
    }

    /// Counts record `x` against the key table (slot = low bits).
    pub fn add(&mut self, keys: &[u64], x: u64) {
        let slot = (x as usize) & (keys.len() - 1);
        if keys[slot] == x {
            self.counts[slot] += 1;
        } else {
            self.stray += 1;
        }
        self.digest = self.digest.wrapping_add(mix(x));
    }
}

/// Whether the workers' tallies of one epoch deliver exactly what was
/// sent (`expected`, the tally of every record fed that epoch): each
/// record exactly once, each key on exactly one worker.
pub fn exchange_epoch_ok(expected: &Tally, received: &[Tally]) -> bool {
    if received
        .iter()
        .any(|t| t.stray != 0 || t.counts.len() != expected.counts.len())
    {
        return false;
    }
    let digest = received.iter().fold(0u64, |d, t| d.wrapping_add(t.digest));
    digest == expected.digest
        && (0..expected.counts.len()).all(|slot| {
            let mut holders = 0;
            let mut total = 0u64;
            for t in received {
                let n = t.counts[slot];
                holders += usize::from(n > 0);
                total += u64::from(n);
            }
            holders <= 1 && total == u64::from(expected.counts[slot])
        })
}

/// Whether worker 0's notifications in one `barrier` round are exactly
/// `iterations` many, at strictly increasing loop counters below it.
pub fn barrier_round_ok(counters: &[u64], iterations: u64) -> bool {
    counters.len() as u64 == iterations
        && counters.windows(2).all(|w| w[0] < w[1])
        && counters.last().is_none_or(|&c| c < iterations)
}

/// Union-find whose root is always the smallest member: the component
/// label min-label propagation converges to.
#[derive(Debug, Default, Clone)]
pub struct MinLabels {
    parent: HashMap<u64, u64>,
}

impl MinLabels {
    fn root(&mut self, x: u64) -> u64 {
        let mut r = x;
        while let Some(&p) = self.parent.get(&r) {
            if p == r {
                break;
            }
            r = p;
        }
        let mut y = x;
        while y != r {
            let next = self.parent[&y];
            self.parent.insert(y, r);
            y = next;
        }
        r
    }

    /// Adds the undirected edge `a — b`.
    pub fn union(&mut self, a: u64, b: u64) {
        self.parent.entry(a).or_insert(a);
        self.parent.entry(b).or_insert(b);
        let (ra, rb) = (self.root(a), self.root(b));
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        self.parent.insert(hi, lo);
    }

    /// The component label of `x`, or [`NO_LABEL`] if no edge touches it.
    pub fn label(&mut self, x: u64) -> u64 {
        if self.parent.contains_key(&x) {
            self.root(x)
        } else {
            NO_LABEL
        }
    }

    /// Every labelled node with its label.
    pub fn labels(&mut self) -> HashMap<u64, u64> {
        let nodes: Vec<u64> = self.parent.keys().copied().collect();
        nodes.into_iter().map(|n| (n, self.root(n))).collect()
    }
}

/// The `tweets` reference: fresh answers per epoch, and the state the
/// serving tier must hold once the stream ends.
#[derive(Debug, Clone)]
pub struct TweetsReference {
    /// `answers[e][q]`: label of epoch `e`'s `q`-th queried user as of `e`.
    pub answers: Vec<Vec<u64>>,
    pub final_labels: HashMap<u64, u64>,
    /// `(component label, hashtag) → tag events` by members of the
    /// component, over the whole stream.
    pub tag_counts: HashMap<(u64, u64), u64>,
}

impl TweetsReference {
    /// Computes the reference from each epoch's mention edges, hashtag
    /// events `(user, tag)` and queried users.
    pub fn compute(
        edges: &[Vec<(u64, u64)>],
        tags: &[Vec<(u64, u64)>],
        queries: &[Vec<u64>],
    ) -> Self {
        let mut uf = MinLabels::default();
        let answers = edges
            .iter()
            .zip(queries)
            .map(|(epoch_edges, epoch_queries)| {
                for &(a, b) in epoch_edges {
                    uf.union(a, b);
                }
                epoch_queries.iter().map(|&u| uf.label(u)).collect()
            })
            .collect();
        let final_labels = uf.labels();
        let mut tag_counts = HashMap::new();
        for &(user, tag) in tags.iter().flatten() {
            if let Some(&label) = final_labels.get(&user) {
                *tag_counts.entry((label, tag)).or_insert(0) += 1;
            }
        }
        TweetsReference {
            answers,
            final_labels,
            tag_counts,
        }
    }

    /// Whether one epoch's answers `(query index, label)` are exactly the
    /// reference labels as of that epoch.
    pub fn answers_ok(&self, epoch: usize, got: &[(u64, u64)]) -> bool {
        let want = &self.answers[epoch];
        let mut got = got.to_vec();
        got.sort_unstable();
        got.len() == want.len()
            && got
                .iter()
                .enumerate()
                .all(|(q, &(qid, label))| qid == q as u64 && label == want[q])
    }

    /// Whether the serving tier's final labels and hashtag counts match.
    /// Counts kept under labels that are no longer component labels are
    /// stale by design (the accumulating join never retracts) and are
    /// not compared.
    pub fn state_ok(&self, labels: &HashMap<u64, u64>, counts: &HashMap<(u64, u64), u64>) -> bool {
        if *labels != self.final_labels {
            return false;
        }
        let roots: std::collections::HashSet<u64> = labels.values().copied().collect();
        let current: HashMap<(u64, u64), u64> = counts
            .iter()
            .filter(|((label, _), _)| roots.contains(label))
            .map(|(&k, &v)| (k, v))
            .collect();
        current == self.tag_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<u64> {
        (0..8u64).map(|slot| (mix(slot) << 3) | slot).collect()
    }

    /// Two workers, each holding the keys of one parity.
    fn delivered(keys: &[u64], records: &[u64]) -> (Tally, Vec<Tally>) {
        let mut expected = Tally::new(keys.len());
        let mut received = vec![Tally::new(keys.len()), Tally::new(keys.len())];
        for &x in records {
            expected.add(keys, x);
            received[(x % 2) as usize].add(keys, x);
        }
        (expected, received)
    }

    #[test]
    fn exchange_accepts_exact_delivery() {
        let keys = keys();
        let records: Vec<u64> = [0, 1, 1, 2, 5, 7, 7, 7].iter().map(|&s| keys[s]).collect();
        let (expected, received) = delivered(&keys, &records);
        assert!(exchange_epoch_ok(&expected, &received));
    }

    #[test]
    fn exchange_counts_a_dropped_record_as_failed() {
        let keys = keys();
        let records: Vec<u64> = [0, 1, 1, 2, 5].iter().map(|&s| keys[s]).collect();
        let (expected, _) = delivered(&keys, &records);
        let (_, received) = delivered(&keys, &records[1..]);
        assert!(!exchange_epoch_ok(&expected, &received));
    }

    #[test]
    fn exchange_counts_a_duplicated_record_as_failed() {
        let keys = keys();
        let records: Vec<u64> = [0, 1, 1, 2, 5].iter().map(|&s| keys[s]).collect();
        let (expected, mut received) = delivered(&keys, &records);
        received[(keys[2] % 2) as usize].add(&keys, keys[2]);
        assert!(!exchange_epoch_ok(&expected, &received));
    }

    #[test]
    fn exchange_counts_a_key_split_across_workers_as_failed() {
        let keys = keys();
        let records: Vec<u64> = [3, 3].iter().map(|&s| keys[s]).collect();
        let (expected, _) = delivered(&keys, &records);
        let mut received = vec![Tally::new(keys.len()), Tally::new(keys.len())];
        received[0].add(&keys, keys[3]);
        received[1].add(&keys, keys[3]);
        assert!(!exchange_epoch_ok(&expected, &received));
    }

    #[test]
    fn exchange_counts_a_corrupted_record_as_failed() {
        let keys = keys();
        let records = vec![keys[4]];
        let (expected, _) = delivered(&keys, &records);
        let mut received = vec![Tally::new(keys.len()), Tally::new(keys.len())];
        received[0].add(&keys, keys[4] ^ (1 << 40));
        assert!(!exchange_epoch_ok(&expected, &received));
    }

    #[test]
    fn barrier_round_needs_every_iteration_in_order() {
        assert!(barrier_round_ok(&[0, 1, 2, 3], 4));
        assert!(!barrier_round_ok(&[0, 1, 3], 4), "missing notification");
        assert!(!barrier_round_ok(&[0, 1, 1, 2], 4), "repeated counter");
        assert!(!barrier_round_ok(&[0, 2, 1, 3], 4), "out of order");
        assert!(!barrier_round_ok(&[0, 1, 2, 3, 4], 4), "extra notification");
    }

    /// Labels by breadth-first search over all edges so far: a second,
    /// independent definition of the component label.
    fn bfs_label(edges: &[(u64, u64)], x: u64) -> u64 {
        if !edges.iter().any(|&(a, b)| a == x || b == x) {
            return NO_LABEL;
        }
        let mut seen = vec![x];
        let mut frontier = vec![x];
        while let Some(n) = frontier.pop() {
            for &(a, b) in edges {
                for (from, to) in [(a, b), (b, a)] {
                    if from == n && !seen.contains(&to) {
                        seen.push(to);
                        frontier.push(to);
                    }
                }
            }
        }
        seen.into_iter().min().expect("x itself")
    }

    type Pairs = Vec<Vec<(u64, u64)>>;

    /// Per-epoch edges, hashtag events and queried users.
    fn small_stream() -> (Pairs, Pairs, Vec<Vec<u64>>) {
        let edges = vec![vec![(5, 9), (7, 8)], vec![(9, 3)], vec![(8, 9), (11, 12)]];
        let tags = vec![vec![(9, 1), (4, 1)], vec![(8, 2)], vec![(12, 1), (3, 1)]];
        let queries = vec![vec![9, 7, 4], vec![5, 8], vec![7, 12, 4]];
        (edges, tags, queries)
    }

    #[test]
    fn union_find_agrees_with_search() {
        let (edges, tags, queries) = small_stream();
        let reference = TweetsReference::compute(&edges, &tags, &queries);
        let mut so_far = Vec::new();
        for (e, epoch_edges) in edges.iter().enumerate() {
            so_far.extend_from_slice(epoch_edges);
            let want: Vec<u64> = queries[e].iter().map(|&u| bfs_label(&so_far, u)).collect();
            assert_eq!(reference.answers[e], want, "epoch {e}");
        }
        assert_eq!(reference.final_labels[&7], 3);
        assert_eq!(reference.tag_counts[&(3, 1)], 2, "users 9 and 3");
        assert_eq!(reference.tag_counts[&(3, 2)], 1, "user 8");
        assert_eq!(reference.tag_counts[&(11, 1)], 1, "user 12");
        assert!(
            !reference.tag_counts.keys().any(|&(l, _)| l == 4),
            "user 4 has no edge"
        );
    }

    #[test]
    fn a_perturbed_fresh_label_is_failed() {
        let (edges, tags, queries) = small_stream();
        let reference = TweetsReference::compute(&edges, &tags, &queries);
        let right: Vec<(u64, u64)> = reference.answers[1]
            .iter()
            .copied()
            .enumerate()
            .map(|(q, l)| (q as u64, l))
            .collect();
        assert!(reference.answers_ok(1, &right));
        let mut wrong = right.clone();
        wrong[1].1 += 1;
        assert!(!reference.answers_ok(1, &wrong));
        assert!(!reference.answers_ok(1, &right[..1]), "missing answer");
    }

    #[test]
    fn a_perturbed_final_state_is_failed() {
        let (edges, tags, queries) = small_stream();
        let reference = TweetsReference::compute(&edges, &tags, &queries);
        // Stale counts under a superseded label are ignored.
        let mut counts = reference.tag_counts.clone();
        counts.insert((5, 1), 1);
        assert!(reference.state_ok(&reference.final_labels, &counts));
        let mut labels = reference.final_labels.clone();
        *labels.get_mut(&12).expect("labelled") = 12;
        assert!(!reference.state_ok(&labels, &reference.tag_counts));
        let mut counts = reference.tag_counts.clone();
        *counts.get_mut(&(3, 1)).expect("counted") += 1;
        assert!(!reference.state_ok(&reference.final_labels, &counts));
    }
}
