//! Checkpoint group formation (paper §4.1).

use gbcr_mpi::Rank;

/// How checkpoint groups are formed for an epoch.
#[derive(Debug, Clone)]
pub enum Formation {
    /// Groups of `group_size` consecutive global ranks (the paper's static
    /// formation: "based on a user-defined group size and the global rank
    /// of each process").
    Static {
        /// Number of processes per group (last group may be smaller).
        group_size: u32,
    },
    /// Analyze measured communication traffic at runtime: build a weighted
    /// communication graph, take the transitive closure of *frequent*
    /// communication (union-find over edges carrying at least
    /// `frequent_fraction` of the busiest edge's message count), and use
    /// those closures as groups. If the closure analysis degenerates into
    /// one global group (the application "mainly does global
    /// communication"), fall back to static formation with
    /// `fallback_group_size`.
    Dynamic {
        /// Edge weight threshold as a fraction of the maximum edge weight.
        frequent_fraction: f64,
        /// Static group size used when the pattern is global.
        fallback_group_size: u32,
        /// Closures larger than this also trigger the static fallback
        /// (a near-global closure gains nothing and costs analysis).
        max_group_size: u32,
    },
}

impl Formation {
    /// Regular (non-group) coordinated checkpointing — the paper's baseline
    /// \[14] — is group-based checkpointing with a single all-rank group.
    pub fn regular(n: u32) -> Self {
        Formation::Static { group_size: n }
    }
}

/// One rank's measured traffic: `(peer, messages, bytes)` rows.
pub type TrafficRows = Vec<(Rank, u64, u64)>;

/// A concrete partition of the job's ranks into ordered checkpoint groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    groups: Vec<Vec<Rank>>,
    group_of: Vec<usize>,
}

impl GroupPlan {
    /// Build a plan from explicit groups; validates that every rank in
    /// `0..n` appears exactly once.
    pub fn new(n: u32, groups: Vec<Vec<Rank>>) -> Self {
        let mut group_of = vec![usize::MAX; n as usize];
        for (gi, g) in groups.iter().enumerate() {
            assert!(!g.is_empty(), "empty checkpoint group {gi}");
            for &r in g {
                assert!(r < n, "rank {r} out of range");
                assert_eq!(group_of[r as usize], usize::MAX, "rank {r} in two groups");
                group_of[r as usize] = gi;
            }
        }
        assert!(
            group_of.iter().all(|&g| g != usize::MAX),
            "some rank belongs to no checkpoint group"
        );
        GroupPlan { groups, group_of }
    }

    /// Static formation by rank.
    pub fn by_size(n: u32, group_size: u32) -> Self {
        let group_size = group_size.clamp(1, n);
        let groups = (0..n)
            .collect::<Vec<_>>()
            .chunks(group_size as usize)
            .map(<[Rank]>::to_vec)
            .collect();
        Self::new(n, groups)
    }

    /// Dynamic formation from per-rank traffic vectors
    /// (`traffic[r] = [(peer, msgs, bytes)]`). See [`Formation::Dynamic`].
    pub fn dynamic(
        n: u32,
        traffic: &[TrafficRows],
        frequent_fraction: f64,
        fallback_group_size: u32,
        max_group_size: u32,
    ) -> Self {
        assert_eq!(traffic.len(), n as usize, "traffic vector per rank required");
        // Symmetrize the message-count matrix.
        let idx = |a: Rank, b: Rank| a as usize * n as usize + b as usize;
        let mut w = vec![0u64; n as usize * n as usize];
        for (r, rows) in traffic.iter().enumerate() {
            for &(peer, msgs, _bytes) in rows {
                w[idx(r as Rank, peer)] += msgs;
                w[idx(peer, r as Rank)] += msgs;
            }
        }
        let max_w = w.iter().copied().max().unwrap_or(0);
        if max_w == 0 {
            // No traffic at all: embarrassingly parallel; static grouping.
            return Self::by_size(n, fallback_group_size);
        }
        let threshold = ((max_w as f64) * frequent_fraction).max(1.0) as u64;
        // Union-find over frequent edges: the transitive closure of
        // frequently-communicating processes.
        let mut uf = UnionFind::new(n as usize);
        for a in 0..n {
            for b in (a + 1)..n {
                if w[idx(a, b)] >= threshold {
                    uf.union(a as usize, b as usize);
                }
            }
        }
        let mut closures: Vec<Vec<Rank>> = Vec::new();
        let mut root_to_group = std::collections::HashMap::<usize, usize>::new();
        for r in 0..n {
            let root = uf.find(r as usize);
            let gi = *root_to_group.entry(root).or_insert_with(|| {
                closures.push(Vec::new());
                closures.len() - 1
            });
            closures[gi].push(r);
        }
        let biggest = closures.iter().map(Vec::len).max().unwrap_or(0) as u32;
        if biggest > max_group_size {
            // Mainly global communication: fall back to static formation to
            // limit the analysis cost (paper §4.1).
            return Self::by_size(n, fallback_group_size);
        }
        Self::new(n, closures)
    }

    /// Build the plan a [`Formation`] describes (dynamic needs traffic).
    pub fn from_formation(
        n: u32,
        formation: &Formation,
        traffic: Option<&[TrafficRows]>,
    ) -> Self {
        match formation {
            Formation::Static { group_size } => Self::by_size(n, *group_size),
            Formation::Dynamic { frequent_fraction, fallback_group_size, max_group_size } => {
                let t = traffic.expect("dynamic formation requires traffic data");
                Self::dynamic(n, t, *frequent_fraction, *fallback_group_size, *max_group_size)
            }
        }
    }

    /// The ordered groups.
    pub fn groups(&self) -> &[Vec<Rank>] {
        &self.groups
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Which group `rank` belongs to.
    pub fn group_of(&self, rank: Rank) -> usize {
        self.group_of[rank as usize]
    }

    /// The full `rank → group` map.
    pub fn group_map(&self) -> &[usize] {
        &self.group_of
    }

    /// Members of group `g`.
    pub fn members(&self, g: usize) -> &[Rank] {
        &self.groups[g]
    }

    /// Re-form the plan over the survivors of `failed`: dead ranks are
    /// struck from their groups (groups emptied entirely are dropped) and
    /// appended as trailing singleton groups, keeping the "every rank in
    /// exactly one group" invariant the wire encoding relies on while
    /// guaranteeing no surviving group ever gates on — or waits for — a
    /// dead member. With `failed` empty this is the identity.
    pub fn reform(&self, failed: &[Rank]) -> Self {
        if failed.is_empty() {
            return self.clone();
        }
        let n = self.group_of.len() as u32;
        let mut groups: Vec<Vec<Rank>> = self
            .groups
            .iter()
            .map(|g| g.iter().copied().filter(|r| !failed.contains(r)).collect::<Vec<_>>())
            .filter(|g| !g.is_empty())
            .collect();
        let mut dead: Vec<Rank> = failed.to_vec();
        dead.sort_unstable();
        dead.dedup();
        for r in dead {
            groups.push(vec![r]);
        }
        Self::new(n, groups)
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Attach the larger root index under the smaller so group order
            // follows rank order deterministically.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_size_partitions_in_rank_order() {
        let p = GroupPlan::by_size(8, 4);
        assert_eq!(p.groups(), &[vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
        assert_eq!(p.group_of(5), 1);
    }

    #[test]
    fn by_size_handles_remainders_and_degenerate_sizes() {
        let p = GroupPlan::by_size(7, 3);
        assert_eq!(p.groups(), &[vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
        let all = GroupPlan::by_size(4, 100);
        assert_eq!(all.group_count(), 1);
        let ones = GroupPlan::by_size(3, 0);
        assert_eq!(ones.group_count(), 3, "size 0 clamps to 1");
    }

    #[test]
    #[should_panic(expected = "in two groups")]
    fn duplicate_rank_rejected() {
        GroupPlan::new(3, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "no checkpoint group")]
    fn missing_rank_rejected() {
        GroupPlan::new(3, vec![vec![0, 1]]);
    }

    #[test]
    fn dynamic_finds_communication_closures() {
        // 8 ranks: pairs (0,1)(2,3)(4,5)(6,7) talk heavily; a whisper of
        // cross-pair traffic must not merge them.
        let n = 8u32;
        let mut traffic = vec![Vec::new(); 8];
        for base in [0u32, 2, 4, 6] {
            traffic[base as usize].push((base + 1, 1000, 1 << 20));
        }
        traffic[0].push((7, 3, 100)); // infrequent
        let p = GroupPlan::dynamic(n, &traffic, 0.1, 4, 6);
        assert_eq!(
            p.groups(),
            &[vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]],
            "closures follow frequent edges only"
        );
    }

    #[test]
    fn dynamic_transitivity_chains_groups() {
        // 0-1, 1-2 heavy: closure {0,1,2}; 3 isolated.
        let mut traffic = vec![Vec::new(); 4];
        traffic[0].push((1, 500, 0));
        traffic[1].push((2, 500, 0));
        let p = GroupPlan::dynamic(4, &traffic, 0.5, 2, 4);
        assert_eq!(p.groups(), &[vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn dynamic_falls_back_on_global_patterns() {
        // All-to-all equal traffic: one global closure → fallback static 2.
        let n = 6u32;
        let mut traffic = vec![Vec::new(); 6];
        for a in 0..6u32 {
            for b in 0..6u32 {
                if a != b {
                    traffic[a as usize].push((b, 100, 0));
                }
            }
        }
        let p = GroupPlan::dynamic(n, &traffic, 0.5, 2, 4);
        assert_eq!(p.group_count(), 3);
        assert_eq!(p.groups()[0], vec![0, 1]);
    }

    #[test]
    fn dynamic_no_traffic_uses_fallback() {
        let traffic = vec![Vec::new(); 4];
        let p = GroupPlan::dynamic(4, &traffic, 0.5, 2, 4);
        assert_eq!(p.groups(), &[vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn map_round_trip() {
        // What a rank reads out of the plan payload is the plan's own map.
        let p = GroupPlan::by_size(6, 2).reform(&[3]);
        let map = crate::proto::decode_plan(crate::proto::encode_plan(p.group_map())).unwrap();
        assert_eq!(map.group_count(), p.group_count());
        for r in 0..6 {
            assert_eq!(map.group_of(r), p.group_of(r), "rank {r}");
        }
    }

    #[test]
    fn reform_strikes_dead_ranks_into_singletons() {
        let p = GroupPlan::by_size(8, 4);
        let r = p.reform(&[1, 4, 5]);
        assert_eq!(r.groups(), &[vec![0, 2, 3], vec![6, 7], vec![1], vec![4], vec![5]]);
        assert_eq!(r.group_of(6), 1);
        assert_eq!(r.group_of(1), 2, "dead ranks trail in rank order");
    }

    #[test]
    fn reform_drops_fully_dead_groups_and_is_identity_when_no_failures() {
        let p = GroupPlan::by_size(6, 2);
        assert_eq!(p.reform(&[]), p);
        let r = p.reform(&[2, 3]);
        assert_eq!(r.groups(), &[vec![0, 1], vec![4, 5], vec![2], vec![3]]);
    }

    #[test]
    fn regular_formation_is_one_group() {
        let p = GroupPlan::from_formation(32, &Formation::regular(32), None);
        assert_eq!(p.group_count(), 1);
        assert_eq!(p.members(0).len(), 32);
    }
}
