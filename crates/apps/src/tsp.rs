//! TSP — branch-and-bound minimum-cost tour (the TreadMarks demo app).
//!
//! A task queue of tour prefixes is generated up front; processors pop
//! prefixes under a queue lock and solve each by depth-first search with
//! pruning against a shared best bound (updated under its own lock, read
//! optimistically during search). This is the paper's "reasonably good
//! speedup" application: coarse tasks, tiny shared state, migratory locks.

use crate::framework::{Alloc, Ctx, Program, Workload};

/// Lock protecting the task queue head.
const QUEUE_LOCK: u32 = 0;
/// Lock protecting the best-tour bound.
const BEST_LOCK: u32 = 1;
/// Cycles of local work per DFS tree node (distance lookups, bound math).
const NODE_COMPUTE: u64 = 420;
/// DFS nodes between optimistic re-reads of the shared bound.
const BOUND_CHECK_STRIDE: u64 = 32;

/// TSP configuration.
#[derive(Debug, Clone)]
pub struct Tsp {
    /// Number of cities.
    pub cities: usize,
    /// Tour-prefix length used to generate the task queue.
    pub prefix_depth: usize,
    /// Workload RNG seed (city coordinates).
    pub seed: u64,
}

impl Default for Tsp {
    /// Scaled-down default: 10 cities (the paper solves 18).
    fn default() -> Self {
        Tsp {
            cities: 11,
            prefix_depth: 3,
            seed: 0x7597,
        }
    }
}

impl Tsp {
    /// The paper's problem size: an 18-city tour.
    pub fn paper() -> Self {
        Tsp {
            cities: 18,
            prefix_depth: 3,
            ..Self::default()
        }
    }

    /// Deterministic integer distance matrix from random plane coordinates.
    fn distances(&self) -> Vec<Vec<u32>> {
        let pts = crate::rng::plane_points(&mut crate::rng::seeded(self.seed), self.cities, 1000.0);
        (0..self.cities)
            .map(|i| {
                (0..self.cities)
                    .map(|j| {
                        let dx = pts[i].0 - pts[j].0;
                        let dy = pts[i].1 - pts[j].1;
                        (dx * dx + dy * dy).sqrt() as u32
                    })
                    .collect()
            })
            .collect()
    }

    /// Enumerates all tour prefixes of length `prefix_depth + 1` starting at
    /// city 0 (the task list; identical on every processor).
    fn tasks(&self) -> Vec<Vec<u8>> {
        let mut tasks = Vec::new();
        let mut prefix = vec![0u8];
        self.gen_tasks(&mut prefix, &mut tasks);
        tasks
    }

    fn gen_tasks(&self, prefix: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
        if prefix.len() == self.prefix_depth + 1 {
            out.push(prefix.clone());
            return;
        }
        for c in 1..self.cities as u8 {
            if !prefix.contains(&c) {
                prefix.push(c);
                self.gen_tasks(prefix, out);
                prefix.pop();
            }
        }
    }

    /// Reference sequential solution (for tests).
    pub fn solve_reference(&self) -> u32 {
        let dist = self.distances();
        let mut best = u32::MAX;
        let mut visited = vec![false; self.cities];
        visited[0] = true;
        let mut order = vec![0u8];
        Self::dfs_ref(&dist, &mut visited, &mut order, 0, &mut best);
        best
    }

    fn dfs_ref(
        dist: &[Vec<u32>],
        visited: &mut [bool],
        order: &mut Vec<u8>,
        cost: u32,
        best: &mut u32,
    ) {
        let n = dist.len();
        if cost >= *best {
            return;
        }
        if order.len() == n {
            let total = cost + dist[*order.last().unwrap() as usize][0];
            *best = (*best).min(total);
            return;
        }
        for c in 1..n {
            if !visited[c] {
                let last = *order.last().unwrap() as usize;
                visited[c] = true;
                order.push(c as u8);
                Self::dfs_ref(dist, visited, order, cost + dist[last][c], best);
                order.pop();
                visited[c] = false;
            }
        }
    }
}

/// Shared layout.
struct Layout {
    best: u64,
    queue_head: u64,
    tasks: u64,
    task_stride: u64,
}

impl Layout {
    fn new(cities: usize, ntasks: usize) -> Self {
        let mut a = Alloc::new();
        let best = a.array_u32(1);
        let queue_head = a.array_u32(1);
        let task_stride = (cities as u64 + 2) * 4;
        let tasks = a.bytes(task_stride * ntasks as u64, 4096);
        Layout {
            best,
            queue_head,
            tasks,
            task_stride,
        }
    }

    fn task_addr(&self, idx: u64) -> u64 {
        self.tasks + idx * self.task_stride
    }
}

impl Workload for Tsp {
    fn name(&self) -> &'static str {
        "TSP"
    }

    /// The shared bound is re-read optimistically during the DFS (the
    /// TreadMarks TSP's deliberate benign race): stale values only weaken
    /// pruning — the bound decreases monotonically and all updates hold
    /// `BEST_LOCK` — so the word is exempt from race detection.
    fn racy_ranges(&self) -> Vec<std::ops::Range<u64>> {
        let lay = Layout::new(self.cities, self.tasks().len());
        let best = lay.best..lay.best + 4;
        vec![best]
    }

    fn run<'a>(&'a self, ctx: &'a mut Ctx) -> Program<'a> {
        Box::pin(self.program(ctx))
    }
}

impl Tsp {
    /// The per-processor program behind [`Workload::run`].
    async fn program(&self, ctx: &Ctx) -> u64 {
        let dist = self.distances();
        let tasks = self.tasks();
        let lay = Layout::new(self.cities, tasks.len());
        if ctx.pid == 0 {
            ctx.write_u32(lay.best, u32::MAX).await;
            ctx.write_u32(lay.queue_head, 0).await;
            for (i, t) in tasks.iter().enumerate() {
                let base = lay.task_addr(i as u64);
                ctx.write_u32(base, t.len() as u32).await;
                for (j, &c) in t.iter().enumerate() {
                    ctx.write_u32(base + 4 * (1 + j as u64), c as u32).await;
                }
            }
        }
        ctx.barrier().await;
        loop {
            // Pop one prefix task.
            ctx.lock(QUEUE_LOCK).await;
            let head = ctx.read_u32(lay.queue_head).await;
            let got = if (head as usize) < tasks.len() {
                ctx.write_u32(lay.queue_head, head + 1).await;
                true
            } else {
                false
            };
            ctx.unlock(QUEUE_LOCK).await;
            if !got {
                break;
            }
            // Read the prefix back from shared memory (it migrated here).
            let base = lay.task_addr(head as u64);
            let len = ctx.read_u32(base).await as usize;
            let mut order: Vec<u8> = Vec::with_capacity(self.cities);
            for j in 0..len as u64 {
                order.push(ctx.read_u32(base + 4 * (1 + j)).await as u8);
            }
            let mut visited = vec![false; self.cities];
            let mut cost = 0u32;
            for w in order.windows(2) {
                cost += dist[w[0] as usize][w[1] as usize];
            }
            for &c in &order {
                visited[c as usize] = true;
            }
            self.dfs_shared(ctx, &lay, &dist, &mut visited, &mut order, cost)
                .await;
        }
        ctx.barrier().await;
        if ctx.pid == 0 {
            ctx.read_u32(lay.best).await as u64
        } else {
            0
        }
    }
}

/// A processor's view of the shared bound during one task's search.
struct Search {
    /// The bound as last read.
    bound: u32,
    /// DFS nodes entered since the last re-read.
    since_check: u64,
    /// Compute cycles not yet issued.
    pending: u64,
}

impl Tsp {
    /// DFS with pruning against the shared bound. Compute cycles are
    /// batched; the bound is re-read optimistically every few nodes. The
    /// search keeps an explicit stack of the nodes being expanded (an
    /// async recursion would box a future per search node).
    async fn dfs_shared(
        &self,
        ctx: &Ctx,
        lay: &Layout,
        dist: &[Vec<u32>],
        visited: &mut [bool],
        order: &mut Vec<u8>,
        cost: u32,
    ) {
        let n = self.cities;
        let mut s = Search {
            bound: ctx.read_u32(lay.best).await,
            since_check: 0,
            pending: 0,
        };
        // The nodes being expanded, root first: (cost so far, next city
        // to try). Every node but the root added the last city of `order`.
        let mut stack = Vec::with_capacity(n);
        if self.enter(ctx, lay, dist, order, cost, &mut s).await {
            stack.push((cost, 1));
        }
        while let Some(top) = stack.last_mut() {
            let (cost, c) = *top;
            if c == n {
                stack.pop();
                if !stack.is_empty() {
                    let city = order.pop().expect("tour") as usize;
                    visited[city] = false;
                }
                continue;
            }
            top.1 += 1;
            if visited[c] {
                continue;
            }
            let last = *order.last().expect("tour") as usize;
            visited[c] = true;
            order.push(c as u8);
            let cost = cost + dist[last][c];
            if self.enter(ctx, lay, dist, order, cost, &mut s).await {
                stack.push((cost, 1));
            } else {
                order.pop();
                visited[c] = false;
            }
        }
        ctx.compute(s.pending).await;
    }

    /// Enters the search node reached by `order` at `cost`: charges its
    /// work, re-reads the bound when due, and records a complete tour that
    /// beats the bound. Returns whether the node's children are to be
    /// searched.
    async fn enter(
        &self,
        ctx: &Ctx,
        lay: &Layout,
        dist: &[Vec<u32>],
        order: &[u8],
        cost: u32,
        s: &mut Search,
    ) -> bool {
        s.pending += NODE_COMPUTE;
        s.since_check += 1;
        if s.since_check >= BOUND_CHECK_STRIDE {
            s.since_check = 0;
            ctx.compute(std::mem::take(&mut s.pending)).await;
            s.bound = ctx.read_u32(lay.best).await;
        }
        if cost >= s.bound {
            return false;
        }
        if order.len() < self.cities {
            return true;
        }
        let total = cost + dist[*order.last().expect("tour") as usize][0];
        if total < s.bound {
            ctx.compute(std::mem::take(&mut s.pending)).await;
            ctx.lock(BEST_LOCK).await;
            let cur = ctx.read_u32(lay.best).await;
            if total < cur {
                ctx.write_u32(lay.best, total).await;
            }
            ctx.unlock(BEST_LOCK).await;
            s.bound = s.bound.min(total);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_generation_covers_prefixes() {
        let tsp = Tsp {
            cities: 6,
            prefix_depth: 2,
            seed: 1,
        };
        let tasks = tsp.tasks();
        // 5 * 4 length-3 prefixes starting at city 0.
        assert_eq!(tasks.len(), 20);
        assert!(tasks.iter().all(|t| t.len() == 3 && t[0] == 0));
        let mut uniq = tasks.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 20);
    }

    #[test]
    fn distances_are_symmetric_with_zero_diagonal() {
        let tsp = Tsp::default();
        let d = tsp.distances();
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row[i], 0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, d[j][i]);
            }
        }
    }

    #[test]
    fn reference_solver_finds_a_plausible_tour() {
        let tsp = Tsp {
            cities: 7,
            prefix_depth: 2,
            seed: 3,
        };
        let best = tsp.solve_reference();
        assert!(best > 0 && best < u32::MAX);
        // Greedy nearest-neighbour is an upper bound.
        let d = tsp.distances();
        let mut cur = 0usize;
        let mut seen = [false; 7];
        seen[0] = true;
        let mut greedy = 0u32;
        for _ in 1..7 {
            let next = (0..7)
                .filter(|&j| !seen[j])
                .min_by_key(|&j| d[cur][j])
                .unwrap();
            greedy += d[cur][next];
            seen[next] = true;
            cur = next;
        }
        greedy += d[cur][0];
        assert!(best <= greedy);
    }
}
