//! The workspace's one graph kernel: a compressed-sparse-row table
//! ([`Csr`]) and Tarjan's strongly connected components ([`scc`]), which
//! come back as a [`Csr`] of members too. `casekit-core`'s argument
//! graph and its CK002 lint, the attack relation and condensation of
//! [`crate::af`], and the transitions of [`crate::ltl::CsrKripke`] are
//! all built from these two pieces.

/// A compressed sparse row table: row `r` is
/// `entries[offsets[r]..offsets[r + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    entries: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Groups `(row, entry)` pairs into `rows` rows by counting sort in
    /// O(rows + pairs). Each row keeps its entries in iteration order.
    ///
    /// # Panics
    ///
    /// Panics if a row is `>= rows` or there are more than `u32::MAX`
    /// pairs.
    pub fn from_pairs<I>(rows: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let mut offsets = vec![0u32; rows + 1];
        let mut total = 0usize;
        for (r, _) in pairs.clone() {
            offsets[r + 1] += 1;
            total += 1;
        }
        assert!(total <= u32::MAX as usize, "more than u32::MAX CSR entries");
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        // Every slot is overwritten below; the first entry only fills
        // the allocation, so `T` needs no `Default`.
        let mut entries = match pairs.clone().next() {
            Some((_, first)) => vec![first; total],
            None => Vec::new(),
        };
        let mut cursor = offsets.clone();
        for (r, entry) in pairs {
            entries[cursor[r] as usize] = entry;
            cursor[r] += 1;
        }
        Csr { offsets, entries }
    }
}

impl<T> Csr<T> {
    /// The entries of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.entries[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Tarjan's strongly connected components ("Depth-first search and
/// linear graph algorithms", SIAM J. Comput. 1972) of the graph whose
/// vertices are `graph`'s rows and whose edges are the entries that
/// `edge` maps to `Some(target)`. Row `c` of the result lists the
/// vertices of component `c`, ascending.
///
/// Components are numbered sources-first: every edge stays in its
/// component or goes to a higher-numbered one, so an ascending walk is
/// a topological order and a descending walk reaches every vertex's
/// successors before the vertex. The search takes roots in ascending
/// order and each row in entry order, so the numbering depends on the
/// table alone. It keeps a `(vertex, next entry)` frame stack instead of
/// recursing, so a 10^5-vertex chain fits a 2 MiB worker stack, and
/// allocates nothing per frame. O(V + E).
pub fn scc<T>(graph: &Csr<T>, edge: impl Fn(&T) -> Option<usize>) -> Csr<usize> {
    const UNSET: usize = usize::MAX;
    let n = graph.rows();
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    // Tarjan emits a component after every component it reaches, so
    // emission numbers run sinks-first. A visited vertex not yet
    // emitted is on `stack`.
    let mut comp_of = vec![UNSET; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0;
    let mut emitted = 0;
    for root in 0..n {
        if index[root] == UNSET {
            frames.push((root, 0));
        }
        while let Some(frame) = frames.last_mut() {
            let (v, pos) = *frame;
            if pos == 0 {
                // A frame's first step numbers its vertex; each vertex
                // gets exactly one frame, pushed while still unnumbered.
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
            }
            if let Some(entry) = graph.row(v).get(pos) {
                frame.1 += 1;
                let Some(w) = edge(entry) else { continue };
                if index[w] == UNSET {
                    frames.push((w, 0));
                } else if comp_of[w] == UNSET {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("v's component is on the stack");
                    comp_of[w] = emitted;
                    if w == v {
                        break;
                    }
                }
                emitted += 1;
            }
        }
    }
    for c in &mut comp_of {
        *c = emitted - 1 - *c;
    }
    Csr::from_pairs(emitted, comp_of.iter().enumerate().map(|(v, &c)| (c, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> Csr<usize> {
        Csr::from_pairs(n, edges.iter().copied())
    }

    #[test]
    fn rows_keep_insertion_order() {
        let csr = Csr::from_pairs(4, [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (2, 'e')]);
        let rows: Vec<&[char]> = (0..csr.rows()).map(|r| csr.row(r)).collect();
        let expected: [&[char]; 4] = [&['b', 'd'], &[], &['a', 'c', 'e'], &[]];
        assert_eq!(rows, expected);
        let empty: Csr<u8> = Csr::from_pairs(3, []);
        assert!(empty.rows() == 3 && (0..3).all(|r| empty.row(r).is_empty()));
    }

    #[test]
    fn components_are_numbered_sources_first() {
        // 0 <-> 1 -> 2 -> (3 <-> 4); 5 is isolated.
        let edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3)];
        let comps = scc(&graph(6, &edges), |&t| Some(t));
        // The DFS from 0 emits {3,4}, {2}, {0,1}; the root 5 emits {5}.
        let order: Vec<&[usize]> = (0..comps.rows()).map(|c| comps.row(c)).collect();
        let expected: [&[usize]; 4] = [&[5], &[0, 1], &[2], &[3, 4]];
        assert_eq!(order, expected);
        let comp_of = |v| (0..comps.rows()).find(|&c| comps.row(c).contains(&v));
        for &(a, b) in &edges {
            assert!(comp_of(a) <= comp_of(b), "{a}->{b}");
        }
        // Entries mapped to `None` are not edges.
        let one_way = scc(&graph(2, &[(0, 1), (1, 0)]), |&t| (t == 1).then_some(t));
        assert_eq!(one_way.rows(), 2);
        assert_eq!(scc(&graph(0, &[]), |&t| Some(t)).rows(), 0);
    }

    #[test]
    fn long_chain_and_long_cycle_fit_a_worker_stack() {
        const N: usize = 100_000;
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut edges: Vec<(usize, usize)> = (1..N).map(|i| (i - 1, i)).collect();
                let chain = scc(&graph(N, &edges), |&t| Some(t));
                assert!(chain.rows() == N && (0..N).all(|v| chain.row(v) == [v]));
                edges.push((N - 1, 0));
                let cycle = scc(&graph(N, &edges), |&t| Some(t));
                assert!(cycle.rows() == 1 && cycle.row(0).len() == N);
            })
            .expect("spawn test thread")
            .join()
            .expect("chain and cycle condense");
    }
}
